"""Least squares support vector machine for regression.

Equality constraints replace the inequality pair of classic SVR, so
fitting reduces to one square linear system over the bias and the dual
coefficients:

    | 0   1'              |  | bias |     | 0 |
    | 1   K + I / gamma   |  | coef |  =  | y |

solved by the package's pivoted elimination.  The kernel matrix is
written straight into the system's lower-right block and the ridge
``1 / gamma`` added to its diagonal in place, so the system and the
elimination's working copy are the only n x n arrays.  The model keeps
the max-norm residual of that one solve.  Prediction is the kernel
expansion plus the bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError
from .kernels import KernelSpec, expansion, gram
from .timeseries import as_real, as_samples


@dataclass(frozen=True)
class LssvmModel:
    kernel: KernelSpec
    inputs: np.ndarray
    coefs: np.ndarray  # one per training sample, sums to ~0
    bias: float
    kkt_residual: float  # max-norm residual of the solved system


def fit(inputs, targets, kernel: KernelSpec, gamma: float = 100.0) -> LssvmModel:
    """Assemble and solve the saddle-point system."""
    x, y = as_samples(inputs, targets)
    n = x.shape[0]
    if not 1.0 / as_real(gamma, "gamma", positive=True) < math.inf:
        raise DomainError(f"gamma must have a finite reciprocal, got {gamma}")
    a = np.zeros((n + 1, n + 1))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    # K + I / gamma, built in the block that keeps it: adding 0.0 turns a
    # kernel's -0.0 into +0.0, as adding the identity's zeros did
    block = gram(kernel, x, out=a[1:, 1:])
    block += 0.0
    diag = np.arange(n)
    block[diag, diag] += 1.0 / float(gamma)
    rhs = np.zeros(n + 1)
    rhs[1:] = y
    sol = linalg.solve(a, rhs)
    return LssvmModel(
        kernel=kernel,
        inputs=x.copy(),
        coefs=sol[1:],
        bias=float(sol[0]),
        kkt_residual=float(np.max(np.abs(a @ sol - rhs))),
    )


def predict_batch(model: LssvmModel, inputs) -> np.ndarray:
    """Kernel expansion over the training rows plus the bias, per input row."""
    return expansion(model.kernel, model.inputs, model.coefs, model.bias, inputs)
