"""Kernel functions shared by the support vector models.

Four families: linear ``a.b``, polynomial ``(1 + a.b/c)^d``, radial basis
``exp(-|a-b|^2 / sigma^2)`` and the tanh unit ``tanh(k a.b + theta)``.
The tanh kernel is not positive semidefinite in general; the solvers that
accept it treat it as-is.  A kernel is one ``KernelSpec``, built by naming
its kind and fields, e.g. ``KernelSpec("poly", degree=3)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .timeseries import as_rows, as_vector

KERNEL_KINDS = ("linear", "poly", "rbf", "mlp")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family plus its parameters.

    Only the fields relevant to ``kind`` are read and checked; the rest
    keep their defaults.
    """

    kind: str
    degree: int = 2
    poly_c: float = 1.0
    sigma: float = 1.0
    mlp_k: float = 1.0
    mlp_theta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poly":
            if self.degree < 1:
                raise DomainError(f"polynomial degree must be >= 1, got {self.degree}")
            if not 0.0 < self.poly_c < math.inf:
                raise DomainError(f"polynomial offset must be finite and > 0, got {self.poly_c}")
        if self.kind == "rbf":
            if not (self.sigma > 0.0 and self.sigma * self.sigma > 0.0):
                # the kernels divide by sigma^2, which underflows to 0 below about 1.6e-162
                raise DomainError(f"rbf width must be > 0 with a nonzero square, got {self.sigma}")
            if not self.sigma * self.sigma < math.inf:
                # above about 1.3e154 sigma^2 is inf and every entry exp(-0) = 1
                raise DomainError(f"rbf width must have a finite square, got {self.sigma}")
        if self.kind == "mlp" and not (math.isfinite(self.mlp_k) and math.isfinite(self.mlp_theta)):
            raise DomainError(
                f"tanh kernel slope and offset must be finite, got {self.mlp_k}, {self.mlp_theta}"
            )


def kernel_column(spec: KernelSpec, rows: np.ndarray, x) -> np.ndarray:
    """Vector of K(rows[i], x) for every row, computed vectorized."""
    rows = as_rows(rows)
    x = as_vector(x, rows.shape[1], name="point")
    if spec.kind == "linear":
        return rows @ x
    if spec.kind == "poly":
        return (1.0 + (rows @ x) / spec.poly_c) ** spec.degree
    if spec.kind == "rbf":
        diff = rows - x
        return np.exp(-np.sum(diff * diff, axis=1) / (spec.sigma * spec.sigma))
    return np.tanh(spec.mlp_k * (rows @ x) + spec.mlp_theta)


def expansion(spec: KernelSpec, rows: np.ndarray, coefs: np.ndarray, bias: float, inputs) -> np.ndarray:
    """The kernel expansion sum_i coefs[i] K(rows[i], x) plus the bias, for
    each row x of inputs, one kernel column at a time.

    Raises DomainError, naming the kernel, when a column entry or a sum
    overflows or is otherwise not finite.
    """
    rows = as_rows(rows)
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x in as_rows(inputs, rows.shape[1]):
            col = kernel_column(spec, rows, x)
            if not np.all(np.isfinite(col)):
                raise DomainError(f"{spec.kind} kernel column has non-finite entries")
            values.append(float(coefs @ col + bias))
            if not math.isfinite(values[-1]):
                raise DomainError(f"{spec.kind} kernel expansion overflows float64")
    return np.array(values)


def gram(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """The n x n kernel matrix over the rows.

    Each unordered pair is evaluated once and mirrored, so the result is
    symmetric by construction.  Raises DomainError, naming the kernel,
    when an entry overflows or is otherwise not finite.
    """
    rows = as_rows(rows)
    n = rows.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            col = kernel_column(spec, rows[i:], rows[i])
            out[i, i:] = col
            out[i:, i] = col
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{spec.kind} kernel matrix has non-finite entries")
    return out


def median_pairwise_distance(rows: np.ndarray) -> float:
    """Median Euclidean distance over all unordered row pairs.

    The usual width heuristic for the rbf kernel.  Falls back to 1.0 when
    every pair coincides.
    """
    rows = as_rows(rows)
    n = rows.shape[0]
    if n < 2:
        raise DomainError("need at least two rows")
    d2 = gram_sq_dists(rows)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of a and every row of
    b, (n, m), summed from the differences: never negative."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


def gaussian_weights(points: np.ndarray, rows: np.ndarray, betas) -> np.ndarray:
    """exp(-betas * |x - row|^2) for each point x (one row of the result)
    and each row, divided by the point's largest weight so that the
    weights cannot all underflow to zero.  betas is one sharpness or one
    per row.  An exponent that overflows gives a weight of 0; raises
    DomainError when every exponent of a point overflows.
    """
    with np.errstate(over="ignore"):
        e = -betas * sq_dists(points, rows)
    top = e.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise DomainError("an input is too far from every stored row: the exponents overflow")
    return np.exp(e - top)


def gram_sq_dists(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every pair of rows, (n, n), from
    one matrix product as |a|^2 + |b|^2 - 2 a.b.  Rounding can leave small
    negative entries, the diagonal included."""
    sq = np.sum(rows * rows, axis=1)
    return sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
