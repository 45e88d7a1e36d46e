"""Kernel functions shared by the support vector models.

Four families: linear ``a.b``, polynomial ``(1 + a.b/c)^d``, radial basis
``exp(-|a-b|^2 / sigma^2)`` and the tanh unit ``tanh(k a.b + theta)``.
The tanh kernel is not positive semidefinite in general; the solvers that
accept it treat it as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

KERNEL_KINDS = ("linear", "poly", "rbf", "mlp")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family plus its parameters.

    Only the fields relevant to ``kind`` are read; the rest keep their
    defaults.
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
            if not self.poly_c > 0.0:
                raise DomainError(f"polynomial offset must be > 0, got {self.poly_c}")
        if self.kind == "rbf" and not (self.sigma > 0.0 and self.sigma * self.sigma > 0.0):
            # the kernels divide by sigma^2, which underflows to 0 below about 1.6e-162
            raise DomainError(f"rbf width must be > 0 with a nonzero square, got {self.sigma}")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int, poly_c: float = 1.0) -> "KernelSpec":
        return cls("poly", degree=degree, poly_c=poly_c)

    @classmethod
    def rbf(cls, sigma: float) -> "KernelSpec":
        return cls("rbf", sigma=sigma)

    @classmethod
    def mlp(cls, mlp_k: float = 1.0, mlp_theta: float = 0.0) -> "KernelSpec":
        return cls("mlp", mlp_k=mlp_k, mlp_theta=mlp_theta)


def _vec(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"kernel arguments must be 1-D, got ndim={arr.ndim}")
    return arr


def evaluate(spec: KernelSpec, a, b) -> float:
    """K(a, b) for two equal-length vectors."""
    a = _vec(a)
    b = _vec(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"vectors have lengths {a.shape[0]} and {b.shape[0]}")
    if spec.kind == "linear":
        return float(a @ b)
    if spec.kind == "poly":
        return float((1.0 + (a @ b) / spec.poly_c) ** spec.degree)
    if spec.kind == "rbf":
        d = a - b
        return float(np.exp(-(d @ d) / (spec.sigma * spec.sigma)))
    return float(np.tanh(spec.mlp_k * (a @ b) + spec.mlp_theta))


def kernel_column(spec: KernelSpec, rows: np.ndarray, x) -> np.ndarray:
    """Vector of K(rows[i], x) for every row, computed vectorized."""
    rows = np.asarray(rows, dtype=np.float64)
    x = _vec(x)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got ndim={rows.ndim}")
    if rows.shape[1] != x.shape[0]:
        raise ShapeError(f"rows are {rows.shape} but point has length {x.shape[0]}")
    if spec.kind == "linear":
        return rows @ x
    if spec.kind == "poly":
        return (1.0 + (rows @ x) / spec.poly_c) ** spec.degree
    if spec.kind == "rbf":
        diff = rows - x
        return np.exp(-np.sum(diff * diff, axis=1) / (spec.sigma * spec.sigma))
    return np.tanh(spec.mlp_k * (rows @ x) + spec.mlp_theta)


def expansion(spec: KernelSpec, rows: np.ndarray, coefs: np.ndarray, bias: float, x) -> float:
    """The kernel expansion sum_i coefs[i] K(rows[i], x) plus the bias.

    Raises DomainError, naming the kernel, when a column entry or the
    sum overflows or is otherwise not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        col = kernel_column(spec, rows, x)
        if not np.all(np.isfinite(col)):
            raise DomainError(f"{spec.kind} kernel column has non-finite entries")
        value = float(coefs @ col + bias)
    if not math.isfinite(value):
        raise DomainError(f"{spec.kind} kernel expansion overflows float64")
    return value


def gram(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """The n x n kernel matrix over the rows.

    Each unordered pair is evaluated once and mirrored, so the result is
    symmetric by construction.  Raises DomainError, naming the kernel,
    when an entry overflows or is otherwise not finite.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got ndim={rows.ndim}")
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
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got ndim={rows.ndim}")
    n = rows.shape[0]
    if n < 2:
        raise DomainError("need at least two rows")
    sq = np.sum(rows * rows, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0
