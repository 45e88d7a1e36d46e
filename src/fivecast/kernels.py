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
from .timeseries import as_count, as_real, as_rows, as_vector, check_real

KERNEL_KINDS = ("linear", "poly", "rbf", "mlp")
# rows of an n-column distance or kernel block built at once: the only
# temporaries are _SQ_BLOCK x n
_SQ_BLOCK = 64


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
            degree = as_count(self.degree, "polynomial degree", 1)
            if not check_real(degree, "polynomial degree") < math.inf:
                # the kernels raise float64 values to it, so it must convert to one
                raise DomainError(f"polynomial degree must be finite as a float64, got {self.degree}")
            as_real(self.poly_c, "polynomial offset", positive=True)
        if self.kind == "rbf":
            sigma = check_real(self.sigma, "rbf width")
            if not (sigma > 0.0 and sigma * sigma > 0.0):
                # the kernels divide by sigma^2, which underflows to 0 below about 1.6e-162
                raise DomainError(f"rbf width must be > 0 with a nonzero square, got {self.sigma}")
            if not sigma * sigma < math.inf:
                # above about 1.3e154 sigma^2 is inf and every entry exp(-0) = 1
                raise DomainError(f"rbf width must have a finite square, got {self.sigma}")
        if self.kind == "mlp":
            k = check_real(self.mlp_k, "tanh kernel slope")
            theta = check_real(self.mlp_theta, "tanh kernel offset")
            if not (math.isfinite(k) and math.isfinite(theta)):
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
        return _rbf_block(spec, x[None, :], rows)[0]
    return np.tanh(spec.mlp_k * (rows @ x) + spec.mlp_theta)


def _rbf_block(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # exp(-|a_i - b_j|^2 / sigma^2) for every row pair, (len(a), len(b)).
    # An entry depends only on its own two rows, and sq_dists sums up to 7
    # columns in np.sum's order, so any block of rows has the bits of one
    # row's column exp(-np.sum((b - a_i)**2, axis=1) / sigma^2).  The steps
    # run in place: fewer block-sized temporaries leave the heap smaller.
    d = sq_dists(a, b)
    np.negative(d, out=d)
    d /= spec.sigma * spec.sigma
    return np.exp(d, out=d)


def expansion(spec: KernelSpec, rows: np.ndarray, coefs: np.ndarray, bias: float, inputs) -> np.ndarray:
    """The kernel expansion sum_i coefs[i] K(rows[i], x) plus the bias, for
    each row x of inputs, one ``coefs @ kernel_column(...) + bias`` per row.

    Raises DomainError, naming the kernel, when a column entry or a sum
    overflows or is otherwise not finite; rows are checked in order, the
    column before its sum.
    """
    rows = as_rows(rows)
    inputs = as_rows(inputs, rows.shape[1])
    values = np.empty(inputs.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(inputs):
            col = kernel_column(spec, rows, x)
            if not np.all(np.isfinite(col)):
                raise DomainError(f"{spec.kind} kernel column has non-finite entries")
            values[i] = coefs @ col + bias
            if not math.isfinite(values[i]):
                raise DomainError(f"{spec.kind} kernel expansion overflows float64")
    return values


def gram(spec: KernelSpec, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The n x n kernel matrix over the rows, written into out when given
    (any float64 (n, n) array or view, as for a numpy ufunc) and returned.

    The rbf kernel fills _SQ_BLOCK rows at a time from their squared
    distances; an entry's squared differences are the same either way
    round, so the matrix is exactly symmetric.  The other kernels evaluate
    each unordered pair once, one row's column at a time, and mirror it,
    since a product's rounding depends on the row's place in the block.
    Raises DomainError, naming the kernel, when an entry overflows or is
    otherwise not finite.
    """
    rows = as_rows(rows)
    n = rows.shape[0]
    if out is None:
        out = np.empty((n, n), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "rbf":
            for i in range(0, n, _SQ_BLOCK):
                out[i : i + _SQ_BLOCK] = _rbf_block(spec, rows[i : i + _SQ_BLOCK], rows)
        else:
            for i in range(n):
                col = kernel_column(spec, rows[i:], rows[i])
                out[i, i:] = col
                out[i:, i] = col
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{spec.kind} kernel matrix has non-finite entries")
    return out


def median_pairwise_distance(rows: np.ndarray) -> float:
    """Median Euclidean distance over all unordered row pairs.

    The usual width heuristic for the rbf kernel.  The middle one or two
    squared distances are found by selection in the n x n distance matrix
    itself: its diagonal is set to +inf, so the n self-distances sort
    last, and the whole matrix is partitioned in place at m = n(n-1)/2.
    The matrix is exactly symmetric, so each pair appears twice, and the
    median of that doubled multiset is the pairs' median: the entry at m
    and the largest entry below it.  Distance is sqrt(max(d2, 0)), a
    non-decreasing map, so theirs are the middle distances, and their
    mean (lo + hi) / 2 is np.median's over the pairs, bit for bit.  Falls
    back to 1.0 when every pair coincides or when a squared distance is
    NaN (rows whose squares overflow).
    """
    rows = as_rows(rows)
    n = rows.shape[0]
    if n < 2:
        raise DomainError("need at least two rows")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = gram_sq_dists(rows)
    np.fill_diagonal(d2, np.inf)
    if np.isnan(d2.max()):
        return 1.0
    flat = d2.reshape(-1)
    half = n * (n - 1) // 2
    flat.partition(half)  # one kth: numpy partitions at two several times slower
    lo, hi = np.sqrt(np.maximum([flat[:half].max(), flat[half]], 0.0))
    med = float((lo + hi) / 2)
    return med if med > 0.0 else 1.0


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of a and every row of
    b, (n, m), summed from the differences: never negative.

    The columns' squared differences are summed left to right, one (n, m)
    block at a time, in the result and one scratch block.  numpy sums
    fewer than 8 terms in that order too, so up to 7 columns this equals
    np.sum(diff * diff, axis=2) over the (n, m, d) differences bit for
    bit; from 8 columns the last bit may differ from that form.
    """
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    out = np.subtract(a[:, 0, None], b[:, 0])
    out *= out
    diff = np.empty_like(out)
    for j in range(1, a.shape[1]):
        np.subtract(a[:, j, None], b[:, j], out=diff)
        diff *= diff
        out += diff
    return out


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
    one matrix product as (|a|^2 + |b|^2) - 2 a.b.  Rounding can leave small
    negative entries, the diagonal included.

    The product is doubled in place and each block of _SQ_BLOCK rows is
    overwritten with the distances, so the only n x n array is the
    result; every entry takes the same operations as the whole-matrix
    expression, bit for bit.
    """
    sq = np.sum(rows * rows, axis=1)
    out = rows @ rows.T
    out *= 2.0
    for i in range(0, out.shape[0], _SQ_BLOCK):
        block = out[i : i + _SQ_BLOCK]
        np.subtract(sq[i : i + _SQ_BLOCK, None] + sq[None, :], block, out=block)
    return out
