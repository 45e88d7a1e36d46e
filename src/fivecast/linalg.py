"""Dense linear solve used by the model fitters.

``solve`` is Gaussian elimination with partial pivoting.  Each step
subtracts multiples of the pivot row from the trailing rows in blocks of
``_ROW_BLOCK`` rows, which bounds the temporary the update needs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError, SingularError

PIVOT_TOL = 1e-12
_ROW_BLOCK = 64


def _eliminate(a: np.ndarray, b: np.ndarray) -> int:
    # In-place elimination on copies owned by the caller. Returns 0 on
    # success, k+1 when column k has no pivot above PIVOT_TOL.
    n = b.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < PIVOT_TOL:
            return k + 1
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        for start in range(k + 1, n, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            lam = a[rows, k] / a[k, k]
            if not lam.all():
                # rows with a zero multiplier stay untouched, so no signed
                # zero or non-finite pivot-row entry reaches them
                keep = np.flatnonzero(lam)
                rows = start + keep
                lam = lam[keep]
            a[rows, k:] -= lam[:, None] * a[k, k:]
            b[rows] -= lam * b[k]
    for k in range(n - 1, -1, -1):
        b[k] = (b[k] - np.dot(a[k, k + 1 :], b[k + 1 :])) / a[k, k]
    return 0


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got ndim={arr.ndim}")
    return arr


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D array, got ndim={arr.ndim}")
    return arr


def solve(a, b) -> np.ndarray:
    """Solve the square system a @ x = b.

    Raises SingularError when some pivot column has no entry of magnitude
    at least 1e-12 after row exchange.
    """
    a = _as_matrix(a)
    b = _as_vector(b)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix is {a.shape} but rhs has length {b.shape[0]}")
    if a.shape[0] == 0:
        raise ShapeError("system is empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("system entries must be finite")
    work_a = a.copy()
    work_b = b.copy()
    status = _eliminate(work_a, work_b)
    if status != 0:
        raise SingularError(f"no usable pivot in column {status - 1}")
    return work_b
