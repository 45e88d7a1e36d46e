"""Dense linear solve used by the model fitters.

``solve`` is Gaussian elimination with partial pivoting, done in panels of
``_PANEL`` columns (the panel/trailing split of LAPACK's blocked LU, with
the unblocked arithmetic).  Within a panel each step searches its pivot,
swaps whole rows and updates the right-hand side and the panel's own
columns at once; it stores its multipliers in the eliminated column, so a
later row swap carries them along with the row's stale trailing entries.
When the panel ends, its pivot rows and then tiles of ``_ROW_BLOCK`` rows
below take the panel's steps in order on the trailing columns, each tile
staying in cache across those steps.  Every entry goes through the same
multiply-then-subtract operations in the same step order as a row-at-a-time
elimination, so the solution is bit-identical to it; a row whose
multiplier is zero is skipped at that step, as there.  No temporary is
larger than ``_ROW_BLOCK`` x n.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError, SingularError
from .timeseries import as_rows, as_vector

PIVOT_TOL = 1e-12
_PANEL = 64
_ROW_BLOCK = 64
# numpy's ufunc buffer size (elements) while eliminating.  Under the
# default of 8192, numpy 2.4 copies the broadcast ``lam[:, None]`` through
# its buffer and ``t -= lam[:, None] * u`` runs 3-4x slower than with a
# buffer below twice a row's length.  Buffering never changes the arithmetic.
_UFUNC_BUFSIZE = 256


def _subtract_steps(a: np.ndarray, rows: slice, steps: range, cols: slice) -> None:
    # a[rows, cols] -= a[rows, t] * a[t, cols] for each t in steps, in
    # order: a[rows, t] holds step t's multipliers and row t is final.
    # Rows whose multiplier is zero stay untouched at that step, so no
    # signed zero or non-finite pivot-row entry reaches them.
    tile = a[rows, cols]
    for t in steps:
        lam = a[rows, t]
        if lam.all():
            tile -= lam[:, None] * a[t, cols]
        else:
            keep = np.flatnonzero(lam)
            a[rows.start + keep, cols] -= lam[keep, None] * a[t, cols]


def _eliminate(a: np.ndarray, b: np.ndarray) -> int:
    # In-place elimination on copies owned by the caller. Returns 0 on
    # success, k+1 when column k has no pivot above PIVOT_TOL.  Leaves the
    # multipliers in the strictly lower part of a.
    n = b.shape[0]
    for p0 in range(0, n, _PANEL):
        p1 = min(p0 + _PANEL, n)
        for k in range(p0, p1):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            if abs(a[p, k]) < PIVOT_TOL:
                return k + 1
            if p != k:
                a[[k, p]] = a[[p, k]]
                b[[k, p]] = b[[p, k]]
            lam = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k] = lam  # column k below the pivot is never read again
            rows = slice(k + 1, n)
            if not lam.all():
                keep = np.flatnonzero(lam)
                rows = k + 1 + keep
                lam = lam[keep]
            a[rows, k + 1 : p1] -= lam[:, None] * a[k, k + 1 : p1]
            b[rows] -= lam * b[k]
        if p1 == n:
            break
        trailing = slice(p1, n)
        for t in range(p0, p1 - 1):
            _subtract_steps(a, slice(t + 1, p1), range(t, t + 1), trailing)
        for start in range(p1, n, _ROW_BLOCK):
            _subtract_steps(a, slice(start, min(start + _ROW_BLOCK, n)), range(p0, p1), trailing)
    for k in range(n - 1, -1, -1):
        b[k] = (b[k] - np.dot(a[k, k + 1 :], b[k + 1 :])) / a[k, k]
    return 0


def solve(a, b) -> np.ndarray:
    """Solve the square system a @ x = b.

    Raises SingularError when some pivot column has no entry of magnitude
    at least 1e-12 after row exchange.
    """
    a = as_rows(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    b = as_vector(b, a.shape[0], name="rhs")
    if a.shape[0] == 0:
        raise ShapeError("system is empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("system entries must be finite")
    work_a = a.copy()
    work_b = b.copy()
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        status = _eliminate(work_a, work_b)
    finally:
        np.setbufsize(bufsize)
    if status != 0:
        raise SingularError(f"no usable pivot in column {status - 1}")
    return work_b
