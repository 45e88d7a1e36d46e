"""Dense linear solve used by the model fitters.

``solve`` is Gaussian elimination with partial pivoting, done in panels of
``_PANEL`` columns (the panel/trailing split of LAPACK's blocked LU, with
the unblocked arithmetic), then back substitution.  The right-hand side
is one more trailing column of the working copy, so it takes every row
exchange and every step as the matrix's trailing columns do.  A panel is
factored in a transposed contiguous copy, where each step's column is
one contiguous row: each step searches its pivot, swaps the two rows
(columns of the copy, plus the rows' parts left and right of the panel)
and updates the panel's own columns at once; it stores its multipliers
in the eliminated column, so a later row swap carries them along with
the row's stale trailing entries.  The copy is written back once the
panel ends; then its pivot rows and then tiles of ``_ROW_BLOCK`` rows
below take the panel's steps in order on the trailing columns, each tile
staying in cache across those steps.  The tiles share no row, so threads
share them: the calling thread and one helper per further CPU the
process may use (``os.sched_getaffinity``) each claim the next tile
until none is left, and numpy's ufuncs release the GIL while they update
it.  Every entry goes through the same multiply-then-subtract operations
in the same step order as a row-at-a-time elimination, whichever thread
runs its tile, so the solution is bit-identical to it on any number of
CPUs.  Every row takes every step: a row whose multiplier is zero takes
``x - 0*u`` like any other, so an exact -0.0 there may become +0.0.
The elimination calls no BLAS, and the command line pins BLAS to one
thread for the back substitution's dot products, so a command's bytes
depend neither on the core count nor on the BLAS thread count.  No
temporary is larger than ``_ROW_BLOCK`` x n per thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

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


# Threads that share a panel's trailing tiles: the caller and one helper
# per further CPU this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _subtract_steps(a: np.ndarray, rows: slice, steps: range, cols: slice) -> None:
    # a[rows, cols] -= a[rows, t] * a[t, cols] for each t in steps, in
    # order: a[rows, t] holds step t's multipliers and row t is final.
    tile = a[rows, cols]
    for t in steps:
        tile -= a[rows, t, None] * a[t, cols]


def _eliminate(a: np.ndarray) -> int | None:
    # In-place elimination of an (n, n + 1) copy owned by the caller, whose
    # last column is the right-hand side: it takes every step as one more
    # trailing column.  Returns the first column with no pivot above
    # PIVOT_TOL, or None.  Leaves the multipliers in the strictly lower
    # part of a, each in the row its own row ends up in.
    n = a.shape[0]
    for p0 in range(0, n, _PANEL):
        p1 = min(p0 + _PANEL, n)
        # the panel a[p0:, p0:p1], transposed and contiguous: step k's
        # column is row k - p0 of pt, and a row of a is a column of pt
        pt = a[p0:, p0:p1].T.copy()
        for c in range(p1 - p0):
            k = p0 + c
            q = c + int(np.argmax(np.abs(pt[c, c:])))
            if abs(pt[c, q]) < PIVOT_TOL:
                return k
            p = p0 + q
            if p != k:
                pt[:, [c, q]] = pt[:, [q, c]]
                a[[k, p], :p0] = a[[p, k], :p0]
                a[[k, p], p1:] = a[[p, k], p1:]
            lam = pt[c, c + 1 :] / pt[c, c]
            pt[c, c + 1 :] = lam  # column k below the pivot is never read again
            pt[c + 1 :, c + 1 :] -= pt[c + 1 :, c, None] * lam
        a[p0:, p0:p1] = pt.T
        trailing = slice(p1, a.shape[1])
        for t in range(p0, p1 - 1):
            _subtract_steps(a, slice(t + 1, p1), range(t, t + 1), trailing)
        _share_tiles(a, range(p1, n, _ROW_BLOCK), range(p0, p1), trailing)
    return None


def _share_tiles(a: np.ndarray, starts: range, steps: range, cols: slice) -> None:
    # _subtract_steps on the tile of _ROW_BLOCK rows at each start, by the
    # calling thread and one helper per further usable CPU, each claiming
    # the next tile until none is left.  Each helper runs in a copy of the
    # caller's context, which holds numpy's error state and ufunc buffer
    # size.  No helper outlives the call, and the first exception of any
    # worker is raised once all are done.
    claims = iter(starts)
    lock = threading.Lock()
    errors = []

    def work() -> None:
        try:
            while True:
                with lock:
                    start = next(claims, None)
                if start is None:
                    return
                _subtract_steps(a, slice(start, min(start + _ROW_BLOCK, a.shape[0])), steps, cols)
        except BaseException as exc:  # raised by the caller once every worker is done
            errors.append(exc)

    helpers = []
    try:
        for _ in range(min(_WORKERS, len(starts)) - 1):
            helpers.append(threading.Thread(target=contextvars.copy_context().run, args=(work,)))
            helpers[-1].start()
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _back_solve(a: np.ndarray) -> np.ndarray:
    # The solution of the reduced (n, n + 1) system a, last column first.
    n = a.shape[0]
    x = a[:, n].copy()
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - np.dot(a[k, k + 1 : n], x[k + 1 :])) / a[k, k]
    return x


def solve(a, b) -> np.ndarray:
    """Solve the square system a @ x = b.

    Raises SingularError when some pivot column has no entry of magnitude
    at least 1e-12 after row exchange, or when the solution overflows or
    is otherwise not finite.
    """
    a = as_rows(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if n == 0:
        raise ShapeError("system is empty")
    work = np.column_stack((a, as_vector(b, n, name="rhs")))
    if not np.all(np.isfinite(work)):
        raise DomainError("system entries must be finite")
    # an overflow shows in the solution, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        bufsize = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            col = _eliminate(work)
        finally:
            np.setbufsize(bufsize)
        if col is not None:
            raise SingularError(f"no usable pivot in column {col}")
        x = _back_solve(work)
    if not np.all(np.isfinite(x)):
        raise SingularError("the solution is not finite")
    return x
