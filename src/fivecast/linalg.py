"""Dense linear solve used by the model fitters.

``solve`` is Gaussian elimination with partial pivoting, done in panels of
``_PANEL`` columns (the panel/trailing split of LAPACK's blocked LU, with
the unblocked arithmetic), then substitution for the right-hand side.  An
:class:`Elimination` keeps the reduced matrix and the pivot rows, so one
elimination serves any number of right-hand sides.  A panel is factored
in a transposed contiguous copy, where each step's column is one
contiguous row: each step searches its pivot, swaps the two rows (columns
of the copy, plus the rows' parts left and right of the panel) and
updates the panel's own columns at once; it stores its multipliers in the
eliminated column, so a later row swap carries them along with the row's
stale trailing entries.  The copy is written back once the panel ends;
then its pivot rows and then tiles of ``_ROW_BLOCK`` rows below take the
panel's steps in order on the trailing columns, each tile staying in
cache across those steps.  The tiles share no row, so threads share
them: the calling thread and one helper per further CPU the process may
use (``os.sched_getaffinity``) each claim the next tile until none is
left, and numpy's ufuncs release the GIL while they update it.  Every
entry goes through the same multiply-then-subtract operations in the
same step order as a row-at-a-time elimination, whichever thread runs
its tile, so the solution is bit-identical to it on any number of CPUs;
a row whose multiplier is zero is skipped at that step, as there.  The
elimination calls no BLAS, and the command line pins BLAS to one thread
for the substitution's dot products, so a command's bytes depend neither
on the core count nor on the BLAS thread count.  No temporary is larger
than ``_ROW_BLOCK`` x n per thread.
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
    # Rows whose multiplier is zero stay untouched at that step, so no
    # signed zero or non-finite pivot-row entry reaches them.  The
    # multiplier columns lie left of cols, so one check covers every step.
    tile = a[rows, cols]
    nonzero = a[rows, steps.start : steps.stop].all(axis=0)
    for t in steps:
        lam = a[rows, t]
        if nonzero[t - steps.start]:
            tile -= lam[:, None] * a[t, cols]
        else:
            keep = np.flatnonzero(lam)
            a[rows.start + keep, cols] -= lam[keep, None] * a[t, cols]


def _eliminate(a: np.ndarray, pivots: list[int]) -> int:
    # In-place elimination of a copy owned by the caller, appending each
    # step's pivot row to pivots.  Returns 0 on success, k+1 when column k
    # has no pivot above PIVOT_TOL.  Leaves the multipliers in the strictly
    # lower part of a, each in the row its own row ends up in.
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
                return k + 1
            p = p0 + q
            pivots.append(p)
            if p != k:
                pt[:, [c, q]] = pt[:, [q, c]]
                a[[k, p], :p0] = a[[p, k], :p0]
                a[[k, p], p1:] = a[[p, k], p1:]
            lam = pt[c, c + 1 :] / pt[c, c]
            pt[c, c + 1 :] = lam  # column k below the pivot is never read again
            cols = slice(c + 1, None)
            if not lam.all():
                keep = np.flatnonzero(lam)
                cols = c + 1 + keep
                lam = lam[keep]
            pt[c + 1 :, cols] -= pt[c + 1 :, c, None] * lam
        a[p0:, p0:p1] = pt.T
        if p1 == n:
            break
        trailing = slice(p1, n)
        for t in range(p0, p1 - 1):
            _subtract_steps(a, slice(t + 1, p1), range(t, t + 1), trailing)
        _share_tiles(a, range(p1, n, _ROW_BLOCK), range(p0, p1), trailing)
    return 0


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


def _substitute(lu: np.ndarray, pivots: list[int], x: np.ndarray) -> None:
    # Solve in place on x: every row exchange, then forward substitution
    # with the stored multipliers, then back substitution.  Each entry of x
    # takes the same subtractions in the same order as when the
    # right-hand side is reduced alongside the matrix, so the bits agree;
    # a zero multiplier leaves its row untouched, as there.
    n = x.shape[0]
    for k, p in enumerate(pivots):
        if p != k:
            x[[k, p]] = x[[p, k]]
    for k in range(n - 1):
        lam = lu[k + 1 :, k]
        if lam.all():
            x[k + 1 :] -= lam * x[k]
        else:
            keep = np.flatnonzero(lam)
            x[k + 1 + keep] -= lam[keep] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - np.dot(lu[k, k + 1 :], x[k + 1 :])) / lu[k, k]


class Elimination:
    """One square matrix under Gaussian elimination, for any number of
    right-hand sides.

    The matrix is checked and copied here and eliminated by the first
    :func:`solve`; the reduced matrix and each step's pivot row are kept,
    so every later right-hand side costs only its substitutions.
    """

    def __init__(self, a):
        a = as_rows(a)
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"matrix must be square, got {a.shape}")
        if a.shape[0] == 0:
            raise ShapeError("system is empty")
        if not np.all(np.isfinite(a)):
            raise DomainError("system entries must be finite")
        self._lu = a.copy()
        self._pivots: list[int] = []
        self._status: int | None = None  # _eliminate's result, once run


def solve(a, b) -> np.ndarray:
    """Solve the square system a @ x = b, where a is a matrix or an
    :class:`Elimination` of one.

    Raises SingularError when some pivot column has no entry of magnitude
    at least 1e-12 after row exchange, or when the solution overflows or
    is otherwise not finite.
    """
    system = a if isinstance(a, Elimination) else Elimination(a)
    x = as_vector(b, system._lu.shape[0], name="rhs")
    if not np.all(np.isfinite(x)):
        raise DomainError("system entries must be finite")
    # an overflow shows in the solution, which is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if system._status is None:
            bufsize = np.setbufsize(_UFUNC_BUFSIZE)
            try:
                system._status = _eliminate(system._lu, system._pivots)
            finally:
                np.setbufsize(bufsize)
        if system._status != 0:
            raise SingularError(f"no usable pivot in column {system._status - 1}")
        x = x.copy()
        _substitute(system._lu, system._pivots, x)
    if not np.all(np.isfinite(x)):
        raise SingularError("the solution is not finite")
    return x
