"""Dense solve."""

import sys
import threading
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fivecast import linalg
from fivecast.errors import DomainError, ShapeError, SingularError
from fivecast.kernels import KernelSpec, gram
from fivecast.linalg import _PANEL, _ROW_BLOCK, _UFUNC_BUFSIZE, PIVOT_TOL, _subtract_steps, solve

REFERENCE_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def textbook_solve(a, b):
    """Row-reduction oracle written independently of the module under test.

    Scales each pivot row to a unit pivot before eliminating the whole
    column (above and below), i.e. Gauss-Jordan rather than the forward
    elimination + back substitution the module uses.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    aug = np.hstack([a, b[:, None]])
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        aug[[k, p]] = aug[[p, k]]
        aug[k] = aug[k] / aug[k, k]
        for i in range(n):
            if i != k:
                aug[i] = aug[i] - aug[i, k] * aug[k]
    return aug[:, n]


def row_loop_solve(a, b):
    """The elimination one step at a time, each step on every row below
    the pivot at once.

    ``solve`` does the same arithmetic in column panels and row tiles;
    every entry sees the same operations in the same order, so results
    must agree bit for bit.  Returns the solution, or the column with no
    pivot.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = b.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) < PIVOT_TOL:
            return k
        if p != k:
            tmp = a[k].copy()
            a[k] = a[p]
            a[p] = tmp
            tb = b[k]
            b[k] = b[p]
            b[p] = tb
        lam = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= lam[:, None] * a[k, k:]
        b[k + 1 :] -= lam * b[k]
    for k in range(n - 1, -1, -1):
        b[k] = (b[k] - np.dot(a[k, k + 1 :], b[k + 1 :])) / a[k, k]
    return b


def assert_takes_one_exchange(a, k, p):
    """Eliminating a exchanges rows k and p and no others.

    Eliminated alongside a, the identity becomes L^-1 P, where the unit
    lower triangle L holds the stored multipliers and P is the row
    exchanges, so L times it is P up to rounding.
    """
    n = a.shape[0]
    work = np.hstack([a, np.eye(n)])
    assert linalg._eliminate(work) is None
    lower = np.tril(work[:, :n], -1) + np.eye(n)
    order = np.argmax(np.abs(lower @ work[:, n:]), axis=1)
    assert np.flatnonzero(order != np.arange(n)).tolist() == [k, p]
    assert order[k] == p


def assert_same_as_row_loop(a, b):
    want = row_loop_solve(a, b)
    if isinstance(want, int):
        with pytest.raises(SingularError, match=f"column {want}$"):
            solve(a, b)
    else:
        # byte equality also pins the sign of every zero
        assert solve(a, b).tobytes() == want.tobytes()


# Small integers and zeros make ties, zero multipliers and exact
# cancellations common; the odd fractions keep rounding in play.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 7))
    a = draw(arrays(np.float64, (n, n), elements=_ENTRIES))
    b = draw(arrays(np.float64, n, elements=_ENTRIES))
    if n > 1 and draw(st.booleans()):
        a[draw(st.integers(1, n - 1))] = a[0]  # duplicate row
    if draw(st.booleans()):
        a[:, draw(st.integers(0, n - 1))] = 0.0  # a column with no pivot
    return a, b


def pivotless_column_system(n, col, dependent):
    """Column col is zero, or a combination of earlier columns that
    elimination reduces to rounding noise below PIVOT_TOL."""
    rng = np.random.default_rng(col)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    a[:, col] = (a[:, 3] - 0.5 * a[:, 50]) if dependent else 0.0
    return a, rng.standard_normal(n)


def last_row_pivot_system(n):
    """Step 100 takes its pivot from the last row."""
    rng = np.random.default_rng(43)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    a[n - 1, 100] = 4.0 * n
    return a, rng.standard_normal(n)


def trailing_signed_zero_system(n):
    """Row n - 2 has a zero multiplier at step 5 and a -0.0 in the last
    column, which step 5 turns into +0.0; row n - 1, in the same row
    tile, has a nonzero multiplier."""
    a = 2.0 * np.eye(n)
    a[5, n - 1] = -1.0
    a[n - 2, n - 1] = -0.0
    a[n - 1, 5] = 0.5
    b = np.zeros(n)
    b[n - 2] = -0.0
    b[n - 1] = 2.0
    return a, b


class TestRowLoopReference:
    @REFERENCE_SETTINGS
    @given(small_systems())
    def test_small_systems(self, system):
        assert_same_as_row_loop(*system)

    @REFERENCE_SETTINGS
    @given(
        n=st.sampled_from([63, 64, 65, 66, 127, 128, 129, 150, 191, 192, 193, 257, 300]),
        zero_frac=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
        dead_col=st.booleans(),
    )
    def test_systems_spanning_row_blocks(self, n, zero_frac, seed, dead_col):
        # sizes on both sides of the 64-row tiles and 64-column panels, up
        # to five panels; zero entries of either sign
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        zeros = rng.random((n, n)) < zero_frac
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        a += np.diag(rng.choice([0.0, n], size=n))
        if dead_col:
            a[:, rng.integers(n)] = 0.0
        b = rng.standard_normal(n)
        b[rng.random(n) < zero_frac] = -0.0
        assert_same_as_row_loop(a, b)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_pivotless_column_mid_panel(self, dependent):
        # column 160 is the middle of the third panel (128..191); it is
        # zero, or a combination of earlier columns that elimination
        # reduces to rounding noise below PIVOT_TOL
        rng = np.random.default_rng(41)
        n = 200
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        a[:, 160] = (a[:, 3] - 0.5 * a[:, 150]) if dependent else 0.0
        b = rng.standard_normal(n)
        assert row_loop_solve(a, b) == 160
        assert_same_as_row_loop(a, b)

    @pytest.mark.parametrize("dependent", [False, True])
    @pytest.mark.parametrize("col", [64, 127, 199])
    def test_pivotless_column_at_a_panel_edge(self, col, dependent):
        # the first and last columns of the second panel (64..127) and the
        # matrix's last column, zero or dependent as above
        a, b = pivotless_column_system(200, col, dependent)
        assert row_loop_solve(a, b) == col
        assert_same_as_row_loop(a, b)

    def test_pivot_in_the_last_row_mid_panel(self):
        # step 100, inside the second panel, takes its pivot from row 199,
        # so the swap moves that row's parts left of the panel (earlier
        # multipliers) and right of it (stale trailing entries) as well
        n = 200
        a, b = last_row_pivot_system(n)
        assert_takes_one_exchange(a, 100, n - 1)
        assert_same_as_row_loop(a, b)

    def test_zero_multiplier_keeps_signed_zero_in_panel_column(self):
        # the panel's own update takes row 1 at step 0 too: subtracting
        # 0 * a[0, 2] (= -0.0) from its -0.0 in column 2 gives +0.0, and
        # x[1] = (-0.0 - a[1, 2] * x[2]) / 2 shows that sign as -0.0
        a = 2.0 * np.eye(3)
        a[0, 2] = -1.0
        a[1, 2] = -0.0
        a[2, 0] = 0.5
        b = np.array([0.0, -0.0, 2.0])
        x = solve(a, b)
        assert x[1] == 0.0 and np.signbit(x[1])
        assert_same_as_row_loop(a, b)

    def test_zero_multiplier_keeps_signed_zero_in_trailing_column(self):
        # Row 128 has a zero multiplier at step 5, and the deferred update
        # of its trailing columns takes it like any other row.  Subtracting
        # 0 * a[5, 129] (= 0 * -1.0 = -0.0) from its -0.0 in column 129
        # gives +0.0, and x[128] = (-0.0 - a[128, 129] * x[129]) / 2 shows
        # that sign as -0.0.  Row 129 shares its row tile and has a
        # nonzero multiplier.
        a, b = trailing_signed_zero_system(130)
        x = solve(a, b)
        assert x[128] == 0.0 and np.signbit(x[128])
        assert_same_as_row_loop(a, b)

    def test_lssvm_saddle_system(self):
        # bordered like lssvm's system: a[0, 0] = 0 forces a swap at the
        # first step, and the border of ones meets a dense rbf gram
        rng = np.random.default_rng(7)
        m = 199
        x = rng.standard_normal((m, 3))
        a = np.zeros((m + 1, m + 1))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        a[1:, 1:] = gram(KernelSpec("rbf", sigma=1.5), x) + np.eye(m) / 100.0
        b = np.concatenate([[0.0], rng.standard_normal(m)])
        assert_same_as_row_loop(a, b)

    def test_zero_multipliers_keep_signed_zeros(self):
        # row 1 has a zero multiplier and still takes step 0: subtracting
        # 0 * -1.0 (= -0.0) from its -0.0 right-hand side gives +0.0,
        # which reaches the solution
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        b = np.array([-1.0, -0.0])
        x = solve(a, b)
        assert x[1] == 0.0 and not np.signbit(x[1])
        assert_same_as_row_loop(a, b)


def interleaved_eliminate(a: np.ndarray, b: np.ndarray) -> int:
    # The right-hand side reduced alongside the matrix at each step of the
    # panel loop, where solve updates it with the trailing columns.
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
            a[k + 1 :, k + 1 : p1] -= lam[:, None] * a[k, k + 1 : p1]
            b[k + 1 :] -= lam * b[k]
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


def interleaved_solve(a, b):
    """The solution by interleaved_eliminate, or the column with no pivot."""
    work_a = np.array(a, dtype=float)
    work_b = np.array(b, dtype=float)
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        status = interleaved_eliminate(work_a, work_b)
    finally:
        np.setbufsize(bufsize)
    return status - 1 if status else work_b


def assert_same_as_interleaved(a, rhs_list):
    """solve gives every right-hand side in rhs_list the bits an
    interleaved elimination gives it."""
    for b in rhs_list:
        want = interleaved_solve(a, b)
        if isinstance(want, int):
            with pytest.raises(SingularError, match=f"column {want}$"):
                solve(a, b)
        else:
            assert solve(a, b).tobytes() == want.tobytes()


class TestInterleavedReference:
    @REFERENCE_SETTINGS
    @given(small_systems(), st.lists(arrays(np.float64, 7, elements=_ENTRIES), min_size=1, max_size=3))
    def test_small_systems(self, system, more):
        a, b = system
        assert_same_as_interleaved(a, [b, *(m[: b.shape[0]] for m in more)])

    @pytest.mark.parametrize("n, zero_frac, seed", [(65, 0.0, 1), (130, 0.5, 2), (193, 0.9, 3), (300, 0.5, 4)])
    def test_random_systems(self, n, zero_frac, seed):
        # zero entries of either sign make zero multipliers
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        zeros = rng.random((n, n)) < zero_frac
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        a += np.diag(rng.choice([0.0, n], size=n))
        rhs = [rng.standard_normal(n) for _ in range(3)]
        rhs[1][rng.random(n) < 0.5] = -0.0
        assert_same_as_interleaved(a, rhs)

    def test_pivoting_system(self):
        # the largest entry of each column sits below the diagonal, so
        # every step swaps, and later swaps move earlier multipliers
        rng = np.random.default_rng(12)
        n = 140
        a = rng.standard_normal((n, n))
        a[np.arange(1, n), np.arange(n - 1)] += 4.0 * n
        a[0, n - 1] += 4.0 * n
        rhs = [rng.standard_normal(n), np.zeros(n), -np.ones(n)]
        assert_same_as_interleaved(a, rhs)

    def test_zero_multipliers_keep_signed_zeros(self):
        # row 1's zero multiplier still applies: its -0.0 right-hand side
        # less 0 * -1.0 (= -0.0) is +0.0, less 0 * 3.0 (= +0.0) stays -0.0
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        x = solve(a, np.array([-1.0, -0.0]))
        assert x[1] == 0.0 and not np.signbit(x[1])
        x = solve(a, np.array([3.0, -0.0]))
        assert x[1] == 0.0 and np.signbit(x[1])
        assert_same_as_interleaved(a, [np.array([-1.0, -0.0]), np.array([3.0, -0.0])])

    def test_rhs_is_checked(self):
        with pytest.raises(ShapeError):
            solve(np.eye(2), np.ones(3))
        with pytest.raises(DomainError):
            solve(np.eye(2), np.array([1.0, np.nan]))


def dense_system(n, seed=9):
    # zero entries of either sign make zero multipliers
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    zeros = rng.random((n, n)) < 0.5
    a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    a += np.diag(rng.choice([0.0, n], size=n))
    return a, rng.standard_normal(n)


# At 330 rows the first three panels have 5, 4 and 3 trailing tiles of
# _ROW_BLOCK rows, the fourth 2 and the fifth 1.
WORKER_SYSTEMS = {
    "dense": lambda: dense_system(330),
    **{
        f"pivotless-column-{col}-{kind}": (lambda col=col, dep=dep: pivotless_column_system(330, col, dep))
        for col in (64, 127, 329)
        for kind, dep in (("zero", False), ("dependent", True))
    },
    "last-row-pivot": lambda: last_row_pivot_system(330),
    "trailing-signed-zero": lambda: trailing_signed_zero_system(330),
}


def count_started_threads(monkeypatch) -> list:
    started = []
    real = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or real(self))
    return started


def outcome(a, b):
    try:
        return solve(a, b).tobytes()
    except SingularError as exc:
        return str(exc)


class TestWorkerCount:
    """The threads that share a panel's trailing tiles change no byte."""

    @staticmethod
    def solve_with(workers, monkeypatch, a, b):
        # a solve, and the reduced augmented matrix with the column that
        # has no pivot, if one has none
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        started = count_started_threads(monkeypatch)
        work = np.column_stack((a, b))
        col = linalg._eliminate(work)
        return outcome(a, b), col, work.tobytes(), len(started)

    @pytest.mark.parametrize("name", list(WORKER_SYSTEMS))
    def test_same_bits_at_one_and_two_workers(self, name, monkeypatch):
        a, b = WORKER_SYSTEMS[name]()
        *one, one_started = self.solve_with(1, monkeypatch, a, b)
        *two, two_started = self.solve_with(2, monkeypatch, a, b)
        assert one == two
        assert one_started == 0 and two_started > 0

    def test_same_bits_as_the_row_loop_at_two_workers(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        for name in ("dense", "last-row-pivot", "pivotless-column-127-dependent", "trailing-signed-zero"):
            assert_same_as_row_loop(*WORKER_SYSTEMS[name]())

    @pytest.mark.parametrize("workers, n, helpers", [(8, 330, 4 + 3 + 2 + 1), (2, 128, 0), (2, 129, 1)])
    def test_never_more_workers_than_tiles(self, workers, n, helpers, monkeypatch):
        # at 128 rows no panel has more than one trailing tile; at 129 the
        # first has two, the second of one row
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        started = count_started_threads(monkeypatch)
        solve(*dense_system(n))
        assert len(started) == helpers

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        # a tile claimed twice, or by no one, would change the bytes
        a, b = dense_system(330)
        monkeypatch.setattr(linalg, "_WORKERS", 1)
        want = solve(a, b).tobytes()
        monkeypatch.setattr(linalg, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [solve(a, b).tobytes() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 3

    def test_a_helpers_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        real = linalg._subtract_steps

        def failing(a, rows, steps, cols):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("a helper's tile failed")
            if len(steps) > 1:
                time.sleep(0.01)  # one of the caller's tiles: let the helper claim one
            real(a, rows, steps, cols)

        monkeypatch.setattr(linalg, "_subtract_steps", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^a helper's tile failed$"):
            solve(*dense_system(330))
        assert threading.active_count() == before  # every helper has ended

    @pytest.mark.filterwarnings("error")
    def test_no_warning_escapes_a_helper(self, monkeypatch):
        # Every row takes its step-0 multiplier of 1 against a pivot row of
        # 1e308, so -1e308 - 1e308 overflows in every trailing tile, and
        # later steps meet inf - inf: a SingularError, warning nowhere.
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        started = count_started_threads(monkeypatch)
        n = 320
        a = np.full((n, n), -1e308)
        a[:, 0] = 1.0
        a[0, 1:] = 1e308
        with pytest.raises(SingularError, match="^the solution is not finite$"):
            solve(a, np.ones(n))
        assert uncaught == []
        assert started


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        npt.assert_array_equal(solve(np.eye(3), b), b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 8.0])
        npt.assert_allclose(solve(a, np.array([2.0, 2.0, 2.0])), [1.0, 0.5, 0.25])

    def test_requires_pivoting(self):
        # zero in the (0, 0) position forces a row exchange
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(solve(a, np.array([5.0, 7.0])), [7.0, 5.0])

    def test_two_by_two_by_hand(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        # x = (1, 2): b = (4, 7)
        npt.assert_allclose(solve(a, np.array([4.0, 7.0])), [1.0, 2.0], atol=1e-14)

    def test_matches_row_reduction_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
            b = rng.standard_normal(8)
            npt.assert_allclose(solve(a, b), textbook_solve(a, b), rtol=1e-8)

    def test_matches_library_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
            b = rng.standard_normal(6)
            npt.assert_allclose(solve(a, b), np.linalg.solve(a, b), rtol=1e-8)

    def test_residual_small(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 11, 30):
            a = rng.standard_normal((n, n))
            a += n * np.eye(n)  # diagonally dominant, well conditioned
            b = rng.standard_normal(n)
            x = solve(a, b)
            npt.assert_allclose(a @ x, b, atol=1e-9)

    def test_recovers_known_solution(self):
        # orthogonal basis times a modest diagonal keeps the condition number low
        rng = np.random.default_rng(5)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
            a = q @ np.diag(rng.uniform(0.5, 50.0, size=7)) @ q.T
            x = rng.standard_normal(7)
            npt.assert_allclose(solve(a, a @ x), x, rtol=1e-7, atol=1e-10)

    def test_singular_matrix(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularError, match="column"):
            solve(a, np.array([1.0, 2.0]))

    def test_zero_matrix(self):
        with pytest.raises(SingularError, match="column 0"):
            solve(np.zeros((3, 3)), np.ones(3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solution_is_singular(self):
        # both pivots clear the tolerance, but x[0] = 1e300 / 1e-11 is past
        # float64: a numerical failure, with no RuntimeWarning on the way
        with pytest.raises(SingularError, match="^the solution is not finite$"):
            solve(np.array([[1e-11, 0.0], [0.0, 1.0]]), np.array([1e300, 1.0]))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            solve(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ShapeError):
            solve(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ShapeError):
            solve(np.ones(4), np.ones(2))
        with pytest.raises(ShapeError):
            solve(np.ones((0, 0)), np.ones(0))

    def test_nonfinite_entries(self):
        with pytest.raises(DomainError):
            solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
        with pytest.raises(DomainError):
            solve(np.eye(2), np.array([1.0, np.inf]))

    def test_inputs_not_mutated(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([5.0, 7.0])
        solve(a, b)
        npt.assert_array_equal(a, [[0.0, 1.0], [1.0, 0.0]])
        npt.assert_array_equal(b, [5.0, 7.0])
