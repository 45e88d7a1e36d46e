"""Epsilon-insensitive SVR: dual solver quality and the predictor."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fivecast import svr
from fivecast.errors import ConvergenceWarning, DomainError, ShapeError
from fivecast.kernels import KernelSpec, gram, kernel_column
from fivecast.svr import SvrModel, fit, predict_batch

REFERENCE_SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Everything in this block is an independent oracle: it shares no code
# with the solver under test.


def oracle_gram(kind, x, sigma=1.0, degree=2, poly_c=1.0):
    n = x.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d = float(x[i] @ x[j])
            if kind == "linear":
                k[i, j] = d
            elif kind == "poly":
                k[i, j] = (1.0 + d / poly_c) ** degree
            else:
                k[i, j] = math.exp(-float((x[i] - x[j]) @ (x[i] - x[j])) / sigma**2)
    return k


def dual_objective(kmat, targets, epsilon, coefs) -> float:
    """The maximized dual value at the given coefficients."""
    kmat = np.asarray(kmat, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    b = np.asarray(coefs, dtype=np.float64)
    return float(y @ b - epsilon * np.sum(np.abs(b)) - 0.5 * b @ kmat @ b)


def project_box_balanced(a, b, c):
    # nearest point with 0 <= a, b <= c and sum(a) = sum(b): shift both
    # halves by lam; the constraint gap is piecewise linear and
    # nonincreasing in lam, so the root lies between two knots
    knots = np.sort(np.concatenate([a, a - c, -b, c - b]))
    ga = np.clip(a[None, :] - knots[:, None], 0.0, c).sum(axis=1)
    gb = np.clip(b[None, :] + knots[:, None], 0.0, c).sum(axis=1)
    g = ga - gb
    idx = int(np.argmax(g <= 0.0))
    if g[idx] == 0.0 or idx == 0:
        lam = knots[idx]
    else:
        k0, k1 = knots[idx - 1], knots[idx]
        g0, g1 = g[idx - 1], g[idx]
        lam = k0 if k1 == k0 else k0 + (k1 - k0) * g0 / (g0 - g1)
    return np.clip(a - lam, 0.0, c), np.clip(b + lam, 0.0, c)


def oracle_dual_opt(kmat, y, eps, c, iters=30000):
    # accelerated projected gradient ascent on the split (alpha, alpha*)
    # form; returns the best dual value seen
    n = y.shape[0]
    lip = 2.0 * max(float(np.linalg.eigvalsh(kmat)[-1]), 1e-6)
    step = 1.0 / lip
    a = np.zeros(n)
    b = np.zeros(n)
    ya, yb = a.copy(), b.copy()
    tk = 1.0
    best = -np.inf
    stale = 0
    for _ in range(iters):
        kd = kmat @ (ya - yb)
        ga = y - eps - kd
        gb = -y - eps + kd
        an, bn = project_box_balanced(ya + step * ga, yb + step * gb, c)
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        ya = an + ((tk - 1.0) / tn) * (an - a)
        yb = bn + ((tk - 1.0) / tn) * (bn - b)
        a, b, tk = an, bn, tn
        beta = a - b
        w = float(y @ beta - eps * np.sum(a + b) - 0.5 * beta @ kmat @ beta)
        if best == -np.inf or w > best + 1e-13 * max(1.0, abs(best)):
            best = w
            stale = 0
        else:
            stale += 1
            if stale > 500:
                break
    return best


# Loop references for the solver's array scans: one coefficient at a
# time, strict ">" so the first of tied candidates wins.  The solver must
# pick the same indices and compute the same values bit for bit.


def loop_best_up(beta, y, f, eps, c):
    hi_thr = c * (1.0 - 1e-10)
    best = -np.inf
    best_k = -1
    for k in range(beta.shape[0]):
        if beta[k] >= hi_thr:
            continue
        r = y[k] - f[k]
        rate = r - eps if beta[k] >= 0.0 else r + eps
        if rate > best:
            best = rate
            best_k = k
    return best, best_k


def loop_best_down(beta, y, f, eps, c):
    hi_thr = c * (1.0 - 1e-10)
    best = -np.inf
    best_k = -1
    for k in range(beta.shape[0]):
        if beta[k] <= -hi_thr:
            continue
        r = y[k] - f[k]
        rate = eps - r if beta[k] > 0.0 else -eps - r
        if rate > best:
            best = rate
            best_k = k
    return best, best_k


def loop_partner(kmat, beta, y, f, eps, c, i, up_i):
    hi_thr = c * (1.0 - 1e-10)
    kii = kmat[i, i]
    best_est = -np.inf
    best_j = -1
    for j in range(beta.shape[0]):
        if j == i or beta[j] <= -hi_thr:
            continue
        r = y[j] - f[j]
        dn_j = eps - r if beta[j] > 0.0 else -eps - r
        rate = up_i + dn_j
        if rate <= 0.0:
            continue
        kappa = kii + kmat[j, j] - 2.0 * kmat[i, j]
        if kappa < 1e-12:
            kappa = 1e-12
        est = rate * rate / kappa
        if est > best_est:
            best_est = est
            best_j = j
    return best_j


def loop_bias(beta, y, f, eps, c):
    lo_thr = 1e-10 * c
    hi_thr = c * (1.0 - 1e-10)
    r = y - f
    interior = (np.abs(beta) > lo_thr) & (np.abs(beta) < hi_thr)
    if np.any(interior):
        return float(np.mean((r - np.sign(beta) * eps)[interior]))
    lo = -np.inf
    hi = np.inf
    for i in range(beta.shape[0]):
        if abs(beta[i]) <= lo_thr:
            if r[i] - eps > lo:
                lo = r[i] - eps
            if r[i] + eps < hi:
                hi = r[i] + eps
        elif beta[i] >= hi_thr:
            if r[i] - eps < hi:
                hi = r[i] - eps
        else:
            if r[i] + eps > lo:
                lo = r[i] + eps
    if lo > -np.inf and hi < np.inf:
        return 0.5 * (lo + hi)
    if lo > -np.inf:
        return lo
    if hi < np.inf:
        return hi
    return 0.0


# Reference solver: the solver's earlier form, which rebuilds both rate
# arrays from beta every step and steps on numpy entries, kept verbatim
# but for the names and the bias, which comes from loop_bias above.
# _smo_solve must return the same coefficients, bias and violation bit
# for bit, and the same passes and convergence flag.

REFERENCE_PROGRESS_TOL = 1e-12


def reference_smo_rates(beta, r, eps, c):
    # One-sided ascent rates of the dual at residuals r = y - f: up[k]
    # for raising beta[k], dn[k] for lowering it, -inf where the box
    # forbids the move.
    hi_thr = c * (1.0 - 1e-10)
    up = np.where(beta >= 0.0, r - eps, r + eps)
    up[beta >= hi_thr] = -np.inf
    dn = np.where(beta > 0.0, eps - r, -eps - r)
    dn[beta <= -hi_thr] = -np.inf
    return up, dn


def reference_smo_gap(up, dn):
    # Largest feasible pair ascent rate, -inf when no pair can move.
    # When it is positive the two argmax indices are necessarily distinct
    # (one coefficient's up and down rates sum to at most zero), so this
    # is the true pair gap.
    return up.max() + dn.max()


def reference_smo_partner(kmat, diag, dn, i, up_i):
    # Down-partner for an up-move at i: among coefficients that can
    # decrease and give the pair a positive ascent rate, the one with the
    # largest single-step gain estimate rate^2 / curvature; -1 when none.
    # argmax takes the first of tied estimates.  i never partners itself:
    # its own up and down rates sum to at most zero.
    rate = up_i + dn
    kappa = np.maximum(kmat[i, i] + diag - 2.0 * kmat[i], 1e-12)
    est = np.where(rate > 0.0, rate * rate / kappa, -np.inf)
    j = int(np.argmax(est))
    return j if est[j] > -np.inf else -1


def reference_smo_gain(t, g, kappa, bi, bj, eps):
    # Exact change in the dual objective for the move (bi+t, bj-t).
    return (
        g * t
        - 0.5 * kappa * t * t
        - eps * (abs(bi + t) - abs(bi) + abs(bj - t) - abs(bj))
    )


def reference_smo_step(kmat, y, beta, f, i, j, eps, c):
    # Best feasible two-coordinate move; returns the objective gain
    # (0.0 when no move helps).
    bi = float(beta[i])
    bj = float(beta[j])
    lo = max(-c - bi, bj - c)
    hi = min(c - bi, bj + c)
    if hi - lo < 1e-14:
        return 0.0
    kappa = float(kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j])
    g = float((y[i] - f[i]) - (y[j] - f[j]))
    cand = [lo, hi, -bi, bj]
    if kappa > 1e-14:
        cand += [g / kappa, (g - 2.0 * eps) / kappa, (g + 2.0 * eps) / kappa]
    best_t = 0.0
    best_gain = 0.0
    for t in cand:
        t = min(max(t, lo), hi)
        gain = reference_smo_gain(t, g, kappa, bi, bj, eps)
        if gain > best_gain:
            best_gain = gain
            best_t = t
    if best_gain <= REFERENCE_PROGRESS_TOL:
        return 0.0
    new_bi = min(max(bi + best_t, -c), c)
    new_bj = min(max(bj - best_t, -c), c)
    beta[i] = new_bi
    beta[j] = new_bj
    # kmat is symmetric (gram mirrors every pair), so rows stand in for
    # the columns of i and j
    f += (new_bi - bi) * kmat[i] + (new_bj - bj) * kmat[j]
    return best_gain


def reference_smo_solve(kmat, y, eps, c, tol, max_passes):
    n = y.shape[0]
    diag = kmat.diagonal()
    beta = np.zeros(n)
    f = np.zeros(n)
    passes = 0
    converged = False
    gap = reference_smo_gap(*reference_smo_rates(beta, y - f, eps, c))
    if gap <= tol:
        converged = True
    else:
        for p in range(max_passes):
            stepped_any = False
            for _ in range(n):
                up, dn = reference_smo_rates(beta, y - f, eps, c)
                iu = int(np.argmax(up))
                idn = int(np.argmax(dn))
                gap = up[iu] + dn[idn]
                if gap <= tol:
                    break
                j = reference_smo_partner(kmat, diag, dn, iu, up[iu])
                gain = 0.0
                if j >= 0:
                    gain = reference_smo_step(kmat, y, beta, f, iu, j, eps, c)
                if gain <= 0.0 and j != idn:
                    gain = reference_smo_step(kmat, y, beta, f, iu, idn, eps, c)
                if gain <= 0.0:
                    # the best pair cannot make numeric progress
                    break
                stepped_any = True
            passes = p + 1
            gap = reference_smo_gap(*reference_smo_rates(beta, y - f, eps, c))
            if gap <= tol:
                converged = True
                break
            if not stepped_any:
                break
    bias = loop_bias(beta, y, f, eps, c)
    return beta, bias, passes, converged, max(gap, 0.0)


_SPECS = (
    KernelSpec("linear"),
    KernelSpec("poly", degree=2),
    KernelSpec("rbf", sigma=1.0),
    KernelSpec("mlp", mlp_k=1.0, mlp_theta=0.0),
)


@st.composite
def solver_states(draw):
    """A solver state: coefficients, targets, fitted values, gram.

    Coefficients sit at +-C, at +-0, exactly on the solver's at-bound
    and at-zero thresholds, between those and the box edges, and inside
    the box; targets and fitted values come from a few round numbers so
    rates tie often, and input rows repeat.
    """
    n = draw(st.integers(1, 9))
    c = draw(st.sampled_from([0.1, 1.0, 10.0]))
    eps = draw(st.sampled_from([0.0, 0.01, 0.1]))
    hi_thr = c * (1.0 - 1e-10)
    lo_thr = 1e-10 * c
    edges = [c, hi_thr, c * (1.0 - 1e-11), lo_thr, 1e-11 * c, 0.0]
    coef = st.one_of(
        st.sampled_from(edges + [-e for e in edges] + [0.5 * c]),
        st.floats(-c, c),
    )
    value = st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0)
    )
    beta = draw(arrays(np.float64, n, elements=coef))
    y = draw(arrays(np.float64, n, elements=value))
    f = draw(arrays(np.float64, n, elements=value))
    rows = draw(arrays(np.float64, (n, 2), elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0])))
    kmat = gram(draw(st.sampled_from(_SPECS)), rows)
    return beta, y, f, eps, c, kmat


def solver_rates(beta, r, eps, c):
    """The solver's up and down rates: residuals plus each coefficient's
    box offsets."""
    hi_thr = c * (1.0 - 1e-10)
    up_off, dn_off = np.array([svr._smo_offsets(b, eps, hi_thr) for b in beta.tolist()]).T
    return r + up_off, dn_off - r


class TestLoopReferences:
    @REFERENCE_SETTINGS
    @given(solver_states())
    def test_up_down_and_gap(self, state):
        beta, y, f, eps, c, _ = state
        up, dn = solver_rates(beta, y - f, eps, c)
        for rates, loop in ((up, loop_best_up), (dn, loop_best_down)):
            best, k = loop(beta, y, f, eps, c)
            if k < 0:
                assert rates.max() == -np.inf
            else:
                assert int(np.argmax(rates)) == k
                assert rates[k] == best
        (u, iu), (d, idn) = loop_best_up(beta, y, f, eps, c), loop_best_down(beta, y, f, eps, c)
        want = -np.inf if iu < 0 or idn < 0 else u + d
        assert svr._smo_gap(up, dn) == want

    @REFERENCE_SETTINGS
    @given(solver_states())
    def test_partner(self, state):
        beta, y, f, eps, c, kmat = state
        up, dn = solver_rates(beta, y - f, eps, c)
        for i in range(beta.shape[0]):
            if up[i] == -np.inf:
                continue
            got = svr._smo_partner(svr._smo_curvatures(kmat)[i], dn, up[i])
            assert got == loop_partner(kmat, beta, y, f, eps, c, i, up[i])

    @REFERENCE_SETTINGS
    @given(solver_states())
    def test_bias(self, state):
        beta, y, f, eps, c, _ = state
        assert svr._smo_bias(beta, y - f, eps, c) == loop_bias(beta, y, f, eps, c)

    def test_tied_rates_pick_the_first(self):
        beta = np.zeros(4)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        f = np.zeros(4)
        up, dn = solver_rates(beta, y - f, 0.01, 10.0)
        assert loop_best_up(beta, y, f, 0.01, 10.0) == (up[0], 0)
        assert int(np.argmax(up)) == 0
        assert loop_best_down(beta, y, f, 0.01, 10.0) == (dn[2], 2)
        assert int(np.argmax(dn)) == 2
        # duplicate rows: every pair curvature is 0, so partners 2 and 3
        # tie on the gain estimate
        kmat = gram(KernelSpec("linear"), np.ones((4, 1)))
        got = svr._smo_partner(svr._smo_curvatures(kmat)[0], dn, up[0])
        assert got == loop_partner(kmat, beta, y, f, 0.01, 10.0, 0, up[0]) == 2

    def test_coefficients_on_the_thresholds(self):
        # exactly at 1e-10 * C a coefficient counts as zero, exactly at
        # C * (1 - 1e-10) as at the bound
        c, eps = 1.0, 0.1
        beta = np.array([1e-10 * c, c * (1.0 - 1e-10)])
        y = np.zeros(2)
        f = np.zeros(2)
        assert loop_bias(beta, y, f, eps, c) == -0.1
        assert svr._smo_bias(beta, y - f, eps, c) == -0.1
        up, _ = solver_rates(beta, y - f, eps, c)
        assert up[1] == -np.inf

    def test_all_coefficients_at_the_box(self):
        # every move is forbidden on one side: no index, gap -inf, and
        # the bias falls back to the edge of the feasible interval
        beta = np.full(3, 1.0)
        y = np.array([0.3, -0.2, 0.1])
        f = np.zeros(3)
        up, dn = solver_rates(beta, y - f, 0.1, 1.0)
        assert loop_best_up(beta, y, f, 0.1, 1.0)[1] == -1
        assert up.max() == -np.inf
        assert svr._smo_gap(up, dn) == -np.inf
        assert svr._smo_bias(beta, y - f, 0.1, 1.0) == loop_bias(beta, y, f, 0.1, 1.0)


@st.composite
def solver_problems(draw):
    """A small dual problem: gram, targets, eps, C, tol and pass budget.

    Input rows come from a few round numbers, or repeat others outright;
    targets come from a few round numbers so rates tie often.
    """
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    rows = draw(arrays(np.float64, (n, d), elements=coord))
    if draw(st.booleans()):
        rows = rows[draw(arrays(np.intp, n, elements=st.integers(0, n - 1)))]
    value = st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0)
    )
    y = draw(arrays(np.float64, n, elements=value))
    kmat = gram(draw(st.sampled_from(_SPECS)), rows)
    eps = draw(st.sampled_from([0.0, 0.01, 0.1]))
    c = draw(st.sampled_from([0.1, 1.0, 10.0]))
    tol = draw(st.sampled_from([1e-4, 1e-12]))
    max_passes = draw(st.sampled_from([0, 1, 2, 200]))
    return kmat, y, eps, c, tol, max_passes


@st.composite
def fit_problems(draw):
    """Rows, targets, kernel, eps and C of a small fit, drawn like
    solver_problems."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    rows = draw(arrays(np.float64, (n, d), elements=coord))
    value = st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0)
    )
    y = draw(arrays(np.float64, n, elements=value))
    spec = draw(st.sampled_from(_SPECS))
    eps = draw(st.sampled_from([0.0, 0.01, 0.1]))
    c = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return rows, y, spec, eps, c


def assert_same_solution(got, want):
    beta, bias, passes, converged, viol = got
    assert beta.dtype == np.float64
    assert beta.tobytes() == want[0].tobytes()
    assert np.float64(bias).tobytes() == np.float64(want[1]).tobytes()
    assert (passes, converged) == (want[2], want[3])
    assert np.float64(viol).tobytes() == np.float64(want[4]).tobytes()


class TestSolveReference:
    @settings(REFERENCE_SETTINGS, max_examples=400)
    @given(solver_problems())
    def test_small_problems(self, problem):
        assert_same_solution(svr._smo_solve(*problem), reference_smo_solve(*problem))

    @pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
    def test_seeded_problems(self, spec):
        rng = np.random.default_rng(60)
        for eps, c in ((0.0, 10.0), (0.01, 1.0), (0.1, 0.1)):
            n = int(rng.integers(30, 61))
            x = rng.uniform(-1.0, 1.0, (n, 3))
            x[n // 2 :] = x[: n - n // 2]  # the second half repeats the first
            y = np.round(rng.uniform(-1.0, 1.0, n), 1)
            problem = (gram(spec, x), y, eps, c, 1e-4, 200)
            assert_same_solution(svr._smo_solve(*problem), reference_smo_solve(*problem))


    # Poly-kernel problems on which the chosen move hangs on the last bit
    # of a candidate's gain: evaluating the gain's terms in another order
    # changes the solution.
    @pytest.mark.parametrize(
        "x, y, eps, c, max_passes",
        [
            (
                [0.0, 0.5, 0.5, 0.5, 0.0, 1.0, 0.0, 0.0, 1.0, -1.0,
                 0.5, 0.5, 0.0, -1.0, 1.0, 1.0, 0.0, 0.5, 0.0, 0.0],
                [1.0, -0.5, 1.0, 0.5, 1.0, -1.0, -0.5, -1.0, -0.5, -1.0,
                 -0.5, 1.0, 0.0, 1.0, -1.0, 0.5, -0.5, 0.5, 1.0, 0.5],
                0.1, 1.0, 1,
            ),
            (
                [1.0, 0.5, -1.0, -1.0, 0.0, 0.5, -1.0, 0.5, -1.0, 0.0, -1.0, 0.5, -1.0],
                [0.0, -0.5, 0.0, 0.5, 0.5, -1.0, 1.0, 1.0, -0.5, -1.0, -1.0, 0.5, -1.0],
                0.1, 0.1, 2,
            ),
        ],
    )
    def test_gain_rounding_cases(self, x, y, eps, c, max_passes):
        kmat = gram(KernelSpec("poly", degree=2), np.array(x)[:, None])
        problem = (kmat, np.array(y), eps, c, 1e-4, max_passes)
        assert_same_solution(svr._smo_solve(*problem), reference_smo_solve(*problem))


class TestOracleSelfChecks:
    def test_projection_feasible_and_idempotent(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            c = float(rng.uniform(0.5, 5.0))
            a, b = project_box_balanced(
                rng.uniform(-2 * c, 2 * c, n), rng.uniform(-2 * c, 2 * c, n), c
            )
            assert np.all(a >= 0.0) and np.all(a <= c)
            assert np.all(b >= 0.0) and np.all(b <= c)
            npt.assert_allclose(a.sum(), b.sum(), atol=1e-9)
            a2, b2 = project_box_balanced(a, b, c)
            npt.assert_allclose(a2, a, atol=1e-9)
            npt.assert_allclose(b2, b, atol=1e-9)

    def test_projection_keeps_feasible_points(self):
        a = np.array([0.5, 1.0])
        b = np.array([1.5, 0.0])
        pa, pb = project_box_balanced(a, b, 2.0)
        npt.assert_allclose(pa, a, atol=1e-12)
        npt.assert_allclose(pb, b, atol=1e-12)


class TestFit:
    def test_flat_targets(self):
        x = np.arange(5.0)[:, None]
        m = fit(x, np.full(5, 3.0), KernelSpec("linear"))
        npt.assert_array_equal(m.coefs, np.zeros(5))
        assert m.bias == 3.0
        assert m.converged
        for q in (-10.0, 0.0, 3.7):
            assert predict_batch(m, [[q]])[0] == 3.0

    def test_single_sample(self):
        m = fit(np.array([[1.5]]), np.array([2.0]), KernelSpec("rbf", sigma=1.0))
        npt.assert_array_equal(m.coefs, [0.0])
        assert m.bias == 2.0

    def test_line_within_tube(self):
        x = np.linspace(-1.0, 1.0, 9)[:, None]
        y = 2.0 * x[:, 0] + 1.0
        m = fit(x, y, KernelSpec("linear"), epsilon=0.01, c_reg=100.0)
        assert m.converged
        npt.assert_allclose(predict_batch(m, x), y, atol=0.01 + 1e-3)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        eps, c = 0.01, 10.0
        for trial in range(6):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=(n, d))
            y = rng.uniform(-2.0, 2.0, size=n)
            kind = ("linear", "poly", "rbf")[trial % 3]
            spec = {
                "linear": KernelSpec("linear"),
                "poly": KernelSpec("poly", degree=2),
                "rbf": KernelSpec("rbf", sigma=1.5),
            }[kind]
            m = fit(x, y, spec, epsilon=eps, c_reg=c)
            kmat = oracle_gram(kind, x, sigma=1.5)
            reached = dual_objective(kmat, y, eps, m.coefs)
            best = oracle_dual_opt(kmat, y, eps, c)
            assert abs(reached - best) / max(1.0, abs(best)) < 1e-3

    @settings(REFERENCE_SETTINGS, max_examples=150)
    @given(fit_problems())
    def test_dual_feasibility(self, problem):
        # a converged fit satisfies the KKT conditions of the dual: the box,
        # the equality, and a pair gap within TOL on a fresh f = K @ coefs
        x, y, spec, eps, c = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            m = fit(x, y, spec, epsilon=eps, c_reg=c)
        if not m.converged:
            return
        assert np.all(np.abs(m.coefs) <= c)
        assert abs(m.coefs.sum()) <= 1e-12 * max(1.0, c)
        f = gram(spec, x) @ m.coefs
        up, _ = loop_best_up(m.coefs, y, f, eps, c)
        down, _ = loop_best_down(m.coefs, y, f, eps, c)
        assert up + down <= svr.TOL

    def test_epsilon_widens_support_shrinks(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, (30, 2))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(30)
        counts = []
        for eps in (0.01, 0.05, 0.1, 0.5):
            m = fit(x, y, KernelSpec("rbf", sigma=1.0), epsilon=eps)
            counts.append(int(np.count_nonzero(np.abs(m.coefs) > 1e-10)))
        assert counts == [28, 27, 27, 9]
        assert counts == sorted(counts, reverse=True)

    def test_determinism(self):
        rng = np.random.default_rng(52)
        x = rng.uniform(-1.0, 1.0, (15, 3))
        y = rng.uniform(-1.0, 1.0, 15)
        a = fit(x, y, KernelSpec("rbf", sigma=1.2), epsilon=0.05, c_reg=5.0)
        b = fit(x, y, KernelSpec("rbf", sigma=1.2), epsilon=0.05, c_reg=5.0)
        npt.assert_array_equal(a.coefs, b.coefs)
        assert a.bias == b.bias
        assert a.passes == b.passes

    def test_pass_budget_warns_but_returns(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, (30, 2))
        y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(30)
        monkeypatch.setattr(svr, "MAX_PASSES", 1)
        monkeypatch.setattr(svr, "TOL", 1e-12)
        with pytest.warns(ConvergenceWarning) as caught:
            m = fit(x, y, KernelSpec("rbf", sigma=1.0))
        assert "bias alone" not in str(caught[0].message)  # the pass did step
        assert not m.converged
        assert m.passes == 1
        assert m.max_violation > 1e-12
        assert np.all(np.abs(m.coefs) <= 10.0 + 1e-12)

    def test_validation(self):
        x = np.ones((3, 1)) * np.arange(3.0)[:, None]
        y = np.arange(3.0)
        spec = KernelSpec("linear")
        with pytest.raises(DomainError):
            fit(np.empty((0, 1)), np.empty(0), spec)
        with pytest.raises(DomainError):
            fit(x, y, spec, epsilon=-0.1)
        with pytest.raises(DomainError):
            fit(x, y, spec, c_reg=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="epsilon must be finite"):
                fit(x, y, spec, epsilon=bad)
            with pytest.raises(DomainError, match="c_reg must be finite"):
                fit(x, y, spec, c_reg=bad)
        # the box a pair moves in is at most 2 * c_reg wide, and no step
        # is taken in a box narrower than 1e-14
        for tiny in (1e-320, 4.9e-15):
            with pytest.raises(DomainError, match="c_reg must be >= 5e-15"):
                fit(x, y, spec, c_reg=tiny)
        with pytest.raises(ShapeError):
            fit(np.ones(3), y, spec)
        with pytest.raises(ShapeError):
            fit(x, np.arange(4.0), spec)


    def test_epsilon_near_the_float64_limit_is_a_flat_model(self):
        # both rates of the best pair sit near -1e308, so their sum overflows;
        # no pair can move, and the fit converges at zero coefficients
        x = np.arange(6.0)[:, None]
        m = fit(x, np.sin(x[:, 0]), KernelSpec("rbf", sigma=1.0), epsilon=1e308)
        assert m.converged
        assert m.passes == 0
        assert not np.any(m.coefs)
        assert math.isfinite(m.bias)

    @pytest.mark.parametrize("top", [1e308, 1e200])
    def test_targets_near_the_float64_limit_fit_without_a_warning(self, top):
        # the first pair rate, or its square, overflows to +inf; the pair
        # still moves to the box, and then no pair can move
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit([[0.0], [1.0]], [top, -top], KernelSpec("linear"), epsilon=0.0)
        assert m.coefs.tolist() == [10.0, -10.0]
        assert m.bias == 0.0
        assert m.converged


class TestPredict:
    def test_zero_coefs_give_bias(self):
        m = SvrModel(
            kernel=KernelSpec("rbf", sigma=1.0),
            inputs=np.array([[0.0], [1.0]]),
            coefs=np.zeros(2),
            bias=1.5,
            c_reg=10.0,
            converged=True,
            passes=0,
            max_violation=0.0,
        )
        assert predict_batch(m, [[0.4]])[0] == 1.5

    def test_single_term_linear_expansion(self):
        m = SvrModel(
            kernel=KernelSpec("linear"),
            inputs=np.array([[2.0, -1.0]]),
            coefs=np.array([1.0]),
            bias=0.0,
            c_reg=10.0,
            converged=True,
            passes=0,
            max_violation=0.0,
        )
        assert predict_batch(m, [[3.0, 4.0]])[0] == 2.0 * 3.0 - 1.0 * 4.0

    def test_matches_independent_expansion(self):
        rng = np.random.default_rng(53)
        inputs = rng.standard_normal((6, 2))
        coefs = rng.standard_normal(6)
        bias = float(rng.standard_normal())
        m = SvrModel(
            kernel=KernelSpec("rbf", sigma=1.3),
            inputs=inputs,
            coefs=coefs,
            bias=bias,
            c_reg=10.0,
            converged=True,
            passes=0,
            max_violation=0.0,
        )
        x = rng.standard_normal(2)
        want = bias
        for xi, ci in zip(inputs, coefs):
            want += ci * math.exp(-float((xi - x) @ (xi - x)) / 1.3**2)
        npt.assert_allclose(predict_batch(m, [x])[0], want, rtol=1e-12)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(54)
        x = rng.uniform(-1.0, 1.0, (12, 2))
        y = rng.uniform(-1.0, 1.0, 12)
        m = fit(x, y, KernelSpec("rbf", sigma=1.0))
        probe = rng.uniform(-1.0, 1.0, (5, 2))
        # each row is the kernel expansion, bit for bit
        loop = [float(m.coefs @ kernel_column(m.kernel, m.inputs, p) + m.bias) for p in probe]
        assert predict_batch(m, probe).tolist() == loop

    def test_batch_shape(self):
        m = fit(np.arange(3.0)[:, None], np.arange(3.0), KernelSpec("linear"))
        with pytest.raises(ShapeError):
            predict_batch(m, np.ones((2, 2)))


class TestDualObjective:
    def test_by_hand(self):
        # 3*1 - 0.5*|1| - 0.5*1*2*1 = 1.5
        v = dual_objective(np.array([[2.0]]), np.array([3.0]), 0.5, np.array([1.0]))
        assert v == 1.5

    def test_zero_coefs(self):
        kmat = np.eye(3)
        assert dual_objective(kmat, np.ones(3), 0.1, np.zeros(3)) == 0.0
