"""Support vector regression with an epsilon-insensitive loss.

The fitter maximizes the standard dual in the net coefficients
``b_i = alpha_i - alpha_i*``:

    W(b) = y.b - eps * sum_i |b_i| - 0.5 * b' K b
    subject to  sum_i b_i = 0,  |b_i| <= c_reg.

Optimization is a sequence of exact two-coordinate moves: shifting mass
``t`` from coefficient j to coefficient i preserves the equality
constraint and reduces W to a piecewise quadratic in ``t`` (kinks where a
coefficient crosses zero), so the best move is found by evaluating a
handful of closed-form candidates.  Each move works on the current
maximal violating pair: the coefficient with the steepest feasible
ascent rate anchors the move, and its partner is chosen among
opposite-direction candidates by a curvature-aware gain estimate
(rate squared over pair curvature).  A pass is ``n`` such moves; the
loop stops when the largest pair gap, the KKT violation of the
equality-constrained problem, drops to ``tol``, or when the pass budget
runs out.  Selecting moves by value rather than by stationarity keeps
each step correct even for the tanh kernel, whose gram matrix need not
be positive semidefinite.

The bias is recovered from samples strictly inside the box, or from the
midpoint of the interval the KKT inequalities leave feasible when no
such sample exists.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DomainError
from .kernels import KernelSpec, expansion, gram
from .timeseries import as_samples

# Stopping rule of every fit: KKT violation at most TOL, at most MAX_PASSES passes.
TOL = 1e-4
MAX_PASSES = 200

_PROGRESS_TOL = 1e-12
# A pair move needs a box at least this wide; the box is at most 2 * c_reg.
_MIN_STEP_WIDTH = 1e-14


def _smo_offsets(beta, eps, c):
    # Per-coefficient offsets from the residuals r = y - f to the
    # one-sided ascent rates of the dual: up = r + up_off for raising
    # beta[k], dn = dn_off - r for lowering it, -inf where the box
    # forbids the move.  r + (-eps) is r - eps bit for bit.
    hi_thr = c * (1.0 - 1e-10)
    up_off = np.where(beta >= 0.0, -eps, eps)
    up_off[beta >= hi_thr] = -np.inf
    dn_off = np.where(beta > 0.0, eps, -eps)
    dn_off[beta <= -hi_thr] = -np.inf
    return up_off, dn_off


def _smo_gap(up, dn):
    # Largest feasible pair ascent rate, -inf when no pair can move.
    # When it is positive the two argmax indices are necessarily distinct
    # (one coefficient's up and down rates sum to at most zero), so this
    # is the true pair gap.  An epsilon near the float64 limit can push
    # the sum of two very negative rates past it; that overflows to -inf,
    # which is still "no pair can move".
    with np.errstate(over="ignore"):
        return up.max() + dn.max()


def _smo_curvatures(kmat):
    # Pair curvatures K[i,i] + K[j,j] - 2 K[i,j], floored at 1e-12.
    diag = kmat.diagonal()
    return np.maximum(diag[:, None] + diag - 2.0 * kmat, 1e-12)


def _smo_partner(kappa_i, dn, up_i):
    # Down-partner for an up-move at i, given row i of the pair
    # curvatures: among coefficients that can decrease and give the pair
    # a positive ascent rate, the one with the largest single-step gain
    # estimate rate^2 / curvature; -1 when none.  argmax takes the first
    # of tied estimates.  i never partners itself: its own up and down
    # rates sum to at most zero.
    rate = up_i + dn
    est = np.where(rate > 0.0, rate * rate / kappa_i, -np.inf)
    j = int(est.argmax())
    return j if est[j] > -np.inf else -1


def _smo_bias(beta, r, eps, c):
    # Interior samples pin the bias exactly; otherwise take the midpoint
    # of the interval the inequality conditions allow.
    lo_thr = 1e-10 * c
    hi_thr = c * (1.0 - 1e-10)
    mag = np.abs(beta)
    interior = (mag > lo_thr) & (mag < hi_thr)
    if np.any(interior):
        return float(np.mean((r - np.sign(beta) * eps)[interior]))
    zero = mag <= lo_thr
    top = ~zero & (beta >= hi_thr)
    bottom = ~zero & ~top
    lo = np.max(np.concatenate([r[zero] - eps, r[bottom] + eps]), initial=-np.inf)
    hi = np.min(np.concatenate([r[zero] + eps, r[top] - eps]), initial=np.inf)
    if lo > -np.inf and hi < np.inf:
        return 0.5 * (lo + hi)
    if lo > -np.inf:
        return lo
    if hi < np.inf:
        return hi
    return 0.0


def _smo_step(krows, beta, g, i, j, eps, c):
    # Best feasible two-coordinate move (beta[i] + t, beta[j] - t) at pair
    # rate g = r[i] - r[j], on Python floats: the exact objective gain
    # of each of up to 7 candidate steps, clipped to the box.  Returns
    # the new (beta[i], beta[j]), or None when no move helps.
    bi = beta[i]
    bj = beta[j]
    lo = max(-c - bi, bj - c)
    hi = min(c - bi, bj + c)
    if hi - lo < _MIN_STEP_WIDTH:
        return None
    ki = krows[i]
    kappa = ki[i] + krows[j][j] - 2.0 * ki[j]
    cand = [lo, hi, -bi, bj]
    if kappa > 1e-14:
        cand += [g / kappa, (g - 2.0 * eps) / kappa, (g + 2.0 * eps) / kappa]
    half_kappa = 0.5 * kappa
    abs_bi = abs(bi)
    abs_bj = abs(bj)
    best_t = 0.0
    best_gain = 0.0
    for t in cand:
        # min(max(t, lo), hi), without the calls
        if lo > t:
            t = lo
        if hi < t:
            t = hi
        gain = g * t - half_kappa * t * t - eps * (abs(bi + t) - abs_bi + abs(bj - t) - abs_bj)
        if gain > best_gain:
            best_gain = gain
            best_t = t
    if best_gain <= _PROGRESS_TOL:
        return None
    return min(max(bi + best_t, -c), c), min(max(bj - best_t, -c), c)


def _smo_solve(kmat, y, eps, c, tol, max_passes):
    n = y.shape[0]
    kappa = _smo_curvatures(kmat)
    krows = kmat.tolist()
    hi_thr = c * (1.0 - 1e-10)
    beta = [0.0] * n
    f = np.zeros(n)
    up_off, dn_off = _smo_offsets(np.zeros(n), eps, c)
    passes = 0
    converged = False
    r = y - f
    gap = _smo_gap(r + up_off, dn_off - r)
    if gap <= tol:
        converged = True
    else:
        for p in range(max_passes):
            stepped_any = False
            for _ in range(n):
                r = y - f
                up = r + up_off
                dn = dn_off - r
                i = int(up.argmax())
                idn = int(dn.argmax())
                gap = up[i] + dn[idn]
                if gap <= tol:
                    break
                j = _smo_partner(kappa[i], dn, up[i])
                move = None
                if j >= 0:
                    move = _smo_step(krows, beta, r.item(i) - r.item(j), i, j, eps, c)
                if move is None and j != idn:
                    j = idn
                    move = _smo_step(krows, beta, r.item(i) - r.item(j), i, j, eps, c)
                if move is None:
                    # the best pair cannot make numeric progress
                    break
                stepped_any = True
                new_bi, new_bj = move
                # kmat is symmetric (gram mirrors every pair), so rows
                # stand in for the columns of i and j
                f += (new_bi - beta[i]) * kmat[i] + (new_bj - beta[j]) * kmat[j]
                beta[i] = new_bi
                beta[j] = new_bj
                for k, b in ((i, new_bi), (j, new_bj)):
                    up_off[k] = -np.inf if b >= hi_thr else (-eps if b >= 0.0 else eps)
                    dn_off[k] = -np.inf if b <= -hi_thr else (eps if b > 0.0 else -eps)
            passes = p + 1
            r = y - f
            gap = _smo_gap(r + up_off, dn_off - r)
            if gap <= tol:
                converged = True
                break
            if not stepped_any:
                break
    beta = np.array(beta)
    bias = _smo_bias(beta, y - f, eps, c)
    return beta, bias, passes, converged, max(gap, 0.0)


def check_settings(epsilon: float, c_reg: float) -> None:
    """Raise DomainError unless epsilon is finite and >= 0 and c_reg is
    finite and wide enough for the solver to take a step."""
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    if not 0.0 < c_reg < math.inf:
        raise DomainError(f"c_reg must be finite and > 0, got {c_reg}")
    if 2.0 * c_reg < _MIN_STEP_WIDTH:
        raise DomainError(
            f"c_reg must be >= {_MIN_STEP_WIDTH / 2:g} for the solver to take a step, got {c_reg}"
        )


@dataclass(frozen=True)
class SvrModel:
    kernel: KernelSpec
    inputs: np.ndarray  # training rows the expansion sums over
    coefs: np.ndarray  # net dual coefficients, |coef| <= c_reg, sum ~ 0
    bias: float
    c_reg: float
    converged: bool
    passes: int
    max_violation: float


def fit(
    inputs,
    targets,
    kernel: KernelSpec,
    epsilon: float = 0.01,
    c_reg: float = 10.0,
) -> SvrModel:
    """Solve the dual by maximal-violating-pair coordinate moves.

    The solver is deterministic: repeat calls with fixed arguments
    reproduce the same model bit for bit.  Emits ConvergenceWarning (and
    still returns the model) when the solver stops with a KKT violation
    above ``TOL``; the warning says so when every coefficient is still 0
    and the model predicts its bias alone.
    """
    x, y = as_samples(inputs, targets)
    check_settings(epsilon, c_reg)
    kmat = gram(kernel, x)
    beta, bias, passes, converged, viol = _smo_solve(
        kmat, y, float(epsilon), float(c_reg), TOL, MAX_PASSES
    )
    if not converged:
        # with no step taken the expansion is empty: say so, or the row
        # would pass for a trained model
        bias_only = (
            "" if beta.any() else "; every coefficient is 0, so the model predicts its bias alone"
        )
        warnings.warn(
            f"pairwise solver stopped after {passes} passes with KKT violation "
            f"{viol:.3g} > tol {TOL:.3g}{bias_only}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return SvrModel(
        kernel=kernel,
        inputs=x.copy(),
        coefs=beta,
        bias=float(bias),
        c_reg=float(c_reg),
        converged=bool(converged),
        passes=int(passes),
        max_violation=float(viol),
    )


def predict_batch(model: SvrModel, inputs) -> np.ndarray:
    """Kernel expansion over the training rows plus the bias, per input row."""
    return expansion(model.kernel, model.inputs, model.coefs, model.bias, inputs)
