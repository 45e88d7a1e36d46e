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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DomainError, ShapeError
from .kernels import KernelSpec, gram, kernel_column

_PROGRESS_TOL = 1e-12


def _smo_rates(beta, r, eps, c):
    # One-sided ascent rates of the dual at residuals r = y - f: up[k]
    # for raising beta[k], dn[k] for lowering it, -inf where the box
    # forbids the move.
    hi_thr = c * (1.0 - 1e-10)
    up = np.where(beta >= 0.0, r - eps, r + eps)
    up[beta >= hi_thr] = -np.inf
    dn = np.where(beta > 0.0, eps - r, -eps - r)
    dn[beta <= -hi_thr] = -np.inf
    return up, dn


def _smo_gap(up, dn):
    # Largest feasible pair ascent rate, -inf when no pair can move.
    # When it is positive the two argmax indices are necessarily distinct
    # (one coefficient's up and down rates sum to at most zero), so this
    # is the true pair gap.
    return up.max() + dn.max()


def _smo_partner(kmat, diag, dn, i, up_i):
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


def _smo_gain(t, g, kappa, bi, bj, eps):
    # Exact change in the dual objective for the move (bi+t, bj-t).
    return (
        g * t
        - 0.5 * kappa * t * t
        - eps * (abs(bi + t) - abs(bi) + abs(bj - t) - abs(bj))
    )


def _smo_step(kmat, y, beta, f, i, j, eps, c):
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
        gain = _smo_gain(t, g, kappa, bi, bj, eps)
        if gain > best_gain:
            best_gain = gain
            best_t = t
    if best_gain <= _PROGRESS_TOL:
        return 0.0
    new_bi = min(max(bi + best_t, -c), c)
    new_bj = min(max(bj - best_t, -c), c)
    beta[i] = new_bi
    beta[j] = new_bj
    # kmat is symmetric (gram mirrors every pair), so rows stand in for
    # the columns of i and j
    f += (new_bi - bi) * kmat[i] + (new_bj - bj) * kmat[j]
    return best_gain


def _smo_solve(kmat, y, eps, c, tol, max_passes):
    n = y.shape[0]
    diag = kmat.diagonal()
    beta = np.zeros(n)
    f = np.zeros(n)
    passes = 0
    converged = False
    gap = _smo_gap(*_smo_rates(beta, y - f, eps, c))
    if gap <= tol:
        converged = True
    else:
        for p in range(max_passes):
            stepped_any = False
            for _ in range(n):
                up, dn = _smo_rates(beta, y - f, eps, c)
                iu = int(np.argmax(up))
                idn = int(np.argmax(dn))
                gap = up[iu] + dn[idn]
                if gap <= tol:
                    break
                j = _smo_partner(kmat, diag, dn, iu, up[iu])
                gain = 0.0
                if j >= 0:
                    gain = _smo_step(kmat, y, beta, f, iu, j, eps, c)
                if gain <= 0.0 and j != idn:
                    gain = _smo_step(kmat, y, beta, f, iu, idn, eps, c)
                if gain <= 0.0:
                    # the best pair cannot make numeric progress
                    break
                stepped_any = True
            passes = p + 1
            gap = _smo_gap(*_smo_rates(beta, y - f, eps, c))
            if gap <= tol:
                converged = True
                break
            if not stepped_any:
                break
    bias = _smo_bias(beta, y - f, eps, c)
    return beta, bias, passes, converged, max(gap, 0.0)


@dataclass(frozen=True)
class SvrModel:
    kernel: KernelSpec
    inputs: np.ndarray  # training rows the expansion sums over
    coefs: np.ndarray  # net dual coefficients, |coef| <= c_reg, sum ~ 0
    bias: float
    epsilon: float
    c_reg: float
    converged: bool
    passes: int
    max_violation: float


def dual_objective(kmat, targets, epsilon: float, coefs) -> float:
    """The maximized dual value at the given coefficients."""
    kmat = np.asarray(kmat, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    b = np.asarray(coefs, dtype=np.float64)
    return float(y @ b - epsilon * np.sum(np.abs(b)) - 0.5 * b @ kmat @ b)


def fit(
    inputs,
    targets,
    kernel: KernelSpec,
    epsilon: float = 0.01,
    c_reg: float = 10.0,
    tol: float = 1e-4,
    max_passes: int = 200,
    seed: int = 0,
) -> SvrModel:
    """Solve the dual by maximal-violating-pair coordinate moves.

    The solver is deterministic; ``seed`` is accepted so every model in
    the package shares one fitting signature, and repeat calls with any
    fixed arguments reproduce the same model bit for bit.  Emits
    ConvergenceWarning (and still returns the model) when the pass
    budget ends with a KKT violation above ``tol``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ShapeError(f"targets must be 1-D with {x.shape[0]} entries")
    if x.shape[0] == 0:
        raise DomainError("no training samples")
    if epsilon < 0.0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if not c_reg > 0.0:
        raise DomainError(f"c_reg must be > 0, got {c_reg}")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    if max_passes < 1:
        raise DomainError(f"max_passes must be >= 1, got {max_passes}")
    kmat = gram(kernel, x)
    beta, bias, passes, converged, viol = _smo_solve(
        kmat, y, float(epsilon), float(c_reg), float(tol), int(max_passes)
    )
    if not converged:
        warnings.warn(
            f"pairwise solver stopped after {passes} passes with KKT violation "
            f"{viol:.3g} > tol {tol:.3g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return SvrModel(
        kernel=kernel,
        inputs=x.copy(),
        coefs=beta,
        bias=float(bias),
        epsilon=float(epsilon),
        c_reg=float(c_reg),
        converged=bool(converged),
        passes=int(passes),
        max_violation=float(viol),
    )


def predict(model: SvrModel, x) -> float:
    """Kernel expansion over the training rows plus the bias."""
    col = kernel_column(model.kernel, model.inputs, x)
    return float(model.coefs @ col + model.bias)


def predict_batch(model: SvrModel, inputs) -> np.ndarray:
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.inputs.shape[1]:
        raise ShapeError(f"inputs must be (n, {model.inputs.shape[1]}), got {arr.shape}")
    return np.array([predict(model, row) for row in arr])
