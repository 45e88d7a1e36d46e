"""Feed-forward network trained by backpropagation and mini-batch SGD.

The network is the one the paper trains: ``inputs`` lags into ``hidden``
logistic sigmoid units into one identity output, so it can regress
outside (0, 1).  Per-sample cost is half the squared error, so the
output delta is simply ``a - y`` and the hidden delta is that delta
pulled back through the output weights and gated by the sigmoid slope.

Training shuffles the sample order every epoch with a seeded generator,
walks the batches, and subtracts the batch-mean gradient scaled by the
learning rate.  A :class:`BpNetwork` is a stack of such networks, one
network a stack of one.  :func:`train` gives each network its own
shuffle seed and trains the stack as one; each ends bit for bit as it
would if trained alone.  :func:`new_network` takes the seeds of the
initial weights and :func:`train` the shuffle seeds; bp reads no other
seed.

The stack's parameters are one float64 block, a row per network, so each
batch updates every weight of every network with one scale and one
subtraction.  One forward pass serves training, prediction and the cost
check.  Training stops on a non-finite cost, but an epoch computes the
cost only when a bound on the outputs could let it overflow, and at the
last epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError
from .timeseries import as_count, as_real, as_rows, as_samples, as_vector


def hidden_size_rule(n_inputs: int) -> int:
    """Empirical hidden-layer width for a one-output regressor."""
    n = float(as_count(n_inputs, "input width", 1))
    return int(math.floor(math.sqrt(0.43 * n + 0.12 + 2.54 * n + 0.77 + 0.35) + 0.51))


@dataclass(frozen=True)
class SgdConfig:
    eta: float = 0.01
    batch_size: int = 16
    epochs: int = 500

    def __post_init__(self) -> None:
        as_real(self.eta, "eta")
        as_count(self.batch_size, "batch_size", 1)
        as_count(self.epochs, "epochs", 0)


@dataclass
class BpNetwork:
    """A stack of networks of one shape: a float64 (networks,
    parameter_count) block, one network a row holding its hidden weights
    row-major, its hidden biases, its output weights and its output bias.
    Mutated in place by :func:`train`."""

    inputs: int
    hidden: int
    params: np.ndarray

    def __post_init__(self) -> None:
        self.inputs, self.hidden = _check_widths(self.inputs, self.hidden)
        p = self.params = np.asarray(self.params, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != parameter_count(self.inputs, self.hidden):
            raise ShapeError(f"parameters {p.shape} do not match {self.inputs} inputs and {self.hidden} hidden units")


def _check_widths(inputs, hidden) -> tuple[int, int]:
    return as_count(inputs, "input width", 1), as_count(hidden, "hidden width", 1)


def parameter_count(inputs: int, hidden: int) -> int:
    """Length of the flat parameter row of one network."""
    return hidden * (inputs + 2) + 1


def new_network(inputs: int, hidden: int, seeds) -> BpNetwork:
    """Fresh stack of one network per seed: each network's weights uniform
    on (-0.5, 0.5) from its seed's generator, the hidden weights drawn
    first, and biases zero."""
    inputs, hidden = _check_widths(inputs, hidden)
    try:
        params = np.zeros((len(seeds), parameter_count(inputs, hidden)))
    except (OverflowError, ValueError, MemoryError) as exc:
        # len() refuses a count past ssize_t, numpy a shape past its index
        # range, and an allocation can fail
        raise DomainError(f"cannot allocate networks of {inputs} inputs and {hidden} hidden units: {exc}") from exc
    # the generators come only once the block exists: a stack too big lists none
    rngs = [np.random.default_rng(as_count(seed, "seed", 0)) for seed in seeds]
    w_h, _, w_o, _ = _layers(params, inputs, hidden)
    for k, rng in enumerate(rngs):
        w_h[k] = rng.uniform(-0.5, 0.5, w_h[k].shape)
        w_o[k] = rng.uniform(-0.5, 0.5, w_o[k].shape)
    return BpNetwork(inputs, hidden, params)


def predict_batch(net: BpNetwork, inputs) -> np.ndarray:
    """Each network's output on each row of inputs: (networks, n)."""
    x = as_rows(inputs, net.inputs)
    with np.errstate(over="ignore"):  # the sigmoid saturates
        return _forward(_layers(net.params, net.inputs, net.hidden), x)[1][:, :, 0]


def training_cost(net: BpNetwork, inputs, targets) -> np.ndarray:
    """Mean half squared error over the sample block, one per network."""
    x = as_rows(inputs, net.inputs)
    t = as_vector(targets, x.shape[0], name="targets")
    with np.errstate(over="ignore"):  # the sigmoid saturates
        out = _forward(_layers(net.params, net.inputs, net.hidden), x)[1]
    return 0.5 * np.mean((t - out[:, :, 0]) ** 2, axis=1)


def _transposed(a: np.ndarray) -> np.ndarray:
    # A copy, not a view: BLAS may round a transposed product differently.
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _layers(buf: np.ndarray, n: int, h: int) -> tuple[np.ndarray, ...]:
    # Views into a flat (S, P) block holding one network per row: hidden
    # weights (S, h, n) and biases (S, 1, h), then output weights (S, 1, h)
    # and bias (S, 1, 1).
    return (
        buf[:, : h * n].reshape(-1, h, n),
        buf[:, h * n : h * (n + 1)].reshape(-1, 1, h),
        buf[:, h * (n + 1) : h * (n + 2)].reshape(-1, 1, h),
        buf[:, h * (n + 2) :].reshape(-1, 1, 1),
    )


# The cost is computed only when a bound on it is not this far below float64
# overflow (about 1.8e308), so rounding in the forward pass cannot reach it.
_COST_LIMIT = 1e300


def _squared_error_bound(params, n_in: int, h: int, x_max: float, t_max: float, n: int) -> float:
    """Upper bound on each stacked network's squared error summed over n
    samples, or inf when the hidden or the output bound is not below
    _COST_LIMIT.  A NaN anywhere makes it NaN or inf, never finite.  A
    unit's |input| is at most its largest absolute weight row sum times
    the largest |input| into it, x_max into the hidden units and 1 out of
    each sigmoid, plus its largest |bias|."""
    w_h, b_h, w_o, b_o = _layers(np.abs(params), n_in, h)
    hidden_max = float(w_h.sum(axis=2).max()) * x_max + float(b_h.max())
    out_max = float(w_o.sum(axis=2).max()) + float(b_o.max())
    if not (hidden_max < _COST_LIMIT and out_max < _COST_LIMIT):
        return math.inf
    err = out_max + t_max
    return err * err * n


def _forward(layers, x) -> tuple[np.ndarray, np.ndarray]:
    # The hidden activations (S, n, h) and outputs (S, n, 1) of stacked
    # networks with these _layers views, on x (S, n, in) or on one block
    # (n, in) shared by all.  The caller silences exp's overflow: it
    # saturates.
    w_h, b_h, w_o, b_o = layers
    z = np.matmul(x, _transposed(w_h))
    z += b_h
    a = 1.0 / (1.0 + np.exp(-z))
    out = np.matmul(a, _transposed(w_o))
    out += b_o
    return a, out


def _batch_gradients(layers, x, t, grads):
    # The gradient of each stacked network's half squared error summed over
    # one batch, x (S, n, in) against t (S, n, 1), written into grads, views
    # shaped like layers.
    w_o = layers[2]
    g_wh, g_bh, g_wo, g_bo = grads
    a, out = _forward(layers, x)
    delta = out - t
    np.matmul(_transposed(delta), a, out=g_wo)
    np.add.reduce(delta, axis=1, keepdims=True, out=g_bo)
    delta = np.matmul(delta, w_o) * (a * (1.0 - a))
    np.matmul(_transposed(delta), x, out=g_wh)
    np.add.reduce(delta, axis=1, keepdims=True, out=g_bh)


def _stacked_epoch(params, grads, hidden, xs, ts, batch_size, eta):
    # One SGD pass over the flat parameters of a stack; xs (S, n, in) and
    # ts (S, n, 1) hold each network's samples in its own order.  Each batch
    # (the last may be smaller) writes its gradients into views of grads and
    # divides by its own size.  The caller silences exp's overflow: it
    # saturates.
    layers = _layers(params, xs.shape[2], hidden)
    grad_views = _layers(grads, xs.shape[2], hidden)
    for start in range(0, xs.shape[1], batch_size):
        x = xs[:, start : start + batch_size]
        _batch_gradients(layers, x, ts[:, start : start + batch_size], grad_views)
        grads *= eta / x.shape[1]
        params -= grads


def train(net: BpNetwork, inputs, targets, cfg: SgdConfig, seeds) -> None:
    """Mini-batch SGD in place on a stack, one shuffle seed per network.
    When an epoch-end cost is not finite, DivergenceError reports the
    lowest-index network that ever diverges, as training one by one would,
    and no network is changed.
    """
    if len(seeds) != net.params.shape[0]:
        raise ShapeError(f"need one seed per network: {net.params.shape[0]}, {len(seeds)}")
    x, t = as_samples(as_rows(inputs, net.inputs), targets)
    n_in, hidden = net.inputs, net.hidden
    params = net.params.copy()
    grads = np.empty_like(params)
    rngs = [np.random.default_rng(as_count(seed, "seed", 0)) for seed in seeds]
    x_max, t_max = float(np.abs(x).max()), float(np.abs(t).max())
    # Only networks below a diverged one still matter: they are the prefix
    # params[:live], so dropping the rest copies nothing.
    live, failure = len(rngs), None
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = np.stack([rng.permutation(x.shape[0]) for rng in rngs[:live]])
            _stacked_epoch(params[:live], grads[:live], hidden, x[order], t[order, None], cfg.batch_size, cfg.eta)
            # A NaN bound is not below the limit either, so NaN reaches the
            # full cost.  The last epoch always computes it: what train
            # leaves is checked exactly, not only through the bound.
            bound = _squared_error_bound(params[:live], n_in, hidden, x_max, t_max, x.shape[0])
            if bound < _COST_LIMIT and epoch < cfg.epochs - 1:
                continue
            costs = training_cost(BpNetwork(n_in, hidden, params[:live]), x, t)
            bad = np.flatnonzero(~np.isfinite(costs))
            if bad.size:
                live = int(bad[0])
                failure = DivergenceError(f"training cost became non-finite ({costs[live]})")
            if live == 0:
                break
    if failure is not None:
        raise failure
    net.params[...] = params
