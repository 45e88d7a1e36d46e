"""Feed-forward network trained by backpropagation and mini-batch SGD.

Hidden layers squash through the logistic sigmoid; the output layer is
identity so the network can regress outside (0, 1).  Per-sample cost is
half the squared error, so the output delta is simply ``a - y`` and each
earlier delta is the next layer's delta pulled back through the weights
and gated by the sigmoid slope.

Training shuffles the sample order every epoch with a seeded generator,
walks the batches, and subtracts the batch-mean gradient scaled by the
learning rate.  A :class:`BpNetwork` is a stack of networks of one
shape and any depth, one network a stack of one.  :func:`train` gives
each network its own shuffle seed and trains the stack as one; each ends
bit for bit as it would if trained alone.  :func:`new_network` takes the
seeds of the initial weights and :func:`train` the shuffle seeds; bp
reads no other seed.

The stack's parameters are one float64 block, a row per network, so each
batch updates every layer of every network with one scale and one
subtraction.  One forward pass serves training, prediction and the cost
check.  Training stops on a non-finite cost, but an epoch computes the
cost only when a layer-by-layer bound on the outputs could let it
overflow, and at the last epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError
from .timeseries import as_count, as_real, as_rows


def hidden_size_rule(n_outputs: int, n_inputs: int) -> int:
    """Empirical hidden-layer width for a one-hidden-layer regressor."""
    if n_outputs < 1 or n_inputs < 1:
        raise DomainError("layer widths must be positive")
    l, n = float(n_outputs), float(n_inputs)
    value = math.sqrt(0.43 * l * n + 0.12 * l * l + 2.54 * n + 0.77 * l + 0.35) + 0.51
    return int(math.floor(value))


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
    """A stack of networks of one shape: a float64 (networks, parameter
    count) block, one network a row, each layer's weights row-major then
    its biases.  ``weights[l]``, (networks, size of layer l+1, size of
    layer l), and ``biases[l]``, (networks, 1, size of layer l+1), are
    views of it.  Mutated in place by :func:`train`."""

    layer_sizes: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self) -> None:
        self.layer_sizes = sizes = _check_sizes(self.layer_sizes)
        p = self.params = np.asarray(self.params, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != parameter_count(sizes):
            raise ShapeError(f"parameters {p.shape} do not match layers {sizes}")

    @property
    def weights(self) -> list[np.ndarray]:
        return _layers(self.params, self.layer_sizes)[0]

    @property
    def biases(self) -> list[np.ndarray]:
        return _layers(self.params, self.layer_sizes)[1]


def _check_sizes(layer_sizes) -> tuple[int, ...]:
    sizes = tuple(as_count(s, "layer size") for s in layer_sizes)
    if len(sizes) < 2:
        raise DomainError("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise DomainError(f"layer sizes must be positive, got {sizes}")
    return sizes


def parameter_count(layer_sizes) -> int:
    """Length of the flat parameter row of a network with these layers."""
    return sum(nxt * (cur + 1) for cur, nxt in zip(layer_sizes, layer_sizes[1:]))


def new_network(layer_sizes, seeds) -> BpNetwork:
    """Fresh stack of one network per seed: each network's weights uniform
    on (-0.5, 0.5) from its seed's generator, drawn layer by layer, and
    biases zero."""
    sizes = _check_sizes(layer_sizes)
    try:
        params = np.zeros((len(seeds), parameter_count(sizes)))
    except (OverflowError, ValueError, MemoryError) as exc:
        # len() refuses a count past ssize_t, numpy a shape past its index
        # range, and an allocation can fail
        raise DomainError(f"cannot allocate layers of sizes {sizes}: {exc}") from exc
    # the generators come only once the block exists: a stack too big lists none
    rngs = [np.random.default_rng(as_count(seed, "seed", 0)) for seed in seeds]
    for w in _layers(params, sizes)[0]:
        for row, rng in zip(w, rngs):
            row[...] = rng.uniform(-0.5, 0.5, row.shape)
    return BpNetwork(sizes, params)


def predict_batch(net: BpNetwork, inputs) -> np.ndarray:
    """Each network's one-unit output on each row of inputs: (networks, n)."""
    x = as_rows(inputs, net.layer_sizes[0])
    if net.layer_sizes[-1] != 1:
        raise ShapeError("predict_batch expects a single output unit")
    with np.errstate(over="ignore"):  # the sigmoid saturates
        return _forward(net.weights, net.biases, x)[-1][:, :, 0]


def _samples(net: BpNetwork, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    x = as_rows(inputs, net.layer_sizes[0])
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape != (x.shape[0], net.layer_sizes[-1]):
        raise ShapeError(f"targets must be (n, {net.layer_sizes[-1]}), got {t.shape}")
    return x, t


def training_cost(net: BpNetwork, inputs, targets) -> np.ndarray:
    """Mean half squared error over the sample block, one per network."""
    x, t = _samples(net, inputs, targets)
    with np.errstate(over="ignore"):  # the sigmoid saturates
        out = _forward(net.weights, net.biases, x)[-1]
    return 0.5 * np.mean(np.sum((t - out) ** 2, axis=2), axis=1)


def _transposed(a: np.ndarray) -> np.ndarray:
    # A copy, not a view: BLAS may round a transposed product differently.
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _layers(buf: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # Views into a flat (S, P) buffer holding one network per row, layer by
    # layer: weights (S, out, in), then biases (S, 1, out).
    weights, biases, off = [], [], 0
    for cur, nxt in zip(sizes, sizes[1:]):
        weights.append(buf[:, off : off + nxt * cur].reshape(-1, nxt, cur))
        off += nxt * cur
        biases.append(buf[:, off : off + nxt].reshape(-1, 1, nxt))
        off += nxt
    return weights, biases


# The cost is computed only when a bound on it is not this far below float64
# overflow (about 1.8e308), so rounding in the forward pass cannot reach it.
_COST_LIMIT = 1e300


def _squared_error_bound(params, sizes, x_max: float, t_max: float, n: int) -> float:
    """Upper bound on each stacked network's squared error summed over n
    samples and every output, or inf when a layer's bound is not below
    _COST_LIMIT.  A NaN anywhere makes it NaN or inf, never finite.
    |output| is bounded layer by layer: |inputs| <= x_max at the first layer
    and <= 1 after each sigmoid, and each layer adds at most its largest
    absolute row sum times that plus its largest |bias|."""
    weights, biases = _layers(np.abs(params), sizes)
    a_max = x_max
    for w, b in zip(weights, biases):
        z_max = float(w.sum(axis=2).max()) * a_max + float(b.max())
        if not z_max < _COST_LIMIT:
            return math.inf
        a_max = 1.0
    err = z_max + t_max
    return err * err * (n * sizes[-1])


def _forward(weights, biases, x) -> list[np.ndarray]:
    # The activations of stacked networks, weights (S, out, in) and biases
    # (S, 1, out), on x (S, n, in) or on one block (n, in) shared by all:
    # x first, each sigmoid layer, then the identity output (S, n, out).
    # The caller silences exp's overflow: it saturates.
    last = len(weights) - 1
    acts = [x]
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[-1], _transposed(w))
        z += b
        acts.append(z if l == last else 1.0 / (1.0 + np.exp(-z)))
    return acts


def _batch_gradients(weights, biases, x, t, grad_w, grad_b):
    # The gradient of each stacked network's half squared error summed over
    # one batch: the forward pass over x (S, n, in), then the deltas against
    # t (S, n, out) pulled back layer by layer into grad_w and grad_b,
    # shaped like the weights (S, out, in) and biases (S, 1, out).
    last = len(weights) - 1
    acts = _forward(weights, biases, x)
    delta = acts[-1] - t
    for l in range(last, -1, -1):
        np.matmul(_transposed(delta), acts[l], out=grad_w[l])
        np.add.reduce(delta, axis=1, keepdims=True, out=grad_b[l])
        if l > 0:
            delta = np.matmul(delta, weights[l]) * (acts[l] * (1.0 - acts[l]))


def _stacked_epoch(params, grads, sizes, xs, ts, batch_size, eta):
    # One SGD pass over the flat parameters of a stack; xs and ts hold each
    # network's samples in its own order.  Each batch (the last may be
    # smaller) writes its gradients into views of grads and divides by its
    # own size.  The caller silences exp's overflow: it saturates.
    weights, biases = _layers(params, sizes)
    grad_w, grad_b = _layers(grads, sizes)
    for start in range(0, xs.shape[1], batch_size):
        x = xs[:, start : start + batch_size]
        _batch_gradients(weights, biases, x, ts[:, start : start + batch_size], grad_w, grad_b)
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
    x, t = _samples(net, inputs, targets)
    if x.shape[0] == 0:
        raise DomainError("no training samples")
    sizes = net.layer_sizes
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
            _stacked_epoch(
                params[:live], grads[:live], sizes, x[order], t[order], cfg.batch_size, cfg.eta
            )
            # A NaN bound is not below the limit either, so NaN reaches the
            # full cost.  The last epoch always computes it: what train
            # leaves is checked exactly, not only through the bound.
            bound = _squared_error_bound(params[:live], sizes, x_max, t_max, x.shape[0])
            if bound < _COST_LIMIT and epoch < cfg.epochs - 1:
                continue
            costs = training_cost(BpNetwork(sizes, params[:live]), x, t)
            bad = np.flatnonzero(~np.isfinite(costs))
            if bad.size:
                live = int(bad[0])
                failure = DivergenceError(f"training cost became non-finite ({costs[live]})")
            if live == 0:
                break
    if failure is not None:
        raise failure
    net.params[...] = params
