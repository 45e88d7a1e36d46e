"""Feed-forward network trained by backpropagation and mini-batch SGD.

Hidden layers squash through the logistic sigmoid; the output layer is
identity so the network can regress outside (0, 1).  Per-sample cost is
half the squared error, so the output delta is simply ``a - y`` and each
earlier delta is the next layer's delta pulled back through the weights
and gated by the sigmoid slope.

Training shuffles the sample order every epoch with a seeded generator,
walks the batches, and subtracts the batch-mean gradient scaled by the
learning rate.  :func:`train` runs a list of networks, each with its own
shuffle seed, as one stacked network of any depth; each ends bit for bit
as it would if trained alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, ShapeError


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):  # saturation is well-defined
        return 1.0 / (1.0 + np.exp(-z))


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
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.eta >= 0.0:
            raise DomainError(f"eta must be >= 0, got {self.eta}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class BpNetwork:
    """Weights and biases, one pair per non-input layer.

    ``weights[l]`` has shape (size of layer l+1, size of layer l) and acts
    on activations from the left.  Mutated in place by :func:`train`.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise DomainError("need at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise DomainError(f"layer sizes must be positive, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)
        expected = list(zip(sizes[1:], sizes[:-1]))
        shapes = [w.shape for w in self.weights]
        if shapes != expected:
            raise ShapeError(f"weight shapes {shapes} do not match layers {sizes}")
        if [b.shape for b in self.biases] != [(s,) for s in sizes[1:]]:
            raise ShapeError("bias shapes do not match layers")


def new_network(layer_sizes, seed: int = 0) -> BpNetwork:
    """Fresh network: weights uniform on (-0.5, 0.5) from the seeded
    generator, biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-0.5, 0.5, (nxt, cur)) for cur, nxt in zip(sizes, sizes[1:])]
    biases = [np.zeros(nxt) for nxt in sizes[1:]]
    return BpNetwork(sizes, weights, biases)


def _check_input(net: BpNetwork, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != net.layer_sizes[0]:
        raise ShapeError(
            f"input must be a vector of length {net.layer_sizes[0]}, got shape {arr.shape}"
        )
    return arr


def forward(net: BpNetwork, x) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """All activations and pre-activation sums for one input.

    Returns (activations, pre_activations); activations[0] is the input
    itself and pre_activations[l] feeds activations[l + 1].
    """
    a = _check_input(net, x)
    activations = [a]
    pre = []
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        pre.append(z)
        a = z if l == last else sigmoid(z)
        activations.append(a)
    return activations, pre


def predict(net: BpNetwork, x) -> float:
    """Output activation for one input; scalar when the output layer has
    one unit, else a vector."""
    activations, _ = forward(net, x)
    out = activations[-1]
    return float(out[0]) if out.shape[0] == 1 else out


def _stack(nets) -> tuple[list[np.ndarray], list[np.ndarray]]:
    # networks of one shape side by side: weights (S, out, in), biases (S, 1, out)
    weights = [np.stack(ws) for ws in zip(*(net.weights for net in nets))]
    biases = [np.stack(bs)[:, None, :] for bs in zip(*(net.biases for net in nets))]
    return weights, biases


def _forward_batch(nets: list[BpNetwork], inputs) -> np.ndarray:
    """Outputs of networks of one shape on the rows of inputs, (S, n, out)."""
    a = np.asarray(inputs, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != nets[0].layer_sizes[0]:
        raise ShapeError(f"inputs must be (n, {nets[0].layer_sizes[0]}), got {a.shape}")
    weights, biases = _stack(nets)
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w.transpose(0, 2, 1)) + b
        a = z if l == last else sigmoid(z)
    return a


def predict_batch(net: BpNetwork, inputs) -> np.ndarray:
    """Vectorized forward pass over rows of inputs (one-unit output)."""
    out = _forward_batch([net], inputs)
    if out.shape[2] != 1:
        raise ShapeError("predict_batch expects a single output unit")
    return out[0, :, 0]


def backprop(net: BpNetwork, x, y) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact cost gradient for one sample under half squared error.

    Returns (weight_grads, bias_grads) with the same shapes as the
    network's parameters.
    """
    target = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if target.shape[0] != net.layer_sizes[-1]:
        raise ShapeError(
            f"target must have length {net.layer_sizes[-1]}, got {target.shape[0]}"
        )
    activations, pre = forward(net, x)
    delta = activations[-1] - target  # identity output layer
    grad_w = [np.empty(0)] * len(net.weights)
    grad_b = [np.empty(0)] * len(net.biases)
    for l in range(len(net.weights) - 1, -1, -1):
        grad_w[l] = np.outer(delta, activations[l])
        grad_b[l] = delta.copy()
        if l > 0:
            s = sigmoid(pre[l - 1])
            delta = (net.weights[l].T @ delta) * s * (1.0 - s)
    return grad_w, grad_b


def _samples(net: BpNetwork, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if x.ndim != 2 or x.shape[1] != net.layer_sizes[0]:
        raise ShapeError(f"inputs must be (n, {net.layer_sizes[0]}), got {x.shape}")
    if t.shape != (x.shape[0], net.layer_sizes[-1]):
        raise ShapeError(f"targets must be (n, {net.layer_sizes[-1]}), got {t.shape}")
    return x, t


def training_cost(nets, inputs, targets):
    """Mean half squared error over the sample block: a float for one
    network, an array of costs for a list of networks of one shape."""
    group = [nets] if isinstance(nets, BpNetwork) else list(nets)
    x, t = _samples(group[0], inputs, targets)
    costs = 0.5 * np.mean(np.sum((t - _forward_batch(group, x)) ** 2, axis=2), axis=1)
    return float(costs[0]) if isinstance(nets, BpNetwork) else costs


def _transposed(a: np.ndarray) -> np.ndarray:
    # A copy, not a view: BLAS may round a transposed product differently.
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _stacked_epoch(weights, biases, xs, ts, batch_size, eta):
    # One SGD pass over stacked parameters; xs and ts hold each network's
    # samples in its own order.  Each batch (the last may be smaller) divides
    # by its own size.  The caller silences exp's overflow: it saturates.
    last = len(weights) - 1
    for start in range(0, xs.shape[1], batch_size):
        acts = [xs[:, start : start + batch_size]]
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = np.matmul(acts[-1], _transposed(w))
            z += b
            acts.append(z if l == last else 1.0 / (1.0 + np.exp(-z)))
        delta = acts[-1] - ts[:, start : start + batch_size]
        grads = []
        for l in range(last, -1, -1):
            gw = np.matmul(_transposed(delta), acts[l])
            grads.append((gw, np.add.reduce(delta, axis=1, keepdims=True)))
            if l > 0:
                delta = np.matmul(delta, weights[l]) * (acts[l] * (1.0 - acts[l]))
        s = eta / acts[0].shape[1]
        for (gw, gb), w, b in zip(grads, weights[::-1], biases[::-1]):
            w -= s * gw
            b -= s * gb


def train(nets, inputs, targets, cfg: SgdConfig, seeds=None):
    """Mini-batch SGD in place on one network, or on a list of networks of
    one shape trained as one stack with a shuffle seed each (default
    ``cfg.seed``); returns what it was given.  When an epoch-end cost is
    not finite, DivergenceError reports the lowest-index network that ever
    diverges, as training one by one would, and no network is changed.
    """
    group = [nets] if isinstance(nets, BpNetwork) else list(nets)
    seeds = [cfg.seed] * len(group) if seeds is None else [int(s) for s in seeds]
    if not group or len(seeds) != len(group) or len({net.layer_sizes for net in group}) > 1:
        raise ShapeError(f"need networks of one shape, one seed each: {len(group)}, {len(seeds)}")
    x, t = _samples(group[0], inputs, targets)
    if x.shape[0] == 0:
        raise DomainError("no training samples")
    weights, biases = _stack(group)
    views = [
        BpNetwork(net.layer_sizes, [w[k] for w in weights], [b[k, 0] for b in biases])
        for k, net in enumerate(group)
    ]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live, failure = len(group), None  # only networks below a diverged one still matter
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = np.stack([rng.permutation(x.shape[0]) for rng in rngs[:live]])
            _stacked_epoch(
                [w[:live] for w in weights], [b[:live] for b in biases],
                x[order], t[order], cfg.batch_size, cfg.eta,
            )
            costs = training_cost(views[:live], x, t)
            bad = np.flatnonzero(~np.isfinite(costs))
            if bad.size:
                live = int(bad[0])
                failure = DivergenceError(f"training cost became non-finite ({costs[live]})")
            if live == 0:
                break
    if failure is not None:
        raise failure
    for net, view in zip(group, views):
        for mine, trained in zip(net.weights + net.biases, view.weights + view.biases):
            mine[...] = trained
    return nets
