"""General regression network: one unit per stored sample.

A query is answered by the kernel-weighted mean of every stored target,
with weights ``exp(-beta * |x - x_i|^2)``.  Exponents are shifted by
their maximum before exponentiation, so very sharp or very flat betas
degrade gracefully: as beta grows the prediction tends to the nearest
stored target, as it shrinks to the plain mean.

The network is dynamic: :func:`observe` adds one unit per new sample, so
a walk-forward loop can absorb each realized value after predicting it.
Inputs are used as given; the smoothing parameter is scale-sensitive, so
pick beta for the units the inputs actually carry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .kernels import gaussian_weights, gram_sq_dists
from .timeseries import as_real, as_rows, as_samples, as_vector


class GrnnModel:
    """Stored samples plus one shared smoothing parameter."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, beta: float):
        x, y = as_samples(inputs, targets)
        self.beta = as_real(beta, "beta", positive=True)
        self.inputs = x.copy()
        self.targets = y.copy()

    @property
    def n_neurons(self) -> int:
        return self.inputs.shape[0]


def fit(inputs, targets, beta: float) -> GrnnModel:
    """Store the samples; there is nothing to optimize."""
    return GrnnModel(inputs, targets, beta)


def predict(model: GrnnModel, x) -> float:
    """Kernel-weighted mean of the stored targets."""
    x = as_vector(x, model.inputs.shape[1], name="input")
    return float(predict_batch(model, x[None])[0])


def predict_batch(model: GrnnModel, inputs) -> np.ndarray:
    arr = as_rows(inputs, model.inputs.shape[1])
    w = gaussian_weights(arr, model.inputs, model.beta)
    return (w @ model.targets) / w.sum(axis=1)


def observe(model: GrnnModel, x, y: float) -> GrnnModel:
    """Grow the network by exactly one unit holding (x, y)."""
    arr = as_vector(x, model.inputs.shape[1], name="input")
    y = float(y)
    model.inputs = np.vstack([model.inputs, arr[None, :]])
    model.targets = np.append(model.targets, y)
    return model


def default_smoothing(inputs) -> float:
    """Scale-aware default: half the inverse mean squared nearest-neighbor
    distance, so weight decays to ~0.6 at a typical nearest neighbor."""
    x = as_rows(inputs)
    if x.shape[0] < 2:
        raise DomainError("need at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = gram_sq_dists(x)
        np.fill_diagonal(d2, np.inf)
        nn = np.maximum(d2.min(axis=1), 0.0)
        mean_nn = float(nn.mean())
    if not math.isfinite(mean_nn):
        raise DomainError(
            "inputs are too large to compute a smoothing width: "
            "their squared distances overflow"
        )
    if mean_nn <= 0.0:
        return 1.0  # all points coincide; any beta gives the same answer
    return 1.0 / (2.0 * mean_nn)
