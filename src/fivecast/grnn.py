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

from .errors import DomainError, ShapeError


class GrnnModel:
    """Stored samples plus one shared smoothing parameter."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, beta: float):
        x = np.asarray(inputs, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ShapeError(f"targets must be 1-D with {x.shape[0]} entries")
        if x.shape[0] == 0:
            raise DomainError("need at least one sample")
        if not beta > 0.0:
            raise DomainError(f"beta must be > 0, got {beta}")
        self.inputs = x.copy()
        self.targets = y.copy()
        self.beta = float(beta)

    @property
    def n_neurons(self) -> int:
        return self.inputs.shape[0]


def fit(inputs, targets, beta: float) -> GrnnModel:
    """Store the samples; there is nothing to optimize."""
    return GrnnModel(inputs, targets, beta)


def _query(model: GrnnModel, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != model.inputs.shape[1]:
        raise ShapeError(
            f"input must be a vector of length {model.inputs.shape[1]}, got {arr.shape}"
        )
    return arr


def predict(model: GrnnModel, x) -> float:
    """Kernel-weighted mean of the stored targets."""
    arr = _query(model, x)
    diff = model.inputs - arr
    e = -model.beta * np.sum(diff * diff, axis=1)
    w = np.exp(e - e.max())
    return float((w @ model.targets) / w.sum())


def predict_batch(model: GrnnModel, inputs) -> np.ndarray:
    arr = np.asarray(inputs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.inputs.shape[1]:
        raise ShapeError(f"inputs must be (n, {model.inputs.shape[1]}), got {arr.shape}")
    diff = arr[:, None, :] - model.inputs[None, :, :]
    e = -model.beta * np.sum(diff * diff, axis=2)
    w = np.exp(e - e.max(axis=1, keepdims=True))
    return (w @ model.targets) / w.sum(axis=1)


def observe(model: GrnnModel, x, y: float) -> GrnnModel:
    """Grow the network by exactly one unit holding (x, y)."""
    arr = _query(model, x)
    y = float(y)
    model.inputs = np.vstack([model.inputs, arr[None, :]])
    model.targets = np.append(model.targets, y)
    return model


def default_smoothing(inputs) -> float:
    """Scale-aware default: half the inverse mean squared nearest-neighbor
    distance, so weight decays to ~0.6 at a typical nearest neighbor."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    if x.shape[0] < 2:
        raise DomainError("need at least two samples")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
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
