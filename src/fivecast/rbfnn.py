"""Normalized radial basis function network.

Prediction is a convex combination of per-unit weights: each unit fires
``exp(-beta_i * |x - c_i|^2)`` and the outputs are blended after dividing
by the total activation.  Fitting is two-stage: seeded Lloyd's k-means
places the centers, widths come from each center's two nearest siblings,
and the output weights solve a ridge-stabilized least squares problem on
the normalized activation matrix.  When every sample is its own center
the activation matrix is square and the weights solve it directly, so
training points are reproduced to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, ShapeError
from .kernels import gaussian_weights, sq_dists
from .timeseries import as_rows, as_samples, as_seed

KMEANS_MAX_ITER = 50
WIDTH_FLOOR = 1e-6
RIDGE = 1e-8


@dataclass(frozen=True)
class RbfNetwork:
    centers: np.ndarray  # (k, d)
    betas: np.ndarray  # (k,), all > 0
    weights: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        if self.centers.ndim != 2 or self.betas.ndim != 1 or self.weights.ndim != 1:
            raise ShapeError("centers must be 2-D; betas and weights 1-D")
        k = self.centers.shape[0]
        if k < 1:
            raise DomainError("need at least one unit")
        if self.betas.shape[0] != k or self.weights.shape[0] != k:
            raise ShapeError("betas and weights must have one entry per center")
        if np.any(self.betas <= 0.0):
            raise DomainError("betas must be positive")


def default_center_count(n_train: int) -> int:
    """Default unit count: sqrt of the training size, at least 3, capped
    at the training size."""
    if n_train < 1:
        raise DomainError("need at least one training sample")
    return min(n_train, max(3, int(math.floor(math.sqrt(n_train)))))


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm: seeded sample-row init, nearest-center assignment
    with ties to the lowest index, mean updates, at most 50 sweeps.
    Clusters that lose every member keep their previous center.

    Each sweep groups the points by cluster with one stable sort of the
    assignment, so a cluster's slice holds its members in index order and
    its mean has the bits of the mean over a boolean mask of them.
    """
    points = as_rows(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(as_seed(seed))
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(sq_dists(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        grouped = points[np.argsort(assign, kind="stable")]
        counts = np.bincount(assign, minlength=k)
        starts = np.cumsum(counts) - counts
        for j in np.flatnonzero(counts):
            centers[j] = grouped[starts[j] : starts[j] + counts[j]].mean(axis=0)
    return centers


def _widths(centers: np.ndarray) -> np.ndarray:
    """Per-center width: mean distance to the two nearest sibling centers
    (all siblings when fewer exist), floored at 1e-6."""
    k = centers.shape[0]
    if k == 1:
        return np.ones(1)
    d2 = sq_dists(centers, centers)
    np.fill_diagonal(d2, np.inf)
    dist = np.sqrt(d2)
    take = min(2, k - 1)
    nearest = np.sort(dist, axis=1)[:, :take]
    return np.maximum(nearest.mean(axis=1), WIDTH_FLOOR)


def _normalized_activations(points: np.ndarray, centers: np.ndarray, betas: np.ndarray) -> np.ndarray:
    w = gaussian_weights(points, centers, betas)
    return w / w.sum(axis=1, keepdims=True)


def fit(inputs, targets, n_centers: int | None = None, seed: int = 0) -> RbfNetwork:
    """Place centers by k-means, derive widths, then solve for the output
    weights: the square activation system when n_centers equals the sample
    count, the ridge normal equations otherwise."""
    x, y = as_samples(inputs, targets)
    k = default_center_count(x.shape[0]) if n_centers is None else n_centers
    if not 1 <= k <= x.shape[0]:
        raise DomainError(f"n_centers must be in [1, {x.shape[0]}], got {k}")
    centers = kmeans(x, k, seed)
    betas = 1.0 / (2.0 * _widths(centers) ** 2)
    phi = _normalized_activations(x, centers, betas)
    if k == x.shape[0]:
        # exactly determined: interpolate instead of regressing
        weights = linalg.solve(phi, y)
    else:
        a = phi.T @ phi + RIDGE * np.eye(k)
        weights = linalg.solve(a, phi.T @ y)
    return RbfNetwork(centers, betas, weights)


def predict_batch(net: RbfNetwork, inputs) -> np.ndarray:
    arr = as_rows(inputs, net.centers.shape[1])
    return _normalized_activations(arr, net.centers, net.betas) @ net.weights
