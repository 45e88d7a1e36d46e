"""Normalized RBF network: prediction formula and two-stage fitting."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fivecast.errors import DomainError, ShapeError, SingularError
from fivecast.kernels import sq_dists
from fivecast.rbfnn import (
    KMEANS_MAX_ITER,
    RbfNetwork,
    default_center_count,
    fit,
    kmeans,
    predict_batch,
)


def direct_prediction(centers, betas, weights, x):
    """Weighted-average form evaluated with plain scalar loops."""
    num = 0.0
    den = 0.0
    for c, b, w in zip(centers, betas, weights):
        d2 = sum((xj - cj) ** 2 for xj, cj in zip(x, c))
        rho = math.exp(-b * d2)
        num += w * rho
        den += rho
    return num / den


class TestPredict:
    def test_single_unit_is_constant(self):
        net = RbfNetwork(np.array([[0.3, -1.0]]), np.array([2.0]), np.array([7.0]))
        for x in ([0.0, 0.0], [5.0, 5.0], [0.3, -1.0]):
            assert predict_batch(net, [x])[0] == 7.0

    def test_input_too_far_from_every_center_is_a_domain_error(self):
        net = RbfNetwork(np.array([[0.0], [1.0]]), np.array([1.5, 1.5]), np.array([1.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too far from every stored row"):
                predict_batch(net, [[0.5], [1e200]])

    def test_symmetric_pair_averages(self):
        net = RbfNetwork(
            np.array([[0.0], [1.0]]), np.array([1.5, 1.5]), np.array([1.0, 3.0])
        )
        npt.assert_allclose(predict_batch(net, [[0.5]])[0], 2.0, rtol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            centers = rng.standard_normal((3, 2))
            betas = rng.uniform(0.1, 3.0, 3)
            weights = rng.standard_normal(3)
            net = RbfNetwork(centers, betas, weights)
            x = rng.standard_normal(2)
            npt.assert_allclose(
                predict_batch(net, [x])[0],
                direct_prediction(centers, betas, weights, x),
                rtol=1e-12,
            )

    def test_convex_combination(self):
        rng = np.random.default_rng(21)
        centers = rng.standard_normal((5, 3))
        betas = rng.uniform(0.1, 2.0, 5)
        weights = rng.uniform(-4.0, 4.0, 5)
        net = RbfNetwork(centers, betas, weights)
        lo, hi = weights.min(), weights.max()
        for _ in range(50):
            v = predict_batch(net, [rng.uniform(-10.0, 10.0, 3)])[0]
            assert lo <= v <= hi

    def test_far_query_stays_finite(self):
        # shifted exponents keep the denominator alive at any distance
        net = RbfNetwork(np.array([[0.0], [1.0]]), np.array([5.0, 5.0]), np.array([1.0, 2.0]))
        v = predict_batch(net, [[1e6]])[0]
        assert math.isfinite(v)
        assert 1.0 <= v <= 2.0

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(22)
        net = RbfNetwork(
            rng.standard_normal((4, 2)),
            rng.uniform(0.5, 2.0, 4),
            rng.standard_normal(4),
        )
        xs = rng.standard_normal((9, 2))
        npt.assert_allclose(
            predict_batch(net, xs), [predict_batch(net, [x])[0] for x in xs], rtol=1e-14
        )

    def test_shape_errors(self):
        net = RbfNetwork(np.zeros((1, 2)), np.ones(1), np.ones(1))
        with pytest.raises(ShapeError):
            predict_batch(net, [1.0, 2.0])
        with pytest.raises(ShapeError):
            predict_batch(net, np.ones((3, 3)))


class TestNetworkValidation:
    def test_counts_must_agree(self):
        with pytest.raises(ShapeError):
            RbfNetwork(np.zeros((2, 1)), np.ones(1), np.ones(2))

    def test_betas_positive(self):
        with pytest.raises(DomainError):
            RbfNetwork(np.zeros((1, 1)), np.array([0.0]), np.ones(1))

    def test_at_least_one_unit(self):
        with pytest.raises(DomainError):
            RbfNetwork(np.zeros((0, 1)), np.zeros(0), np.zeros(0))


class TestDefaultCenterCount:
    def test_frozen_values(self):
        assert default_center_count(1) == 1
        assert default_center_count(2) == 2
        assert default_center_count(3) == 3
        assert default_center_count(9) == 3
        assert default_center_count(16) == 4
        assert default_center_count(100) == 10
        assert default_center_count(340) == 18

    def test_never_exceeds_samples(self):
        for n in range(1, 30):
            assert 1 <= default_center_count(n) <= n

    def test_bad_input(self):
        with pytest.raises(DomainError):
            default_center_count(0)


class TestKmeans:
    def test_separated_clusters(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        centers = np.sort(kmeans(pts, 2, seed=0), axis=0)
        npt.assert_allclose(centers, [[0.05], [10.05]])

    def test_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [5.0]])
        centers = np.sort(kmeans(pts, 3, seed=1), axis=0)
        npt.assert_array_equal(centers, pts)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((20, 2))
        npt.assert_array_equal(kmeans(pts, 4, seed=9), kmeans(pts, 4, seed=9))

    def test_bad_k(self):
        pts = np.ones((3, 1))
        with pytest.raises(DomainError):
            kmeans(pts, 0)
        with pytest.raises(DomainError, match=r"^k must be an integer, got 2\.5$"):
            kmeans(pts, 2.5)
        with pytest.raises(DomainError):
            kmeans(pts, 4)

    def test_seeds_numpy_refuses(self):
        x = np.arange(6.0).reshape(3, 2)
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            fit(x, np.ones(3), seed=-1)
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 2\.5$"):
            kmeans(x, 2, seed=2.5)


def mask_kmeans(points, k, seed):
    """kmeans as it grouped before the sort: one boolean mask per cluster
    and sweep, the reference for the sorted grouping's bits."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITER):
        new_assign = np.argmin(sq_dists(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = points[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return centers


@st.composite
def kmeans_cases(draw):
    """Points from a few repeated values (ties and clusters that empty)
    or from a wide range, with any k and seed."""
    n = draw(st.integers(1, 150))
    d = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.1]) if draw(st.booleans()) else st.floats(-1e3, 1e3)
    points = draw(arrays(np.float64, (n, d), elements=values))
    return points, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


class TestKmeansAgainstMasks:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(kmeans_cases())
    def test_same_bits_as_the_mask_loop(self, case):
        points, k, seed = case
        assert kmeans(points, k, seed).tobytes() == mask_kmeans(points, k, seed).tobytes()

    def test_a_cluster_that_empties_keeps_its_center(self):
        # two distinct values for four centers: ties go to the lowest index,
        # so the later copies of a value never win a point
        points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
        centers = kmeans(points, 4, seed=0)
        assert centers.tobytes() == mask_kmeans(points, 4, 0).tobytes()
        assert sorted(set(centers[:, 0])) == [0.0, 1.0]

    def test_same_bits_on_uniform_lag_windows(self):
        # long-lag's shape: 1117 rows of 3 lags and 33 centers
        points = np.random.default_rng(5).uniform(0.0, 1.0, (1117, 3))
        assert kmeans(points, 33, seed=11).tobytes() == mask_kmeans(points, 33, 11).tobytes()


class TestFit:
    @pytest.mark.filterwarnings("error")
    def test_targets_near_the_float_limit_are_singular_not_infinite_weights(self):
        # the ridge solve's weights overflow to [inf, -inf, 1.18e308]
        with pytest.raises(SingularError, match="^the solution is not finite$"):
            fit([[0.0], [1.0], [2.0], [3.0]], [1e308, -1e308, 1e308, -1e308])

    def test_interpolates_when_centers_cover_samples(self):
        x = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
        y = np.array([1.0, -2.0, 0.5])
        net = fit(x, y, n_centers=3, seed=0)
        npt.assert_allclose(predict_batch(net, x), y, atol=1e-6)

    def test_line_through_three_points(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        net = fit(x, y, n_centers=3, seed=0)
        npt.assert_allclose(predict_batch(net, [[1.0]])[0], 1.0, atol=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(24)
        x = rng.uniform(0.0, 1.0, (30, 3))
        y = rng.uniform(0.0, 1.0, 30)
        a = fit(x, y, n_centers=5, seed=4)
        b = fit(x, y, n_centers=5, seed=4)
        npt.assert_array_equal(a.centers, b.centers)
        npt.assert_array_equal(a.betas, b.betas)
        npt.assert_array_equal(a.weights, b.weights)

    def test_beats_constant_predictor(self):
        rng = np.random.default_rng(25)
        x = rng.uniform(-2.0, 2.0, (40, 1))
        y = np.sin(x[:, 0]) + 0.05 * rng.standard_normal(40)
        net = fit(x, y, n_centers=8, seed=0)
        fitted = np.mean((predict_batch(net, x) - y) ** 2)
        constant = np.mean((y - y.mean()) ** 2)
        assert fitted <= constant

    def test_default_center_count_used(self):
        rng = np.random.default_rng(26)
        x = rng.uniform(0.0, 1.0, (100, 2))
        y = rng.uniform(0.0, 1.0, 100)
        net = fit(x, y, seed=0)
        assert net.centers.shape[0] == 10

    def test_too_many_centers(self):
        x = np.ones((3, 1)) * np.arange(3)[:, None]
        with pytest.raises(DomainError):
            fit(x, np.zeros(3), n_centers=4)

    def test_center_count_that_is_not_an_integer(self):
        x = np.arange(6.0)[:, None]
        with pytest.raises(DomainError, match=r"^n_centers must be an integer, got 2\.5$"):
            fit(x, np.zeros(6), 2.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ShapeError):
            fit(np.ones(3), np.ones(3))
        with pytest.raises(ShapeError):
            fit(np.ones((3, 1)), np.ones(4))
