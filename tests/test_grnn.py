"""Kernel-weighted-mean regression and its walk-forward growth."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from fivecast.errors import DomainError, ShapeError
from fivecast.grnn import (
    GrnnModel,
    default_smoothing,
    fit,
    observe,
    predict,
    predict_batch,
)


def direct_prediction(inputs, targets, beta, x):
    """Weighted mean evaluated with plain scalar arithmetic."""
    num = 0.0
    den = 0.0
    for xi, yi in zip(inputs, targets):
        d2 = sum((a - b) ** 2 for a, b in zip(x, xi))
        w = math.exp(-beta * d2)
        num += w * yi
        den += w
    return num / den


class TestPredict:
    def test_single_sample_is_constant(self):
        m = fit([[0.0, 0.0]], [5.0], beta=1.0)
        for x in ([0.0, 0.0], [3.0, -4.0]):
            assert predict(m, x) == 5.0

    def test_midpoint_averages(self):
        m = fit([[0.0], [1.0]], [1.0, 3.0], beta=0.5)
        npt.assert_allclose(predict(m, [0.5]), 2.0, rtol=1e-15)

    def test_matches_direct_formula(self):
        inputs = [[0.0], [1.0], [2.5]]
        targets = [1.0, -1.0, 4.0]
        m = fit(inputs, targets, beta=10.0)
        npt.assert_allclose(
            predict(m, [0.9]),
            direct_prediction(inputs, targets, 10.0, [0.9]),
            rtol=1e-12,
        )

    def test_matches_direct_formula_sweep(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            inputs = rng.standard_normal((6, 2))
            targets = rng.standard_normal(6)
            beta = float(rng.uniform(0.05, 5.0))
            m = fit(inputs, targets, beta)
            x = rng.standard_normal(2)
            npt.assert_allclose(
                predict(m, x),
                direct_prediction(inputs, targets, beta, x),
                rtol=1e-12,
            )

    def test_sharp_beta_picks_nearest(self):
        m = fit([[0.0], [1.0], [2.0]], [1.0, 3.0, -2.0], beta=1e4)
        npt.assert_allclose(predict(m, [0.9]), 3.0, atol=1e-3)

    def test_flat_beta_gives_mean(self):
        targets = np.array([1.0, 3.0, -2.0, 6.0])
        m = fit([[0.0], [1.0], [2.0], [3.0]], targets, beta=1e-9)
        npt.assert_allclose(predict(m, [0.4]), targets.mean(), atol=1e-6)

    def test_huge_beta_is_exact_nearest_neighbor(self):
        # distances designed so every non-nearest weight underflows to zero
        inputs = np.array([[0.0], [0.5], [1.2], [2.0]])
        targets = np.array([4.0, -1.0, 2.5, 0.75])
        m = fit(inputs, targets, beta=1e6)
        for x in (-0.3, 0.2, 0.7, 1.4, 5.0):
            d2 = (inputs[:, 0] - x) ** 2
            assert predict(m, [x]) == targets[int(np.argmin(d2))]

    def test_prediction_within_target_range(self):
        rng = np.random.default_rng(31)
        targets = rng.uniform(-3.0, 3.0, 8)
        m = fit(rng.standard_normal((8, 2)), targets, beta=0.7)
        for _ in range(30):
            v = predict(m, rng.uniform(-5.0, 5.0, 2))
            assert targets.min() <= v <= targets.max()

    def test_overflowing_distance_is_a_zero_weight(self):
        # the squared distance to the first sample overflows; the second decides
        m = fit([[-1e200], [1.0]], [5.0, 7.0], beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(m, [2.0]) == 7.0

    def test_input_too_far_from_every_sample_is_a_domain_error(self):
        m = fit([[0.0], [1.0]], [5.0, 7.0], beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too far from every stored row"):
                predict(m, [1e200])

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(32)
        m = fit(rng.standard_normal((7, 3)), rng.standard_normal(7), beta=1.3)
        xs = rng.standard_normal((11, 3))
        npt.assert_allclose(
            predict_batch(m, xs), [predict(m, x) for x in xs], rtol=1e-14
        )

    def test_shape_errors(self):
        m = fit([[0.0, 0.0]], [1.0], beta=1.0)
        with pytest.raises(ShapeError):
            predict(m, [1.0])
        with pytest.raises(ShapeError):
            predict_batch(m, np.ones((2, 3)))


class TestObserve:
    def test_grows_by_one(self):
        m = fit([[0.0]], [1.0], beta=1.0)
        assert m.n_neurons == 1
        observe(m, [1.0], 2.0)
        assert m.n_neurons == 2
        observe(m, [2.0], 3.0)
        assert m.n_neurons == 3
        npt.assert_array_equal(m.targets, [1.0, 2.0, 3.0])

    def test_new_sample_dominates_nearby_query(self):
        m = fit([[0.0]], [1.0], beta=50.0)
        observe(m, [4.0], 9.0)
        npt.assert_allclose(predict(m, [4.0]), 9.0, atol=1e-6)

    def test_duplicate_point_with_single_unit(self):
        # one stored unit predicts its own target, so restating the same
        # pair leaves every answer unchanged
        m = fit([[2.0]], [7.0], beta=3.0)
        before = predict(m, [2.4])
        observe(m, [2.0], 7.0)
        assert predict(m, [2.4]) == before

    def test_duplicate_point_sharp_beta(self):
        # with weights concentrated on the query's nearest unit, doubling
        # that unit does not move predictions near it
        m = fit([[0.0], [1.0]], [2.0, 5.0], beta=1e3)
        before = predict(m, [0.02])
        observe(m, [0.0], 2.0)
        npt.assert_allclose(predict(m, [0.02]), before, rtol=1e-9)

    def test_bad_shape(self):
        m = fit([[0.0, 0.0]], [1.0], beta=1.0)
        with pytest.raises(ShapeError):
            observe(m, [1.0], 2.0)


class TestDefaultSmoothing:
    def test_matches_formula(self):
        # nearest-neighbor squared distances: 1, 1, 4 -> mean 2 -> beta 1/4
        x = np.array([[0.0], [1.0], [3.0]])
        npt.assert_allclose(default_smoothing(x), 0.25)

    def test_coincident_points_fall_back(self):
        assert default_smoothing(np.ones((3, 2))) == 1.0

    def test_single_sample(self):
        with pytest.raises(DomainError):
            default_smoothing(np.ones((1, 2)))

    def test_overflowing_inputs_are_a_clear_domain_error(self):
        # closes near 5e307: squared distances overflow, which used to
        # surface as "beta must be > 0, got nan" after a RuntimeWarning
        x = 5e307 * (1.0 + 0.01 * np.arange(60.0).reshape(20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too large to compute a smoothing width"):
                default_smoothing(x)


class TestValidation:
    def test_fit_checks(self):
        with pytest.raises(DomainError):
            fit(np.empty((0, 1)), np.empty(0), beta=1.0)
        with pytest.raises(DomainError):
            fit([[0.0]], [1.0], beta=0.0)
        with pytest.raises(DomainError):
            fit([[0.0]], [1.0], beta=-2.0)
        for beta in (math.inf, math.nan):
            with pytest.raises(DomainError, match="beta must be finite and > 0"):
                fit([[0.0]], [1.0], beta=beta)
        with pytest.raises(ShapeError):
            fit([0.0], [1.0], beta=1.0)
        with pytest.raises(ShapeError):
            fit([[0.0]], [1.0, 2.0], beta=1.0)

    def test_fit_copies_data(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        m = fit(x, y, beta=1.0)
        x[0, 0] = 99.0
        y[0] = 99.0
        assert m.inputs[0, 0] == 0.0
        assert m.targets[0] == 1.0

    def test_model_exposes_neuron_count(self):
        assert GrnnModel(np.ones((4, 2)), np.ones(4), 1.0).n_neurons == 4
