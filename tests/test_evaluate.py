"""Metrics, the benchmark harness, and the follow-up experiments."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from conftest import make_ar_series, weekly_series

from fivecast import grnn, timeseries
from fivecast.errors import DomainError, ShapeError
from fivecast.evaluate import (
    MODEL_NAMES,
    EvalReport,
    HarnessConfig,
    StabilityReport,
    benchmark,
    lag_csv,
    lag_one_analysis,
    lag_summary_csv,
    mape,
    model_predictions,
    mse,
    results_csv,
    results_table,
    stability,
    stability_csv,
    stability_table,
)


def split_windows(series, frac=0.8):
    return timeseries.split(timeseries.make_windows(series, lags=3), frac)


def constant_dataset(value=5.0, n=30):
    return split_windows(weekly_series(np.full(n, value)))


class TestMetrics:
    def test_mse_zero_at_equality(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0

    def test_mse_by_hand(self):
        assert mse([2.0, 4.0], [1.0, 5.0]) == 1.0

    def test_mape_zero_at_equality(self):
        y = np.array([1.0, 2.0])
        assert mape(y, y) == 0.0

    def test_mape_by_hand(self):
        assert mape([2.0, 4.0], [1.0, 5.0]) == 0.375

    def test_mape_rejects_zero_actual(self):
        with pytest.raises(DomainError):
            mape([2.0, 0.0], [1.0, 1.0])

    def test_positive_unless_equal(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            y = rng.uniform(1.0, 9.0, 10)
            p = y + rng.standard_normal(10) * 0.1
            if np.array_equal(p, y):
                continue
            assert mse(y, p) > 0.0
            assert mape(y, p) > 0.0

    def test_mse_overflow_is_a_domain_error(self):
        # every input is finite, but the squared error of 1e308 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows float64"):
                mse([5e307, 1.0], [-5e307, 1.0])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(ShapeError):
            mse(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            mape([], [])


class TestBenchmark:
    def test_constant_series_is_learned_by_all(self):
        reports = benchmark(constant_dataset(), list(MODEL_NAMES))
        assert [r.model for r in reports] == list(MODEL_NAMES)
        for r in reports:
            assert r.error is None
            assert r.mape <= 1e-6

    def test_ar_series_all_finite(self):
        ds = split_windows(make_ar_series(11))
        reports = benchmark(ds, list(MODEL_NAMES))
        for r in reports:
            assert r.error is None
            assert np.isfinite(r.mse) and np.isfinite(r.mape)
            assert r.mape < 0.2
            assert r.n_test == ds.test_targets.shape[0]

    def test_failing_model_yields_error_entry(self):
        ds = constant_dataset(n=24)  # 21 windows, train block 16
        cfg = HarnessConfig(rbf_centers=50)
        reports = benchmark(ds, ["rbf", "grnn"], cfg)
        bad, good = reports
        assert bad.model == "rbf"
        assert bad.error is not None and bad.error.startswith("DomainError")
        assert np.isnan(bad.mse) and np.isnan(bad.mape)
        assert good.error is None
        assert good.mape <= 1e-6

    def test_empty_model_list(self):
        with pytest.raises(DomainError):
            benchmark(constant_dataset(), [])

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            benchmark(constant_dataset(), ["bp", "tree"])

    def test_determinism(self):
        ds = split_windows(make_ar_series(11, n=80))
        a = benchmark(ds, ["bp", "svr"], HarnessConfig(seed=5))
        b = benchmark(ds, ["bp", "svr"], HarnessConfig(seed=5))
        assert a == b


class TestModelPredictions:
    def test_length_matches_test_block(self):
        ds = split_windows(make_ar_series(11, n=60))
        for name in MODEL_NAMES:
            preds = model_predictions(ds, name)
            assert preds.shape == ds.test_targets.shape

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            model_predictions(constant_dataset(), "arima")

    def test_grnn_consumes_raw_prices(self):
        # fixed smoothing plus a static run must equal a direct fit on the
        # unscaled blocks: no scaler sits in front of this model
        ds = split_windows(make_ar_series(11, n=60))
        cfg = HarnessConfig(grnn_beta=0.5, grnn_dynamic=False)
        preds = model_predictions(ds, "grnn", cfg)
        direct = grnn.predict_batch(
            grnn.fit(ds.train_inputs, ds.train_targets, 0.5), ds.test_inputs
        )
        npt.assert_array_equal(preds, direct)

    def test_grnn_walk_forward_has_no_lookahead(self):
        # the first dynamic prediction is made before any test value is
        # absorbed, so it must equal the static one; afterwards the
        # absorbed values are allowed to move the answers
        ds = split_windows(make_ar_series(11, n=60))
        static = model_predictions(ds, "grnn", HarnessConfig(grnn_dynamic=False))
        dynamic = model_predictions(ds, "grnn", HarnessConfig(grnn_dynamic=True))
        npt.assert_allclose(dynamic[0], static[0], rtol=1e-12)
        assert np.max(np.abs(dynamic[1:] - static[1:])) > 1e-6


class TestStability:
    def test_identical_seeds_give_zero_spread(self):
        ds = split_windows(make_ar_series(11, n=60))
        rep = stability(ds, seeds=[7, 7])
        assert rep.runs == 2
        assert rep.mse_std == 0.0
        assert rep.mape_std == 0.0

    def test_distinct_seeds_give_positive_spread(self):
        ds = split_windows(make_ar_series(11, n=60))
        rep = stability(ds, runs=3, base_seed=1)
        assert rep.runs == 3
        assert rep.mse_std > 0.0
        assert rep.mse_mean > 0.0

    def test_too_few_runs(self):
        ds = constant_dataset()
        with pytest.raises(DomainError):
            stability(ds, runs=1)
        with pytest.raises(DomainError):
            stability(ds, seeds=[4])


class TestLagOneAnalysis:
    def test_aligned_shift(self):
        rep = lag_one_analysis([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        npt.assert_array_equal(rep.errors, [0.0, 0.0])
        assert rep.mean == 0.0
        assert rep.frac_negative == 0.0

    def test_markov_predictor_null_case(self):
        rng = np.random.default_rng(61)
        y = rng.uniform(1.0, 9.0, 20)
        yhat = np.empty(20)
        yhat[0] = y[0]
        yhat[1:] = y[:-1]  # each prediction repeats the previous actual
        rep = lag_one_analysis(y, yhat)
        npt.assert_array_equal(rep.errors, np.zeros(19))
        assert rep.frac_negative == 0.0

    def test_two_points_by_hand(self):
        rep = lag_one_analysis([1.0, 2.0], [5.0, 4.0])
        npt.assert_array_equal(rep.errors, [-3.0])
        assert rep.mean == -3.0
        assert rep.std == 0.0
        assert rep.frac_negative == 1.0

    def test_error_count_and_moments(self):
        rng = np.random.default_rng(62)
        y = rng.uniform(1.0, 9.0, 15)
        p = rng.uniform(1.0, 9.0, 15)
        rep = lag_one_analysis(y, p)
        assert rep.errors.shape[0] == 14
        npt.assert_allclose(rep.mean, rep.errors.mean())
        npt.assert_allclose(rep.std, rep.errors.std())
        npt.assert_allclose(rep.frac_negative, np.mean(rep.errors < 0.0))

    def test_too_short(self):
        with pytest.raises(ShapeError):
            lag_one_analysis([1.0], [1.0])


class TestSerialization:
    def test_results_csv_exact(self):
        reports = [
            EvalReport("bp", 0.25, 0.1, 5),
            EvalReport("rbf", float("nan"), float("nan"), 5, error="DomainError: no"),
        ]
        assert results_csv(reports) == "model,mse,mape\nbp,0.25,0.1\nrbf,nan,nan\n"

    def test_results_csv_custom_label(self):
        out = results_csv([EvalReport("linear", 0.5, 0.25, 4)], label="kernel")
        assert out == "kernel,mse,mape\nlinear,0.5,0.25\n"

    def test_results_csv_full_precision(self):
        value = 0.1234567890123456789
        out = results_csv([EvalReport("bp", value, value, 4)])
        row = out.splitlines()[1]
        assert row == f"bp,{value!r},{value!r}"
        assert float(row.split(",")[1]) == value

    def test_results_table_layout(self):
        reports = [
            EvalReport("bp", 0.009, 0.019, 85),
            EvalReport("rbf", float("nan"), float("nan"), 85, error="DomainError: no"),
        ]
        lines = results_table(reports).splitlines()
        assert lines[0].split() == ["model", "mse", "mape"]
        assert lines[1].split() == ["bp", "0.009", "0.019"]
        assert lines[2].split()[:3] == ["rbf", "-", "-"]
        assert lines[2].endswith("DomainError: no")

    def test_results_table_three_significant_digits(self):
        lines = results_table([EvalReport("bp", 0.123456, 12345.6, 3)]).splitlines()
        assert lines[1].split() == ["bp", "0.123", "1.23e+04"]

    def test_stability_csv_exact(self):
        rep = StabilityReport(2, 0.5, 0.0, 0.25, 0.0)
        assert stability_csv(rep) == (
            "runs,mse_mean,mse_std,mape_mean,mape_std\n2,0.5,0.0,0.25,0.0\n"
        )

    def test_stability_table_mentions_every_field(self):
        out = stability_table(StabilityReport(100, 0.009, 4.8e-05, 0.019, 0.001))
        assert "runs" in out and "100" in out
        assert "4.8e-05" in out

    def test_lag_csv_exact(self):
        rep = lag_one_analysis([1.0, 2.5, 2.0], [0.0, 0.5, 3.5])
        # errors: 1 - 0.5 = 0.5, 2.5 - 3.5 = -1.0
        assert lag_csv(rep) == "t,e\n1,0.5\n2,-1.0\n"

    def test_lag_summary_csv_exact(self):
        rep = lag_one_analysis([1.0, 2.5, 2.0], [0.0, 0.5, 3.5])
        out = lag_summary_csv([("bp", rep)])
        assert out == (
            "model,mean,std,frac_negative,n_errors\nbp,-0.25,0.75,0.5,2\n"
        )
