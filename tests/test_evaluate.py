"""Metrics, the benchmark harness, and the follow-up experiments."""

import argparse
import math
import re
import sys
import types
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from conftest import make_ar_series, weekly_series

from fivecast import bpnn, cli, evaluate, grnn, lssvm, rbfnn, svr, timeseries
from fivecast.errors import DomainError, FivecastError, ShapeError
from fivecast.evaluate import (
    MODEL_NAMES,
    EvalReport,
    HarnessConfig,
    StabilityReport,
    benchmark,
    check_bp_work,
    lag_one_analysis,
    mape,
    model_predictions,
    mse,
    stability,
)
from fivecast.kernels import KernelSpec


def split_windows(series, frac=0.8):
    return timeseries.split(timeseries.make_windows(series, lags=3), frac)


def constant_dataset(value=5.0, n=30):
    return split_windows(weekly_series(np.full(n, value)))


# Fit and batch predict of each model on a sample block with 3 lags.
_FIT = {
    "bp": lambda x, y: bpnn.new_network(3, 2, [0]),
    "rbf": rbfnn.fit,
    "grnn": lambda x, y: grnn.fit(x, y, beta=1.0),
    "svr": lambda x, y: svr.fit(x, y, KernelSpec("linear")),
    "lssvm": lambda x, y: lssvm.fit(x, y, KernelSpec("linear")),
}
_PREDICT = {
    "bp": bpnn.predict_batch,
    "rbf": rbfnn.predict_batch,
    "grnn": grnn.predict_batch,
    "svr": svr.predict_batch,
    "lssvm": lssvm.predict_batch,
}
_SINGLE_OUTPUT_FITS = ("rbf", "grnn", "svr", "lssvm")
_SHARED_MESSAGES = [
    *[(name, "wrong width", ShapeError, "inputs must be (n, 3), got (2, 2)") for name in MODEL_NAMES],
    *[
        (name, case, kind, message)
        for name in _SINGLE_OUTPUT_FITS
        for case, kind, message in (
            ("1-D inputs", ShapeError, "inputs must be 2-D, got ndim=1"),
            ("mismatched targets", ShapeError, "targets must be 1-D with 6 entries"),
            ("empty block", DomainError, "no training samples"),
        )
    ],
]


@pytest.mark.parametrize("name, case, kind, message", _SHARED_MESSAGES)
def test_models_share_the_sample_block_messages(name, case, kind, message):
    x = np.random.default_rng(8).uniform(0.0, 1.0, (6, 3))
    y = x @ np.array([0.5, -0.25, 1.0])
    call = {
        "wrong width": lambda: _PREDICT[name](_FIT[name](x, y), np.ones((2, 2))),
        "1-D inputs": lambda: _FIT[name](x[:, 0], y),
        "mismatched targets": lambda: _FIT[name](x, y[:-1]),
        "empty block": lambda: _FIT[name](x[:0], y[:0]),
    }[case]
    with pytest.raises(FivecastError) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


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

    def test_mape_overflow_is_a_domain_error(self):
        # every input is finite, but an error of 1e300 on an actual of 1e-10 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows float64"):
                mape([1e-10, 1.0], [1e300, 1.0])

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

    def test_constant_series_past_2_53_is_learned_by_all(self):
        # lo + 1.0 == lo from 2**53 up, so the scaler's span is one ulp there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = benchmark(constant_dataset(1e16, n=60), list(MODEL_NAMES))
        assert [(r.model, r.mse, r.mape, r.error) for r in reports] == [
            (name, 0.0, 0.0, None) for name in MODEL_NAMES
        ]

    def test_constant_series_at_the_largest_float(self):
        # lo + ulp(lo) overflows, so the span sits below lo; grnn reads raw
        # prices, and their squared distances overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = benchmark(constant_dataset(sys.float_info.max, n=60), list(MODEL_NAMES))
        assert [(r.model, r.mse, r.mape) for r in reports if r.model != "grnn"] == [
            (name, 0.0, 0.0) for name in MODEL_NAMES if name != "grnn"
        ]
        assert [r.error for r in reports] == [
            None,
            None,
            "DomainError: inputs are too large to compute a smoothing width: their squared distances overflow",
            None,
            None,
        ]

    def test_ar_series_all_finite(self):
        ds = split_windows(make_ar_series(11))
        reports = benchmark(ds, list(MODEL_NAMES))
        for r in reports:
            assert r.error is None
            assert np.isfinite(r.mse) and np.isfinite(r.mape)
            assert r.mape < 0.2

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


BAD_FIELDS = [
    ("bp_eta", -0.5, "eta must be finite and >= 0, got -0.5"),
    ("bp_eta", math.inf, "eta must be finite and >= 0, got inf"),
    ("bp_batch", 0, "batch_size must be >= 1, got 0"),
    ("bp_epochs", -1, "epochs must be >= 0, got -1"),
    ("rbf_centers", 0, "n_centers must be >= 1, got 0"),
    ("grnn_beta", 0.0, "beta must be finite and > 0, got 0.0"),
    ("grnn_beta", math.nan, "beta must be finite and > 0, got nan"),
    ("svr_epsilon", -0.01, "epsilon must be finite and >= 0, got -0.01"),
    ("svr_epsilon", math.nan, "epsilon must be finite and >= 0, got nan"),
    ("svr_c", 0.0, "c_reg must be finite and > 0, got 0.0"),
    ("svr_c", math.inf, "c_reg must be finite and > 0, got inf"),
    ("svr_c", 1e-15, "c_reg must be >= 5e-15 for the solver to take a step, got 1e-15"),
    ("lssvm_gamma", -1.0, "gamma must be finite and > 0, got -1.0"),
    ("lssvm_gamma", math.inf, "gamma must be finite and > 0, got inf"),
    ("lssvm_gamma", 1e-320, "gamma must have a finite reciprocal, got 1e-320"),
    # a value of the wrong type gets the same words from the config as from the model
    ("bp_batch", 2.5, "batch_size must be an integer, got 2.5"),
    ("bp_epochs", np.float64(3.0), "epochs must be an integer, got np.float64(3.0)"),
    ("bp_eta", "0.1", "eta must be a real number, got '0.1'"),
    ("grnn_beta", "1", "beta must be a real number, got '1'"),
    ("svr_epsilon", "0", "epsilon must be a real number, got '0'"),
    ("lssvm_gamma", None, "gamma must be a real number, got None"),
]


class TestHarnessConfig:
    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            HarnessConfig(seed=-1)

    def test_rejects_a_seed_that_is_not_an_integer(self):
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 2\.5$"):
            HarnessConfig(seed=2.5)

    @pytest.mark.parametrize("hidden", [0, -3])
    def test_rejects_empty_hidden_layer(self, hidden):
        with pytest.raises(DomainError, match="hidden width must be >= 1"):
            HarnessConfig(bp_hidden=hidden)

    def test_rejects_a_hidden_width_that_is_not_an_integer(self):
        # not rounded down to 2 hidden units
        with pytest.raises(DomainError, match=r"^hidden width must be an integer, got 2\.5$"):
            HarnessConfig(bp_hidden=2.5)

    def test_rejects_a_kernel_that_is_not_a_kernel_spec(self):
        # not an AttributeError once a model reads the kernel's kind
        with pytest.raises(DomainError, match=r"^kernel must be a KernelSpec or None, got 'rbf'$"):
            HarnessConfig(kernel="rbf")

    def test_rejects_a_grnn_mode_that_is_not_a_bool(self):
        # the string "no" is truthy and would run the walk-forward
        with pytest.raises(DomainError, match=r"^grnn_dynamic must be True or False, got 'no'$"):
            HarnessConfig(grnn_dynamic="no")

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(DomainError) as exc:
            HarnessConfig(**{field: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, message", BAD_FIELDS)
    def test_message_is_the_models_own(self, field, value, message):
        # a bad value gets the words the model itself would raise
        x = np.arange(8.0)[:, None]
        y = np.arange(8.0)
        fail = {
            "bp_eta": lambda v: bpnn.SgdConfig(eta=v),
            "bp_batch": lambda v: bpnn.SgdConfig(batch_size=v),
            "bp_epochs": lambda v: bpnn.SgdConfig(epochs=v),
            "rbf_centers": lambda v: rbfnn.fit(x, y, v),
            "grnn_beta": lambda v: grnn.fit(x, y, v),
            "svr_epsilon": lambda v: svr.fit(x, y, KernelSpec("linear"), epsilon=v),
            "svr_c": lambda v: svr.fit(x, y, KernelSpec("linear"), c_reg=v),
            "lssvm_gamma": lambda v: lssvm.fit(x, y, KernelSpec("linear"), gamma=v),
        }[field]
        with pytest.raises(DomainError) as exc:
            fail(value)
        if field == "rbf_centers":
            # the model names its bound, the training size
            assert str(exc.value) == f"n_centers must be in [1, 8], got {value}"
        else:
            assert str(exc.value) == message

    def test_edges_of_each_range_are_legal(self):
        cfg = HarnessConfig(
            bp_eta=0.0, bp_batch=1, bp_epochs=0, rbf_centers=1, grnn_beta=5e-324,
            svr_epsilon=0.0, svr_c=5e-15, lssvm_gamma=1e-300,
        )
        assert cfg.bp_epochs == 0


class TestModelPredictions:
    def test_length_matches_test_block(self):
        ds = split_windows(make_ar_series(11, n=60))
        for name in MODEL_NAMES:
            preds = model_predictions(ds, name)
            assert preds.shape == ds.test_targets.shape

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            model_predictions(constant_dataset(), "arima")

    def test_every_model_has_one_entry(self):
        assert tuple(evaluate._TEST_PREDICTIONS) == MODEL_NAMES

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
    def test_run_count_that_is_not_an_integer(self):
        ds = split_windows(make_ar_series(11, n=60))
        with pytest.raises(DomainError, match=r"^runs must be an integer, got 2\.5$"):
            stability(ds, runs=2.5)

    def test_distinct_seeds_give_positive_spread(self):
        ds = split_windows(make_ar_series(11, n=60))
        rep = stability(ds, HarnessConfig(seed=1), runs=3)
        assert rep.runs == 3
        assert rep.mse_std > 0.0
        assert rep.mse_mean > 0.0

    def test_runs_are_the_single_trainings_from_the_config_seed(self):
        # seeds 4, 5 and 6, each trained alone, give the sweep's bits
        ds = split_windows(make_ar_series(11, n=60))
        cfg = HarnessConfig(seed=4, bp_epochs=50)
        preds = [model_predictions(ds, "bp", replace(cfg, seed=k)) for k in (4, 5, 6)]
        mses = np.array([mse(ds.test_targets, p) for p in preds])
        mapes = np.array([mape(ds.test_targets, p) for p in preds])
        want = StabilityReport(3, mses.mean(), mses.std(ddof=1), mapes.mean(), mapes.std(ddof=1))
        assert stability(ds, cfg, runs=3) == want

    def test_overflowing_spread_is_a_domain_error(self, monkeypatch):
        # the runs' mses, 0 and 1e200, are finite, but the square of their spread is not
        monkeypatch.setattr(
            evaluate, "_bp_predictions",
            lambda ds, scaler, cfg, runs: [ds.test_targets, ds.test_targets + 1e100],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="the spread of the runs' scores overflows float64"):
                stability(constant_dataset(), runs=2)

    def test_too_few_runs(self):
        ds = constant_dataset()
        with pytest.raises(DomainError, match="need at least 2 runs, got 1"):
            stability(ds, runs=1)

    def test_too_many_runs_fail_before_the_seeds_are_listed(self, monkeypatch):
        # 10**20 runs of 16 parameters are far above the work cap
        def no_training(*args, **kwargs):
            raise AssertionError("a network or a generator was built")

        monkeypatch.setattr(bpnn, "new_network", no_training)
        monkeypatch.setattr(np.random, "default_rng", no_training)
        message = (
            "backprop work of 1.68e+25 updates (runs x epochs x training rows x parameters: "
            "100000000000000000000 x 500 x 21 x 16) is above the cap of 1e+10"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            stability(constant_dataset(), runs=10**20)

    def test_most_runs_numpy_can_shape(self, monkeypatch):
        # 5h + 1 parameters a network: at this width numpy can shape two
        # networks' parameters but not three, and the work cap refuses
        # both before either is asked for
        def no_training(*args, **kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(bpnn, "new_network", no_training)
        hidden = np.iinfo(np.intp).max // 80 - 1
        cfg = HarnessConfig(bp_hidden=hidden)
        for runs, work in ((3, "1.82e+22"), (2, "1.21e+22")):
            message = f"backprop work of {work} updates (runs x epochs x training rows x parameters: "
            message += f"{runs} x 500 x 21 x {5 * hidden + 1})"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
                stability(constant_dataset(), cfg, runs=runs)


class TestBpWorkCap:
    """Backprop work is runs x epochs x training rows x parameters, and
    work above MAX_BP_WORK fails before any network is built."""

    HUGE = HarnessConfig(bp_epochs=10**20)

    @pytest.fixture(autouse=True)
    def no_networks(self, monkeypatch):
        def build(*args):
            raise AssertionError("a network or a generator was built")

        monkeypatch.setattr(bpnn, "new_network", build)
        monkeypatch.setattr(np.random, "default_rng", build)

    def test_message_names_the_work_and_the_cap(self):
        # the constant series has 21 training rows; 3 inputs and 3 hidden units have 16 parameters
        message = (
            "backprop work of 6.72e+22 updates (runs x epochs x training rows x parameters: "
            "2 x 100000000000000000000 x 21 x 16) is above the cap of 1e+10"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_bp_work(constant_dataset(), self.HUGE, 2)
        # work past float64's range reads inf
        message = "backprop work of inf updates (runs x epochs x training rows x parameters: 2 x 1000"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            check_bp_work(constant_dataset(), HarnessConfig(bp_epochs=10**400), 2)

    def test_work_at_the_cap_passes(self, monkeypatch):
        monkeypatch.setattr(evaluate, "MAX_BP_WORK", 3 * 7 * 21 * 16)
        ds = constant_dataset()
        check_bp_work(ds, HarnessConfig(bp_epochs=7), 3)
        for cfg, runs in ((HarnessConfig(bp_epochs=8), 3), (HarnessConfig(bp_epochs=7), 4)):
            with pytest.raises(DomainError, match="is above the cap of"):
                check_bp_work(ds, cfg, runs)

    def test_wider_layers_count(self, monkeypatch):
        # 3 inputs and 10 hidden units have 51 parameters
        monkeypatch.setattr(evaluate, "MAX_BP_WORK", 51 * 21)
        ds = constant_dataset()
        cfg = HarnessConfig(bp_epochs=1, bp_hidden=10)
        check_bp_work(ds, cfg, 1)
        with pytest.raises(DomainError, match=re.escape("(runs x epochs x training rows x parameters: 2 x 1 x 21 x 51)")):
            check_bp_work(ds, cfg, 2)

    @pytest.mark.parametrize(
        "entry, cfg, runs",
        [
            ("stability", HUGE, 2),
            ("model_predictions", HUGE, 1),
            ("stability", HarnessConfig(), 10**20),
            ("stability", HarnessConfig(), 10**400),
            ("stability", HarnessConfig(bp_epochs=10**400), 2),
            ("model_predictions", HarnessConfig(bp_epochs=10**400), 1),
            ("stability", HarnessConfig(bp_hidden=10**20), 2),
            ("model_predictions", HarnessConfig(bp_hidden=10**20), 1),
            ("stability", HarnessConfig(bp_hidden=10**400), 2),
            ("model_predictions", HarnessConfig(bp_hidden=10**400), 1),
        ],
        ids=[
            "stability", "model_predictions",
            "stability-runs", "stability-runs-past-float",
            "stability-epochs-past-float", "model_predictions-epochs-past-float",
            "stability-hidden", "model_predictions-hidden",
            "stability-hidden-past-float", "model_predictions-hidden-past-float",
        ],
    )
    def test_every_entry_point_checks(self, entry, cfg, runs):
        with pytest.raises(DomainError, match=r"^backprop work of \S+ updates \(.*\) is above the cap of 1e\+10$"):
            if entry == "stability":
                stability(constant_dataset(), cfg, runs=runs)
            else:
                model_predictions(constant_dataset(), "bp", cfg)

    def test_benchmark_gives_an_error_row(self):
        # the command line fails the whole command before any model runs
        bp, grnn = benchmark(constant_dataset(), ["bp", "grnn"], self.HUGE)
        assert bp.error.startswith("DomainError: backprop work of ")
        assert grnn.error is None

    def test_layers_numpy_cannot_shape_are_above_the_cap(self):
        # 3 inputs and 10**20 hidden units have 5 x 10**20 + 1 parameters
        message = "(runs x epochs x training rows x parameters: 1 x 500 x 21 x 500000000000000000001)"
        with pytest.raises(DomainError, match=re.escape(message)):
            check_bp_work(constant_dataset(), HarnessConfig(bp_hidden=10**20), 1)

    def test_other_models_are_not_counted(self):
        (report,) = benchmark(constant_dataset(), ["grnn"], self.HUGE)
        assert report.error is None

    def test_memory_names_the_values_and_the_cap(self, monkeypatch):
        # 21 training rows at 3 inputs and 10 hidden units, whose networks
        # have 51 parameters: 2 x (21 x 51 + 4 x 51) = 2550 values
        monkeypatch.setattr(evaluate, "MAX_BP_VALUES", 2549)
        message = (
            "backprop memory of 2.55e+03 float64 values (runs x (rows x (4 x hidden + inputs + 8) + "
            "4 x parameters): 2 x (21 x (4 x 10 + 3 + 8) + 4 x 51)) is above the cap of 2.55e+03"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_bp_work(constant_dataset(), HarnessConfig(bp_hidden=10), 2)

    def test_memory_at_the_cap_passes(self, monkeypatch):
        monkeypatch.setattr(evaluate, "MAX_BP_VALUES", 2550)
        ds = constant_dataset()
        check_bp_work(ds, HarnessConfig(bp_hidden=10), 2)
        for cfg, runs in ((HarnessConfig(bp_hidden=11), 2), (HarnessConfig(bp_hidden=10), 3)):
            with pytest.raises(DomainError, match="is above the cap of 2.55e"):
                check_bp_work(ds, cfg, runs)

    def test_zero_epochs_count_the_test_block(self, monkeypatch):
        # with no epoch, the largest pass is the prediction of the 6 test rows
        monkeypatch.setattr(evaluate, "MAX_BP_VALUES", 0)
        with pytest.raises(DomainError, match=re.escape(": 2 x (6 x (4 x 10 + 3 + 8) + 4 x 51))")):
            check_bp_work(constant_dataset(), HarnessConfig(bp_hidden=10, bp_epochs=0), 2)

    def test_work_is_checked_first(self, monkeypatch):
        monkeypatch.setattr(evaluate, "MAX_BP_VALUES", 0)
        with pytest.raises(DomainError, match="^backprop work of "):
            check_bp_work(constant_dataset(), self.HUGE, 2)


class TestOutOfMemory:
    """A failed allocation while a model runs is a DomainError naming it."""

    NUMPY_MESSAGE = "Unable to allocate 2.53 GiB for an array with shape (1, 339, 1000000)"

    @staticmethod
    def fail_training(monkeypatch, *message):
        def train(*args):
            raise MemoryError(*message)

        monkeypatch.setattr(bpnn, "train", train)

    def test_benchmark_reports_an_error_row_and_the_other_models(self, monkeypatch):
        self.fail_training(monkeypatch, self.NUMPY_MESSAGE)
        bad, good = benchmark(constant_dataset(), ["bp", "grnn"])
        assert bad.error == "DomainError: out of memory: " + self.NUMPY_MESSAGE
        assert np.isnan(bad.mse) and np.isnan(bad.mape)
        assert good.error is None

    def test_stability_and_model_predictions_raise(self, monkeypatch):
        self.fail_training(monkeypatch, self.NUMPY_MESSAGE)
        with pytest.raises(DomainError, match=r"out of memory: Unable to allocate 2\.53 GiB"):
            stability(constant_dataset(), runs=2)
        with pytest.raises(DomainError, match=r"out of memory: Unable to allocate 2\.53 GiB"):
            model_predictions(constant_dataset(), "bp")

    def test_a_bare_memory_error_still_has_a_message(self, monkeypatch):
        self.fail_training(monkeypatch)
        with pytest.raises(DomainError, match="out of memory: an allocation failed$"):
            model_predictions(constant_dataset(), "bp")


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

    def test_overflowing_errors_are_a_domain_error(self):
        # finite inputs whose errors' squares, and then their sum, overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lag-one errors overflow float64"):
                lag_one_analysis([1e300, 1.0, 1.0], [1.0, 1.0, 1e300])
            with pytest.raises(DomainError, match="lag-one errors overflow float64"):
                lag_one_analysis([1e308, 1e308, 1.0], [1.0, -1e308, -1e308])


def stability_output(monkeypatch, report):
    """The files and text of the stability command when the sweep gives report."""
    monkeypatch.setattr(evaluate, "stability", lambda ds, cfg, runs: report)
    return cli._cmd_stability(argparse.Namespace(runs=report.runs), HarnessConfig(), None)


def lag_output(monkeypatch, actual, predicted):
    """The files and text of the lag command for bp when its test-block
    predictions are predicted and the test targets actual."""
    monkeypatch.setattr(evaluate, "model_predictions", lambda ds, name, cfg: np.array(predicted))
    ds = types.SimpleNamespace(test_targets=np.array(actual))
    return cli._cmd_lag(argparse.Namespace(models=("bp",)), HarnessConfig(), ds)


class TestSerialization:
    """The bytes the command line writes for each kind of report: every CSV
    body comes from cli._csv and every printed table from cli._table."""

    def test_results_csv_exact(self):
        reports = [
            EvalReport("bp", 0.25, 0.1),
            EvalReport("rbf", float("nan"), float("nan"), error="DomainError: no"),
        ]
        body, _ = cli._scores("model", reports)
        assert body == "model,mse,mape\nbp,0.25,0.1\nrbf,nan,nan\n"

    def test_results_csv_custom_label(self, monkeypatch):
        # the kernels command labels each svr report with its kernel
        report = EvalReport("svr", 0.5, 0.25)
        monkeypatch.setattr(evaluate, "benchmark", lambda ds, models, cfg: [report])
        files, _ = cli._cmd_kernels(argparse.Namespace(), HarnessConfig(), None)
        assert files["kernels.csv"] == (
            "kernel,mse,mape\nlinear,0.5,0.25\npoly,0.5,0.25\nmlp,0.5,0.25\nrbf,0.5,0.25\n"
        )

    def test_results_csv_full_precision(self):
        value = 0.1234567890123456789
        body, _ = cli._scores("model", [EvalReport("bp", value, value)])
        row = body.splitlines()[1]
        assert row == f"bp,{value!r},{value!r}"
        assert float(row.split(",")[1]) == value

    def test_results_table_layout(self):
        reports = [
            EvalReport("bp", 0.009, 0.019),
            EvalReport("rbf", float("nan"), float("nan"), error="DomainError: no"),
        ]
        _, table = cli._scores("model", reports)
        lines = table.splitlines()
        assert lines[0].split() == ["model", "mse", "mape"]
        assert lines[1].split() == ["bp", "0.009", "0.019"]
        assert lines[2].split()[:3] == ["rbf", "-", "-"]
        assert lines[2].endswith("DomainError: no")

    def test_results_table_three_significant_digits(self):
        _, table = cli._scores("model", [EvalReport("bp", 0.123456, 12345.6)])
        assert table.splitlines()[1].split() == ["bp", "0.123", "1.23e+04"]

    def test_stability_csv_exact(self, monkeypatch):
        files, _ = stability_output(monkeypatch, StabilityReport(2, 0.5, 0.0, 0.25, 0.0))
        assert files["stability.csv"] == (
            "runs,mse_mean,mse_std,mape_mean,mape_std\n2,0.5,0.0,0.25,0.0\n"
        )

    def test_stability_table_mentions_every_field(self, monkeypatch):
        _, out = stability_output(monkeypatch, StabilityReport(100, 0.009, 4.8e-05, 0.019, 0.001))
        assert "runs" in out and "100" in out
        assert "4.8e-05" in out

    def test_lag_csv_exact(self, monkeypatch):
        files, _ = lag_output(monkeypatch, [1.0, 2.5, 2.0], [0.0, 0.5, 3.5])
        # errors: 1 - 0.5 = 0.5, 2.5 - 3.5 = -1.0
        assert files["lag_bp.csv"] == "t,e\n1,0.5\n2,-1.0\n"

    def test_lag_summary_csv_exact(self, monkeypatch):
        files, text = lag_output(monkeypatch, [1.0, 2.5, 2.0], [0.0, 0.5, 3.5])
        assert files["lag_summary.csv"] == (
            "model,mean,std,frac_negative,n_errors\nbp,-0.25,0.75,0.5,2\n"
        )
        assert text == "bp: mean=-0.25 std=0.75 frac_negative=0.5\n"
