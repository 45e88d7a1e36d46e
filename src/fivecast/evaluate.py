"""Benchmark harness, error metrics, and the two follow-up experiments.

Every model predicts through ``module.predict_batch(model, inputs) ->
ndarray``, one prediction per row of an (n, lags) input block.  Four
models are built by ``module.fit(...) -> model``; bp trains through
``bpnn.train`` on one stack of networks, one per seed, built by
``bpnn.new_network`` from the same seeds.  The harness trains each
requested model on the chronological training block, predicts the test
block, and scores mean squared error and mean absolute percentage error
in original price units.  It returns reports and leaves their text to
:mod:`fivecast.cli`.  An allocation that fails while a model runs is a
DomainError, and so is backprop work above ``MAX_BP_WORK``, found
before any network is built.

Scaling policy: inputs and targets are min-max scaled to [0, 1] on
statistics from the training block only, and predictions are inverse
transformed before scoring.  The kernel-weighted-memory model is the
exception: it consumes raw prices, because its smoothing parameter is
tied to the input scale.  It also runs walk-forward by default, absorbing
each realized test value after predicting it.

Each model's module is imported by the function that runs it, so a
command loads only the models it trains.  The margin solver is the
exception: the CLI's ``# cmd=`` header names its settings, so every
command loads it anyway, and ``HarnessConfig`` checks svr's settings with
``svr.check_settings``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import svr
from .errors import DomainError, FivecastError, ShapeError
from .kernels import KernelSpec, median_pairwise_distance
from .timeseries import MinMaxScaler, WindowedDataset, as_count, as_real, as_vector, check_real, fit_scaler


def mse(actual, predicted) -> float:
    """Mean squared error.

    Raises DomainError when finite inputs give a mean square too large
    for float64.
    """
    a, p = _paired(actual, predicted)
    with np.errstate(over="ignore"):
        value = float(np.mean((a - p) ** 2))
    if not np.isfinite(value) and np.all(np.isfinite(a)) and np.all(np.isfinite(p)):
        raise DomainError("mean squared error overflows float64")
    return value


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, as a fraction (0.05 means 5%)."""
    a, p = _paired(actual, predicted)
    if np.any(a == 0.0):
        raise DomainError("mape is undefined when an actual value is zero")
    with np.errstate(over="ignore"):
        value = float(np.mean(np.abs(a - p) / np.abs(a)))
    if not np.isfinite(value) and np.all(np.isfinite(a)) and np.all(np.isfinite(p)):
        raise DomainError("mean absolute percentage error overflows float64")
    return value


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = as_vector(actual, name="actual values")
    p = as_vector(predicted, a.shape[0], name="predictions")
    if a.shape[0] == 0:
        raise ShapeError("metric arguments are empty")
    return a, p


@dataclass(frozen=True)
class HarnessConfig:
    """Resolved hyperparameters for one harness run.

    ``None`` fields fall back to data-driven defaults at fit time: the
    hidden width rule, the sqrt-of-train-size center count, the
    nearest-neighbor smoothing heuristic, and an rbf kernel with the
    median pairwise distance as width.  Every field is checked here, so a
    bad value fails before any model runs; a numeric one with the message
    its model would give: svr's by ``svr.check_settings``, the rest by the
    setting rules in :mod:`fivecast.timeseries` that the models call.
    """

    seed: int = 0
    bp_eta: float = 0.01
    bp_batch: int = 16
    bp_epochs: int = 500
    bp_hidden: int | None = None
    rbf_centers: int | None = None
    grnn_beta: float | None = None
    grnn_dynamic: bool = True
    svr_epsilon: float = 0.01
    svr_c: float = 10.0
    lssvm_gamma: float = 100.0
    kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        as_count(self.seed, "seed", 0)
        if self.bp_hidden is not None:
            as_count(self.bp_hidden, "hidden width", 1)
        as_real(self.bp_eta, "eta")
        as_count(self.bp_batch, "batch_size", 1)
        as_count(self.bp_epochs, "epochs", 0)
        if self.rbf_centers is not None:
            as_count(self.rbf_centers, "n_centers", 1)
        if self.grnn_beta is not None:
            as_real(self.grnn_beta, "beta", positive=True)
        if not isinstance(self.grnn_dynamic, bool):
            raise DomainError(f"grnn_dynamic must be True or False, got {self.grnn_dynamic!r}")
        svr.check_settings(self.svr_epsilon, self.svr_c)
        if not 1.0 / as_real(self.lssvm_gamma, "gamma", positive=True) < math.inf:
            raise DomainError(f"gamma must have a finite reciprocal, got {self.lssvm_gamma}")
        if not (self.kernel is None or isinstance(self.kernel, KernelSpec)):
            raise DomainError(f"kernel must be a KernelSpec or None, got {self.kernel!r}")


@dataclass(frozen=True)
class EvalReport:
    model: str
    mse: float
    mape: float
    error: str | None = None


@dataclass(frozen=True)
class StabilityReport:
    runs: int
    mse_mean: float
    mse_std: float
    mape_mean: float
    mape_std: float


@dataclass(frozen=True)
class LagOneReport:
    """Alignment of actuals against the next step's prediction.

    errors[t] = actual[t] - predicted[t + 1]; a mostly negative series
    means the forecast shadows the previous move instead of leading it.
    """

    errors: np.ndarray
    mean: float
    std: float
    frac_negative: float


def _train_scaler(ds: WindowedDataset) -> MinMaxScaler:
    pool = np.concatenate([ds.train_inputs.ravel(), ds.train_targets])
    try:
        return fit_scaler(pool)
    except DomainError:
        # Degenerate (constant) training block: a unit span, or one ulp
        # where a unit no longer moves lo, placed below lo where lo + span
        # overflows.
        lo = float(pool[0])
        span = max(1.0, math.ulp(lo))
        if lo + span < math.inf:
            return MinMaxScaler(lo, lo + span)
        return MinMaxScaler(lo - span, lo)


def _resolved_kernel(cfg: HarnessConfig, scaled_inputs: np.ndarray) -> KernelSpec:
    if cfg.kernel is not None:
        return cfg.kernel
    return KernelSpec("rbf", sigma=median_pairwise_distance(scaled_inputs))


def _scaled_blocks(ds: WindowedDataset, scaler: MinMaxScaler):
    """Scaled train inputs, train targets and test inputs."""
    return (
        scaler.transform(ds.train_inputs),
        scaler.transform(ds.train_targets),
        scaler.transform(ds.test_inputs),
    )


def _bp_sizes(ds: WindowedDataset, cfg: HarnessConfig) -> tuple[int, int, int]:
    """Layer sizes of the backprop network: one hidden layer, one output."""
    from . import bpnn

    n_in = ds.inputs.shape[1]
    hidden = cfg.bp_hidden
    if hidden is None:
        hidden = bpnn.hidden_size_rule(1, n_in)
    return n_in, hidden, 1


# The most backprop work a command may ask for, in sample-parameter
# updates: runs x epochs x training rows x parameters a network, where 0
# epochs count as 1, since building and predicting the stack is work too.
# Acceptance criterion 7 asks for 1.08e9 (100 runs x 2000 epochs x 339
# rows x 16), which trains in 10-13 s on a 2-core Xeon VM at the default
# batch of 16, so the cap is about two minutes there.
MAX_BP_WORK = 10**10


def check_bp_work(ds: WindowedDataset, cfg: HarnessConfig, runs: int) -> None:
    """Raise DomainError when training runs backprop networks on ds would
    take more than MAX_BP_WORK sample-parameter updates, counting at least
    one epoch.  This is the one gate of an oversized stack, whatever its
    runs, epochs or width: one that numpy cannot shape has far more work.
    """
    from . import bpnn

    # Python integers, so no product wraps
    runs, epochs, rows = int(runs), int(cfg.bp_epochs), ds.train_inputs.shape[0]
    params = bpnn.parameter_count(_bp_sizes(ds, cfg))
    work = runs * max(epochs, 1) * rows * params
    if work > MAX_BP_WORK:
        counted = "1 (0 epochs count as 1)" if epochs == 0 else epochs
        raise DomainError(
            f"backprop work of {check_real(work, 'backprop work'):.3g} updates (runs x epochs x training "
            f"rows x parameters: {runs} x {counted} x {rows} x {params}) is above the cap of {MAX_BP_WORK:.0e}"
        )


def _bp_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig, runs: int) -> np.ndarray:
    """Raw-unit test-block predictions (runs, n) of one backprop network
    per seed cfg.seed, ..., cfg.seed + runs - 1.

    Each seed draws its network's initial weights and its shuffle order;
    the networks train together as one stack, once check_bp_work passes.
    """
    from . import bpnn

    check_bp_work(ds, cfg, runs)
    seeds = range(cfg.seed, cfg.seed + runs)
    net = bpnn.new_network(_bp_sizes(ds, cfg), seeds)
    sgd = bpnn.SgdConfig(eta=cfg.bp_eta, batch_size=cfg.bp_batch, epochs=cfg.bp_epochs)
    xs_tr, ys_tr, xs_te = _scaled_blocks(ds, scaler)
    bpnn.train(net, xs_tr, ys_tr, sgd, seeds)
    return scaler.inverse(bpnn.predict_batch(net, xs_te))


def _rbf_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig) -> np.ndarray:
    from . import rbfnn

    xs_tr, ys_tr, xs_te = _scaled_blocks(ds, scaler)
    model = rbfnn.fit(xs_tr, ys_tr, cfg.rbf_centers, seed=cfg.seed)
    return scaler.inverse(rbfnn.predict_batch(model, xs_te))


def _grnn_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig) -> np.ndarray:
    from . import grnn

    beta = cfg.grnn_beta
    if beta is None:
        beta = grnn.default_smoothing(ds.train_inputs)
    model = grnn.fit(ds.train_inputs, ds.train_targets, beta)
    if not cfg.grnn_dynamic:
        return grnn.predict_batch(model, ds.test_inputs)
    preds = np.empty(ds.test_inputs.shape[0])
    for t in range(ds.test_inputs.shape[0]):
        preds[t] = grnn.predict(model, ds.test_inputs[t])
        # absorb the realized value only after predicting it
        grnn.observe(model, ds.test_inputs[t], ds.test_targets[t])
    return preds


def _svr_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig) -> np.ndarray:
    xs_tr, ys_tr, xs_te = _scaled_blocks(ds, scaler)
    model = svr.fit(
        xs_tr, ys_tr, _resolved_kernel(cfg, xs_tr), epsilon=cfg.svr_epsilon, c_reg=cfg.svr_c
    )
    return scaler.inverse(svr.predict_batch(model, xs_te))


def _lssvm_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig) -> np.ndarray:
    from . import lssvm

    xs_tr, ys_tr, xs_te = _scaled_blocks(ds, scaler)
    model = lssvm.fit(xs_tr, ys_tr, _resolved_kernel(cfg, xs_tr), gamma=cfg.lssvm_gamma)
    return scaler.inverse(lssvm.predict_batch(model, xs_te))


# Raw-unit test-block predictions of each model, by name; the keys, in
# order, are MODEL_NAMES.
_TEST_PREDICTIONS = {
    "bp": lambda ds, scaler, cfg: _bp_predictions(ds, scaler, cfg, 1)[0],
    "rbf": _rbf_predictions,
    "grnn": _grnn_predictions,
    "svr": _svr_predictions,
    "lssvm": _lssvm_predictions,
}
MODEL_NAMES = tuple(_TEST_PREDICTIONS)


def _run_model(predict, *args):
    """predict(*args), where an allocation that fails is a DomainError
    naming it, as new_network reports layers it cannot allocate."""
    try:
        return predict(*args)
    except MemoryError as exc:
        raise DomainError(f"out of memory: {str(exc) or 'an allocation failed'}") from exc


def model_predictions(ds: WindowedDataset, name: str, cfg: HarnessConfig | None = None) -> np.ndarray:
    """Raw-unit test-block predictions for one model, full pipeline."""
    cfg = cfg or HarnessConfig()
    if name not in MODEL_NAMES:
        raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return _run_model(_TEST_PREDICTIONS[name], ds, _train_scaler(ds), cfg)


def benchmark(ds: WindowedDataset, models, cfg: HarnessConfig | None = None) -> list[EvalReport]:
    """Train and score each requested model on the dataset's split.

    A model that raises gets an error entry with NaN metrics; the other
    models still report.
    """
    cfg = cfg or HarnessConfig()
    names = list(models)
    if not names:
        raise DomainError("no models requested")
    for name in names:
        if name not in MODEL_NAMES:
            raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    scaler = _train_scaler(ds)
    y_test = ds.test_targets
    reports = []
    for name in names:
        try:
            preds = _run_model(_TEST_PREDICTIONS[name], ds, scaler, cfg)
            reports.append(EvalReport(name, mse(y_test, preds), mape(y_test, preds)))
        except FivecastError as exc:
            nan = float("nan")
            reports.append(EvalReport(name, nan, nan, error=f"{type(exc).__name__}: {exc}"))
    return reports


def stability(ds: WindowedDataset, cfg: HarnessConfig | None = None, runs: int = 100) -> StabilityReport:
    """Retrain the backprop model with seeds cfg.seed, ..., cfg.seed +
    runs - 1 and summarize the spread.

    All runs train together as one stacked network, each exactly as it
    would alone.  Spreads are sample standard deviations.  A sweep whose
    work is above MAX_BP_WORK is a DomainError from check_bp_work before
    any network is built.
    """
    cfg = cfg or HarnessConfig()
    runs = as_count(runs, "runs")
    if runs < 2:
        raise DomainError(f"need at least 2 runs, got {runs}")
    scaler = _train_scaler(ds)
    y_test = ds.test_targets
    preds = _run_model(_bp_predictions, ds, scaler, cfg, runs)
    mses = np.array([mse(y_test, p) for p in preds])
    mapes = np.array([mape(y_test, p) for p in preds])
    with np.errstate(over="ignore"):
        stats = (mses.mean(), mses.std(ddof=1), mapes.mean(), mapes.std(ddof=1))
    if not np.all(np.isfinite(stats)):
        raise DomainError("the spread of the runs' scores overflows float64")
    return StabilityReport(runs, *map(float, stats))


def lag_one_analysis(actual, predicted) -> LagOneReport:
    """Compare each actual against the prediction one step later."""
    a, p = _paired(actual, predicted)
    if a.shape[0] < 2:
        raise ShapeError("need at least 2 points for a lag-one comparison")
    with np.errstate(over="ignore", invalid="ignore"):
        errors = a[:-1] - p[1:]
        mean = float(errors.mean())
        std = float(errors.std())
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DomainError("lag-one errors overflow float64")
    return LagOneReport(
        errors=errors,
        mean=mean,
        std=std,
        frac_negative=float(np.mean(errors < 0.0)),
    )

