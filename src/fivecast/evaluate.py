"""Benchmark harness, error metrics, and the two follow-up experiments.

Every model satisfies the same contract: ``module.fit(...) -> model`` and
``module.predict(model, x) -> float``.  The harness trains each requested
model on the chronological training block, predicts the test block, and
scores mean squared error and mean absolute percentage error in original
price units.

Scaling policy: inputs and targets are min-max scaled to [0, 1] on
statistics from the training block only, and predictions are inverse
transformed before scoring.  The kernel-weighted-memory model is the
exception: it consumes raw prices, because its smoothing parameter is
tied to the input scale.  It also runs walk-forward by default, absorbing
each realized test value after predicting it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bpnn, grnn, lssvm, rbfnn, svr
from .errors import DomainError, FivecastError, ShapeError
from .kernels import KernelSpec, median_pairwise_distance
from .timeseries import MinMaxScaler, WindowedDataset, fit_scaler

MODEL_NAMES = ("bp", "rbf", "grnn", "svr", "lssvm")

KERNEL_ROW_ORDER = ("linear", "poly", "mlp", "rbf")


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
    return float(np.mean(np.abs(a - p) / np.abs(a)))


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.ndim != 1 or p.ndim != 1:
        raise ShapeError("metric arguments must be 1-D")
    if a.shape[0] != p.shape[0]:
        raise ShapeError(f"lengths differ: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] == 0:
        raise ShapeError("metric arguments are empty")
    return a, p


@dataclass(frozen=True)
class HarnessConfig:
    """Resolved hyperparameters for one harness run.

    ``None`` fields fall back to data-driven defaults at fit time: the
    hidden width rule, the sqrt-of-train-size center count, the
    nearest-neighbor smoothing heuristic, and an rbf kernel with the
    median pairwise distance as width.
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
    svr_tol: float = 1e-4
    svr_max_passes: int = 200
    lssvm_gamma: float = 100.0
    kernel: KernelSpec | None = None


@dataclass(frozen=True)
class EvalReport:
    model: str
    mse: float
    mape: float
    n_test: int
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
        # Degenerate (constant) training block: shift to zero, unit span.
        lo = float(pool[0])
        return MinMaxScaler(lo, lo + 1.0)


def _resolved_kernel(cfg: HarnessConfig, scaled_inputs: np.ndarray) -> KernelSpec:
    if cfg.kernel is not None:
        return cfg.kernel
    return KernelSpec.rbf(median_pairwise_distance(scaled_inputs))


def _bp_predictions(ds: WindowedDataset, scaler: MinMaxScaler, cfg: HarnessConfig, seeds) -> list[np.ndarray]:
    """Raw-unit test-block predictions of one backprop network per seed.

    Each seed draws its network's initial weights and its shuffle order;
    the networks train together as one stacked network.
    """
    n_in = ds.inputs.shape[1]
    hidden = cfg.bp_hidden
    if hidden is None:
        hidden = bpnn.hidden_size_rule(1, n_in)
    nets = [bpnn.new_network((n_in, hidden, 1), seed=seed) for seed in seeds]
    sgd = bpnn.SgdConfig(
        eta=cfg.bp_eta, batch_size=cfg.bp_batch, epochs=cfg.bp_epochs, seed=cfg.seed
    )
    xs_tr, ys_tr = scaler.transform(ds.train_inputs), scaler.transform(ds.train_targets)
    bpnn.train(nets, xs_tr, ys_tr, sgd, seeds)
    xs_te = scaler.transform(ds.test_inputs)
    return [scaler.inverse(bpnn.predict_batch(net, xs_te)) for net in nets]


def _test_predictions(ds: WindowedDataset, scaler: MinMaxScaler, name: str, cfg: HarnessConfig) -> np.ndarray:
    """Raw-unit predictions for the test block of one model."""
    if name == "bp":
        return _bp_predictions(ds, scaler, cfg, [cfg.seed])[0]
    xs_tr = scaler.transform(ds.train_inputs)
    ys_tr = scaler.transform(ds.train_targets)
    xs_te = scaler.transform(ds.test_inputs)
    if name == "rbf":
        model = rbfnn.fit(xs_tr, ys_tr, cfg.rbf_centers, seed=cfg.seed)
        return scaler.inverse(rbfnn.predict_batch(model, xs_te))
    if name == "grnn":
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
    if name == "svr":
        model = svr.fit(
            xs_tr,
            ys_tr,
            _resolved_kernel(cfg, xs_tr),
            epsilon=cfg.svr_epsilon,
            c_reg=cfg.svr_c,
            tol=cfg.svr_tol,
            max_passes=cfg.svr_max_passes,
            seed=cfg.seed,
        )
        return scaler.inverse(svr.predict_batch(model, xs_te))
    if name == "lssvm":
        model = lssvm.fit(xs_tr, ys_tr, _resolved_kernel(cfg, xs_tr), gamma=cfg.lssvm_gamma)
        return scaler.inverse(lssvm.predict_batch(model, xs_te))
    raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")


def model_predictions(ds: WindowedDataset, name: str, cfg: HarnessConfig | None = None) -> np.ndarray:
    """Raw-unit test-block predictions for one model, full pipeline."""
    cfg = cfg or HarnessConfig()
    if name not in MODEL_NAMES:
        raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return _test_predictions(ds, _train_scaler(ds), name, cfg)


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
            preds = _test_predictions(ds, scaler, name, cfg)
            reports.append(
                EvalReport(name, mse(y_test, preds), mape(y_test, preds), y_test.shape[0])
            )
        except FivecastError as exc:
            reports.append(
                EvalReport(
                    name,
                    float("nan"),
                    float("nan"),
                    y_test.shape[0],
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return reports


def stability(
    ds: WindowedDataset,
    cfg: HarnessConfig | None = None,
    runs: int = 100,
    base_seed: int = 0,
    seeds=None,
) -> StabilityReport:
    """Retrain the backprop model across seeds and summarize the spread.

    Seeds default to base_seed .. base_seed + runs - 1; an explicit
    sequence overrides them.  All seeds train together as one stacked
    network, each exactly as it would alone.  Spreads are sample standard
    deviations.
    """
    cfg = cfg or HarnessConfig()
    if seeds is None:
        if runs < 2:
            raise DomainError(f"need at least 2 runs, got {runs}")
        seeds = range(base_seed, base_seed + runs)
    seeds = [int(s) for s in seeds]
    if len(seeds) < 2:
        raise DomainError(f"need at least 2 runs, got {len(seeds)}")
    scaler = _train_scaler(ds)
    y_test = ds.test_targets
    preds = _bp_predictions(ds, scaler, cfg, seeds)
    mses = np.array([mse(y_test, p) for p in preds])
    mapes = np.array([mape(y_test, p) for p in preds])
    return StabilityReport(
        runs=len(seeds),
        mse_mean=float(mses.mean()),
        mse_std=float(mses.std(ddof=1)),
        mape_mean=float(mapes.mean()),
        mape_std=float(mapes.std(ddof=1)),
    )


def lag_one_analysis(actual, predicted) -> LagOneReport:
    """Compare each actual against the prediction one step later."""
    a, p = _paired(actual, predicted)
    if a.shape[0] < 2:
        raise ShapeError("need at least 2 points for a lag-one comparison")
    errors = a[:-1] - p[1:]
    return LagOneReport(
        errors=errors,
        mean=float(errors.mean()),
        std=float(errors.std()),
        frac_negative=float(np.mean(errors < 0.0)),
    )


def results_csv(reports, label: str = "model") -> str:
    """Full-precision CSV, one row per report; failed models carry NaN."""
    lines = [f"{label},mse,mape"]
    for r in reports:
        lines.append(f"{r.model},{float(r.mse)!r},{float(r.mape)!r}")
    return "\n".join(lines) + "\n"


def results_table(reports, label: str = "model") -> str:
    """Aligned human-readable table, three significant digits."""
    rows = [(label, "mse", "mape", "")]
    for r in reports:
        if r.error is not None:
            rows.append((r.model, "-", "-", r.error))
        else:
            rows.append((r.model, f"{r.mse:.3g}", f"{r.mape:.3g}", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    out = []
    for row in rows:
        cells = [row[i].ljust(widths[i]) for i in range(3)]
        out.append(("  ".join(cells) + "  " + row[3]).rstrip())
    return "\n".join(out) + "\n"


def stability_csv(report: StabilityReport) -> str:
    return (
        "runs,mse_mean,mse_std,mape_mean,mape_std\n"
        f"{report.runs},{float(report.mse_mean)!r},{float(report.mse_std)!r},"
        f"{float(report.mape_mean)!r},{float(report.mape_std)!r}\n"
    )


def stability_table(report: StabilityReport) -> str:
    return (
        f"runs       {report.runs}\n"
        f"mse_mean   {report.mse_mean:.3g}\n"
        f"mse_std    {report.mse_std:.3g}\n"
        f"mape_mean  {report.mape_mean:.3g}\n"
        f"mape_std   {report.mape_std:.3g}\n"
    )


def lag_csv(report: LagOneReport) -> str:
    """The error series as t,e rows for plotting."""
    lines = ["t,e"]
    for t, e in enumerate(report.errors, start=1):
        lines.append(f"{t},{float(e)!r}")
    return "\n".join(lines) + "\n"


def lag_summary_csv(named_reports) -> str:
    lines = ["model,mean,std,frac_negative,n_errors"]
    for name, rep in named_reports:
        lines.append(
            f"{name},{float(rep.mean)!r},{float(rep.std)!r},"
            f"{float(rep.frac_negative)!r},{rep.errors.shape[0]}"
        )
    return "\n".join(lines) + "\n"
