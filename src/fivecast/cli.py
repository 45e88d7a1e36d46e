"""Command line interface.

Four subcommands cover the full pipeline on a ``date,close`` CSV:

* ``benchmark``  train the requested models, write results.csv
* ``kernels``    compare the four kernels under the margin solver, write kernels.csv
* ``stability``  retrain the backprop model across seeds, write stability.csv
* ``lag``        emit per-model lag-one error series plus a summary

Every output file starts with a ``#`` comment naming the command and the
fully resolved configuration, is written atomically (temp file then
rename), and is byte-identical when the same command runs again with the
same seed.  Exit codes: 0 success, 1 usage, 2 bad data, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import evaluate, svr
from .errors import (
    DivergenceError,
    DomainError,
    IoError,
    OrderError,
    ParseError,
    SingularError,
)
from .evaluate import HarnessConfig
from .kernels import KernelSpec
from .timeseries import load_csv, make_windows, split

TRAIN_FRACTION = 0.8
LAGS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems are exit 1 here
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV with header date,close")
    parser.add_argument("--out", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=0, help="seed for every random choice")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta", type=float, default=0.01, help="backprop learning rate")
    parser.add_argument("--batch", type=int, default=16, help="backprop mini-batch size")
    parser.add_argument("--epochs", type=int, default=500, help="backprop training epochs")
    parser.add_argument("--hidden", type=int, default=None, help="hidden units (default: width rule)")
    parser.add_argument("--rbf-centers", type=int, default=None, help="radial units (default: sqrt of train size)")
    parser.add_argument("--grnn-beta", type=float, default=None, help="kernel sharpness on raw prices (default: nearest-neighbor heuristic)")
    parser.add_argument("--grnn-static", action="store_true", help="freeze the sample memory during the test block")
    parser.add_argument("--svr-eps", type=float, default=0.01, help="insensitive-tube half width, scaled units")
    parser.add_argument("--svr-c", type=float, default=10.0, help="box bound on dual coefficients")
    parser.add_argument("--lssvm-gamma", type=float, default=100.0, help="least squares regularization weight")


def _add_kernel_flags(parser: argparse.ArgumentParser, with_choice: bool) -> None:
    if with_choice:
        parser.add_argument(
            "--kernel",
            choices=("linear", "poly", "rbf", "mlp"),
            default=None,
            help="kernel for the support vector models (default: rbf, median width)",
        )
    parser.add_argument("--poly-d", type=int, default=2, help="polynomial degree")
    parser.add_argument("--poly-c", type=float, default=1.0, help="polynomial offset scale")
    parser.add_argument("--rbf-sigma", type=float, default=None, help="rbf width (default: median pairwise distance)")
    parser.add_argument("--mlp-k", type=float, default=1.0, help="tanh kernel slope")
    parser.add_argument("--mlp-theta", type=float, default=0.0, help="tanh kernel offset")


def _parse_models(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise _UsageError("--models must name at least one model")
    for name in names:
        if name not in evaluate.MODEL_NAMES:
            raise _UsageError(
                f"unknown model {name!r}; choose from {','.join(evaluate.MODEL_NAMES)}"
            )
    return names


def _kernel_from_args(args, kind: str | None) -> KernelSpec | None:
    # no --kernel means rbf, so --rbf-sigma applies without it
    if kind == "linear":
        return KernelSpec.linear()
    if kind == "poly":
        return KernelSpec.polynomial(args.poly_d, args.poly_c)
    if kind in (None, "rbf"):
        if args.rbf_sigma is None:
            return None  # fall through to the median-width default
        return KernelSpec.rbf(args.rbf_sigma)
    return KernelSpec.mlp(args.mlp_k, args.mlp_theta)


def _kernel_label(spec: KernelSpec | None) -> str:
    if spec is None:
        return "rbf(sigma=auto)"
    if spec.kind == "linear":
        return "linear"
    if spec.kind == "poly":
        return f"poly(degree={spec.degree},c={spec.poly_c!r})"
    if spec.kind == "rbf":
        return f"rbf(sigma={spec.sigma!r})"
    return f"mlp(k={spec.mlp_k!r},theta={spec.mlp_theta!r})"


def _config_from_args(args) -> HarnessConfig:
    return HarnessConfig(
        seed=args.seed,
        bp_eta=args.eta,
        bp_batch=args.batch,
        bp_epochs=args.epochs,
        bp_hidden=args.hidden,
        rbf_centers=args.rbf_centers,
        grnn_beta=args.grnn_beta,
        grnn_dynamic=not args.grnn_static,
        svr_epsilon=args.svr_eps,
        svr_c=args.svr_c,
        lssvm_gamma=args.lssvm_gamma,
        kernel=_kernel_from_args(args, getattr(args, "kernel", None)),
    )


def _config_line(cmd: str, args, cfg: HarnessConfig, extra: str = "") -> str:
    def opt(v, auto: str = "auto"):
        return auto if v is None else v

    parts = [
        f"cmd={cmd}",
        f"data={args.data}",
        f"lags={LAGS}",
        f"train_fraction={TRAIN_FRACTION}",
        f"seed={cfg.seed}",
        f"eta={cfg.bp_eta!r}",
        f"batch={cfg.bp_batch}",
        f"epochs={cfg.bp_epochs}",
        f"hidden={opt(cfg.bp_hidden)}",
        f"rbf_centers={opt(cfg.rbf_centers)}",
        f"grnn_beta={opt(cfg.grnn_beta)}",
        f"grnn_mode={'dynamic' if cfg.grnn_dynamic else 'static'}",
        f"svr_eps={cfg.svr_epsilon!r}",
        f"svr_c={cfg.svr_c!r}",
        f"svr_tol={svr.TOL!r}",
        f"svr_max_passes={svr.MAX_PASSES}",
        f"lssvm_gamma={cfg.lssvm_gamma!r}",
        f"kernel={_kernel_label(cfg.kernel)}",
    ]
    if extra:
        parts.append(extra)
    return "# " + " ".join(parts) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_dataset(args):
    series = load_csv(args.data)
    return split(make_windows(series, LAGS), TRAIN_FRACTION)


def _cmd_benchmark(args) -> int:
    models = _parse_models(args.models)
    cfg = _config_from_args(args)
    ds = _load_dataset(args)
    reports = evaluate.benchmark(ds, models, cfg)
    header = _config_line("benchmark", args, cfg, extra=f"models={','.join(models)}")
    out_path = Path(args.out) / "results.csv"
    _write_atomic(out_path, header + evaluate.results_csv(reports))
    sys.stdout.write(evaluate.results_table(reports))
    sys.stdout.write(f"wrote {out_path}\n")
    return 0


def _cmd_kernels(args) -> int:
    cfg = _config_from_args(args)
    ds = _load_dataset(args)
    specs = [(kind, _kernel_from_args(args, kind)) for kind in ("linear", "poly", "mlp", "rbf")]
    reports = []
    for label, spec in specs:
        run_cfg = replace(cfg, kernel=spec)
        rep = evaluate.benchmark(ds, ["svr"], run_cfg)[0]
        reports.append(
            evaluate.EvalReport(label, rep.mse, rep.mape, rep.n_test, rep.error)
        )
    header = _config_line("kernels", args, cfg)
    out_path = Path(args.out) / "kernels.csv"
    _write_atomic(out_path, header + evaluate.results_csv(reports, label="kernel"))
    sys.stdout.write(evaluate.results_table(reports, label="kernel"))
    sys.stdout.write(f"wrote {out_path}\n")
    return 0


def _cmd_stability(args) -> int:
    if args.runs < 2:
        raise _UsageError(f"--runs must be at least 2, got {args.runs}")
    cfg = _config_from_args(args)
    ds = _load_dataset(args)
    report = evaluate.stability(ds, cfg, runs=args.runs, base_seed=args.seed)
    header = _config_line("stability", args, cfg, extra=f"runs={args.runs}")
    out_path = Path(args.out) / "stability.csv"
    _write_atomic(out_path, header + evaluate.stability_csv(report))
    sys.stdout.write(evaluate.stability_table(report))
    sys.stdout.write(f"wrote {out_path}\n")
    return 0


def _cmd_lag(args) -> int:
    models = _parse_models(args.models)
    cfg = _config_from_args(args)
    ds = _load_dataset(args)
    y_test = ds.test_targets
    named = []
    out_dir = Path(args.out)
    header_base = _config_line("lag", args, cfg, extra=f"models={','.join(models)}")
    written = []
    for name in models:
        preds = evaluate.model_predictions(ds, name, cfg)
        rep = evaluate.lag_one_analysis(y_test, preds)
        named.append((name, rep))
        path = out_dir / f"lag_{name}.csv"
        _write_atomic(path, header_base + evaluate.lag_csv(rep))
        written.append(path)
    summary_path = out_dir / "lag_summary.csv"
    _write_atomic(summary_path, header_base + evaluate.lag_summary_csv(named))
    written.append(summary_path)
    for name, rep in named:
        sys.stdout.write(
            f"{name}: mean={rep.mean:.3g} std={rep.std:.3g} "
            f"frac_negative={rep.frac_negative:.3g}\n"
        )
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fivecast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bench = sub.add_parser("benchmark", help="train models and score the test block")
    _add_common(p_bench)
    p_bench.add_argument(
        "--models",
        default=",".join(evaluate.MODEL_NAMES),
        help="comma-separated subset of " + ",".join(evaluate.MODEL_NAMES),
    )
    _add_model_flags(p_bench)
    _add_kernel_flags(p_bench, with_choice=True)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_kern = sub.add_parser("kernels", help="compare the four kernels under the margin solver")
    _add_common(p_kern)
    _add_model_flags(p_kern)
    _add_kernel_flags(p_kern, with_choice=False)
    p_kern.set_defaults(func=_cmd_kernels)

    p_stab = sub.add_parser("stability", help="seed sweep of the backprop model")
    _add_common(p_stab)
    p_stab.add_argument("--runs", type=int, default=100, help="number of reseeded runs")
    _add_model_flags(p_stab)
    _add_kernel_flags(p_stab, with_choice=True)
    p_stab.set_defaults(func=_cmd_stability)

    p_lag = sub.add_parser("lag", help="lag-one error series for each model")
    _add_common(p_lag)
    p_lag.add_argument(
        "--models",
        default=",".join(evaluate.MODEL_NAMES),
        help="comma-separated subset of " + ",".join(evaluate.MODEL_NAMES),
    )
    _add_model_flags(p_lag)
    _add_kernel_flags(p_lag, with_choice=True)
    p_lag.set_defaults(func=_cmd_lag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (IoError, ParseError, OrderError, DomainError) as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 2
    except (SingularError, DivergenceError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
