"""Command line interface.

Four subcommands cover the full pipeline on a ``date,close`` CSV:

* ``benchmark``  train the requested models, write results.csv
* ``kernels``    compare the four kernels under the margin solver, write kernels.csv
* ``stability``  retrain the backprop model across seeds, write stability.csv
* ``lag``        emit per-model lag-one error series plus a summary

Every flag is declared once, in ``_FLAGS``, with the ``HarnessConfig`` or
``KernelSpec`` field it sets as its destination; a flag left out is left
to that field's default.  This module owns every output format:
``evaluate`` returns reports, each command builds its rows from them,
``_csv`` writes every file body (floats at full ``repr`` precision) and
``_table`` every printed table.  Each command returns its file bodies and
its printed text, and one runner loads the data, writes every file and
prints.  Every output file starts with a ``#`` comment naming the command
and the fully resolved configuration, is written atomically (temp file
then rename), and is byte-identical when the same command runs again with
the same seed.  Exit codes: 0 success, 1 usage, 3 numerical failure (a
``SingularError`` or ``DivergenceError``), and 2 for every other
``FivecastError``, an output that cannot be written included.  A warning
raised while a command runs is printed as one ``warning: <message>``
line on stderr.  ``main`` runs the command with numpy's bundled OpenBLAS
pinned to one thread, so the bytes do not depend on the BLAS thread
count, and restores the caller's count afterwards.  ``main`` returns the
code; ``run``, the ``fivecast`` command and ``python -m fivecast.cli``,
exits with it as soon as the output is flushed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import os
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate, svr
from .errors import DivergenceError, FivecastError, IoError, SingularError
from .evaluate import HarnessConfig
from .kernels import KERNEL_KINDS, KernelSpec
from .timeseries import load_csv, make_windows, split

TRAIN_FRACTION = 0.8
LAGS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; usage problems are exit 1 here
    def error(self, message):
        raise _UsageError(message)


_MODEL_LIST = ",".join(evaluate.MODEL_NAMES)


def _models(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise _UsageError("--models must name at least one model")
    for i, name in enumerate(names):
        if name not in evaluate.MODEL_NAMES:
            raise _UsageError(f"unknown model {name!r}; choose from {_MODEL_LIST}")
        if name in names[:i]:
            raise _UsageError(f"model {name!r} is named more than once in --models")
    return names


def _runs(text: str) -> int:
    try:
        runs = int(text)
    except ValueError:
        # argparse's own wording for a value that is not an integer
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if runs < 2:
        raise _UsageError(f"--runs must be at least 2, got {runs}")
    return runs


# One row per flag, in --help order: flag, dest, argparse options.  A dest
# other than data, out, models and runs is the HarnessConfig or KernelSpec
# field the flag sets.
_FLAGS = (
    ("--data", "data", dict(required=True, help="input CSV with header date,close")),
    ("--out", "out", dict(default=".", help="directory for output files")),
    ("--seed", "seed", dict(type=int, help="seed for every random choice")),
    ("--models", "models", dict(type=_models, default=evaluate.MODEL_NAMES, help="comma-separated subset of " + _MODEL_LIST)),
    ("--runs", "runs", dict(type=_runs, default=100, help="number of reseeded runs")),
    ("--eta", "bp_eta", dict(type=float, help="backprop learning rate")),
    ("--batch", "bp_batch", dict(type=int, help="backprop mini-batch size")),
    ("--epochs", "bp_epochs", dict(type=int, help="backprop training epochs")),
    ("--hidden", "bp_hidden", dict(type=int, help="hidden units (default: width rule)")),
    ("--rbf-centers", "rbf_centers", dict(type=int, help="radial units (default: sqrt of train size)")),
    ("--grnn-beta", "grnn_beta", dict(type=float, help="kernel sharpness on raw prices (default: nearest-neighbor heuristic)")),
    ("--grnn-static", "grnn_dynamic", dict(action="store_false", help="freeze the sample memory during the test block")),
    ("--svr-eps", "svr_epsilon", dict(type=float, help="insensitive-tube half width, scaled units")),
    ("--svr-c", "svr_c", dict(type=float, help="box bound on dual coefficients")),
    ("--lssvm-gamma", "lssvm_gamma", dict(type=float, help="least squares regularization weight")),
    ("--kernel", "kind", dict(choices=KERNEL_KINDS, help="kernel for the support vector models (default: rbf, median width)")),
    ("--poly-d", "degree", dict(type=int, help="polynomial degree")),
    ("--poly-c", "poly_c", dict(type=float, help="polynomial offset scale")),
    ("--rbf-sigma", "sigma", dict(type=float, help="rbf width (default: median pairwise distance)")),
    ("--mlp-k", "mlp_k", dict(type=float, help="tanh kernel slope")),
    ("--mlp-theta", "mlp_theta", dict(type=float, help="tanh kernel offset")),
)
# The flags only some commands take; every command takes the rest.
_ONLY = {
    "--models": ("benchmark", "lag"),
    "--runs": ("stability",),
    "--kernel": ("benchmark", "stability", "lag"),
}


def _given(args, cls) -> dict:
    """The flags set on the command line that name a field of cls."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _kernel_from_args(args, kind: str) -> KernelSpec | None:
    # no --kernel means rbf, so --rbf-sigma applies without it
    given = _given(args, KernelSpec)
    given["kind"] = kind
    if kind == "rbf" and "sigma" not in given:
        return None  # fall through to the median-width default
    return KernelSpec(**given)


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
    kernel = _kernel_from_args(args, getattr(args, "kind", "rbf"))
    return HarnessConfig(**_given(args, HarnessConfig), kernel=kernel)


def _config_line(args, cfg: HarnessConfig) -> str:
    def opt(v, auto: str = "auto"):
        return auto if v is None else v

    parts = [
        f"cmd={args.command}",
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
    if hasattr(args, "models"):
        parts.append(f"models={','.join(args.models)}")
    if hasattr(args, "runs"):
        parts.append(f"runs={args.runs}")
    return "# " + " ".join(parts) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    # A temp file beside the target under a fresh name, which "x" creates
    # (O_CREAT | O_EXCL) with the mode open(path, "w") gives a new file:
    # 0o666 less the umask, applied by the kernel.  The rename keeps it.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp_name, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _csv(header, rows) -> str:
    """A CSV body: the header's names, then one line per row.  A float cell
    is written as repr(float(v)), full precision and never as
    np.float64(...); any other cell with str."""
    return "".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in (header, *rows)
    )


def _table(rows) -> str:
    """Rows of text cells as aligned lines: every column but the last is
    padded to its widest cell, columns are two spaces apart, and each line
    is right-stripped."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]) - 1)]
    return "".join(
        "  ".join([*(cell.ljust(w) for cell, w in zip(row, widths)), row[-1]]).rstrip() + "\n"
        for row in rows
    )


def _scores(label: str, reports) -> tuple[str, str]:
    """The CSV body and printed table of one score row per report: full
    precision in the file, three significant digits on screen, where a
    failed model's NaN scores print as "-" beside its error."""
    rows = [(label, "mse", "mape", "")]
    for r in reports:
        if r.error is None:
            rows.append((r.model, f"{r.mse:.3g}", f"{r.mape:.3g}", ""))
        else:
            rows.append((r.model, "-", "-", r.error))
    body = _csv((label, "mse", "mape"), [(r.model, r.mse, r.mape) for r in reports])
    return body, _table(rows)


# Each command takes the parsed flags, their config and the split dataset,
# and returns its output files (name -> body, without the header) and the
# text it prints before the "wrote" lines.


def _cmd_benchmark(args, cfg, ds) -> tuple[dict[str, str], str]:
    body, table = _scores("model", evaluate.benchmark(ds, args.models, cfg))
    return {"results.csv": body}, table


def _cmd_kernels(args, cfg, ds) -> tuple[dict[str, str], str]:
    # every spec is checked before the first fit runs
    specs = [(kind, _kernel_from_args(args, kind)) for kind in ("linear", "poly", "mlp", "rbf")]
    reports = []
    for label, spec in specs:
        rep = evaluate.benchmark(ds, ["svr"], replace(cfg, kernel=spec))[0]
        reports.append(replace(rep, model=label))
    body, table = _scores("kernel", reports)
    return {"kernels.csv": body}, table


def _cmd_stability(args, cfg, ds) -> tuple[dict[str, str], str]:
    report = evaluate.stability(ds, cfg, runs=args.runs)
    cells = asdict(report)  # the run count, then the four float statistics
    body = _csv(tuple(cells), [tuple(cells.values())])
    table = _table(
        [(name, f"{v:.3g}" if isinstance(v, float) else str(v)) for name, v in cells.items()]
    )
    return {"stability.csv": body}, table


def _cmd_lag(args, cfg, ds) -> tuple[dict[str, str], str]:
    named = []
    for name in args.models:
        preds = evaluate.model_predictions(ds, name, cfg)
        named.append((name, evaluate.lag_one_analysis(ds.test_targets, preds)))
    files = {
        f"lag_{name}.csv": _csv(("t", "e"), enumerate(rep.errors, start=1)) for name, rep in named
    }
    files["lag_summary.csv"] = _csv(
        ("model", "mean", "std", "frac_negative", "n_errors"),
        [(name, rep.mean, rep.std, rep.frac_negative, rep.errors.shape[0]) for name, rep in named],
    )
    text = "".join(
        f"{name}: mean={rep.mean:.3g} std={rep.std:.3g} frac_negative={rep.frac_negative:.3g}\n"
        for name, rep in named
    )
    return files, text


def _run(args) -> int:
    """Build the config, load the data, run the command, write and print."""
    cfg = _config_from_args(args)
    ds = split(make_windows(load_csv(args.data), LAGS), TRAIN_FRACTION)
    if "bp" in getattr(args, "models", ()):
        # too much backprop work fails the command before any model runs,
        # not as benchmark's error row or after lag's earlier models
        evaluate.check_bp_work(ds, cfg, 1)
    files, text = args.func(args, cfg, ds)
    header = _config_line(args, cfg)
    out_dir = Path(args.out)
    try:
        for name, body in files.items():
            _write_atomic(out_dir / name, header + body)
        sys.stdout.write(text + "".join(f"wrote {out_dir / name}\n" for name in files))
    except OSError as exc:  # an unwritable --out, or a closed pipe when stdout is unbuffered
        raise IoError(f"cannot write output: {exc}") from exc
    return 0


_COMMANDS = {
    "benchmark": (_cmd_benchmark, "train models and score the test block"),
    "kernels": (_cmd_kernels, "compare the four kernels under the margin solver"),
    "stability": (_cmd_stability, "seed sweep of the backprop model"),
    "lag": (_cmd_lag, "lag-one error series for each model"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="fivecast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, help_text) in _COMMANDS.items():
        # a flag left out stays off the namespace, so the dataclasses' defaults apply
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for flag, dest, options in _FLAGS:
            if command in _ONLY.get(flag, (command,)):
                if "type" in options:
                    # --help names a value after its flag, not its dest
                    options = dict(options, metavar=flag[2:].replace("-", "_").upper())
                p.add_argument(flag, dest=dest, **options)
        p.set_defaults(func=func)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


UNPINNED_WARNING = (
    "no known OpenBLAS thread setter in this numpy build: "
    "output bytes may depend on the BLAS thread count"
)
_unpinned_warned = False


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when this numpy build ships no library that has them."""
    for lib in sorted(Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*")):
        try:
            blas = ctypes.CDLL(str(lib))
            return blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


@contextlib.contextmanager
def _one_blas_thread():
    # Products and solves may round differently on more threads; without a
    # setter the run goes on unpinned and says so once per process.
    global _unpinned_warned
    threads = _blas_threads()
    if threads is None:
        if not _unpinned_warned:
            _unpinned_warned = True
            warnings.warn(UNPINNED_WARNING)
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None) -> int:
    parser = build_parser()
    with warnings.catch_warnings():
        # a shown warning is one stderr line, without the source location
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            with _one_blas_thread():
                return _run(args)
        except _UsageError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        except (SingularError, DivergenceError) as exc:
            sys.stderr.write(f"numerical failure: {exc}\n")
            return 3
        except FivecastError as exc:
            sys.stderr.write(f"data error: {exc}\n")
            return 2


def run(argv=None) -> None:
    """Run main(argv) as the whole process and exit with its code.

    Once stdout and stderr are flushed, the process ends at once through
    os._exit, skipping interpreter finalization and atexit handlers.
    Every output file is closed by then, and fivecast registers no atexit
    handler; one that a site package registers at start-up is skipped
    too.  When a stream is missing or its flush fails, the exit goes
    through sys.exit and finalization instead, which reports an
    unwritable stdout as it always has.  An exception escaping main is
    not caught here and ends the process with its traceback and status 1.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is None:
                sys.exit(code)
            stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
