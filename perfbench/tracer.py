"""Per-layer tracing of one fivecast CLI run, from outside the package.

Timing wrappers go around the public functions each layer's metrics
need.  Every call records a span (name, start, end, parent span, notes);
all spans of one process share a run id.  Spans stay in memory and are
written as JSON when the run ends.  ``svr``, ``lssvm``, ``evaluate`` and
``cli`` bind some of these functions by name at import, so each wrapper
replaces the function in every fivecast module that holds it; otherwise a
gram build would be timed as part of ``svr.fit``.

Run as a script, it executes one traced ``fivecast.cli.main`` call:

    python3 perfbench/tracer.py SPANS.json RUN_ID -- kernels --data in.csv --out out

:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Wrapped function -> the metric its self time (duration minus the time
# its wrapped children take) adds to.  Together with the root span
# ``cli.main`` these self times partition the traced wall time of main().
SELF_METRIC = {
    "timeseries.load_csv": "timeseries.load_s",
    "timeseries.make_windows": "timeseries.load_s",
    "timeseries.split": "timeseries.load_s",
    "timeseries.fit_scaler": "timeseries.load_s",
    "evaluate.benchmark": "evaluate.self_s",
    "evaluate.stability": "evaluate.self_s",
    "evaluate.model_predictions": "evaluate.self_s",
    "evaluate.lag_one_analysis": "evaluate.self_s",
    "kernels.gram": "kernels.gram_s",
    "kernels.kernel_column": "kernels.column_s",
    "kernels.median_pairwise_distance": "kernels.median_s",
    "linalg.solve": "linalg.solve_s",
    "svr.fit": "svr.fit_self_s",
    "svr.predict_batch": "svr.predict_s",
    "lssvm.fit": "lssvm.fit_self_s",
    "lssvm.predict_batch": "lssvm.predict_s",
    "bpnn.train": "bpnn.train_self_s",
    "bpnn.training_cost": "bpnn.cost_check_s",
    "bpnn.predict_batch": "bpnn.predict_s",
    "rbfnn.fit": "rbfnn.fit_self_s",
    "rbfnn.kmeans": "rbfnn.kmeans_s",
    "grnn.predict": "grnn.walk_s",
    "grnn.observe": "grnn.walk_s",
}
ROOT = "cli.main"
SELF_METRICS = tuple(dict.fromkeys(["cli.self_s", *SELF_METRIC.values()]))


def _svr_note(args, kwargs, model):
    bound = model.c_reg * (1.0 - 1e-10)
    return {
        "kind": model.kernel.kind,
        "passes": model.passes,
        "converged": model.converged,
        "at_bound": int((abs(model.coefs) >= bound).sum()),
        "coefs": int(model.coefs.shape[0]),
    }


def _train_note(args, kwargs, net):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"epochs": cfg.epochs}


# Counts taken at the call boundary, from the arguments and the result.
NOTES = {
    "svr.fit": _svr_note,
    "linalg.solve": lambda args, kwargs, x: {"n": int(x.shape[0])},
    "bpnn.train": _train_note,
    "grnn.observe": lambda args, kwargs, model: {"neurons": model.n_neurons},
}


class Tracer:
    """Collects the spans of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, notes]
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]
        note = NOTES.get(name)
        if note is not None:
            self.spans[idx][4] = note(args, kwargs, result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace each traced function in every fivecast module holding it."""
        modules = {
            name: importlib.import_module(f"fivecast.{name}")
            for name in ("cli", "evaluate", "timeseries", "kernels", "linalg",
                         "svr", "lssvm", "bpnn", "rbfnn", "grnn")
        }
        holders = [importlib.import_module("fivecast"), *modules.values()]
        for qualname in SELF_METRIC:
            layer, attr = qualname.split(".")
            original = getattr(modules[layer], attr)
            wrapper = self.wrap(qualname, original)
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero for layers that did not run)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {key: 0.0 for key in SELF_METRICS}
    m.update({f"svr.fit_s.{k}": 0.0 for k in ("linear", "poly", "mlp", "rbf")})
    counts = dict.fromkeys(
        ("svr.fits", "svr.passes", "svr.unconverged", "svr.at_bound", "svr.coefs",
         "bpnn.epochs", "bpnn.trains", "linalg.solve_calls", "linalg.flop",
         "lssvm.fits", "lssvm.solves", "kernels.gram_calls", "kernels.column_calls",
         "grnn.steps", "grnn.final_neurons"), 0)
    main_s = 0.0
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == ROOT:
            m["cli.self_s"] += own
            main_s += dur
        elif name == "kernels.kernel_column" and parent_name == "kernels.gram":
            m["kernels.gram_s"] += own  # a gram's own rows belong to the gram
        else:
            m[SELF_METRIC[name]] += own
        if name == "svr.fit":
            m[f"svr.fit_s.{note['kind']}"] += dur
            counts["svr.fits"] += 1
            counts["svr.passes"] += note["passes"]
            counts["svr.unconverged"] += not note["converged"]
            counts["svr.at_bound"] += note["at_bound"]
            counts["svr.coefs"] += note["coefs"]
        elif name == "bpnn.train":
            counts["bpnn.trains"] += 1
            counts["bpnn.epochs"] += note["epochs"]
        elif name == "linalg.solve":
            counts["linalg.solve_calls"] += 1
            counts["linalg.flop"] += 2.0 * note["n"] ** 3 / 3.0
            counts["lssvm.solves"] += parent_name == "lssvm.fit"
        elif name == "lssvm.fit":
            counts["lssvm.fits"] += 1
        elif name == "kernels.gram":
            counts["kernels.gram_calls"] += 1
        elif name == "kernels.kernel_column" and parent_name != "kernels.gram":
            counts["kernels.column_calls"] += 1
        elif name == "grnn.observe":
            counts["grnn.steps"] += 1
            counts["grnn.final_neurons"] = note["neurons"]
    gflop = counts.pop("linalg.flop") / 1e9
    m.update(
        {
            "svr.passes": counts["svr.passes"],
            "svr.at_bound_frac": counts["svr.at_bound"] / counts["svr.coefs"] if counts["svr.coefs"] else 0.0,
            "svr.unconverged": counts["svr.unconverged"],
            "bpnn.epochs": counts["bpnn.epochs"],
            "bpnn.trains": counts["bpnn.trains"],
            "linalg.solve_calls": counts["linalg.solve_calls"],
            "linalg.solve_gflop": gflop,
            "linalg.solve_gflops": gflop / m["linalg.solve_s"] if m["linalg.solve_s"] > 0 else 0.0,
            "lssvm.refine_solves": counts["lssvm.solves"] - counts["lssvm.fits"],
            "kernels.gram_calls": counts["kernels.gram_calls"],
            "kernels.column_calls": counts["kernels.column_calls"],
            "grnn.steps": counts["grnn.steps"],
            "grnn.final_neurons": counts["grnn.final_neurons"],
            "trace.main_s": main_s,
            "trace.spans": len(spans),
        }
    )
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json RUN_ID -- CLI-ARGS...\n")
        return 1
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    from fivecast import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.call(ROOT, cli.main, cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
