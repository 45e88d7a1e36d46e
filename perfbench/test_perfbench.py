"""The benchmark's own checks.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import Bench  # noqa: E402
from tracer import SELF_METRICS  # noqa: E402
from workloads import WORKLOADS, ar_prices, price_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_generator_matches_test_suite_series(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        from conftest import make_ar_series, write_price_csv
    finally:
        del sys.path[:2]
    path = write_price_csv(tmp_path / "s.csv", make_ar_series(11, 427))
    assert price_csv(ar_prices(11, 427)).encode() == path.read_bytes()


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1] == "perfbench/run.py"


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
    if not trace:
        return
    value = {name: m["value"] for name, m in metrics.items()}
    # the layer self times and cli.self_s partition the traced main() call
    assert sum(value[name] for name in SELF_METRICS) == pytest.approx(value["trace.main_s"], rel=1e-3)
    ran = {
        "svr-kernels": ("kernels.gram_calls", "svr.passes", "svr.fit_s.rbf"),
        "bp-stability": ("bpnn.trains", "bpnn.epochs", "bpnn.cost_check_s"),
        "long-lag": ("linalg.solve_calls", "kernels.median_s", "rbfnn.kmeans_s", "grnn.steps"),
    }[workload]
    assert all(value[name] > 0 for name in ran)
    assert value["kernels.gram_calls"] == {"svr-kernels": 4, "bp-stability": 0, "long-lag": 1}[workload]


def test_output_check_flags_bad_files():
    bench = Bench(ROOT, WORKLOADS["long-lag"], 5, smoke=True, reference=None)
    good = {}
    for name, (cols, keys) in bench.expected.items():
        rows = "".join(key + ",0.5" * cols.count(",") + "\n" for key in keys)
        good[name] = f"# cmd=lag data=x\n{cols}\n{rows}".encode()
    assert bench.check(good) == []
    missing = {k: v for k, v in good.items() if k != "lag_rbf.csv"}
    short = dict(good, **{"lag_grnn.csv": good["lag_grnn.csv"].rsplit(b"\n", 2)[0] + b"\n"})
    nan = dict(good, **{"lag_summary.csv": good["lag_summary.csv"].replace(b"0.5", b"nan", 1)})
    for outputs in (missing, short, nan):
        assert len(bench.check(outputs)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "long-lag", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
