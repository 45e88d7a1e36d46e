"""The checked-in performance trajectory: ``BENCH_*.json`` at the root.

Each file is an append-only JSON list of measurements, one entry per
measured commit, seed and environment: ``BENCH_<workload>.json`` for each
perfbench workload, ``BENCH_tier1.json`` for this suite.  An entry
records the environment it ran in, so two entries can be compared.

An entry's ``role`` is ``parent`` or ``change``.  A parent entry measures
a commit that exists: its ``commit`` is a 40-hex id and its ``parent`` is
null.  A change entry measures a diff not yet committed: its ``commit``
is null and its ``parent`` is the 40-hex id of the commit it was
measured against.  In a workload file each change entry directly
follows the parent entry it was paired with.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("svr-kernels", "bp-stability", "long-lag")
# perfbench's env line: the interpreter, numpy and its BLAS, the cores
# and the backend that ran, and the load around the measurement
ENV_FIELDS = ("python", "numpy", "blas", "blas_threads", "nproc", "numba_enabled", "loadavg_before", "loadavg_after")
ENTRY_FIELDS = ("commit", "date", "env", "metrics")
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
COMMIT_ID = re.compile(r"[0-9a-f]{40}")
FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


def entries(name):
    data = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert isinstance(data, list) and data, f"{name} must be a non-empty list"
    return data


def test_every_workload_and_the_suite_have_a_file():
    names = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert names == {f"BENCH_{w}.json" for w in WORKLOADS} | {"BENCH_tier1.json"}


@pytest.mark.parametrize("name", FILES)
def test_entries_carry_their_environment(name):
    for entry in entries(name):
        for field in ENTRY_FIELDS:
            assert field in entry, f"{name}: entry without {field}"
        for field in ENV_FIELDS:
            assert field in entry["env"], f"{name}: env without {field}"
        assert isinstance(entry["env"]["nproc"], int) and entry["env"]["nproc"] >= 1


@pytest.mark.parametrize("name", FILES)
def test_entries_name_their_commit_or_parent(name):
    for i, entry in enumerate(entries(name)):
        if entry["role"] == "parent":
            assert COMMIT_ID.fullmatch(entry["commit"] or ""), f"{name}[{i}]: parent entry without a commit id"
            assert entry.get("parent") is None, f"{name}[{i}]: parent entry with a parent"
        else:
            assert entry["role"] == "change", f"{name}[{i}]: role {entry['role']!r}"
            assert entry["commit"] is None, f"{name}[{i}]: change entry with a commit"
            assert COMMIT_ID.fullmatch(entry.get("parent") or ""), f"{name}[{i}]: change entry without a parent id"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_change_entries_follow_their_parent(workload):
    data = entries(f"BENCH_{workload}.json")
    for i, entry in enumerate(data):
        if entry["role"] == "change":
            before = data[i - 1] if i else {}
            assert before.get("role") == "parent" and before.get("commit") == entry["parent"], (
                f"BENCH_{workload}.json[{i}]: change entry not right after its parent's"
            )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_entries_hold_the_end_to_end_metrics(workload):
    for entry in entries(f"BENCH_{workload}.json"):
        assert entry["env"]["workload"] == workload
        assert isinstance(entry["seed"], int) and entry["seconds"] >= 0
        for metric in END_TO_END:
            assert entry["metrics"][metric] > 0
