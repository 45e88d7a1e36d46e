"""Rewrite reference.json from the current checkout's outputs.

For every workload at the default seed, run one round and store the
SHA-256 of each output file of each input.  Run from the checkout root,
only on a commit whose outputs are known good:

    python3 perfbench/make_reference.py
"""

import hashlib
import json
import shutil
from pathlib import Path

from run import DEFAULT_SEED, REFERENCE, WORK, Bench
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    for name, workload in WORKLOADS.items():
        bench = Bench(Path.cwd(), workload, DEFAULT_SEED, smoke=False, reference=None)
        try:
            bench.prepare()
            bench.rounds(0.0, [(k, False) for k in range(len(bench.seeds))])
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        if bench.problems:
            raise SystemExit(f"{name}: " + "; ".join(bench.problems))
        reference[name] = [
            {file: hashlib.sha256(data).hexdigest() for file, data in outputs.items()}
            for outputs in bench.seen
        ]
        print(f"{name}: {len(bench.seen)} input(s)")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
