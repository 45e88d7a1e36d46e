"""Compare the compiled and plain-numpy backends on the hot paths.

The backend is chosen when ``fivecast`` is imported, so each side runs in
its own subprocess: the parent launches this script twice with
``--worker``, once per ``FIVECAST_NO_NUMBA`` setting, and prints a table
of best-of-five wall times.

Usage: python3 benchmarks/bench_accel.py [--repeats N]
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("svr_fit", "lssvm_fit", "rbf_fit")


def build_workloads():
    import numpy as np

    from fivecast import lssvm, rbfnn, svr
    from fivecast.kernels import KernelSpec

    rng = np.random.default_rng(0)
    x_small = rng.uniform(0.0, 1.0, (200, 3))
    y_small = rng.uniform(0.0, 1.0, 200)
    x_mid = rng.uniform(-2.0, 2.0, (150, 3))
    y_mid = rng.uniform(-1.0, 1.0, 150)
    rbf_spec = KernelSpec.rbf(1.0)

    def svr_fit():
        svr.fit(x_mid[:120], y_mid[:120], rbf_spec, max_passes=200)

    def lssvm_fit():
        lssvm.fit(x_mid, y_mid, rbf_spec)

    def rbf_fit():
        rbfnn.fit(x_small, y_small, n_centers=20, seed=1)

    return {
        "svr_fit": svr_fit,
        "lssvm_fit": lssvm_fit,
        "rbf_fit": rbf_fit,
    }


def run_worker(repeats):
    import warnings

    warnings.simplefilter("ignore")  # svr pass budget may bind; timing only
    from fivecast._accel import NUMBA_ENABLED

    funcs = build_workloads()
    print(f"backend\t{'numba' if NUMBA_ENABLED else 'numpy'}")
    for name in WORKLOADS:
        func = funcs[name]
        func()  # warm: compilation happens here, not in the timed runs
        best = min(_timed(func) for _ in range(repeats))
        print(f"{name}\t{best:.6f}")


def _timed(func):
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def collect(no_numba, repeats):
    env = dict(os.environ)
    env["FIVECAST_NO_NUMBA"] = "1" if no_numba else "0"
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", "--repeats", str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.worker:
        run_worker(args.repeats)
        return 0

    fast = collect(no_numba=False, repeats=args.repeats)
    slow = collect(no_numba=True, repeats=args.repeats)
    if fast.pop("backend") != "numba":
        print("note: numba unavailable, both columns ran the numpy backend")
    slow.pop("backend")
    print(f"{'workload':<12}{'numba (s)':>12}{'numpy (s)':>12}{'speedup':>10}")
    for name in WORKLOADS:
        a, b = float(fast[name]), float(slow[name])
        print(f"{name:<12}{a:>12.6f}{b:>12.6f}{b / a:>9.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
