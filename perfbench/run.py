"""fivecast benchmark: end-to-end CLI metrics, or per-layer metrics from a traced run.

Usage, from the root of a fivecast checkout:

    python3 perfbench/run.py --workload svr-kernels --seed 11 --seconds 35 --trace 0

Each command is a fresh ``python3 -m fivecast.cli`` process on a CSV this
script writes from the workload seed.  A round runs every input of the
workload once; rounds repeat while the next one is expected to end within
``--seconds``, and at least one runs.

``--trace 0`` reports the end-to-end metrics, each per input the median
over rounds, then the mean over the workload's inputs: ``wall_s`` (spawn
to exit), ``cpu_s`` (user plus system, from ``wait4``), ``peak_rss_mb``
(maximum resident set) and ``setup_s`` (median over fresh interpreters
that only import ``fivecast.cli``).  The speed of a shared host drifts by
a third within minutes, so a fixed calibration (:func:`calibrate`) runs
between every two timed processes, and ``wall_s``, ``cpu_s`` and
``setup_s`` are each process's time scaled by ``CAL_REF_S`` over the mean
of the calibrations just before and after it: seconds at the reference
speed.  The unscaled medians are printed too.

``--trace 1`` alternates untraced commands and commands under
``perfbench/tracer.py`` on the first input until ``--seconds``; it reports
the per-layer metrics of the traced command with the median wall time, and
``trace.overhead_s``, the traced median wall time minus the untraced one.
Per-layer times are not scaled.

Every command's outputs are checked: exit code 0, no traceback, every
expected file and row present with finite numbers, bytes identical across
the commands of the invocation (traced ones too) and, at the default seed,
equal to the digests in ``reference.json``.  A command that fails any check
counts in ``failed``.  ``--smoke`` runs one command per mode on a tiny
series, for the benchmark's own test.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SELF_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, ar_prices, price_csv  # noqa: E402

DEFAULT_SEED = 11
BLAS_THREADS = 1
SETUP_SAMPLES = 7
# About calibrate()'s median on an idle 2-vCPU Intel Xeon VM: times are
# reported as if the host ran at that speed.  The value only sets the scale.
CAL_REF_S = 0.06
TIME_LIMIT_S = 170.0  # the whole invocation must end well within 180 s
WORK = Path(".perfbench_work")  # relative, so the data path in every CSV header is fixed
REFERENCE = HERE / "reference.json"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
OTHER_UNITS = {  # per-layer metrics not measured in seconds
    "svr.passes": "count",
    "svr.at_bound_frac": "fraction",
    "svr.unconverged": "count",
    "bpnn.epochs": "count",
    "bpnn.trains": "count",
    "linalg.solve_calls": "count",
    "linalg.solve_gflop": "GFLOP",
    "linalg.solve_gflops": "GFLOP/s",
    "lssvm.refine_solves": "count",
    "kernels.gram_calls": "count",
    "kernels.column_calls": "count",
    "grnn.steps": "count",
    "grnn.final_neurons": "count",
    "cli.bytes_written": "B",
    "trace.spans": "count",
}

PROBE = r"""
import ctypes, json, os, sys
import numpy
from fivecast import _accel
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
            break
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
    "numba_enabled": _accel.NUMBA_ENABLED,
    "fivecast": os.path.dirname(_accel.__file__),
}))
"""


@dataclass
class Command:
    wall: float
    cpu: float
    rss_mb: float
    outputs: dict[str, bytes]
    speed: float = 1.0  # CAL_REF_S / mean of the calibrations around the command


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of the work the workloads
    do: an interpreter loop and row updates by small numpy calls on an
    11 MB matrix, as in Gaussian elimination."""
    a = np.ones((1200, 1200))
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for k in range(10):
        row = a[k, k:]
        for i in range(k + 1, a.shape[0]):
            a[i, k:] -= 1e-3 * row
    return time.perf_counter() - start


class Bench:
    def __init__(self, root: Path, workload, seed: int, smoke: bool, reference: list | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        # Children get the same Python settings whatever the caller's are:
        # bytecode cache on, buffered output, only this checkout's src/.
        self.env = dict(
            {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"},
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.n = workload.smoke_n if smoke else workload.n
        self.argv = workload.smoke_argv if smoke else workload.argv
        self.seeds = [seed] if smoke else workload.series_seeds(seed)
        self.expected = workload.expected(self.n, self.argv)
        self.reference = reference  # per input: output file -> sha256
        self.seen: list[dict[str, bytes] | None] = [None] * len(self.seeds)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._serial = 0

    # -- processes -----------------------------------------------------

    def _left(self) -> float:
        return TIME_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], stdout: Path, stderr: Path):
        """Run one child to completion; returns (wall, cpu, rss_mb, exit code)."""
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        timer = threading.Timer(max(1.0, self._left()), os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code

    def prepare(self) -> dict:
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        for k, s in enumerate(self.seeds):
            (WORK / f"series{k}.csv").write_text(price_csv(ar_prices(s, self.n)), encoding="utf-8")
        # The probe also warms the bytecode cache before anything is timed.
        out, err = WORK / "probe.out", WORK / "probe.err"
        *_, code = self.spawn(["python3", "-c", PROBE], out, err)
        if code != 0:
            raise SystemExit(f"cannot import fivecast from {self.root / 'src'}:\n{err.read_text()}")
        return json.loads(out.read_text())

    def setup_times(self) -> list[tuple[float, float]]:
        """(wall, speed) of fresh interpreters that only import fivecast.cli."""
        out, err = WORK / "setup.out", WORK / "setup.err"
        times = []
        before = calibrate()
        for _ in range(SETUP_SAMPLES):
            wall, _, _, code = self.spawn(["python3", "-c", "import fivecast.cli"], out, err)
            if code != 0:
                raise SystemExit(f"import fivecast.cli failed:\n{err.read_text()}")
            after = calibrate()
            times.append((wall, 2 * CAL_REF_S / (before + after)))
            before = after
        return times

    def command(self, k: int, traced: bool = False) -> tuple[Command, list | None]:
        """Run the workload's command on input k and check its outputs."""
        self._serial += 1
        out_dir = WORK / f"out{self._serial}"
        cli = [*self.argv, "--data", str(WORK / f"series{k}.csv"), "--out", str(out_dir)]
        spans_path = WORK / f"spans{self._serial}.json"
        if traced:
            run_id = f"{self.workload.name}-{self.seed}-{k}"
            argv = ["python3", str(HERE / "tracer.py"), str(spans_path), run_id, "--", *cli]
        else:
            argv = ["python3", "-m", "fivecast.cli", *cli]
        stderr = WORK / "cli.err"
        wall, cpu, rss, code = self.spawn(argv, WORK / "cli.out", stderr)
        self.attempted += 1
        outputs = {
            name: (out_dir / name).read_bytes() for name in self.expected if (out_dir / name).is_file()
        }
        shutil.rmtree(out_dir, ignore_errors=True)
        problems = []
        err_text = stderr.read_text(errors="replace")
        if code != 0:
            problems.append(f"exit code {code}: {err_text[-500:]}")
        if "Traceback" in err_text:
            problems.append(f"traceback on stderr: {err_text[-500:]}")
        problems += self.check(outputs)
        problems += self.compare(k, outputs)
        if problems:
            self.failed += 1
            self.problems += [f"input {k}{' traced' if traced else ''}: {p}" for p in problems]
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text())["spans"]
        return Command(wall, cpu, rss, outputs), spans

    # -- correctness ---------------------------------------------------

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        """Every expected file, header and row is there, with finite numbers."""
        problems = []
        command = self.argv[0]
        for name, (columns, keys) in self.expected.items():
            if name not in outputs:
                problems.append(f"{name} missing")
                continue
            lines = outputs[name].decode("utf-8", errors="replace").splitlines()
            if not lines or not lines[0].startswith(f"# cmd={command} "):
                problems.append(f"{name}: no '# cmd={command}' header")
                continue
            if lines[1:2] != [columns]:
                problems.append(f"{name}: column line {lines[1:2]} != [{columns!r}]")
                continue
            rows = [line.split(",") for line in lines[2:]]
            if [row[0] for row in rows] != keys:
                problems.append(f"{name}: row keys {[row[0] for row in rows][:8]}... != {keys[:8]}...")
            width = len(columns.split(","))
            for row in rows:
                if len(row) != width or not all(_finite(v) for v in row[1:]):
                    problems.append(f"{name}: bad row {','.join(row)!r}")
                    break
        return problems

    def compare(self, k: int, outputs: dict[str, bytes]) -> list[str]:
        """Bytes equal the first command's on the same input and the reference."""
        problems = []
        if self.seen[k] is None:
            self.seen[k] = outputs
        elif outputs != self.seen[k]:
            problems.append("output bytes differ from an earlier command on the same input")
        if self.reference is not None:
            digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
            if digests != self.reference[k]:
                problems.append("output digests differ from reference.json")
        return problems

    # -- runs ----------------------------------------------------------

    def rounds(self, seconds: float, plan: list[tuple[int, bool]]) -> list[list]:
        """Rounds of (input, traced) commands while the next round is
        expected to end within seconds; at least one runs.  A calibration
        runs before the first command and after every command."""
        start = time.perf_counter()
        rounds, durations = [], []
        before = calibrate()
        while True:
            t0 = time.perf_counter()
            commands = []
            for k, traced in plan:
                command, spans = self.command(k, traced)
                after = calibrate()
                command.speed = 2 * CAL_REF_S / (before + after)
                before = after
                commands.append((command, spans))
            rounds.append(commands)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(durations) > seconds or self._left() < 2 * max(durations):
                return rounds


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _per_command(rounds: list[list], value) -> float:
    """Mean over the round's inputs of each input's median over rounds."""
    return statistics.fmean(
        statistics.median(value(r[k][0]) for r in rounds) for k in range(len(rounds[0]))
    )


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup = bench.setup_times()
    rounds = bench.rounds(seconds, [(k, False) for k in range(len(bench.seeds))])
    print(f"{len(rounds)} round(s) of {len(bench.seeds)} command(s); setup samples {len(setup)}")
    print("command wall_s " + " ".join(f"{c.wall:.3f}" for r in rounds for c, _ in r))
    print("command speed  " + " ".join(f"{c.speed:.3f}" for r in rounds for c, _ in r))
    print(
        f"unscaled: wall_s {_per_command(rounds, lambda c: c.wall):.6g} s, "
        f"cpu_s {_per_command(rounds, lambda c: c.cpu):.6g} s, "
        f"setup_s {statistics.median(wall for wall, _ in setup):.6g} s"
    )
    return {
        "wall_s": _per_command(rounds, lambda c: c.wall * c.speed),
        "cpu_s": _per_command(rounds, lambda c: c.cpu * c.speed),
        "peak_rss_mb": _per_command(rounds, lambda c: c.rss_mb),
        "setup_s": statistics.median(wall * speed for wall, speed in setup),
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    # Untraced and traced commands alternate, so a drift in machine speed
    # does not land in the overhead.
    pairs = bench.rounds(seconds, [(0, False), (0, True)])
    untraced = [u for (u, _), _ in pairs]
    traced = sorted((t for _, t in pairs if t[1] is not None), key=lambda t: t[0].wall)
    if not traced:
        raise SystemExit("no traced run wrote spans")
    command, spans = traced[(len(traced) - 1) // 2]  # the median traced run
    metrics = layer_metrics(spans)
    metrics["cli.bytes_written"] = sum(len(data) for data in command.outputs.values())
    metrics["trace.overhead_s"] = statistics.median(c.wall for c, _ in traced) - statistics.median(
        c.wall for c in untraced
    )
    print(f"{len(traced)} traced and {len(untraced)} untraced command(s)")
    covered = sum(metrics[name] for name in SELF_METRICS)
    if abs(covered - metrics["trace.main_s"]) > 1e-6 + 1e-3 * metrics["trace.main_s"]:
        bench.problems.append(
            f"layer self times sum to {covered:.6f} s, traced main() took {metrics['trace.main_s']:.6f} s"
        )
    return metrics


def unit(name: str) -> str:
    return END_TO_END.get(name) or OTHER_UNITS.get(name, "s")


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return " ".join(fh.read().split()[:3])


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one command per mode on a tiny series")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fivecast" / "cli.py").is_file():
        sys.stderr.write(f"no fivecast source under {root / 'src'}; run from a checkout root\n")
        return 2
    reference = None
    if args.seed == DEFAULT_SEED and not args.smoke:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    bench = Bench(root, WORKLOADS[args.workload], args.seed, args.smoke, reference)
    # On SIGTERM, unwind through spawn(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = 0.0 if args.smoke else args.seconds
    load_before = loadavg()
    try:
        env = bench.prepare()
        metrics = per_layer(bench, seconds) if args.trace else end_to_end(bench, seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        blas_threads_set=BLAS_THREADS,
        commit=git_commit(root),
        loadavg_before=load_before,
        loadavg_after=loadavg(),
        workload=args.workload,
        seed=args.seed,
        series=len(bench.seeds),
        n=bench.n,
        argv=list(bench.argv),
    )
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"fail_frac {bench.failed}/{bench.attempted}")
    for name, value in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit(name)}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
