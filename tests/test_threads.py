"""Output bytes do not depend on the BLAS thread count.

Each command runs as a ``python -m fivecast.cli`` process twice, under
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` of 1 and of 2, and
every file it writes and its standard output must match byte for byte.
The 1200-point cases are the ones whose grnn bytes moved with the
thread count before ``cli.main`` pinned OpenBLAS to one thread; the
rest are the golden commands.  The 1200-point ``lag`` also runs in a
process held to one CPU, where the elimination shares its row tiles with
no helper thread, and must match the unrestricted run byte for byte.

The pin itself is checked in process: ``main`` runs the command on one
BLAS thread and restores the caller's count, and a numpy build without
the known thread setter warns once that the promise does not hold.
"""

import contextlib
import io
import os

import pytest
from conftest import make_ar_series, write_price_csv
from test_golden import COMMANDS, normalised_stdout, run_process, written

from fivecast import cli, evaluate, grnn, timeseries

CASES = {
    "benchmark-1200": (["benchmark", "--models", "grnn,lssvm"], 7, 1200),
    "lag-1200": (["lag", "--models", "grnn,lssvm,rbf"], 7, 1200),
    **{f"{name}-golden": (argv, 11, 120) for name, argv in COMMANDS.items()},
}


def outputs(argv: list[str], out, **kwargs) -> tuple[dict[str, bytes], bytes]:
    """The files one CLI process writes to out, and its standard output."""
    proc = run_process(argv + ["--out", str(out)], capture_output=True, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return written(out), normalised_stdout(proc.stdout.decode("utf-8"))


def run_at(threads: str, argv: list[str], workdir) -> tuple[dict[str, bytes], bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    return outputs(argv, workdir / f"out{threads}", env=env)


@pytest.mark.parametrize("case", list(CASES))
def test_same_bytes_at_one_and_two_threads(case, tmp_path):
    argv, seed, n = CASES[case]
    csv = write_price_csv(tmp_path / "prices.csv", make_ar_series(seed, n=n))
    argv = argv + ["--data", str(csv)]
    assert run_at("1", argv, tmp_path) == run_at("2", argv, tmp_path)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
def test_same_bytes_on_one_cpu(tmp_path):
    # The elimination shares each panel's row tiles among one thread per
    # CPU the process may use; held to one CPU it runs them all itself.
    argv, seed, n = CASES["lag-1200"]
    csv = write_price_csv(tmp_path / "prices.csv", make_ar_series(seed, n=n))
    argv = argv + ["--data", str(csv)]
    cpu = min(os.sched_getaffinity(0))
    held = outputs(argv, tmp_path / "one-cpu", preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert held == outputs(argv, tmp_path / "every-cpu")


def kernels_argv(tmp_path) -> list[str]:
    csv = write_price_csv(tmp_path / "prices.csv", make_ar_series(11, n=60))
    return ["kernels", "--data", str(csv), "--out", str(tmp_path / "out")]


def test_main_runs_on_one_thread_and_restores_the_count(tmp_path, monkeypatch):
    threads = cli._blas_threads()
    if threads is None:
        pytest.skip("this numpy build has no known OpenBLAS thread setter")
    get, set_ = threads
    seen = []
    real = cli._run
    monkeypatch.setattr(cli, "_run", lambda args: seen.append(get()) or real(args))
    before = get()
    set_(2)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(kernels_argv(tmp_path)) == 0
        assert seen == [1]
        assert get() == 2
    finally:
        set_(before)


def test_no_thread_setter_warns_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_blas_threads", lambda: None)
    monkeypatch.setattr(cli, "_unpinned_warned", False)
    argv = kernels_argv(tmp_path)
    for _ in range(2):
        assert cli.main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["warning: " + cli.UNPINNED_WARNING]


def test_the_python_api_is_not_pinned(monkeypatch):
    threads = cli._blas_threads()
    if threads is None:
        pytest.skip("this numpy build has no known OpenBLAS thread setter")
    get, set_ = threads
    seen = []
    real = grnn.default_smoothing
    monkeypatch.setattr(grnn, "default_smoothing", lambda x: seen.append(get()) or real(x))
    ds = timeseries.split(timeseries.make_windows(make_ar_series(11, n=60), 3))
    before = get()
    set_(2)
    try:
        evaluate.model_predictions(ds, "grnn")
        assert seen == [2]
    finally:
        set_(before)
