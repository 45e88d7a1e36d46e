"""Golden output bytes for all four CLI commands.

Each command runs on the 120-point synthetic AR series (seed 11) that the
byte-determinism criterion uses.  Every file it writes must equal the
checked-in copy under ``tests/golden/<command>/`` byte for byte, and its
standard output must equal ``tests/golden/<command>.stdout``.  The input
and output live in a per-test temporary directory, so two fields are
normalised before comparing: ``data=<path>`` in the ``# cmd=`` header and
the directory of each ``wrote <path>`` line on standard output.

The same commands also run as ``python -m fivecast.cli`` processes with
standard output piped, so the bytes are checked through the exit path a
user's process takes: flushed, then ended without interpreter teardown.

A change that alters these bytes has to say why in CHANGES.md.  Rewrite
the expected files with:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import make_ar_series, write_price_csv

import fivecast
from fivecast.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "benchmark": ["benchmark", "--epochs", "150", "--seed", "9"],
    "kernels": ["kernels", "--seed", "9"],
    "stability": ["stability", "--runs", "5", "--epochs", "150", "--seed", "9"],
    "lag": ["lag", "--epochs", "150", "--seed", "9"],
}

_DATA_FIELD = re.compile(rb"^(# cmd=\S+ data=)\S+", re.MULTILINE)
_WROTE_LINE = re.compile(r"^wrote .*?([^/\\]+)$", re.MULTILINE)


def normalised(raw: bytes) -> bytes:
    return _DATA_FIELD.sub(rb"\1prices.csv", raw)


def normalised_stdout(text: str) -> bytes:
    return _WROTE_LINE.sub(r"wrote <out>/\1", text).encode("utf-8")


def command_argv(name: str, workdir: Path) -> tuple[list[str], Path]:
    """One command's arguments on the golden series, and its output
    directory."""
    csv = workdir / "prices.csv"
    if not csv.exists():
        write_price_csv(csv, make_ar_series(11, n=120))
    out = workdir / name
    return COMMANDS[name] + ["--data", str(csv), "--out", str(out)], out


def written(out: Path) -> dict[str, bytes]:
    return {p.name: normalised(p.read_bytes()) for p in sorted(out.iterdir())}


def run_command(name: str, workdir: Path) -> tuple[dict[str, bytes], bytes]:
    """Run one command on the golden series; return its files by name and
    its standard output."""
    argv, out = command_argv(name, workdir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main(argv) == 0
    return written(out), normalised_stdout(stdout.getvalue())


def run_process(argv: list[str], env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python -m fivecast.cli`` with argv, importing this checkout."""
    env = dict(env or os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "fivecast.cli", *argv], env=env, timeout=120, **kwargs
    )


def assert_golden_files(name: str, got: dict[str, bytes]) -> None:
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden copy"


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path):
    got, _ = run_command(name, tmp_path)
    assert_golden_files(name, got)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    _, stdout = run_command(name, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_process_output_matches_golden(name, tmp_path):
    argv, out = command_argv(name, tmp_path)
    proc = run_process(argv, capture_output=True)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert_golden_files(name, written(out))
    stdout = normalised_stdout(proc.stdout.decode("utf-8"))
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--models", "tree"], 1, "error: unknown model 'tree'; choose from"),
        (["--svr-c", "inf"], 2, "data error: c_reg must be finite and > 0, got inf"),
        (["--models", "bp", "--eta", "1e9"], 3, "numerical failure: "),
    ],
)
def test_process_exit_codes(flags, code, message, tmp_path):
    argv, out = command_argv("lag", tmp_path)
    proc = run_process(argv + flags, capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith(message)
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_gives_no_traceback(unbuffered, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv, out = command_argv("kernels", tmp_path)
    proc = run_process(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert_golden_files("kernels", written(out))

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_process(argv, env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    # the files are written before stdout; the lost summary is an error
    assert proc.returncode != 0
    assert b"Traceback" not in proc.stderr
    assert b"Broken pipe" in proc.stderr
    assert_golden_files("kernels", written(out))


def test_normalisation_only_touches_the_data_field():
    raw = b"# cmd=lag data=/tmp/a/prices.csv lags=3\nt,e\n1,0.5\n"
    assert normalised(raw) == b"# cmd=lag data=prices.csv lags=3\nt,e\n1,0.5\n"
    assert normalised(b"t,e\ndata=/x\n") == b"t,e\ndata=/x\n"


def test_stdout_normalisation_only_touches_wrote_lines():
    text = "bp: mean=1 wrote=/x\nwrote /tmp/a/lag/lag_bp.csv\n"
    assert normalised_stdout(text) == b"bp: mean=1 wrote=/x\nwrote <out>/lag_bp.csv\n"


def _rewrite(workdir: Path) -> None:
    for name in COMMANDS:
        dest = GOLDEN / name
        dest.mkdir(parents=True, exist_ok=True)
        for old in dest.iterdir():
            old.unlink()
        files, stdout = run_command(name, workdir)
        for fname, data in files.items():
            (dest / fname).write_bytes(data)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _rewrite(Path(tmp))
    sys.exit(0)
