"""Golden output bytes for all four CLI commands.

Each command runs on the 120-point synthetic AR series (seed 11) that the
byte-determinism criterion uses.  Every file it writes must equal the
checked-in copy under ``tests/golden/<command>/`` byte for byte, and its
standard output must equal ``tests/golden/<command>.stdout``.  The input
and output live in a per-test temporary directory, so two fields are
normalised before comparing: ``data=<path>`` in the ``# cmd=`` header and
the directory of each ``wrote <path>`` line on standard output.

A change that alters these bytes has to say why in CHANGES.md.  Rewrite
the expected files with:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest
from conftest import make_ar_series, write_price_csv

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


def run_command(name: str, workdir: Path) -> tuple[dict[str, bytes], bytes]:
    """Run one command on the golden series; return its files by name and
    its standard output."""
    csv = workdir / "prices.csv"
    if not csv.exists():
        write_price_csv(csv, make_ar_series(11, n=120))
    out = workdir / name
    argv = COMMANDS[name] + ["--data", str(csv), "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main(argv) == 0
    files = {p.name: normalised(p.read_bytes()) for p in sorted(out.iterdir())}
    return files, normalised_stdout(stdout.getvalue())


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path):
    got, _ = run_command(name, tmp_path)
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden copy"


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(name, tmp_path):
    _, stdout = run_command(name, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


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
