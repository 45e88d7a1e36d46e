"""Golden output bytes for all four CLI commands.

Each command runs on the 120-point synthetic AR series (seed 11) that the
byte-determinism criterion uses, and every file it writes must equal the
checked-in copy under ``tests/golden/<command>/`` byte for byte.  The
only field normalised before comparing is ``data=<path>`` in the ``# cmd=``
header, because the input lives in a per-test temporary directory.

A change that alters these bytes has to say why in CHANGES.md.  Rewrite
the expected files with:

    PYTHONPATH=src:tests python3 tests/test_golden.py
"""

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


def normalised(raw: bytes) -> bytes:
    return _DATA_FIELD.sub(rb"\1prices.csv", raw)


def run_command(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one command on the golden series; return its files by name."""
    csv = workdir / "prices.csv"
    if not csv.exists():
        write_price_csv(csv, make_ar_series(11, n=120))
    out = workdir / name
    argv = COMMANDS[name] + ["--data", str(csv), "--out", str(out)]
    assert cli_main(argv) == 0
    return {p.name: normalised(p.read_bytes()) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_match_golden(name, tmp_path, capsys):
    got = run_command(name, tmp_path)
    capsys.readouterr()
    expected_dir = GOLDEN / name
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from the golden copy"


def test_normalisation_only_touches_the_data_field():
    raw = b"# cmd=lag data=/tmp/a/prices.csv lags=3\nt,e\n1,0.5\n"
    assert normalised(raw) == b"# cmd=lag data=prices.csv lags=3\nt,e\n1,0.5\n"
    assert normalised(b"t,e\ndata=/x\n") == b"t,e\ndata=/x\n"


def _rewrite(workdir: Path) -> None:
    for name in COMMANDS:
        dest = GOLDEN / name
        dest.mkdir(parents=True, exist_ok=True)
        for old in dest.iterdir():
            old.unlink()
        for fname, data in run_command(name, workdir).items():
            (dest / fname).write_bytes(data)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _rewrite(Path(tmp))
    sys.exit(0)
