"""Every Python example in README.md runs as written."""

import re
from pathlib import Path

import pytest
from conftest import make_ar_series, write_price_csv

README = Path(__file__).parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_example_runs(code, tmp_path, monkeypatch, capsys):
    # the examples read prices.csv from the working directory
    write_price_csv(tmp_path / "prices.csv", make_ar_series(11, n=120))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
