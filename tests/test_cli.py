"""Command line behavior: outputs, headers, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_ar_series, weekly_series, write_price_csv

import fivecast
from fivecast.cli import main


@pytest.fixture()
def price_csv(tmp_path):
    return write_price_csv(tmp_path / "prices.csv", make_ar_series(11, n=40))


def run(argv):
    return main(argv)


@pytest.fixture()
def huge_csv(tmp_path):
    # closes near 5e307: every model's squared test error overflows
    prices = make_ar_series(11, n=40).prices * 5e306
    return write_price_csv(tmp_path / "huge.csv", weekly_series(prices))


class TestBenchmark:
    def test_writes_results(self, price_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["benchmark", "--data", str(price_csv), "--out", str(out), "--models", "rbf,svr"]
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# cmd=benchmark data=")
        assert "lags=3 train_fraction=0.8 seed=0" in lines[0]
        assert "models=rbf,svr" in lines[0]
        assert lines[1] == "model,mse,mape"
        assert lines[2].startswith("rbf,")
        assert lines[3].startswith("svr,")
        stdout = capsys.readouterr().out
        assert "model" in stdout
        assert "wrote" in stdout

    def test_defaults_to_all_models(self, price_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["benchmark", "--data", str(price_csv), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["bp", "rbf", "grnn", "svr", "lssvm"]

    def test_repeat_run_is_byte_identical(self, price_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["benchmark", "--data", str(price_csv), "--models", "bp,grnn,svr", "--seed", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_kernel_choice_lands_in_header(self, price_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "benchmark", "--data", str(price_csv), "--out", str(out),
                "--models", "svr", "--kernel", "linear",
            ]
        )
        assert code == 0
        assert "kernel=linear" in (out / "results.csv").read_text().splitlines()[0]

    def test_grnn_static_mode(self, price_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "benchmark", "--data", str(price_csv), "--out", str(out),
                "--models", "grnn", "--grnn-static",
            ]
        )
        assert code == 0
        assert "grnn_mode=static" in (out / "results.csv").read_text().splitlines()[0]

    def test_unknown_model_is_usage_error(self, price_csv, tmp_path, capsys):
        code = run(
            ["benchmark", "--data", str(price_csv), "--out", str(tmp_path), "--models", "tree"]
        )
        assert code == 1
        assert "unknown model" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["benchmark", "--data", str(tmp_path / "no.csv"), "--out", str(out)])
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_nonpositive_price_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2020-01-03,1.0\n2020-01-10,-2.0\n", encoding="utf-8")
        assert run(["benchmark", "--data", str(bad), "--out", str(tmp_path)]) == 2

    def test_invalid_utf8_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"date,close\n2020-01-03,1.0\n2020-01-10,\xff2.0\n")
        assert run(["benchmark", "--data", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "latin.csv" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_too_short_series_is_data_error(self, tmp_path):
        short = write_price_csv(tmp_path / "short.csv", weekly_series([1.0, 2.0, 3.0]))
        assert run(["benchmark", "--data", str(short), "--out", str(tmp_path)]) == 2

    def test_overflowing_mse_is_an_error_row(self, huge_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["benchmark", "--data", str(huge_csv), "--out", str(out)]
        assert run(argv + ["--models", "rbf,svr", "--epochs", "20"]) == 0
        table = capsys.readouterr().out
        assert table.count("DomainError: mean squared error overflows float64") == 2
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows == ["rbf,nan,nan", "svr,nan,nan"]


    def test_overflowing_prediction_kernel_is_an_error_row(self, tmp_path):
        # the gram over the training block is finite, but the test block
        # climbs above it and its kernel columns overflow; a separate
        # process, so stderr shows every warning the run emits
        prices = make_ar_series(11, n=100).prices.copy()
        prices[-20:] = np.linspace(10.0, 16.0, 20)
        data = write_price_csv(tmp_path / "climb.csv", weekly_series(prices))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "fivecast.cli", "benchmark", "--data", str(data),
                "--out", str(out), "--models", "svr,lssvm", "--kernel", "poly",
                "--poly-d", "400",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout.count("DomainError: poly kernel column has non-finite entries") == 2
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows == ["svr,nan,nan", "lssvm,nan,nan"]

    def test_rbf_sigma_applies_without_kernel_flag(self, price_csv, tmp_path):
        # rbf is the default kernel, so --rbf-sigma alone sets its width
        argv = ["benchmark", "--data", str(price_csv), "--models", "svr,lssvm"]
        auto, fixed = tmp_path / "auto", tmp_path / "fixed"
        assert run(argv + ["--out", str(auto)]) == 0
        assert run(argv + ["--out", str(fixed), "--rbf-sigma", "0.5"]) == 0
        auto_lines = (auto / "results.csv").read_text().splitlines()
        fixed_lines = (fixed / "results.csv").read_text().splitlines()
        assert "kernel=rbf(sigma=auto)" in auto_lines[0]
        assert "kernel=rbf(sigma=0.5)" in fixed_lines[0]
        assert auto_lines[2:] != fixed_lines[2:]

    def test_underflowing_rbf_width_is_data_error(self, price_csv, tmp_path):
        # sigma^2 underflows to 0; a separate process, so stderr shows
        # every warning the run emits
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "fivecast.cli", "benchmark", "--data", str(price_csv),
                "--out", str(tmp_path / "out"), "--models", "lssvm", "--kernel", "rbf",
                "--rbf-sigma", "1e-300",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert "data error: rbf width must be > 0 with a nonzero square" in proc.stderr


class TestKernels:
    def test_overflowing_kernel_is_an_error_row(self, tmp_path):
        # a separate process, so stderr shows every warning the run emits
        data = write_price_csv(tmp_path / "prices.csv", make_ar_series(11, n=120))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "fivecast.cli", "kernels", "--data", str(data),
                "--out", str(out), "--poly-d", "600",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" not in proc.stderr
        assert "DomainError: poly kernel" in proc.stdout
        rows = (out / "kernels.csv").read_text().splitlines()[2:]
        assert rows[1] == "poly,nan,nan"
        for row in (rows[0], rows[2], rows[3]):
            assert "nan" not in row

    def test_fixed_row_order(self, price_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["kernels", "--data", str(price_csv), "--out", str(out)]) == 0
        lines = (out / "kernels.csv").read_text().splitlines()
        assert lines[0].startswith("# cmd=kernels")
        assert lines[1] == "kernel,mse,mape"
        assert [r.split(",")[0] for r in lines[2:]] == ["linear", "poly", "mlp", "rbf"]

    def test_repeat_run_is_byte_identical(self, price_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["kernels", "--data", str(price_csv)]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "kernels.csv").read_bytes() == (b / "kernels.csv").read_bytes()


class TestStability:
    def test_overflowing_mse_is_data_error(self, huge_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["stability", "--data", str(huge_csv), "--out", str(out)]
        assert run(argv + ["--runs", "2", "--epochs", "20"]) == 2
        assert "data error: mean squared error overflows float64" in capsys.readouterr().err
        assert not (out / "stability.csv").exists()

    def test_two_runs(self, price_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["stability", "--data", str(price_csv), "--out", str(out), "--runs", "2"]
        )
        assert code == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0].startswith("# cmd=stability")
        assert "runs=2" in lines[0]
        assert lines[1] == "runs,mse_mean,mse_std,mape_mean,mape_std"
        assert lines[2].startswith("2,")

    def test_single_run_is_usage_error(self, price_csv, tmp_path, capsys):
        code = run(
            ["stability", "--data", str(price_csv), "--out", str(tmp_path), "--runs", "1"]
        )
        assert code == 1
        assert "--runs" in capsys.readouterr().err

    def test_divergent_training_is_numerical_failure(self, price_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            [
                "stability", "--data", str(price_csv), "--out", str(out),
                "--runs", "2", "--eta", "1e9",
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "stability.csv").exists()


class TestLag:
    def test_series_and_summary(self, price_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["lag", "--data", str(price_csv), "--out", str(out), "--models", "grnn,svr"]
        )
        assert code == 0
        # 40 prices, 3 lags -> 37 windows; train 29, test 8 -> 7 error rows
        for name in ("grnn", "svr"):
            lines = (out / f"lag_{name}.csv").read_text().splitlines()
            assert lines[1] == "t,e"
            assert len(lines) == 2 + 7
            assert lines[2].startswith("1,")
        summary = (out / "lag_summary.csv").read_text().splitlines()
        assert summary[1] == "model,mean,std,frac_negative,n_errors"
        assert [r.split(",")[0] for r in summary[2:]] == ["grnn", "svr"]
        assert summary[2].endswith(",7")

    def test_repeat_run_is_byte_identical(self, price_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["lag", "--data", str(price_csv), "--models", "bp", "--seed", "1"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert (a / "lag_bp.csv").read_bytes() == (b / "lag_bp.csv").read_bytes()
        assert (a / "lag_summary.csv").read_bytes() == (b / "lag_summary.csv").read_bytes()

    def test_rbf_sigma_applies_without_kernel_flag(self, price_csv, tmp_path):
        argv = ["lag", "--data", str(price_csv), "--models", "lssvm"]
        auto, fixed = tmp_path / "auto", tmp_path / "fixed"
        assert run(argv + ["--out", str(auto)]) == 0
        assert run(argv + ["--out", str(fixed), "--rbf-sigma", "0.5"]) == 0
        auto_lines = (auto / "lag_lssvm.csv").read_text().splitlines()
        fixed_lines = (fixed / "lag_lssvm.csv").read_text().splitlines()
        assert "kernel=rbf(sigma=auto)" in auto_lines[0]
        assert "kernel=rbf(sigma=0.5)" in fixed_lines[0]
        assert auto_lines[2:] != fixed_lines[2:]


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, price_csv, capsys):
        assert run(["benchmark", "--data", str(price_csv), "--nope"]) == 1
        capsys.readouterr()

    def test_missing_required_data_flag(self, capsys):
        assert run(["benchmark"]) == 1
        capsys.readouterr()

    def test_stability_rejects_model_list(self, price_csv, capsys):
        # the seed sweep is defined for the backprop model only
        code = run(["stability", "--data", str(price_csv), "--models", "bp"])
        assert code == 1
        capsys.readouterr()
