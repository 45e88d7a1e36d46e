"""Command line behavior: outputs, headers, and exit codes."""

import argparse
import ast
import contextlib
import io
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import make_ar_series, weekly_series, write_price_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import fivecast
from fivecast import bpnn, cli, evaluate, svr
from fivecast.cli import _cmd_stability, _config_from_args, _csv, _table, build_parser, main
from fivecast.evaluate import HarnessConfig, StabilityReport
from fivecast.kernels import KERNEL_KINDS


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

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_get_the_mode_open_gives_a_new_file(self, price_csv, tmp_path, umask):
        out = tmp_path / "out"
        argv = ["benchmark", "--data", str(price_csv), "--out", str(out), "--models", "grnn"]
        old = os.umask(umask)
        try:
            assert run(argv) == 0
            (out / "plain.txt").open("w").close()
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"results.csv": 0o666 & ~umask, "plain.txt": 0o666 & ~umask}

    def test_writing_leaves_the_process_umask_alone(self, price_csv, tmp_path, monkeypatch):
        # an in-process caller's other threads never see the umask change
        def umask(mask):
            raise AssertionError("os.umask called while a command runs")

        monkeypatch.setattr(os, "umask", umask)
        out = tmp_path / "out"
        assert main(["benchmark", "--data", str(price_csv), "--out", str(out), "--models", "grnn"]) == 0
        assert [p.name for p in out.iterdir()] == ["results.csv"]

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
        assert "encountered" not in proc.stderr  # numpy's wording, as a "warning:" line shows it
        assert proc.stdout.count("DomainError: poly kernel column has non-finite entries") == 2
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows == ["svr,nan,nan", "lssvm,nan,nan"]

    def test_a_warning_is_one_stderr_line(self, tmp_path):
        # a box bound this small stops the pair solver before its first
        # step with a ConvergenceWarning that names the bias-only model;
        # the CLI prints it as one line, without the source location or
        # line, and the output is what the same run prints and writes with
        # warnings ignored
        data = write_price_csv(tmp_path / "prices.csv", make_ar_series(3, n=60))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        argv = ["-m", "fivecast.cli", "benchmark", "--models", "svr", "--svr-c", "1e-13",
                "--data", str(data), "--out", str(out)]
        runs = []
        for flags in ([], ["-W", "ignore"]):
            proc = subprocess.run(
                [sys.executable, *flags, *argv], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0
            runs.append((proc.stdout, (out / "results.csv").read_bytes(), proc.stderr))
        (stdout, body, stderr), (quiet_stdout, quiet_body, quiet_stderr) = runs
        assert stderr.splitlines() == [
            "warning: pairwise solver stopped after 1 passes with KKT violation 0.98 > tol 0.0001; "
            "every coefficient is 0, so the model predicts its bias alone"
        ]
        assert quiet_stderr == ""
        assert stdout == quiet_stdout
        assert body == quiet_body

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
        assert "encountered" not in proc.stderr  # numpy's wording, as a "warning:" line shows it
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

    def test_zero_epochs_is_legal(self, price_csv, tmp_path):
        # the networks keep their initial weights
        out = tmp_path / "out"
        argv = ["stability", "--data", str(price_csv), "--out", str(out), "--runs", "2"]
        assert run(argv + ["--epochs", "0"]) == 0
        assert (out / "stability.csv").read_text().splitlines()[2].startswith("2,")

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

    @pytest.mark.parametrize("model", evaluate.MODEL_NAMES)
    def test_one_point_test_block_is_data_error(self, model, tmp_path, capsys):
        # 8 prices, 3 lags -> 5 windows; train 4, test 1: no pair to compare
        short = write_price_csv(tmp_path / "short.csv", make_ar_series(11, n=8))
        out = tmp_path / "out"
        assert run(["lag", "--data", str(short), "--out", str(out), "--models", model]) == 2
        assert capsys.readouterr().err == "data error: need at least 2 points for a lag-one comparison\n"
        assert not out.exists()

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


class TestBadFlagValues:
    """Out-of-domain flag values end in a typed error or an error row, in a
    separate process so stderr shows any traceback or warning."""

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["benchmark", "--seed", "-1"], 2, "data error: seed must be >= 0, got -1"),
            (["stability", "--runs", "2", "--seed", "-1"], 2, "data error: seed must be >= 0"),
            (["benchmark", "--hidden", "-3"], 2, "data error: hidden width must be >= 1, got -3"),
            (["stability", "--runs", "2", "--eta", "inf"], 2, "data error: eta must be finite"),
            (["kernels", "--poly-c", "inf"], 2, "data error: polynomial offset must be finite"),
            (["kernels", "--mlp-theta", "inf"], 2, "data error: tanh kernel slope and offset must be finite"),
            (["benchmark", "--models", "svr,lssvm", "--rbf-sigma", "inf"], 2, "data error: rbf width"),
            # layers numpy cannot even shape are far above the backprop work cap
            (["stability", "--runs", "2", "--hidden", str(10**20)], 2,
             "data error: backprop work of 5.8e+23 updates (runs x epochs x training rows x parameters: "
             "2 x 20 x 29 x 500000000000000000001)"),
            (["lag", "--models", "bp", "--hidden", str(10**20)], 2,
             "data error: backprop work of 2.9e+23 updates"),
            # a repeated model would train twice and write two identical rows
            (["benchmark", "--models", "grnn,grnn"], 1,
             "error: model 'grnn' is named more than once in --models"),
            (["lag", "--models", "rbf,grnn,rbf"], 1,
             "error: model 'rbf' is named more than once in --models"),
            # every HarnessConfig field is checked before the first model runs
            (["benchmark", "--grnn-beta", "inf"], 2, "data error: beta must be finite and > 0, got inf"),
            (["benchmark", "--lssvm-gamma", "1e-320"], 2, "data error: gamma must have a finite reciprocal"),
            (["benchmark", "--lssvm-gamma", "inf"], 2, "data error: gamma must be finite and > 0, got inf"),
            (["benchmark", "--svr-eps", "nan"], 2, "data error: epsilon must be finite and >= 0, got nan"),
            (["benchmark", "--svr-c", "inf"], 2, "data error: c_reg must be finite and > 0, got inf"),
            (["benchmark", "--svr-c", "1e-320"], 2, "data error: c_reg must be >= 5e-15"),
            (["benchmark", "--rbf-centers", "0"], 2, "data error: n_centers must be >= 1, got 0"),
            (["benchmark", "--batch", "0"], 2, "data error: batch_size must be >= 1, got 0"),
            (["stability", "--runs", "2", "--epochs", "-1"], 2, "data error: epochs must be >= 0, got -1"),
            (["lag", "--eta", "inf"], 2, "data error: eta must be finite and >= 0, got inf"),
            (["lag", "--grnn-beta", "nan"], 2, "data error: beta must be finite and > 0, got nan"),
            # backprop work above the cap: runs x epochs x 29 training rows x 16 parameters
            (["stability", "--runs", "2", "--epochs", str(10**20)], 2,
             "data error: backprop work of 9.28e+22 updates (runs x epochs x training rows x parameters: "
             "2 x 100000000000000000000 x 29 x 16) is above the cap of 1e+10"),
            (["benchmark", "--models", "grnn,bp", "--epochs", str(10**20)], 2,
             "data error: backprop work of 4.64e+22 updates"),
            (["lag", "--models", "grnn,bp", "--epochs", str(10**20)], 2,
             "data error: backprop work of 4.64e+22 updates"),
            (["benchmark", "--models", "bp,rbf", "--hidden", str(10**20)], 2,
             "data error: backprop work of 2.9e+23 updates"),
            # an int past float64's range counts as inf
            (["stability", "--runs", "2", "--epochs", str(10**400)], 2,
             "data error: backprop work of inf updates (runs x epochs x training rows x parameters: 2 x 1000"),
            (["lag", "--models", "bp", "--epochs", str(10**400)], 2, "data error: backprop work of inf updates"),
            (["benchmark", "--epochs", str(10**400)], 2, "data error: backprop work of inf updates"),
            (["stability", "--runs", str(10**400)], 2, "data error: backprop work of inf updates"),
            (["lag", "--models", "bp", "--hidden", str(10**400)], 2, "data error: backprop work of inf updates"),
            (["kernels", "--poly-d", str(10**400)], 2,
             "data error: polynomial degree must be finite as a float64, got 1000"),
            (["benchmark", "--kernel", "poly", "--poly-d", str(10**400)], 2,
             "data error: polynomial degree must be finite as a float64"),
            (["stability", "--runs", "2", "--kernel", "poly", "--poly-d", str(10**400)], 2,
             "data error: polynomial degree must be finite as a float64"),
        ],
    )
    def test_rejected_up_front(self, price_csv, tmp_path, argv, code, message):
        out = tmp_path / "out"
        # a case's own --epochs comes later, so it wins
        proc = self.run_cli([argv[0], "--epochs", "20", *argv[1:], "--data", str(price_csv), "--out", str(out)])
        assert proc.returncode == code
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, flags, message",
        [
            # only what depends on the data or on memory is left to the fit
            ("bp", ["--eta", "1e9"], "DivergenceError: training cost became non-finite"),
            ("rbf", ["--rbf-centers", "1000"], "DomainError: n_centers must be in [1, 29], got 1000"),
        ],
    )
    def test_error_row(self, price_csv, tmp_path, model, flags, message):
        out = tmp_path / "out"
        other = "grnn" if model == "rbf" else "rbf"
        proc = self.run_cli(
            ["benchmark", "--data", str(price_csv), "--out", str(out), "--models", f"{model},{other}"]
            + flags
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert message in proc.stdout
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows[0] == f"{model},nan,nan"
        assert "nan" not in rows[1]

    def test_epsilon_near_the_float64_limit_is_a_result(self, price_csv, tmp_path):
        out = tmp_path / "out"
        proc = self.run_cli(
            ["benchmark", "--data", str(price_csv), "--out", str(out), "--models", "svr",
             "--svr-eps", "1e308"]
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        row = (out / "results.csv").read_text().splitlines()[2]
        assert row.startswith("svr,") and "nan" not in row

    def test_out_below_a_regular_file_is_data_error(self, price_csv, tmp_path):
        out = tmp_path / "file" / "x"
        out.parent.write_text("not a directory\n", encoding="utf-8")
        proc = self.run_cli(["kernels", "--data", str(price_csv), "--out", str(out)])
        assert proc.returncode == 2
        # one line, naming the path: "[Errno 20] Not a directory: '...'" on Linux
        assert proc.stderr.startswith("data error: cannot write output: ")
        assert proc.stderr.count("\n") == 1 and str(out) in proc.stderr
        assert not list(tmp_path.rglob("*.tmp"))

    @staticmethod
    def run_cli(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "fivecast.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )


class TestBpWorkCap:
    """A command whose backprop work is above the cap runs no model."""

    @pytest.mark.parametrize(
        "argv",
        [["benchmark", "--models", "grnn,svr,bp"], ["lag", "--models", "grnn,bp"], ["stability", "--runs", "3"]],
    )
    def test_no_model_runs(self, argv, price_csv, tmp_path, monkeypatch, capsys):
        # the bp model function may start, but builds no network
        built, ran = [], []
        monkeypatch.setattr(bpnn, "new_network", lambda *args: built.append(args))
        real = evaluate._run_model
        monkeypatch.setattr(
            evaluate, "_run_model", lambda predict, *args: ran.append(predict.__name__) or real(predict, *args)
        )
        # one run of 21551725 epochs x 29 rows x 16 parameters is 10**10 + 400
        epochs = 10**10 // (29 * 16) + 1
        out = tmp_path / "out"
        base = [*argv, "--data", str(price_csv), "--out", str(out), "--epochs"]
        assert run([*base, str(epochs)]) == 2
        assert "above the cap of 1e+10" in capsys.readouterr().err
        assert built == [] and set(ran) <= {"_bp_predictions"} and not out.exists()

    def test_zero_epochs_count_as_one(self, tmp_path, monkeypatch, capsys):
        # 2000000 runs x 1 x 339 rows x 16 parameters: building and
        # predicting that stack is work even when no epoch trains it
        built = []
        monkeypatch.setattr(bpnn, "new_network", lambda *args: built.append(args))
        data = write_price_csv(tmp_path / "prices.csv", make_ar_series(11))
        out = tmp_path / "out"
        argv = ["stability", "--epochs", "0", "--runs", "2000000", "--data", str(data), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "data error: backprop work of 1.08e+10 updates (runs x epochs x training rows x parameters: "
            "2000000 x 1 (0 epochs count as 1) x 339 x 16) is above the cap of 1e+10\n"
        )
        assert built == [] and not out.exists()

    def test_models_without_bp_are_not_counted(self, price_csv, tmp_path):
        argv = ["benchmark", "--models", "grnn", "--data", str(price_csv), "--out", str(tmp_path)]
        assert run([*argv, "--epochs", str(10**20)]) == 0

    @pytest.mark.parametrize(
        "flags, values, counted",
        [
            # about 24 and 30 GB, extrapolated: one epoch on this series
            # peaks at about 24 bytes a run, training row and hidden unit,
            # and 89 bytes a run and row at 3 hidden units
            (["--runs", "2", "--hidden", "1500000"], "4.13e+09", "2 x (339 x (4 x 1500000 + 3 + 8) + 4 x 7500001)"),
            (["--runs", "1000000"], "7.86e+09", "1000000 x (339 x (4 x 3 + 3 + 8) + 4 x 16)"),
        ],
        ids=["hidden", "runs"],
    )
    def test_memory_above_the_cap(self, flags, values, counted, tmp_path, monkeypatch, capsys):
        # below the work cap, but above the memory cap: no network is built
        built = []
        monkeypatch.setattr(bpnn, "new_network", lambda *args: built.append(args))
        data = write_price_csv(tmp_path / "prices.csv", make_ar_series(11))
        out = tmp_path / "out"
        assert run(["stability", *flags, "--epochs", "1", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: backprop memory of {values} float64 values (runs x (rows x (4 x hidden + inputs + 8) "
            f"+ 4 x parameters): {counted}) is above the cap of 2.15e+09\n"
        )
        assert built == [] and not out.exists()


class TestOutOfMemory:
    """Arrays that do not fit in memory are a data error, not a traceback.

    Each command runs in a process whose address space is limited to
    1 GiB, so no allocation can reach the host's memory: at 2e6 hidden
    units the bp network's activations on the 85-row test block need
    1.27 GiB, and a stack of two networks' 2.53 GiB.
    """

    LIMIT = 2**30

    @pytest.fixture()
    def long_csv(self, tmp_path):
        return write_price_csv(tmp_path / "prices.csv", make_ar_series(11))

    def run_limited(self, argv, long_csv, out, bp_flags=("--hidden", "2000000", "--epochs", "0")):
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        env = dict(
            os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(fivecast.__file__).parents[1])
        )
        argv = [*argv, *bp_flags, "--data", str(long_csv), "--out", str(out)]
        return subprocess.run(
            [sys.executable, "-m", "fivecast.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=limit_address_space,
        )

    def test_benchmark_gives_an_error_row_and_the_other_rows(self, long_csv, tmp_path):
        out = tmp_path / "out"
        proc = self.run_limited(["benchmark", "--models", "bp,grnn"], long_csv, out)
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[1].split()[:4] == ["bp", "-", "-", "DomainError:"]
        assert "out of memory: Unable to allocate 1.27 GiB" in lines[1]
        assert lines[2].split()[:2] != ["grnn", "-"] and lines[2].startswith("grnn ")
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert rows[0] == "bp,nan,nan" and rows[1].startswith("grnn,")

    @pytest.mark.parametrize(
        "argv, size",
        [(["stability", "--runs", "2"], "2.53 GiB"), (["lag", "--models", "bp,grnn"], "1.27 GiB")],
        ids=["stability", "lag"],
    )
    def test_commands_without_error_rows_exit_2(self, argv, size, long_csv, tmp_path):
        out = tmp_path / "out"
        proc = self.run_limited(argv, long_csv, out)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: out of memory: Unable to allocate {size}")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_runs_that_memory_cannot_hold_exit_2_at_once(self, long_csv, tmp_path):
        # numpy can shape 10**12 networks of 3 inputs and 3 hidden units, but their
        # parameters alone need 116 TiB: the work cap refuses the sweep
        # before one network or generator per run would fill the address space
        out = tmp_path / "out"
        proc = self.run_limited(["stability", "--runs", str(10**12)], long_csv, out, bp_flags=())
        assert proc.returncode == 2
        assert proc.stderr == (
            "data error: backprop work of 2.71e+18 updates (runs x epochs x training rows x parameters: "
            "1000000000000 x 500 x 339 x 16) is above the cap of 1e+10\n"
        )
        assert not out.exists()

    def test_too_many_runs_exit_2_at_once(self, price_csv, tmp_path, capsys, monkeypatch):
        # in process: numpy cannot shape these networks' parameters, and
        # building one generator per run would exhaust memory
        def build(*args):
            raise AssertionError("a network or a generator was built")

        monkeypatch.setattr(bpnn, "new_network", build)
        monkeypatch.setattr(np.random, "default_rng", build)
        out = tmp_path / "out"
        argv = ["stability", "--runs", str(10**20), "--data", str(price_csv), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "data error: backprop work of 2.32e+25 updates (runs x epochs x training rows x parameters: "
            "100000000000000000000 x 500 x 29 x 16) is above the cap of 1e+10\n"
        )
        assert not out.exists()


class TestOutputText:
    """The two writers every command's output goes through."""

    def test_numpy_float_cell_is_a_plain_repr(self):
        # repr(np.float64(0.1)) is "np.float64(0.1)" under numpy 2
        assert _csv(("e",), [(np.float64(0.1),), (np.float64(-1e-300),)]) == "e\n0.1\n-1e-300\n"

    def test_integer_cells_are_written_with_str(self):
        # runs, t and n_errors are integers, and never gain a ".0"
        out = _csv(("runs", "t", "n_errors"), [(100, 1, np.int64(2))])
        assert out == "runs,t,n_errors\n100,1,2\n"

    def test_table_pads_all_but_the_last_column(self):
        assert _table([("a", "bb", ""), ("ccc", "d", "note")]) == "a    bb\nccc  d   note\n"

    def test_stability_table_exact(self, monkeypatch):
        report = StabilityReport(100, 0.009, 4.8e-05, 0.019, 0.001)
        monkeypatch.setattr(evaluate, "stability", lambda ds, cfg, runs: report)
        _, text = _cmd_stability(argparse.Namespace(runs=100), HarnessConfig(), None)
        assert text == (
            "runs       100\n"
            "mse_mean   0.009\n"
            "mse_std    4.8e-05\n"
            "mape_mean  0.019\n"
            "mape_std   0.001\n"
        )


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


COMMANDS = ["benchmark", "kernels", "stability", "lag"]


def subcommand_flags() -> set[str]:
    """Every flag any subcommand takes, read from the parser."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}


class TestFlagDefaults:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_left_out_give_the_config_defaults(self, command):
        args = build_parser().parse_args([command, "--data", "prices.csv"])
        assert _config_from_args(args) == HarnessConfig()


# flag -> (base argv, the flag and its non-default value); every flag that
# names a setting must change the header, which records the full
# effective configuration
LAG = ["lag", "--models", "grnn"]
HEADER_CASES = {
    "--seed": (LAG, ["--seed", "1"]),
    "--models": (LAG, ["--models", "rbf"]),
    "--runs": (["stability", "--epochs", "1", "--runs", "2"], ["--runs", "3"]),
    "--eta": (LAG, ["--eta", "0.02"]),
    "--batch": (LAG, ["--batch", "8"]),
    "--epochs": (LAG, ["--epochs", "7"]),
    "--hidden": (LAG, ["--hidden", "4"]),
    "--rbf-centers": (LAG, ["--rbf-centers", "3"]),
    "--grnn-beta": (LAG, ["--grnn-beta", "2.0"]),
    "--grnn-static": (LAG, ["--grnn-static"]),
    "--svr-eps": (LAG, ["--svr-eps", "0.02"]),
    "--svr-c": (LAG, ["--svr-c", "5.0"]),
    "--lssvm-gamma": (LAG, ["--lssvm-gamma", "50.0"]),
    "--kernel": (LAG, ["--kernel", "linear"]),
    "--poly-d": (LAG + ["--kernel", "poly"], ["--poly-d", "3"]),
    "--poly-c": (LAG + ["--kernel", "poly"], ["--poly-c", "2.0"]),
    "--rbf-sigma": (LAG, ["--rbf-sigma", "0.5"]),
    "--mlp-k": (LAG + ["--kernel", "mlp"], ["--mlp-k", "0.5"]),
    "--mlp-theta": (LAG + ["--kernel", "mlp"], ["--mlp-theta", "0.1"]),
}


class TestHeader:
    @staticmethod
    def header(argv, data, out) -> str:
        assert run(argv + ["--data", str(data), "--out", str(out)]) == 0
        first = sorted(out.iterdir())[0]
        return first.read_text().splitlines()[0]

    def test_cases_cover_every_setting_flag(self):
        assert set(HEADER_CASES) | {"--data", "--out", "-h", "--help"} == subcommand_flags()

    @pytest.mark.parametrize("flag", list(HEADER_CASES))
    def test_each_setting_changes_the_header(self, flag, price_csv, tmp_path, capsys):
        base, change = HEADER_CASES[flag]
        before = self.header(base, price_csv, tmp_path / "base")
        after = self.header(base + change, price_csv, tmp_path / "changed")
        capsys.readouterr()
        assert after != before

    def test_data_changes_the_header(self, price_csv, tmp_path, capsys):
        other = shutil.copy(price_csv, tmp_path / "other.csv")
        before = self.header(LAG, price_csv, tmp_path / "base")
        after = self.header(LAG, other, tmp_path / "changed")
        capsys.readouterr()
        assert after == before.replace(str(price_csv), str(other))
        assert after != before


class TestErrorOrder:
    def test_unknown_model_comes_before_a_missing_data_file(self, tmp_path, capsys):
        argv = ["benchmark", "--models", "tree", "--data", str(tmp_path / "missing.csv")]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "unknown model 'tree'" in capsys.readouterr().err

    def test_too_few_runs_comes_before_a_negative_seed(self, price_csv, tmp_path, capsys):
        argv = ["stability", "--runs", "1", "--seed", "-1", "--data", str(price_csv)]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "--runs must be at least 2, got 1" in capsys.readouterr().err

    def test_kernels_checks_every_kernel_before_the_first_fit(self, price_csv, tmp_path, monkeypatch, capsys):
        fits = []
        real_fit = svr.fit

        def counted(*args, **kwargs):
            fits.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(svr, "fit", counted)
        out = tmp_path / "out"
        assert run(["kernels", "--poly-c", "inf", "--data", str(price_csv), "--out", str(out)]) == 2
        assert "polynomial offset must be finite" in capsys.readouterr().err
        assert fits == []
        assert not out.exists()


class TestRun:
    """``run`` flushes, then ends the process with os._exit; these replace
    os._exit and sys.exit to see which path it takes."""

    @pytest.fixture()
    def exits(self, monkeypatch):
        calls = []

        def record(how):
            def stop(code=0):
                calls.append((how, code))
                raise SystemExit(code)

            return stop

        monkeypatch.setattr(os, "_exit", record("os._exit"))
        monkeypatch.setattr(sys, "exit", record("sys.exit"))
        return calls

    def test_exits_at_once_with_mains_code(self, exits, capsys):
        with pytest.raises(SystemExit):
            cli.run([])
        assert exits == [("os._exit", 1)]
        assert "error" in capsys.readouterr().err

    def test_output_is_flushed_before_the_exit(self, exits, price_csv, tmp_path, monkeypatch):
        buffer = io.StringIO()
        flushed = []
        monkeypatch.setattr(buffer, "flush", lambda: flushed.append(buffer.getvalue()))
        monkeypatch.setattr(sys, "stdout", buffer)
        with pytest.raises(SystemExit):
            cli.run(["kernels", "--data", str(price_csv), "--out", str(tmp_path / "out")])
        assert exits == [("os._exit", 0)]
        assert flushed and flushed[-1].endswith("kernels.csv\n")

    def test_failing_flush_falls_back_to_sys_exit(self, exits, monkeypatch):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit):
            cli.run([])
        assert exits == [("sys.exit", 1)]

    def test_missing_stdout_falls_back_to_sys_exit(self, exits, monkeypatch):
        # a usage error writes only to stderr
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit):
            cli.run([])
        assert exits == [("sys.exit", 1)]

    def test_missing_stderr_falls_back_to_sys_exit(self, exits, monkeypatch, price_csv, tmp_path):
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit):
            cli.run(["kernels", "--data", str(price_csv), "--out", str(tmp_path / "out")])
        assert exits == [("sys.exit", 0)]

    def test_installed_command_takes_the_same_exit(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(fivecast.__file__).parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"fivecast": "fivecast.cli:run"}


class TestImports:
    """A command loads only the model modules it runs."""

    MODELS = ("bpnn", "rbfnn", "grnn", "lssvm", "linalg")

    @staticmethod
    def loaded(code: str) -> set[str]:
        env = dict(os.environ, PYTHONPATH=str(Path(fivecast.__file__).parents[1]))
        code += "; import sys; print(sorted(m for m in sys.modules if m.startswith(('fivecast.', 'numpy.'))))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
            check=True,
        )
        return set(ast.literal_eval(proc.stdout.splitlines()[-1]))

    def test_importing_the_cli_loads_no_model(self):
        loaded = self.loaded("import fivecast.cli")
        assert not loaded & {f"fivecast.{m}" for m in self.MODELS}
        assert "fivecast.svr" in loaded  # the header reads svr.TOL

    def test_kernels_loads_only_svr(self, price_csv, tmp_path):
        argv = ["kernels", "--data", str(price_csv), "--out", str(tmp_path / "out")]
        loaded = self.loaded(f"from fivecast.cli import main; assert main({argv!r}) == 0")
        assert not loaded & {f"fivecast.{m}" for m in self.MODELS}
        assert "numpy.ma" not in loaded  # the rbf width's median

    def test_long_lag_models_load_no_masked_arrays(self, price_csv, tmp_path):
        argv = ["lag", "--models", "lssvm,rbf,grnn", "--data", str(price_csv), "--out", str(tmp_path / "out")]
        loaded = self.loaded(f"from fivecast.cli import main; assert main({argv!r}) == 0")
        assert {"fivecast.lssvm", "fivecast.rbfnn", "fivecast.grnn"} <= loaded
        assert "numpy.ma" not in loaded

    def test_lssvm_loads_the_solver(self, price_csv, tmp_path):
        argv = ["lag", "--models", "lssvm", "--data", str(price_csv), "--out", str(tmp_path / "out")]
        loaded = self.loaded(f"from fivecast.cli import main; assert main({argv!r}) == 0")
        assert {"fivecast.lssvm", "fivecast.linalg"} <= loaded
        assert not loaded & {"fivecast.bpnn", "fivecast.rbfnn", "fivecast.grnn"}


# Values for the setting flags: out of every range, at the float64 limits,
# and ordinary.  Each int flag also meets the float spellings, a usage error.
_ODD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e308", "1", "3", str(10**20), str(10**400))
_SETTING_FLAGS = tuple(
    flag for flag, dest, options in cli._FLAGS if "type" in options and dest not in ("models", "runs")
)


@st.composite
def invocations(draw):
    """A price series of 4 to 40 rows and the argv of one command on it,
    with at most two setting flags at odd values.  Training is held to at
    most 20 epochs and 5 runs, or to an --epochs that the backprop work
    cap rejects, so every example is quick."""
    prices = draw(
        st.lists(st.one_of(st.floats(0.5, 2.0), st.floats(1e-300, 1e300)), min_size=4, max_size=40)
    )
    command = draw(st.sampled_from(tuple(cli._COMMANDS)))
    argv = [command, "--epochs", "20"]
    if command in cli._ONLY["--models"]:
        models = draw(st.lists(st.sampled_from(evaluate.MODEL_NAMES), min_size=1, max_size=5, unique=True))
        argv += ["--models", ",".join(models)]
    if command in cli._ONLY["--kernel"] and draw(st.booleans()):
        argv += ["--kernel", draw(st.sampled_from(KERNEL_KINDS))]
    if command in cli._ONLY["--runs"]:
        argv += ["--runs", str(draw(st.integers(2, 5)))]
    for flag in draw(st.lists(st.sampled_from(_SETTING_FLAGS), max_size=2, unique=True)):
        argv += [flag, draw(st.sampled_from(_ODD_VALUES))]
    return prices, argv


class TestAnyInvocation:
    """Whatever the series and settings, main returns an exit code, and
    every number it writes is finite unless its row reports an error."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(invocations())
    def test_ends_in_a_code_and_finite_output(self, case):
        prices, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            data = write_price_csv(Path(tmp) / "prices.csv", weekly_series(prices))
            out = Path(tmp) / "out"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--data", str(data), "--out", str(out)])
            assert code in (0, 1, 2, 3)
            # a failed model prints "-" for both scores, then its error
            failed = {
                cells[0] for cells in map(str.split, stdout.getvalue().splitlines())
                if cells[1:3] == ["-", "-"]
            }
            for path in out.glob("*.csv"):
                for row in path.read_text(encoding="utf-8").splitlines()[2:]:
                    label, *numbers = row.split(",")
                    if label not in failed:
                        assert all(math.isfinite(float(v)) for v in numbers), (path.name, row)
