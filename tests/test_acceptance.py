"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints one ``criterion N: PASS/FAIL`` line with its tolerance
and elapsed time (run pytest with ``-s`` to see the lines), then asserts
both the property and the runtime budget.  Numbered criteria:

 1  the per-batch training gradients match central finite differences
 2  least squares margin model satisfies its saddle-point system
 3  margin solver reaches the projected-gradient oracle's dual optimum
 4  kernel-weighted memory tends to the mean / nearest neighbor in its
    smoothing limits
 5  radial network with one unit per sample interpolates its samples
 6  every model beats 1.5x the predict-previous baseline on a synthetic
    series, backprop beats the baseline itself
 7  relative spread of 100 reseeded backprop runs stays under 5%
 8  repeating any command with a fixed seed reproduces files byte for byte
 9  optional real-data check, enabled by FIVECAST_REAL_DATA
10  linear kernel beats the radial kernel on exactly-linear data
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import make_ar_series, weekly_series, write_price_csv
from test_kernels import kernel_value
from test_svr import dual_objective, oracle_dual_opt, oracle_gram

from fivecast import bpnn, evaluate, grnn, lssvm, rbfnn, svr, timeseries
from fivecast.cli import main as cli_main
from fivecast.kernels import KernelSpec


def report(num, ok, elapsed, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}")


def ar_dataset():
    return timeseries.split(timeseries.make_windows(make_ar_series(11), 3), 0.8)


AR_CONFIG = evaluate.HarnessConfig(bp_eta=0.05, bp_epochs=2000)


class TestAcceptance:
    def test_criterion_1_gradient_check(self):
        # the function every training batch runs, on stacks of two networks
        # with four samples each; the cost comes from training_cost
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        h = 1e-5
        sizes = (3, 3, 1)
        worst = 0.0
        for trial in range(20):
            net = bpnn.new_network(sizes, [2 * trial, 2 * trial + 1])
            grad = bpnn.BpNetwork(sizes, np.empty_like(net.params))
            x = rng.uniform(-1.0, 1.0, (2, 4, 3))
            y = rng.uniform(-1.0, 1.0, (2, 4, 1))
            bpnn._batch_gradients(net.weights, net.biases, x, y, grad.weights, grad.biases)
            params = net.params
            for k in range(2):
                view = bpnn.BpNetwork(sizes, params[k : k + 1])
                for idx in range(params.shape[1]):
                    orig = params[k, idx]
                    params[k, idx] = orig + h
                    # training_cost is the batch mean, the gradient's the sum
                    up = x.shape[1] * bpnn.training_cost(view, x[k], y[k])[0]
                    params[k, idx] = orig - h
                    dn = x.shape[1] * bpnn.training_cost(view, x[k], y[k])[0]
                    params[k, idx] = orig
                    fd = (up - dn) / (2.0 * h)
                    g = grad.params[k, idx]
                    denom = max(abs(g), abs(fd), 1e-6)
                    worst = max(worst, abs(g - fd) / denom)
        elapsed = time.perf_counter() - start
        ok = worst < 1e-4 and elapsed < 5.0
        report(1, ok, elapsed, f"gradient check max rel err {worst:.3e} < 1e-4")
        assert worst < 1e-4
        assert elapsed < 5.0

    def test_criterion_2_saddle_point_residual(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        worst_res = 0.0
        worst_sum = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 101))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-2.0, 2.0, (n, d))
            y = rng.uniform(-3.0, 3.0, n)
            gamma = float(rng.choice([1.0, 100.0, 1e4]))
            kernel = (KernelSpec("linear"), KernelSpec("rbf", sigma=1.0), KernelSpec("poly", degree=2))[trial % 3]
            m = lssvm.fit(x, y, kernel, gamma=gamma)
            bound = 1e-8 * max(1.0, float(np.max(np.abs(y))))
            # assemble the system again, entry by entry
            a = np.zeros((n + 1, n + 1))
            a[0, 1:] = 1.0
            a[1:, 0] = 1.0
            for i in range(n):
                for j in range(n):
                    a[1 + i, 1 + j] = kernel_value(kernel, x[i], x[j])
                a[1 + i, 1 + i] += 1.0 / gamma
            rhs = np.zeros(n + 1)
            rhs[1:] = y
            sol = np.concatenate([[m.bias], m.coefs])
            res = float(np.max(np.abs(a @ sol - rhs)))
            worst_res = max(worst_res, res / bound)
            worst_sum = max(worst_sum, abs(float(m.coefs.sum())))
        elapsed = time.perf_counter() - start
        ok = worst_res <= 1.0 and worst_sum <= 1e-8 and elapsed < 10.0
        report(
            2, ok, elapsed,
            f"worst residual {worst_res:.3f} of the 1e-8*max(1,|Y|) bound, "
            f"worst coef sum {worst_sum:.2e} <= 1e-8",
        )
        assert worst_res <= 1.0
        assert worst_sum <= 1e-8
        assert elapsed < 10.0

    # the pass budget may bind on a hard instance; nearness to the
    # optimum is what this criterion measures
    @pytest.mark.filterwarnings("ignore::fivecast.errors.ConvergenceWarning")
    def test_criterion_3_dual_optimum(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        eps, c = 0.01, 10.0
        worst = 0.0
        for trial in range(25):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=(n, d))
            y = rng.uniform(-2.0, 2.0, size=n)
            kind = ("linear", "poly", "rbf")[trial % 3]
            spec = {
                "linear": KernelSpec("linear"),
                "poly": KernelSpec("poly", degree=2),
                "rbf": KernelSpec("rbf", sigma=1.5),
            }[kind]
            m = svr.fit(x, y, spec, epsilon=eps, c_reg=c)
            kmat = oracle_gram(kind, x, sigma=1.5)
            reached = dual_objective(kmat, y, eps, m.coefs)
            best = oracle_dual_opt(kmat, y, eps, c)
            worst = max(worst, abs(reached - best) / max(1.0, abs(best)))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-3 and elapsed < 30.0
        report(3, ok, elapsed, f"dual objective worst rel diff {worst:.3e} < 1e-3")
        assert worst < 1e-3
        assert elapsed < 30.0

    def test_criterion_4_smoothing_limits(self):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        inputs = rng.uniform(0.0, 4.0, (12, 2))
        targets = rng.uniform(-2.0, 2.0, 12)
        flat = grnn.fit(inputs, targets, beta=1e-9)
        flat_err = 0.0
        for _ in range(20):
            q = rng.uniform(-1.0, 5.0, 2)
            flat_err = max(flat_err, abs(grnn.predict(flat, q) - targets.mean()))
        # separations chosen so every non-nearest weight underflows at 1e6
        xs = np.array([[0.0], [0.5], [1.2], [2.0], [3.1]])
        ys = np.array([4.0, -1.0, 2.5, 0.75, -3.0])
        sharp = grnn.fit(xs, ys, beta=1e6)
        sharp_exact = True
        for q in (-0.4, 0.2, 0.7, 1.0, 1.5, 2.4, 9.0):
            d2 = (xs[:, 0] - q) ** 2
            nearest = ys[int(np.argmin(d2))]
            sharp_exact = sharp_exact and grnn.predict(sharp, [q]) == nearest
        elapsed = time.perf_counter() - start
        ok = flat_err < 1e-6 and sharp_exact and elapsed < 2.0
        report(
            4, ok, elapsed,
            f"flat-limit err {flat_err:.2e} < 1e-6, sharp limit exact: {sharp_exact}",
        )
        assert flat_err < 1e-6
        assert sharp_exact
        assert elapsed < 2.0

    def test_criterion_5_interpolation(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        worst = 0.0
        done = 0
        while done < 10:
            n = int(rng.integers(3, 11))
            d = int(rng.integers(1, 4))
            x = rng.uniform(0.0, 1.0, (n, d))
            dm = np.sqrt(np.sum((x[:, None] - x[None, :]) ** 2, axis=2))
            np.fill_diagonal(dm, np.inf)
            if dm.min() < 0.02:
                continue  # criterion presumes distinct samples
            y = rng.uniform(-1.0, 1.0, n)
            net = rbfnn.fit(x, y, n_centers=n, seed=0)
            worst = max(worst, float(np.max(np.abs(rbfnn.predict_batch(net, x) - y))))
            done += 1
        elapsed = time.perf_counter() - start
        ok = worst < 1e-6 and elapsed < 2.0
        report(5, ok, elapsed, f"interpolation worst err {worst:.3e} < 1e-6")
        assert worst < 1e-6
        assert elapsed < 2.0

    def test_criterion_6_synthetic_benchmark(self):
        start = time.perf_counter()
        ds = ar_dataset()
        naive = float(
            np.mean(np.abs(ds.test_targets - ds.test_inputs[:, -1]) / np.abs(ds.test_targets))
        )
        reports = evaluate.benchmark(ds, list(evaluate.MODEL_NAMES), AR_CONFIG)
        finite = all(
            r.error is None and math.isfinite(r.mse) and math.isfinite(r.mape)
            for r in reports
        )
        worst_ratio = max(r.mape / naive for r in reports)
        bp_ratio = next(r.mape for r in reports if r.model == "bp") / naive
        elapsed = time.perf_counter() - start
        ok = finite and worst_ratio <= 1.5 and bp_ratio <= 1.0 and elapsed < 120.0
        report(
            6, ok, elapsed,
            f"all finite: {finite}, worst mape {worst_ratio:.3f}x naive (<= 1.5), "
            f"bp {bp_ratio:.3f}x (<= 1)",
        )
        assert finite
        assert worst_ratio <= 1.5
        assert bp_ratio <= 1.0
        assert elapsed < 120.0

    def test_criterion_7_stability(self):
        start = time.perf_counter()
        rep = evaluate.stability(ar_dataset(), AR_CONFIG, runs=100)  # seeds 0-99
        cv = rep.mse_std / rep.mse_mean
        elapsed = time.perf_counter() - start
        ok = cv < 0.05 and elapsed < 300.0
        report(7, ok, elapsed, f"100-run mse spread/mean {cv:.4f} < 0.05")
        assert rep.runs == 100
        assert cv < 0.05
        assert elapsed < 300.0

    def test_criterion_8_byte_determinism(self, tmp_path):
        start = time.perf_counter()
        csv = write_price_csv(tmp_path / "prices.csv", make_ar_series(11, n=120))
        commands = [
            ["benchmark", "--data", str(csv), "--epochs", "150", "--seed", "9"],
            ["kernels", "--data", str(csv), "--seed", "9"],
            ["stability", "--data", str(csv), "--runs", "5", "--epochs", "150", "--seed", "9"],
            ["lag", "--data", str(csv), "--epochs", "150", "--seed", "9"],
        ]
        identical = True
        for argv in commands:
            a = tmp_path / f"a_{argv[0]}"
            b = tmp_path / f"b_{argv[0]}"
            assert cli_main(argv + ["--out", str(a)]) == 0
            assert cli_main(argv + ["--out", str(b)]) == 0
            names_a = sorted(p.name for p in a.iterdir())
            names_b = sorted(p.name for p in b.iterdir())
            identical = identical and names_a == names_b
            for name in names_a:
                identical = identical and (a / name).read_bytes() == (b / name).read_bytes()
        elapsed = time.perf_counter() - start
        report(8, identical, elapsed, "all four commands reproduce byte-identical files")
        assert identical

    def test_criterion_9_real_data(self):
        path = os.environ.get("FIVECAST_REAL_DATA")
        if not path:
            pytest.skip("set FIVECAST_REAL_DATA=<weekly close CSV> to enable")
        start = time.perf_counter()
        series = timeseries.load_csv(Path(path))
        assert len(series) >= 400, "need at least 400 weekly closes"
        ds = timeseries.split(timeseries.make_windows(series, 3), 0.8)
        reports = evaluate.benchmark(ds, list(evaluate.MODEL_NAMES), AR_CONFIG)
        worst = max(r.mape for r in reports)
        elapsed = time.perf_counter() - start
        ok = worst <= 0.10
        report(9, ok, elapsed, f"real data worst mape {worst:.4f} (soft bound 0.10)")
        assert worst <= 0.10

    def test_criterion_10_kernel_ordering(self):
        start = time.perf_counter()
        prices = 100.0 + 0.5 * np.arange(120)
        ds = timeseries.split(timeseries.make_windows(weekly_series(prices), 3), 0.8)
        lin = evaluate.benchmark(
            ds, ["svr"], evaluate.HarnessConfig(kernel=KernelSpec("linear"))
        )[0]
        rbf = evaluate.benchmark(ds, ["svr"], evaluate.HarnessConfig())[0]
        elapsed = time.perf_counter() - start
        ok = lin.mape <= rbf.mape
        report(
            10, ok, elapsed,
            f"linear kernel mape {lin.mape:.4f} <= rbf kernel mape {rbf.mape:.4f}",
        )
        assert lin.mape <= rbf.mape
