"""Least squares SVM: saddle-point solve and kernel-expansion predictor."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from test_kernels import kernel_value

from fivecast.errors import DomainError, ShapeError
from fivecast.kernels import KernelSpec, kernel_column
from fivecast.lssvm import LssvmModel, fit, predict_batch


def saddle_system(kernel, x, y, gamma):
    """The fitted model's defining system, assembled independently."""
    n = x.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    for i in range(n):
        for j in range(n):
            a[1 + i, 1 + j] = kernel_value(kernel, x[i], x[j])
        a[1 + i, 1 + i] += 1.0 / gamma
    rhs = np.zeros(n + 1)
    rhs[1:] = y
    return a, rhs


class TestFit:
    def test_two_point_line(self):
        # (0 -> 0), (2 -> 2): with a nearly hard fit the model is y = x
        x = np.array([[0.0], [2.0]])
        y = np.array([0.0, 2.0])
        m = fit(x, y, KernelSpec.linear(), gamma=1e6)
        npt.assert_allclose(predict_batch(m, [[1.0]])[0], 1.0, atol=1e-3)
        npt.assert_allclose(predict_batch(m, x), y, atol=1e-3)

    def test_two_point_line_against_library_solve(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([0.0, 2.0])
        gamma = 1e6
        m = fit(x, y, KernelSpec.linear(), gamma=gamma)
        a, rhs = saddle_system(KernelSpec.linear(), x, y, gamma)
        sol = np.linalg.solve(a, rhs)
        npt.assert_allclose(m.bias, sol[0], rtol=1e-9, atol=1e-9)
        npt.assert_allclose(m.coefs, sol[1:], rtol=1e-9)

    def test_matches_library_solve_sweep(self):
        rng = np.random.default_rng(40)
        for kernel in (KernelSpec.linear(), KernelSpec.rbf(1.0), KernelSpec.polynomial(2)):
            x = rng.uniform(-1.0, 1.0, (12, 2))
            y = rng.uniform(-1.0, 1.0, 12)
            m = fit(x, y, kernel, gamma=100.0)
            a, rhs = saddle_system(kernel, x, y, 100.0)
            sol = np.linalg.solve(a, rhs)
            npt.assert_allclose(m.bias, sol[0], rtol=1e-8, atol=1e-10)
            npt.assert_allclose(m.coefs, sol[1:], rtol=1e-8, atol=1e-10)

    def test_coefs_sum_to_zero(self):
        rng = np.random.default_rng(41)
        for gamma in (1.0, 100.0, 1e6):
            x = rng.uniform(-2.0, 2.0, (20, 3))
            y = rng.uniform(-2.0, 2.0, 20)
            m = fit(x, y, KernelSpec.rbf(1.5), gamma=gamma)
            assert abs(m.coefs.sum()) <= 1e-8

    def test_kkt_residual_small_and_honest(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 1.0, (30, 2))
        y = rng.uniform(-1.0, 1.0, 30)
        gamma = 1e8  # stiff system, exercises the refinement rounds
        m = fit(x, y, KernelSpec.rbf(1.0), gamma=gamma)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(y))))
        assert m.kkt_residual <= bound
        # recompute the residual from the stored model
        a, rhs = saddle_system(KernelSpec.rbf(1.0), x, y, gamma)
        sol = np.concatenate([[m.bias], m.coefs])
        npt.assert_allclose(float(np.max(np.abs(a @ sol - rhs))), m.kkt_residual, atol=1e-12)

    def test_interpolates_at_high_gamma(self):
        x = np.array([[0.0], [1.0], [2.5], [4.0], [6.0]])
        y = np.array([1.0, -1.0, 2.0, 0.5, 3.0])
        m = fit(x, y, KernelSpec.rbf(1.0), gamma=1e8)
        npt.assert_allclose(predict_batch(m, x), y, atol=1e-4)

    def test_gamma_tightens_training_fit(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(-2.0, 2.0, (25, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(25)
        errs = []
        for gamma in (1.0, 100.0, 1e4, 1e6):
            m = fit(x, y, KernelSpec.rbf(0.8), gamma=gamma)
            errs.append(float(np.mean((predict_batch(m, x) - y) ** 2)))
        assert errs == sorted(errs, reverse=True)

    def test_recovers_linear_generator(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(-1.0, 1.0, (15, 2))
        y = 2.0 * x[:, 0] - 0.5 * x[:, 1] + 0.25
        m = fit(x, y, KernelSpec.linear(), gamma=1e6)
        probe = rng.uniform(-1.0, 1.0, (10, 2))
        want = 2.0 * probe[:, 0] - 0.5 * probe[:, 1] + 0.25
        npt.assert_allclose(predict_batch(m, probe), want, atol=1e-3)

    def test_validation(self):
        x = np.ones((3, 1))
        y = np.ones(3)
        with pytest.raises(DomainError):
            fit(x, y, KernelSpec.linear(), gamma=0.0)
        # 1/gamma overflows: rejected before np.eye(n) / gamma can warn
        with pytest.raises(DomainError, match="finite reciprocal"):
            fit(x, y, KernelSpec.linear(), gamma=1e-320)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="gamma must be finite"):
                fit(x, y, KernelSpec.linear(), gamma=bad)
        with pytest.raises(DomainError):
            fit(np.empty((0, 1)), np.empty(0), KernelSpec.linear())
        with pytest.raises(ShapeError):
            fit(np.ones(3), y, KernelSpec.linear())
        with pytest.raises(ShapeError):
            fit(x, np.ones(4), KernelSpec.linear())


class TestPredict:
    def test_expansion_by_hand(self):
        # coefs (1, -1), bias 0.5, linear kernel: f(x) = x1.x - x2.x + 0.5
        m = LssvmModel(
            kernel=KernelSpec.linear(),
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            coefs=np.array([1.0, -1.0]),
            bias=0.5,
            gamma=1.0,
            kkt_residual=0.0,
        )
        npt.assert_allclose(predict_batch(m, [[2.0, 3.0]])[0], 2.0 - 3.0 + 0.5)

    def test_zero_coefs_give_bias(self):
        m = LssvmModel(
            kernel=KernelSpec.rbf(1.0),
            inputs=np.array([[0.0], [1.0]]),
            coefs=np.zeros(2),
            bias=1.5,
            gamma=1.0,
            kkt_residual=0.0,
        )
        assert predict_batch(m, [[0.3]])[0] == 1.5

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(-1.0, 1.0, (10, 2))
        y = rng.uniform(-1.0, 1.0, 10)
        m = fit(x, y, KernelSpec.rbf(1.0), gamma=50.0)
        probe = rng.uniform(-1.0, 1.0, (6, 2))
        # each row is the kernel expansion, bit for bit
        loop = [float(m.coefs @ kernel_column(m.kernel, m.inputs, p) + m.bias) for p in probe]
        assert predict_batch(m, probe).tolist() == loop

    def test_batch_shape(self):
        m = fit(np.ones((2, 2)) * np.arange(2)[:, None], np.arange(2.0), KernelSpec.linear())
        with pytest.raises(ShapeError):
            predict_batch(m, np.ones((3, 5)))
