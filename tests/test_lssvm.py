"""Least squares SVM: saddle-point solve and kernel-expansion predictor."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from conftest import make_ar_series
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_kernels import kernel_value

from fivecast import linalg
from fivecast.errors import DomainError, FivecastError, ShapeError, SingularError
from fivecast.kernels import KernelSpec, gram, kernel_column, median_pairwise_distance
from fivecast.lssvm import LssvmModel, fit, predict_batch
from fivecast.timeseries import as_samples, fit_scaler, make_windows, split


KERNELS = (
    KernelSpec("linear"),
    KernelSpec("poly", degree=2),
    KernelSpec("rbf", sigma=1.0),
    KernelSpec("mlp", mlp_k=1.0, mlp_theta=0.0),
)


@st.composite
def saddle_problems(draw):
    """Rows, targets, kernel and gamma of a small fit: rows from a few round
    numbers or any in [-2, 2], gamma from 1e-2 to 1e8."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    x = draw(arrays(np.float64, (n, d), elements=coord))
    y = draw(arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    kernel = draw(st.sampled_from(KERNELS))
    gamma = draw(st.sampled_from([1e-2, 1.0, 1e2, 1e4, 1e6, 1e8]))
    return x, y, kernel, gamma


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


def reference_fit(inputs, targets, kernel, gamma):
    """lssvm.fit as it assembled the saddle system from whole-matrix
    temporaries, the reference for its in-place assembly: the coefs, bias
    and kkt_residual it returned."""
    x, y = as_samples(inputs, targets)
    n = x.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    a[1:, 1:] = gram(kernel, x) + np.eye(n) / gamma
    rhs = np.zeros(n + 1)
    rhs[1:] = y
    system = linalg.Elimination(a)
    sol = linalg.solve(system, rhs)
    bound = 1e-8 * max(1.0, float(np.max(np.abs(y))))
    residual = float(np.max(np.abs(a @ sol - rhs)))
    for _ in range(2):
        if residual <= bound:
            break
        sol = sol + linalg.solve(system, rhs - a @ sol)
        residual = float(np.max(np.abs(a @ sol - rhs)))
    return sol[1:], float(sol[0]), residual


def fit_and_system(fit_fn, *args):
    """fit_fn(*args), or the type of the FivecastError it raises, and a
    copy of the saddle matrix it hands to the elimination."""
    systems = []

    class Recorded(linalg.Elimination):
        def __init__(self, a):
            systems.append(a.copy())
            super().__init__(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "Elimination", Recorded)
        try:
            result = fit_fn(*args)
        except FivecastError as exc:
            result = type(exc)
    return result, systems[0]


def assert_same_fit_bytes(x, y, kernel, gamma):
    model, system = fit_and_system(fit, x, y, kernel, gamma)
    want, want_system = fit_and_system(reference_fit, x, y, kernel, gamma)
    assert system.tobytes() == want_system.tobytes()
    if isinstance(want, type):
        assert model is want
    else:
        coefs, bias, residual = want
        assert model.coefs.tobytes() == coefs.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
        assert np.float64(model.kkt_residual).tobytes() == np.float64(residual).tobytes()


# the tanh kernel with a negative slope and offset -0.0 is -0.0 wherever
# a.b = 0, which the system stores as +0.0
ASSEMBLY_KERNELS = KERNELS + (
    KernelSpec("poly", degree=3, poly_c=2.5),
    KernelSpec("rbf", sigma=0.3),
    KernelSpec("mlp", mlp_k=-1.0, mlp_theta=-0.0),
)


@st.composite
def assembly_problems(draw):
    """saddle_problems' rows and targets with more kernels and gammas,
    some of whose reciprocals are inexact."""
    x, y, _, _ = draw(saddle_problems())
    kernel = draw(st.sampled_from(ASSEMBLY_KERNELS))
    return x, y, kernel, draw(st.sampled_from([3.0, 7.0, 0.1, 100.0, 1e8]))


class TestAssembly:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(assembly_problems())
    def test_same_bytes_as_the_whole_matrix_assembly(self, problem):
        assert_same_fit_bytes(*problem)

    @pytest.mark.parametrize("kernel", ASSEMBLY_KERNELS, ids=lambda k: k.kind)
    def test_negative_inputs_at_inexact_gamma(self, kernel):
        x = np.array([[0.0, -1.0], [-0.5, 0.0], [-2.0, -1.5], [0.0, 0.0], [1.0, -0.25]])
        y = np.array([0.3, -1.0, 0.5, 0.0, 2.0])
        assert_same_fit_bytes(x, y, kernel, 3.0)

    def test_negative_zero_kernel_entries_are_stored_as_positive_zero(self):
        kernel = KernelSpec("mlp", mlp_k=-1.0, mlp_theta=-0.0)
        x = np.array([[0.0], [-1.0], [2.0]])
        y = np.array([1.0, 0.0, -1.0])
        k = gram(kernel, x)
        zero = k == 0.0
        assert zero.any() and np.signbit(k[zero]).all()
        _, system = fit_and_system(fit, x, y, kernel, 3.0)
        assert not np.signbit(system[1:, 1:][zero]).any()
        assert_same_fit_bytes(x, y, kernel, 3.0)


class TestFit:
    @pytest.mark.filterwarnings("error")
    def test_targets_near_the_float_limit_are_singular_without_warnings(self):
        # the elimination overflows; the solve says so instead of numpy
        with pytest.raises(SingularError, match="^the solution is not finite$"):
            fit([[0.0], [1.0], [2.0], [3.0]], [1e308, -1e308, 1e308, -1e308], KernelSpec("rbf", sigma=1.0))

    def test_two_point_line(self):
        # (0 -> 0), (2 -> 2): with a nearly hard fit the model is y = x
        x = np.array([[0.0], [2.0]])
        y = np.array([0.0, 2.0])
        m = fit(x, y, KernelSpec("linear"), gamma=1e6)
        npt.assert_allclose(predict_batch(m, [[1.0]])[0], 1.0, atol=1e-3)
        npt.assert_allclose(predict_batch(m, x), y, atol=1e-3)

    def test_two_point_line_against_library_solve(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([0.0, 2.0])
        gamma = 1e6
        m = fit(x, y, KernelSpec("linear"), gamma=gamma)
        a, rhs = saddle_system(KernelSpec("linear"), x, y, gamma)
        sol = np.linalg.solve(a, rhs)
        npt.assert_allclose(m.bias, sol[0], rtol=1e-9, atol=1e-9)
        npt.assert_allclose(m.coefs, sol[1:], rtol=1e-9)

    def test_matches_library_solve_sweep(self):
        rng = np.random.default_rng(40)
        for kernel in (KernelSpec("linear"), KernelSpec("rbf", sigma=1.0), KernelSpec("poly", degree=2)):
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
            m = fit(x, y, KernelSpec("rbf", sigma=1.5), gamma=gamma)
            assert abs(m.coefs.sum()) <= 1e-8

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(saddle_problems())
    def test_kkt_residual_small_and_honest(self, problem):
        x, y, kernel, gamma = problem
        m = fit(x, y, kernel, gamma=gamma)
        # the reported residual is the stored model's, on the system as fit
        # assembles it from the gram matrix
        n = x.shape[0]
        a = np.zeros((n + 1, n + 1))
        a[0, 1:] = a[1:, 0] = 1.0
        a[1:, 1:] = gram(kernel, x) + np.eye(n) / gamma
        rhs = np.concatenate([[0.0], y])
        sol = np.concatenate([[m.bias], m.coefs])
        assert m.kkt_residual == float(np.max(np.abs(a @ sol - rhs)))
        bound = 1e-8 * max(1.0, float(np.max(np.abs(y))))
        if gamma <= 1e6:
            assert m.kkt_residual <= bound
        elif m.kkt_residual > bound:
            # refinement does not always reach the bound this stiff
            event(f"residual above the bound at gamma {gamma:g}")

    def test_kkt_residual_small_at_gamma_1e8(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1.0, 1.0, (30, 2))
        y = rng.uniform(-1.0, 1.0, 30)
        gamma = 1e8  # stiff system
        m = fit(x, y, KernelSpec("rbf", sigma=1.0), gamma=gamma)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(y))))
        assert m.kkt_residual <= bound
        # recompute the residual on the independently assembled system
        a, rhs = saddle_system(KernelSpec("rbf", sigma=1.0), x, y, gamma)
        sol = np.concatenate([[m.bias], m.coefs])
        npt.assert_allclose(float(np.max(np.abs(a @ sol - rhs))), m.kkt_residual, atol=1e-12)

    @staticmethod
    def refining_case():
        """200 scaled AR windows and a kernel that need both refinement
        rounds at gamma 1e8."""
        ds = split(make_windows(make_ar_series(11, n=200), 3), 0.8)
        scaler = fit_scaler(np.concatenate([ds.train_inputs.ravel(), ds.train_targets]))
        x, y = scaler.transform(ds.train_inputs), scaler.transform(ds.train_targets)
        return x, y, KernelSpec("rbf", sigma=median_pairwise_distance(x))

    def test_refinement_reuses_one_elimination(self, monkeypatch):
        x, y, kernel = self.refining_case()
        eliminations, substitutions = [], []
        for name, log in (("_eliminate", eliminations), ("_substitute", substitutions)):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *args, real=real, log=log: log.append(1) or real(*args))
        m = fit(x, y, kernel, gamma=1e8)
        assert (len(eliminations), len(substitutions)) == (1, 3)
        monkeypatch.undo()
        # the same bits as a fresh solve for every refinement
        a = np.zeros((x.shape[0] + 1,) * 2)
        a[0, 1:] = a[1:, 0] = 1.0
        a[1:, 1:] = gram(kernel, x) + np.eye(x.shape[0]) / 1e8
        rhs = np.concatenate([[0.0], y])
        sol = linalg.solve(a, rhs)
        for _ in range(2):
            sol = sol + linalg.solve(a, rhs - a @ sol)
        assert m.coefs.tobytes() == sol[1:].tobytes()
        assert m.bias == sol[0]

    def test_every_refinement_is_a_linalg_solve(self, monkeypatch):
        # the first solve and both refinement rounds, each through the one
        # entry point a caller can count
        x, y, kernel = self.refining_case()
        calls = []
        real = linalg.solve
        monkeypatch.setattr(linalg, "solve", lambda *args: calls.append(1) or real(*args))
        fit(x, y, kernel, gamma=1e8)
        assert len(calls) == 3

    def test_interpolates_at_high_gamma(self):
        x = np.array([[0.0], [1.0], [2.5], [4.0], [6.0]])
        y = np.array([1.0, -1.0, 2.0, 0.5, 3.0])
        m = fit(x, y, KernelSpec("rbf", sigma=1.0), gamma=1e8)
        npt.assert_allclose(predict_batch(m, x), y, atol=1e-4)

    def test_gamma_tightens_training_fit(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(-2.0, 2.0, (25, 1))
        y = np.sin(2.0 * x[:, 0]) + 0.1 * rng.standard_normal(25)
        errs = []
        for gamma in (1.0, 100.0, 1e4, 1e6):
            m = fit(x, y, KernelSpec("rbf", sigma=0.8), gamma=gamma)
            errs.append(float(np.mean((predict_batch(m, x) - y) ** 2)))
        assert errs == sorted(errs, reverse=True)

    def test_recovers_linear_generator(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(-1.0, 1.0, (15, 2))
        y = 2.0 * x[:, 0] - 0.5 * x[:, 1] + 0.25
        m = fit(x, y, KernelSpec("linear"), gamma=1e6)
        probe = rng.uniform(-1.0, 1.0, (10, 2))
        want = 2.0 * probe[:, 0] - 0.5 * probe[:, 1] + 0.25
        npt.assert_allclose(predict_batch(m, probe), want, atol=1e-3)

    def test_validation(self):
        x = np.ones((3, 1))
        y = np.ones(3)
        with pytest.raises(DomainError):
            fit(x, y, KernelSpec("linear"), gamma=0.0)
        # 1/gamma overflows: rejected before np.eye(n) / gamma can warn
        with pytest.raises(DomainError, match="finite reciprocal"):
            fit(x, y, KernelSpec("linear"), gamma=1e-320)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="gamma must be finite"):
                fit(x, y, KernelSpec("linear"), gamma=bad)
        with pytest.raises(DomainError):
            fit(np.empty((0, 1)), np.empty(0), KernelSpec("linear"))
        with pytest.raises(ShapeError):
            fit(np.ones(3), y, KernelSpec("linear"))
        with pytest.raises(ShapeError):
            fit(x, np.ones(4), KernelSpec("linear"))


class TestPredict:
    def test_expansion_by_hand(self):
        # coefs (1, -1), bias 0.5, linear kernel: f(x) = x1.x - x2.x + 0.5
        m = LssvmModel(
            kernel=KernelSpec("linear"),
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            coefs=np.array([1.0, -1.0]),
            bias=0.5,
            kkt_residual=0.0,
        )
        npt.assert_allclose(predict_batch(m, [[2.0, 3.0]])[0], 2.0 - 3.0 + 0.5)

    def test_zero_coefs_give_bias(self):
        m = LssvmModel(
            kernel=KernelSpec("rbf", sigma=1.0),
            inputs=np.array([[0.0], [1.0]]),
            coefs=np.zeros(2),
            bias=1.5,
            kkt_residual=0.0,
        )
        assert predict_batch(m, [[0.3]])[0] == 1.5

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(-1.0, 1.0, (10, 2))
        y = rng.uniform(-1.0, 1.0, 10)
        m = fit(x, y, KernelSpec("rbf", sigma=1.0), gamma=50.0)
        probe = rng.uniform(-1.0, 1.0, (6, 2))
        # each row is the kernel expansion, bit for bit
        loop = [float(m.coefs @ kernel_column(m.kernel, m.inputs, p) + m.bias) for p in probe]
        assert predict_batch(m, probe).tolist() == loop

    def test_batch_shape(self):
        m = fit(np.ones((2, 2)) * np.arange(2)[:, None], np.arange(2.0), KernelSpec("linear"))
        with pytest.raises(ShapeError):
            predict_batch(m, np.ones((3, 5)))
