"""Kernel evaluation, gram matrices, and the width heuristic."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fivecast.errors import DomainError, ShapeError
from fivecast.kernels import (
    KernelSpec,
    expansion,
    gram,
    gram_sq_dists,
    kernel_column,
    median_pairwise_distance,
    sq_dists,
)
from fivecast.timeseries import as_rows

ALL_SPECS = (
    KernelSpec("linear"),
    KernelSpec("poly", degree=2),
    KernelSpec("poly", degree=3, poly_c=2.5),
    KernelSpec("rbf", sigma=1.0),
    KernelSpec("rbf", sigma=0.3),
    KernelSpec("mlp"),
    KernelSpec("mlp", mlp_k=0.5, mlp_theta=-1.0),
)


def kernel_value(spec, a, b) -> float:
    """K(a, b) for two equal-length vectors, one pair at a time: the
    pointwise reference for kernel columns and gram matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"need two vectors of one length, got {a.shape} and {b.shape}")
    if spec.kind == "linear":
        return float(a @ b)
    if spec.kind == "poly":
        return float((1.0 + (a @ b) / spec.poly_c) ** spec.degree)
    if spec.kind == "rbf":
        d = a - b
        return float(np.exp(-(d @ d) / (spec.sigma * spec.sigma)))
    return float(np.tanh(spec.mlp_k * (a @ b) + spec.mlp_theta))


def evaluate(spec, a, b) -> float:
    """K(a, b) through kernel_column on the single row a."""
    return float(kernel_column(spec, np.asarray(a, dtype=np.float64)[None], b)[0])


class TestEvaluate:
    def test_linear_by_hand(self):
        assert evaluate(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_poly_by_hand(self):
        # (1 + 1/1)^2 = 4
        v = evaluate(KernelSpec("poly", degree=2), [1.0, 0.0], [1.0, 0.0])
        assert v == 4.0

    def test_poly_offset_by_hand(self):
        # (1 + 6/2)^3 = 64
        v = evaluate(KernelSpec("poly", degree=3, poly_c=2.0), [1.0, 1.0], [2.0, 4.0])
        npt.assert_allclose(v, 64.0)

    def test_rbf_same_point(self):
        assert evaluate(KernelSpec("rbf", sigma=0.7), [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_by_hand(self):
        # |a-b|^2 = 4, sigma^2 = 4
        v = evaluate(KernelSpec("rbf", sigma=2.0), [0.0, 0.0], [2.0, 0.0])
        npt.assert_allclose(v, math.exp(-1.0))

    def test_mlp_by_hand(self):
        v = evaluate(KernelSpec("mlp", mlp_k=2.0, mlp_theta=0.5), [1.0], [3.0])
        npt.assert_allclose(v, math.tanh(6.5))

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for spec in ALL_SPECS:
            for _ in range(10):
                a = rng.standard_normal(3)
                b = rng.standard_normal(3)
                assert evaluate(spec, a, b) == evaluate(spec, b, a)

    def test_rbf_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            v = evaluate(KernelSpec("rbf", sigma=1.3), a, b)
            assert 0.0 < v <= 1.0
            if v == 1.0:
                npt.assert_array_equal(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate(KernelSpec("linear"), [1.0], [1.0, 2.0])

    def test_non_vector(self):
        with pytest.raises(ShapeError):
            evaluate(KernelSpec("linear"), [[1.0]], [[1.0]])


class TestKernelColumn:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((6, 3))
        x = rng.standard_normal(3)
        for spec in ALL_SPECS:
            col = kernel_column(spec, rows, x)
            expected = np.array([kernel_value(spec, rows[i], x) for i in range(6)])
            npt.assert_allclose(col, expected, rtol=1e-14)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_column(KernelSpec("linear"), np.ones((3, 2)), np.ones(3))


class TestGram:
    def test_linear_by_hand(self):
        g = gram(KernelSpec("linear"), np.array([[0.0], [2.0]]))
        npt.assert_array_equal(g, [[0.0, 0.0], [0.0, 4.0]])

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        for spec in ALL_SPECS:
            rows = rng.standard_normal((7, 3))
            g = gram(spec, rows)
            npt.assert_array_equal(g, g.T)

    def test_matches_pointwise(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((5, 2))
        for spec in ALL_SPECS:
            g = gram(spec, rows)
            for i in range(5):
                for j in range(5):
                    npt.assert_allclose(
                        g[i, j], kernel_value(spec, rows[i], rows[j]), rtol=1e-12
                    )

    def test_rbf_unit_diagonal(self):
        rng = np.random.default_rng(13)
        g = gram(KernelSpec("rbf", sigma=0.9), rng.standard_normal((8, 3)))
        npt.assert_array_equal(np.diag(g), np.ones(8))

    def test_positive_semidefinite(self):
        # quadratic form stays nonnegative for the psd families
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((10, 3))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", sigma=1.0)):
            g = gram(spec, rows)
            for _ in range(20):
                x = rng.standard_normal(10)
                assert x @ g @ x >= -1e-8

    def test_non_matrix(self):
        with pytest.raises(ShapeError):
            gram(KernelSpec("linear"), np.ones(3))

    def test_overflow_is_a_domain_error_naming_the_kernel(self):
        # (1 + 10 * 20)^600 is far beyond float64
        rows = np.array([[10.0], [20.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="poly kernel"):
                gram(KernelSpec("poly", degree=600), rows)


class TestExpansion:
    def test_by_hand(self):
        rows = np.array([[1.0, 2.0], [3.0, -1.0]])
        got = expansion(KernelSpec("linear"), rows, np.array([0.5, -2.0]), 0.25, [[2.0, 1.0]])
        assert got.tolist() == [0.5 * 4.0 - 2.0 * 5.0 + 0.25]

    def test_column_overflow_is_a_domain_error_naming_the_kernel(self):
        # (1 + 10 * 20)^600 is far beyond float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="poly kernel column has non-finite entries"):
                expansion(KernelSpec("poly", degree=600), np.array([[10.0]]), np.ones(1), 0.0, [[20.0]])

    def test_sum_overflow_is_a_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="linear kernel expansion overflows"):
                expansion(KernelSpec("linear"), np.ones((2, 1)), np.full(2, 1e308), 0.0, [[1.0]])


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            KernelSpec("sigmoid")

    def test_bad_poly(self):
        with pytest.raises(DomainError):
            KernelSpec("poly", degree=0)
        with pytest.raises(DomainError):
            KernelSpec("poly", degree=2, poly_c=0.0)

    def test_poly_degree_that_is_not_an_integer(self):
        # not a kernel (1 + a.b)^2.5
        with pytest.raises(DomainError, match=r"^polynomial degree must be an integer, got 2\.5$"):
            KernelSpec("poly", degree=2.5)

    def test_bad_rbf(self):
        with pytest.raises(DomainError):
            KernelSpec("rbf", sigma=0.0)
        with pytest.raises(DomainError):
            KernelSpec("rbf", sigma=-1.0)

    def test_rbf_width_that_is_not_a_number(self):
        with pytest.raises(DomainError, match=r"^rbf width must be a real number, got '1'$"):
            KernelSpec("rbf", sigma="1")

    def test_tanh_parameters_that_are_not_numbers(self):
        with pytest.raises(DomainError, match=r"^tanh kernel slope must be a real number, got '1'$"):
            KernelSpec("mlp", mlp_k="1")
        with pytest.raises(DomainError, match=r"^tanh kernel offset must be a real number, got None$"):
            KernelSpec("mlp", mlp_theta=None)

    def test_rbf_width_whose_square_underflows(self):
        # 1e-300 ** 2 is 0.0, so the kernel would divide by zero
        with pytest.raises(DomainError, match="nonzero square"):
            KernelSpec("rbf", sigma=1e-300)
        assert KernelSpec("rbf", sigma=1e-150).sigma == 1e-150

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_of_the_kind_in_use(self, value):
        with pytest.raises(DomainError, match="polynomial offset must be finite"):
            KernelSpec("poly", degree=2, poly_c=value)
        with pytest.raises(DomainError, match="rbf width"):
            KernelSpec("rbf", sigma=value)
        with pytest.raises(DomainError, match="tanh kernel slope and offset must be finite"):
            KernelSpec("mlp", mlp_k=value)
        with pytest.raises(DomainError, match="tanh kernel slope and offset must be finite"):
            KernelSpec("mlp", mlp_theta=value)
        # parameters of other kinds are not read, so they are not checked
        assert KernelSpec("linear", poly_c=value, sigma=value, mlp_k=value).kind == "linear"

    def test_rbf_width_whose_square_overflows(self):
        # 1e200 ** 2 is inf, so every kernel entry would be exp(-0) = 1
        with pytest.raises(DomainError, match="finite square"):
            KernelSpec("rbf", sigma=1e200)
        assert KernelSpec("rbf", sigma=1e150).sigma == 1e150

    # An integer past float64's range counts as inf of its sign, as in
    # as_real, so it gets the message an infinite float gets.

    def test_tanh_slope_past_float_range(self):
        with pytest.raises(DomainError, match=r"^tanh kernel slope and offset must be finite, got 1000"):
            KernelSpec("mlp", mlp_k=10**400)

    def test_tanh_offset_past_float_range(self):
        with pytest.raises(DomainError, match=r"^tanh kernel slope and offset must be finite, got 1\.0, -1000"):
            KernelSpec("mlp", mlp_theta=-(10**400))

    def test_rbf_width_past_float_range(self):
        # gram would divide by sigma^2, an int that no float holds
        with pytest.raises(DomainError, match=r"^rbf width must have a finite square, got 1000"):
            KernelSpec("rbf", sigma=10**400)
        with pytest.raises(DomainError, match=r"^rbf width must have a finite square, got 1000"):
            KernelSpec("rbf", sigma=10**200)
        with pytest.raises(DomainError, match=r"^rbf width must be > 0 with a nonzero square, got -1000"):
            KernelSpec("rbf", sigma=-(10**400))

    def test_poly_degree_past_float_range(self):
        # the kernels raise a float64 to the degree, which no float64 holds
        with pytest.raises(DomainError, match=r"^polynomial degree must be finite as a float64, got 1000"):
            KernelSpec("poly", degree=10**400)
        assert KernelSpec("poly", degree=10**308).degree == 10**308


class TestMedianPairwiseDistance:
    def test_by_hand(self):
        rows = np.array([[0.0], [3.0], [4.0]])
        # pair distances 3, 4, 1 -> median 3
        assert median_pairwise_distance(rows) == 3.0

    def test_two_rows(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0]])
        npt.assert_allclose(median_pairwise_distance(rows), 5.0)

    def test_coincident_rows_fall_back(self):
        assert median_pairwise_distance(np.ones((4, 2))) == 1.0

    def test_single_row(self):
        with pytest.raises(DomainError):
            median_pairwise_distance(np.ones((1, 2)))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_median_of_all_distances(self, n):
        # n (n - 1) / 2 pairs: odd and even counts; rounded entries make
        # duplicate rows and tied distances
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, 3))
        if n % 3 == 0:
            rows = np.round(rows, 1)
        if n % 4 == 0:
            rows[n // 2 :] = rows[: n - n // 2]
        assert median_pairwise_distance(rows) == reference_median(rows)

    def test_negative_rounded_squares(self):
        # large, nearly equal rows: the product form leaves negative
        # squared distances, which count as zero
        rng = np.random.default_rng(3)
        rows = 1e8 + rng.standard_normal((30, 3)) * 1e-4
        assert (gram_sq_dists(rows)[np.triu_indices(30, k=1)] < 0.0).any()
        assert median_pairwise_distance(rows) == reference_median(rows)

    def test_mostly_coincident_rows_fall_back(self):
        rows = np.zeros((6, 2))
        rows[0] = 1.0  # 5 of the 15 pairs are apart: the median is 0
        assert reference_median(rows) == 1.0
        assert median_pairwise_distance(rows) == 1.0

    def test_overflowing_squares_fall_back(self):
        # the rows' squares overflow, so d2 holds NaN and np.median is NaN
        rows = np.array([[1e200, 0.0], [2e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert median_pairwise_distance(rows) == 1.0
        assert reference_median(rows) == 1.0


def previous_median(rows) -> float:
    """median_pairwise_distance before it partitioned the whole matrix,
    verbatim: the pairs above the diagonal, concatenated, then one
    partition."""
    rows = as_rows(rows)
    n = rows.shape[0]
    if n < 2:
        raise DomainError("need at least two rows")
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = gram_sq_dists(rows)
    pairs = np.concatenate([d2[i, i + 1 :] for i in range(n - 1)])
    if np.isnan(pairs.max()):
        return 1.0
    half = pairs.size // 2
    pairs.partition(half)  # one kth: numpy partitions at two several times slower
    hi = pairs[half]
    lo = pairs[:half].max() if pairs.size % 2 == 0 else hi
    lo, hi = np.sqrt(np.maximum([lo, hi], 0.0))
    med = float((lo + hi) / 2)
    return med if med > 0.0 else 1.0


@st.composite
def median_rows(draw):
    """2 to 150 rows of up to 4 columns, some of them repeated, from a
    few distinct values, so that distances tie; some entries' squares
    overflow."""
    n = draw(st.integers(2, 150))
    d = draw(st.integers(1, 4))
    values = draw(st.lists(_DIST_ENTRIES, min_size=1, max_size=6))
    rows = draw(arrays(np.float64, (n, d), elements=st.sampled_from(values)))
    return rows[draw(arrays(np.intp, n, elements=st.integers(0, n - 1)))]


class TestMedianAgainstPreviousSelection:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(median_rows())
    def test_same_bits_as_the_pairs_partition(self, rows):
        got = median_pairwise_distance(rows)
        assert np.float64(got).tobytes() == np.float64(previous_median(rows)).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 200, 1117])
    def test_same_bits_on_uniform_lag_windows(self, n):
        rows = np.random.default_rng(n).uniform(0.0, 1.0, (n, 3))
        assert median_pairwise_distance(rows) == previous_median(rows)


def reference_median(rows) -> float:
    """median_pairwise_distance's former expression over every pair's
    index, the reference for its selection.  Overflowing rows warn in
    gram_sq_dists, so the warnings are silenced here only."""
    n = rows.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = gram_sq_dists(rows)
        iu = np.triu_indices(n, k=1)
        med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0


def reference_sq_dists(a, b):
    """sq_dists over the (n, m, d) differences, the reference for its
    column-by-column sum."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=2)


# zeros of both signs, squares that overflow to inf, subnormals and
# ordinary values
_DIST_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1.5e-320, -5e-324, 2.2e-308]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def row_blocks(draw):
    d = draw(st.integers(0, 7))
    a = draw(arrays(np.float64, (draw(st.integers(1, 60)), d), elements=_DIST_ENTRIES))
    b = draw(arrays(np.float64, (draw(st.integers(1, 60)), d), elements=_DIST_ENTRIES))
    return a, b


def reference_gram_sq_dists(rows):
    """gram_sq_dists's former whole-matrix expression, the reference for
    its blocks written in place."""
    sq = np.sum(rows * rows, axis=1)
    return sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)


@st.composite
def gram_rows(draw):
    """Row counts on both sides of the 64-row block edges, with repeated
    rows drawn by index."""
    n = draw(st.sampled_from([1, 63, 64, 65, 129]))
    rows = draw(arrays(np.float64, (n, draw(st.integers(0, 4))), elements=_DIST_ENTRIES))
    return rows[draw(arrays(np.intp, n, elements=st.integers(0, n - 1)))]


class TestGramSqDists:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(gram_rows())
    # squares that overflow: inf - inf is NaN on the diagonal, inf elsewhere
    @example(np.array([[1e200], [1e200], [1.0], [-0.0], [5e-324]]))
    def test_same_bytes_as_the_whole_matrix_form(self, rows):
        with np.errstate(over="ignore", invalid="ignore"):
            got = gram_sq_dists(rows)
            want = reference_gram_sq_dists(rows)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        # exactly symmetric, which median_pairwise_distance relies on
        assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()

    def test_by_hand(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        assert gram_sq_dists(rows).tolist() == [[0.0, 25.0, 1.0], [25.0, 0.0, 20.0], [1.0, 20.0, 0.0]]


class TestSqDists:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(row_blocks())
    def test_same_bytes_as_the_differences_form(self, blocks):
        a, b = blocks
        with np.errstate(over="ignore"):
            got = sq_dists(a, b)
            want = reference_sq_dists(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_by_hand(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0]])
        assert sq_dists(a, b).tolist() == [[25.0], [13.0]]


def previous_rbf_column(spec, rows, x):
    """The rbf kernel column as it was built before the row blocks, one
    row's differences summed over their last axis: the reference for
    every rbf value the package computes."""
    diff = rows - x
    return np.exp(-np.sum(diff * diff, axis=1) / (spec.sigma * spec.sigma))


def previous_rbf_gram(spec, rows):
    """The rbf kernel matrix one row's column at a time, mirrored."""
    n = rows.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        col = previous_rbf_column(spec, rows[i:], rows[i])
        out[i, i:] = col
        out[i:, i] = col
    return out


def previous_rbf_expansion(spec, rows, coefs, bias, inputs):
    """The rbf kernel expansion one input row's column at a time."""
    return np.array([float(coefs @ previous_rbf_column(spec, rows, x) + bias) for x in inputs])


# widths whose squares are tiny, ordinary and huge but finite
_SIGMAS = (1e-150, 1e-3, 0.3, 1.0, 7.5, 1e150)


@st.composite
def rbf_cases(draw):
    """Training rows on both sides of the 64-row block edges, 1 to 7
    columns and repeated rows drawn by index, and input rows on both
    sides of the block edges drawn from the training rows and new ones.
    Entries are either hypothesis's edge values or seeded normal draws,
    whose sums round differently in any other order."""
    d = draw(st.integers(1, 7))
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 129]))
    m = draw(st.sampled_from([1, 5, 64, 65, 130]))
    if draw(st.booleans()):
        pool = draw(arrays(np.float64, (n + m, d), elements=_DIST_ENTRIES))
    else:
        pool = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n + m, d))
    rows = pool[draw(arrays(np.intp, n, elements=st.integers(0, n - 1)))]
    pool[:n] = rows
    inputs = pool[draw(arrays(np.intp, m, elements=st.integers(0, n + m - 1)))]
    spec = KernelSpec("rbf", sigma=draw(st.sampled_from(_SIGMAS)))
    return spec, rows, inputs


class TestRbfBlocksAgainstRowLoop:
    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(rbf_cases())
    def test_gram_has_the_row_loop_bits(self, case):
        spec, rows, _ = case
        with np.errstate(over="ignore"):
            want = previous_rbf_gram(spec, rows)
        got = gram(spec, rows)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(rbf_cases())
    def test_kernel_column_has_the_row_loop_bits(self, case):
        spec, rows, inputs = case
        for x in inputs[:3]:
            with np.errstate(over="ignore"):
                want = previous_rbf_column(spec, rows, x)
                got = kernel_column(spec, rows, x)
            assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(rbf_cases(), st.integers(0, 2**32 - 1))
    def test_expansion_has_the_row_loop_bits(self, case, seed):
        spec, rows, inputs = case
        rng = np.random.default_rng(seed)
        coefs = rng.standard_normal(rows.shape[0])
        with np.errstate(over="ignore"):
            want = previous_rbf_expansion(spec, rows, coefs, 0.25, inputs)
        assert expansion(spec, rows, coefs, 0.25, inputs).tobytes() == want.tobytes()

    def test_gram_over_lag_windows_is_exactly_symmetric(self):
        # long-lag's shape: 1117 rows of 3 lags, a median-like width
        rows = np.random.default_rng(5).uniform(0.0, 1.0, (1117, 3))
        spec = KernelSpec("rbf", sigma=0.4)
        got = gram(spec, rows)
        assert got.tobytes() == np.ascontiguousarray(got.T).tobytes()
        assert got.tobytes() == previous_rbf_gram(spec, rows).tobytes()

    def test_a_sum_overflow_before_a_bad_column_is_reported_first(self):
        # the rows are checked in order, each column before its sum, even
        # inside one block of input rows
        rows = np.zeros((2, 1))
        spec = KernelSpec("rbf", sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="rbf kernel expansion overflows"):
                expansion(spec, rows, np.full(2, 1e308), 0.0, [[0.0], [np.nan]])
            with pytest.raises(DomainError, match="rbf kernel column has non-finite entries"):
                expansion(spec, rows, np.full(2, 1e308), 0.0, [[np.nan], [0.0]])
