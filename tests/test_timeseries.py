"""Loading, windowing, splitting, and scaling behavior."""

import math
import re
import warnings
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from conftest import weekly_series
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fivecast import grnn, linalg
from fivecast.errors import (
    DomainError,
    FivecastError,
    IoError,
    OrderError,
    ParseError,
    ShapeError,
)
from fivecast.evaluate import lag_one_analysis, mape, mse
from fivecast.kernels import KernelSpec, kernel_column
from fivecast.timeseries import (
    MinMaxScaler,
    PriceSeries,
    WindowedDataset,
    as_count,
    as_real,
    fit_scaler,
    load_csv,
    make_windows,
    split,
)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)
# each example rewrites the same file under tmp_path
FUZZ_SETTINGS = settings(
    PROPERTY_SETTINGS,
    max_examples=1500,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def write_csv(path, rows, header="date,close"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestPriceSeries:
    def test_holds_given_values(self):
        s = weekly_series([2.0, 2.1, 2.2])
        npt.assert_array_equal(s.prices, [2.0, 2.1, 2.2])
        assert len(s) == 3

    def test_prices_read_only(self):
        s = weekly_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.prices[0] = 5.0

    def test_date_count_must_match(self):
        with pytest.raises(ShapeError):
            PriceSeries((date(2020, 1, 1),), np.array([1.0, 2.0]))

    def test_rejects_nonpositive_price(self):
        with pytest.raises(DomainError):
            weekly_series([1.0, 0.0, 2.0])
        with pytest.raises(DomainError):
            weekly_series([1.0, -3.0])

    def test_rejects_nonfinite_price(self):
        with pytest.raises(DomainError):
            weekly_series([1.0, np.nan])
        with pytest.raises(DomainError):
            weekly_series([np.inf, 1.0])

    def test_rejects_unordered_dates(self):
        d = date(2020, 1, 1)
        with pytest.raises(OrderError):
            PriceSeries((d, d), np.array([1.0, 2.0]))
        with pytest.raises(OrderError):
            PriceSeries((d, d - timedelta(days=1)), np.array([1.0, 2.0]))


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        p = write_csv(tmp_path / "boc.csv", ["2006-01-03,2.00", "2006-01-10,2.10"])
        s = load_csv(p)
        assert len(s) == 2
        npt.assert_array_equal(s.prices, [2.0, 2.1])
        assert s.dates == (date(2006, 1, 3), date(2006, 1, 10))

    def test_observed_range_preserved(self, tmp_path):
        # lowest close 2.00, highest 5.01
        rows = ["2006-01-03,3.10", "2006-01-10,2.00", "2006-01-17,5.01", "2006-01-24,4.20"]
        s = load_csv(write_csv(tmp_path / "a.csv", rows))
        assert s.prices.min() == 2.00
        assert s.prices.max() == 5.01

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_csv(p)

    def test_header_only_file(self, tmp_path):
        with pytest.raises(DomainError):
            load_csv(write_csv(tmp_path / "h.csv", []))

    def test_wrong_header(self, tmp_path):
        p = write_csv(tmp_path / "w.csv", ["2006-01-03,2.00"], header="day,price")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(p)

    def test_header_case_and_spaces_tolerated(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", ["2006-01-03,2.00"], header="Date, Close")
        assert len(load_csv(p)) == 1

    def test_bom_tolerated(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,close\n2006-01-03,2.00\n")
        assert len(load_csv(p)) == 1

    def test_blank_lines_skipped(self, tmp_path):
        p = write_csv(
            tmp_path / "g.csv", ["2006-01-03,2.00", "", "2006-01-10,2.10", ""]
        )
        assert len(load_csv(p)) == 2

    def test_bad_date_reports_row_number(self, tmp_path):
        # header is row 1, so the offending data row is row 3
        rows = ["2006-01-03,2.00", "not-a-date,2.10"]
        with pytest.raises(ParseError, match="row 3"):
            load_csv(write_csv(tmp_path / "d.csv", rows))

    def test_bad_close_reports_row_number(self, tmp_path):
        rows = ["2006-01-03,2.00", "2006-01-10,two"]
        with pytest.raises(ParseError, match="row 3"):
            load_csv(write_csv(tmp_path / "n.csv", rows))

    def test_wrong_field_count(self, tmp_path):
        rows = ["2006-01-03,2.00,extra"]
        with pytest.raises(ParseError, match="row 2"):
            load_csv(write_csv(tmp_path / "f.csv", rows))

    def test_repeated_date(self, tmp_path):
        rows = ["2006-01-03,2.00", "2006-01-03,2.10"]
        with pytest.raises(OrderError):
            load_csv(write_csv(tmp_path / "r.csv", rows))

    def test_decreasing_date(self, tmp_path):
        rows = ["2006-01-10,2.00", "2006-01-03,2.10"]
        with pytest.raises(OrderError, match="row 3"):
            load_csv(write_csv(tmp_path / "o.csv", rows))

    def test_nonpositive_close(self, tmp_path):
        with pytest.raises(DomainError, match="row 2"):
            load_csv(write_csv(tmp_path / "z.csv", ["2006-01-03,0.0"]))
        with pytest.raises(DomainError):
            load_csv(write_csv(tmp_path / "m.csv", ["2006-01-03,-1.5"]))

    def test_nonfinite_close(self, tmp_path):
        with pytest.raises(DomainError):
            load_csv(write_csv(tmp_path / "i.csv", ["2006-01-03,inf"]))
        with pytest.raises(DomainError):
            load_csv(write_csv(tmp_path / "na.csv", ["2006-01-03,nan"]))


VALID_CSV = b"date,close\n2006-01-03,2.00\n2006-01-10,2.10\n2006-01-17,1.95\n"


def load_or_typed_error(path, data: bytes):
    """Load data from path; a FivecastError counts as a clean refusal, and
    any other exception or any warning fails the test."""
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            series = load_csv(path)
        except FivecastError:
            return
    assert isinstance(series, PriceSeries)


class TestLoadFuzz:
    @FUZZ_SETTINGS
    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path, data):
        load_or_typed_error(tmp_path / "fuzz.csv", data)

    @FUZZ_SETTINGS
    @given(
        inserts=st.lists(
            st.tuples(st.integers(0, len(VALID_CSV)), st.binary(min_size=1, max_size=4)),
            min_size=1,
            max_size=4,
        )
    )
    def test_valid_file_with_inserted_bytes(self, tmp_path, inserts):
        data = VALID_CSV
        for at, chunk in inserts:
            data = data[:at] + chunk + data[at:]
        load_or_typed_error(tmp_path / "fuzz.csv", data)


class TestMakeWindows:
    def test_tiny_series_by_hand(self):
        ds = make_windows(weekly_series([1, 2, 3, 4, 5]), lags=3)
        npt.assert_array_equal(ds.inputs, [[1, 2, 3], [2, 3, 4]])
        npt.assert_array_equal(ds.targets, [4, 5])
        assert ds.split_index is None

    def test_sample_count(self):
        prices = np.linspace(1.0, 2.0, 427)
        ds = make_windows(weekly_series(prices), lags=3)
        assert len(ds) == 424

    def test_too_short(self):
        with pytest.raises(DomainError):
            make_windows(weekly_series([1, 2, 3]), lags=3)

    def test_bad_lags(self):
        with pytest.raises(DomainError):
            make_windows(weekly_series([1, 2, 3, 4]), lags=0)
        with pytest.raises(DomainError, match=r"^lags must be an integer, got 2\.5$"):
            make_windows(weekly_series([1, 2, 3, 4]), 2.5)

    def test_window_contents_match_slices(self):
        rng = np.random.default_rng(4)
        prices = rng.uniform(1.0, 9.0, size=40)
        for lags in (1, 2, 3, 5):
            ds = make_windows(weekly_series(prices), lags=lags)
            assert len(ds) == 40 - lags
            for i in range(len(ds)):
                npt.assert_array_equal(ds.inputs[i], prices[i : i + lags])
                assert ds.targets[i] == prices[i + lags]

    def test_reconstruction(self):
        # first window plus the target sequence is the original series
        rng = np.random.default_rng(9)
        prices = rng.uniform(1.0, 9.0, size=30)
        ds = make_windows(weekly_series(prices), lags=3)
        rebuilt = np.concatenate([ds.inputs[0], ds.targets])
        npt.assert_array_equal(rebuilt, prices)


class TestSettingRules:
    def test_count(self):
        assert as_count(np.int64(3), "k", 1) == 3
        assert as_count(-5, "k") == -5  # no bound unless one is given
        with pytest.raises(DomainError, match=r"^k must be >= 1, got 0$"):
            as_count(0, "k", 1)
        for bad in (2.0, "2", None):
            with pytest.raises(DomainError, match=rf"^k must be an integer, got {re.escape(repr(bad))}$"):
                as_count(bad, "k")

    def test_real(self):
        assert as_real(0, "eta") == 0.0 and type(as_real(np.float32(0.5), "eta")) is float
        assert as_real(5e-324, "beta", positive=True) == 5e-324
        with pytest.raises(DomainError, match=r"^beta must be finite and > 0, got 0$"):
            as_real(0, "beta", positive=True)
        # an int past float64's range is not finite there
        with pytest.raises(DomainError, match=r"^eta must be finite and >= 0, got 1000"):
            as_real(10**400, "eta")
        with pytest.raises(DomainError, match=r"^eta must be finite and >= 0, got -1000"):
            as_real(-(10**400), "eta")
        for bad in ("0.5", None, 1j, np.array([0.5])):
            with pytest.raises(DomainError, match=r"^eta must be a real number, got "):
                as_real(bad, "eta")


class TestSplit:
    def test_default_fraction(self):
        prices = np.linspace(1.0, 2.0, 427)
        ds = split(make_windows(weekly_series(prices)))
        assert ds.split_index == 339  # floor(0.8 * 424)
        assert ds.train_inputs.shape[0] == 339
        assert ds.test_inputs.shape[0] == 85

    def test_half_of_ten(self):
        prices = np.linspace(1.0, 2.0, 13)  # 10 samples
        ds = split(make_windows(weekly_series(prices)), 0.5)
        assert ds.split_index == 5

    def test_empty_train_side(self):
        prices = np.linspace(1.0, 2.0, 5)  # 2 samples
        with pytest.raises(DomainError):
            split(make_windows(weekly_series(prices)), 0.1)

    def test_fraction_bounds(self):
        ds = make_windows(weekly_series(np.linspace(1, 2, 10)))
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                split(ds, frac)

    def test_fraction_that_is_not_a_number(self):
        ds = make_windows(weekly_series(np.linspace(1, 2, 10)))
        with pytest.raises(DomainError, match=r"^train_fraction must be a real number, got '0\.8'$"):
            split(ds, "0.8")

    def test_partition_is_chronological(self):
        rng = np.random.default_rng(2)
        prices = rng.uniform(1.0, 9.0, size=25)
        ds = split(make_windows(weekly_series(prices)), 0.7)
        npt.assert_array_equal(
            np.vstack([ds.train_inputs, ds.test_inputs]), ds.inputs
        )
        npt.assert_array_equal(
            np.concatenate([ds.train_targets, ds.test_targets]), ds.targets
        )
        # every training row ends before the first test target's source index
        assert ds.train_targets.shape[0] + ds.test_targets.shape[0] == len(ds)

    def test_unsplit_access(self):
        ds = make_windows(weekly_series([1, 2, 3, 4, 5]))
        with pytest.raises(DomainError):
            ds.train_inputs


@PROPERTY_SETTINGS
@given(
    prices=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=60),
    lags=st.integers(1, 8),
    fraction=st.floats(0.01, 0.99),
)
def test_window_and_split_invariants(prices, lags, fraction):
    series = weekly_series(prices)
    if len(prices) <= lags:
        with pytest.raises(DomainError):
            make_windows(series, lags)
        return
    windows = make_windows(series, lags)
    n = len(prices) - lags
    assert len(windows) == n
    k = math.floor(fraction * n)
    if not 0 < k < n:
        with pytest.raises(DomainError):
            split(windows, fraction)
        return
    ds = split(windows, fraction)
    assert ds.train_inputs.shape[0] == ds.train_targets.shape[0] == k
    npt.assert_array_equal(np.vstack([ds.train_inputs, ds.test_inputs]), windows.inputs)
    npt.assert_array_equal(np.concatenate([ds.train_targets, ds.test_targets]), windows.targets)


def _grnn_model():
    return grnn.fit(np.ones((4, 3)), np.ones(4), beta=1.0)


# Every entry point whose vector argument goes through as_vector, called
# with v where a vector of 3 entries belongs.
_VECTOR_ARGUMENTS = {
    "kernel_column": lambda v: kernel_column(KernelSpec("linear"), np.ones((4, 3)), v),
    "grnn.predict": lambda v: grnn.predict(_grnn_model(), v),
    "grnn.observe": lambda v: grnn.observe(_grnn_model(), v, 1.0),
    "linalg.solve": lambda v: linalg.solve(np.eye(3), v),
    "mse": lambda v: mse(np.ones(3), v),
    "mape": lambda v: mape(np.ones(3), v),
    "lag_one_analysis": lambda v: lag_one_analysis(np.ones(3), v),
    "PriceSeries": lambda v: PriceSeries(weekly_series(np.ones(3)).dates, v),
    "WindowedDataset": lambda v: WindowedDataset(np.ones((3, 2)), v),
}


@pytest.mark.parametrize("entry", list(_VECTOR_ARGUMENTS))
@pytest.mark.parametrize("bad", [np.ones((3, 1)), np.ones(2)], ids=["2-D", "wrong length"])
def test_vector_arguments_are_checked(entry, bad):
    _VECTOR_ARGUMENTS[entry](np.ones(3))  # the right shape passes
    with pytest.raises(FivecastError) as info:
        _VECTOR_ARGUMENTS[entry](bad)
    assert type(info.value) is ShapeError


EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).smallest_subnormal)
MAX = float(np.finfo(np.float64).max)
# scaler bounds and values: magnitudes from 1e-300 to 1e300, either sign
signed_magnitudes = st.builds(
    lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), st.floats(1e-300, 1e300)
)


class TestScaler:
    def test_endpoints(self):
        sc = fit_scaler(np.array([3.1, 2.00, 5.01, 4.2]))
        assert sc.transform(2.00) == 0.0
        assert sc.transform(5.01) == 1.0

    def test_round_trip(self):
        sc = fit_scaler(np.array([2.0, 5.01]))
        npt.assert_allclose(sc.inverse(sc.transform(3.3)), 3.3, rtol=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.lists(signed_magnitudes, min_size=2, max_size=2, unique=True),
        st.lists(signed_magnitudes, max_size=8),
    )
    def test_round_trip_sweep(self, bounds, values):
        lo, hi = sorted(bounds)
        sc = MinMaxScaler(lo, hi)
        assert sc.transform(lo) == 0.0
        assert sc.transform(hi) == 1.0
        span = hi - lo  # as the scaler rounds it; it cannot overflow here
        for v in [lo, hi, *values]:
            d = v - lo
            # the transform rounds d / span once: past the largest float64
            # (2**1024 less half its last place) the scaler must refuse
            if abs(Fraction(d) / Fraction(span)) >= 2**1024 - 2**970:
                with pytest.raises(DomainError, match="scaled values overflow float64"):
                    sc.transform(v)
                continue
            back = float(sc.inverse(sc.transform(v)))
            # five roundings of at most half an ulp each, relative to |d| or
            # |v|, plus absolute half-subnormal ones where the scaled value
            # or its product underflow; the latter are magnified by the span
            bound = 4 * EPS * (abs(d) + abs(v)) + TINY * (span + 2)
            assert abs(back - v) <= bound, (lo, hi, v, back)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(st.floats(9e307, MAX), st.floats(9e307, MAX), st.floats(0.0, 1.0))
    def test_overflowing_span_is_a_domain_error(self, minus_lo, hi, t):
        sc = MinMaxScaler(-minus_lo, hi)
        assert hi - (-minus_lo) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="scaled values overflow float64"):
                sc.transform(hi)
            with pytest.raises(DomainError, match="scaled values overflow float64"):
                sc.inverse(t)

    def test_no_clamping(self):
        sc = MinMaxScaler(0.0, 1.0)
        assert sc.transform(2.0) == 2.0
        assert sc.transform(-1.0) == -1.0

    def test_overflow_is_a_domain_error(self):
        sc = MinMaxScaler(0.0, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="scaled values overflow float64"):
                sc.transform([0.5e-300, 1e10])
            with pytest.raises(DomainError, match="scaled values overflow float64"):
                MinMaxScaler(0.0, 1e300).inverse([0.5, 1e10])

    def test_degenerate_input(self):
        with pytest.raises(DomainError):
            fit_scaler(np.array([4.0, 4.0, 4.0]))
        with pytest.raises(DomainError):
            fit_scaler(np.array([4.0]))
        with pytest.raises(DomainError):
            fit_scaler(np.array([1.0, np.nan]))

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            MinMaxScaler(2.0, 2.0)
        with pytest.raises(DomainError):
            MinMaxScaler(3.0, 1.0)
        with pytest.raises(DomainError):
            MinMaxScaler(0.0, np.inf)
