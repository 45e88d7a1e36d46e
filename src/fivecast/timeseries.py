"""Price series loading and the sliding-window regression pipeline.

Input files are UTF-8 CSVs with the exact header ``date,close``: one row
per trading week, ISO dates strictly increasing, closes strictly positive.
A series of N prices becomes N - lags supervised samples; each input is a
run of consecutive prices and the target is the price that follows it.
Every model takes such a sample block through :func:`as_rows` and
:func:`as_samples`, and every single point, target or metric argument
through :func:`as_vector`, so the package shares one set of input checks.
Settings share two rules: :func:`as_count` for an integer with an
optional lower bound (seeds, sizes, lags), and :func:`as_real` for a
finite real that is >= 0 or > 0 (rates, smoothing, regularization).
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DomainError, IoError, OrderError, ParseError, ShapeError

EXPECTED_HEADER = ("date", "close")


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PriceSeries:
    """A dated, strictly positive weekly close series for one instrument."""

    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = as_vector(self.prices, len(self.dates), name="prices")
        object.__setattr__(self, "prices", _frozen(prices))
        if not np.all(np.isfinite(self.prices)):
            raise DomainError("prices must be finite")
        if np.any(self.prices <= 0.0):
            raise DomainError("prices must be strictly positive")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise OrderError(f"dates not strictly increasing at {cur}")

    def __len__(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised samples cut from one series, optionally split in time.

    ``split_index`` is the count of training samples; everything after it
    is the test block.  It is None until :func:`split` assigns it.
    """

    inputs: np.ndarray
    targets: np.ndarray
    split_index: int | None = None

    def __post_init__(self) -> None:
        inputs = as_rows(self.inputs)
        targets = as_vector(self.targets, inputs.shape[0], name="targets")
        object.__setattr__(self, "inputs", _frozen(inputs))
        object.__setattr__(self, "targets", _frozen(targets))
        if self.split_index is not None:
            if not 0 < self.split_index < self.inputs.shape[0]:
                raise DomainError(
                    f"split_index {self.split_index} outside (0, {self.inputs.shape[0]})"
                )

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def _require_split(self) -> int:
        if self.split_index is None:
            raise DomainError("dataset has not been split")
        return self.split_index

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[: self._require_split()]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[: self._require_split()]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self._require_split() :]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self._require_split() :]


def as_rows(inputs, width: int | None = None) -> np.ndarray:
    """A float64 (n, width) block of sample rows; any width when width is
    None."""
    x = np.asarray(inputs, dtype=np.float64)
    if width is None:
        if x.ndim != 2:
            raise ShapeError(f"inputs must be 2-D, got ndim={x.ndim}")
    elif x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"inputs must be (n, {width}), got {x.shape}")
    return x


def as_vector(values, length: int | None = None, name: str = "values") -> np.ndarray:
    """A float64 1-D array of any length, or of exactly length entries
    when length is given; name is what error messages call it."""
    v = np.asarray(values, dtype=np.float64)
    if length is None:
        if v.ndim != 1:
            raise ShapeError(f"{name} must be 1-D, got ndim={v.ndim}")
    elif v.ndim != 1 or v.shape[0] != length:
        raise ShapeError(f"{name} must be 1-D with {length} entries")
    return v


def as_count(value, name: str, minimum: int | None = None) -> int:
    """An integer setting, at least minimum when one is given; name is
    what error messages call it."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and count < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {count}")
    return count


def check_real(value, name: str) -> float:
    """value as a float, when it is a real number of any size or sign; an
    integer past float64's range counts as inf of its sign."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_real(value, name: str, positive: bool = False) -> float:
    """A finite real setting as a float: > 0 when positive, else >= 0."""
    real = check_real(value, name)
    # NaN fails every comparison
    if not ((real > 0.0 if positive else real >= 0.0) and real < math.inf):
        raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return real


def as_samples(inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    """A non-empty block of sample rows and its 1-D targets, one per row."""
    x = as_rows(inputs)
    y = as_vector(targets, x.shape[0], name="targets")
    if x.shape[0] == 0:
        raise DomainError("no training samples")
    return x, y


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map sending [lo, hi] onto [0, 1]; values outside pass through
    the same formula without clamping.  Both directions raise DomainError
    when a result is not finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("scaler bounds must be finite")
        if not self.hi > self.lo:
            raise DomainError(f"scaler needs hi > lo, got [{self.lo}, {self.hi}]")

    # A span past float64's range (hi - lo overflows) makes inf / inf or
    # 0 * inf, a NaN that _finite refuses like any overflow.

    def transform(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite((np.asarray(values, dtype=np.float64) - self.lo) / (self.hi - self.lo))

    def inverse(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(np.asarray(values, dtype=np.float64) * (self.hi - self.lo) + self.lo)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DomainError("scaled values overflow float64")
    return values


def load_csv(path: str | Path) -> PriceSeries:
    """Read a ``date,close`` CSV into a validated :class:`PriceSeries`.

    Row numbers in error messages count the header as row 1.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, expected header 'date,close'")
            if tuple(col.strip().lower() for col in header) != EXPECTED_HEADER:
                raise ParseError(
                    f"{path}: row 1: expected header 'date,close', got {header!r}"
                )
            dates: list[date] = []
            closes: list[float] = []
            for row_no, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue  # ignore blank lines
                if len(row) != 2:
                    raise ParseError(f"{path}: row {row_no}: expected 2 fields, got {len(row)}")
                try:
                    day = date.fromisoformat(row[0].strip())
                except ValueError:
                    raise ParseError(f"{path}: row {row_no}: bad date {row[0]!r}")
                try:
                    close = float(row[1])
                except ValueError:
                    raise ParseError(f"{path}: row {row_no}: bad close {row[1]!r}")
                if not math.isfinite(close) or close <= 0.0:
                    raise DomainError(
                        f"{path}: row {row_no}: close must be a positive finite number"
                    )
                if dates and day <= dates[-1]:
                    raise OrderError(
                        f"{path}: row {row_no}: date {day} not after {dates[-1]}"
                    )
                dates.append(day)
                closes.append(close)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not dates:
        raise DomainError(f"{path}: no data rows")
    return PriceSeries(tuple(dates), np.asarray(closes))


def make_windows(series: PriceSeries, lags: int = 3) -> WindowedDataset:
    """Slide a window of ``lags`` consecutive prices over the series; the
    price right after each window is its target."""
    lags = as_count(lags, "lags", 1)
    n = len(series)
    if n <= lags:
        raise DomainError(f"need more than {lags} prices, got {n}")
    windows = np.lib.stride_tricks.sliding_window_view(series.prices, lags)
    inputs = windows[:-1].copy()
    targets = series.prices[lags:].copy()
    return WindowedDataset(inputs, targets)


def split(dataset: WindowedDataset, train_fraction: float = 0.8) -> WindowedDataset:
    """Chronological split: the first floor(train_fraction * n) samples
    train, the rest test."""
    if not 0.0 < check_real(train_fraction, "train_fraction") < 1.0:
        raise DomainError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    k = int(math.floor(train_fraction * n))
    if k == 0 or k >= n:
        raise DomainError(
            f"split of {n} samples at fraction {train_fraction} leaves an empty side"
        )
    return replace(dataset, split_index=k)


def fit_scaler(values: np.ndarray) -> MinMaxScaler:
    """Fit a [0, 1] min-max scaler; the data must span a nonzero range."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size < 2:
        raise DomainError("scaler needs at least two values")
    if not np.all(np.isfinite(arr)):
        raise DomainError("scaler input must be finite")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        raise DomainError("all values are equal; range is degenerate")
    return MinMaxScaler(lo, hi)
