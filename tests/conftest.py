"""Shared builders for the test suite."""

import os
from datetime import date, timedelta

import numpy as np

from fivecast.timeseries import PriceSeries


def pytest_configure(config):
    # Hypothesis caches constants it reads from the package source even
    # with database=None; keep that cache inside pytest's own cache
    # directory rather than in a .hypothesis/ directory in the tree.
    cache = getattr(config, "cache", None)
    if cache is not None:
        os.environ.setdefault(
            "HYPOTHESIS_STORAGE_DIRECTORY", str(cache.mkdir("hypothesis"))
        )


def weekly_series(prices, start=date(2014, 1, 3)):
    """Wrap raw values in a PriceSeries with consecutive weekly dates."""
    dates = tuple(start + timedelta(weeks=k) for k in range(len(prices)))
    return PriceSeries(dates, np.asarray(prices, dtype=np.float64))


def make_ar_series(seed, n=427, mu=10.0, sigma=0.05, s0=10.0):
    """Mean-reverting AR(1) price path, strictly positive for these defaults."""
    rng = np.random.default_rng(seed)
    s = np.empty(n)
    s[0] = s0
    for t in range(1, n):
        s[t] = 0.95 * s[t - 1] + 0.05 * mu + sigma * rng.standard_normal()
    return weekly_series(s)


def write_price_csv(path, series):
    """Write a PriceSeries in the two-column input format."""
    lines = ["date,close"]
    for d, p in zip(series.dates, series.prices):
        lines.append(f"{d.isoformat()},{float(p)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
