"""Workload inputs and commands for the fivecast benchmark.

Every input is a mean-reverting AR(1) weekly price series built from a
workload seed, with the same formula and CSV layout as the test suite's
``make_ar_series`` and ``write_price_csv``: at (seed 11, n 427) the bytes
equal the series the ROADMAP baseline was measured on.  The program under
test receives only the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

START = date(2014, 1, 3)


def ar_prices(seed, n: int, mu: float = 10.0, sigma: float = 0.05, s0: float = 10.0) -> np.ndarray:
    """Mean-reverting AR(1) price path, strictly positive for these defaults."""
    rng = np.random.default_rng(seed)
    s = np.empty(n)
    s[0] = s0
    for t in range(1, n):
        s[t] = 0.95 * s[t - 1] + 0.05 * mu + sigma * rng.standard_normal()
    return s


def price_csv(prices: np.ndarray) -> str:
    """The two-column ``date,close`` input format, one week per row."""
    lines = ["date,close"]
    for k, p in enumerate(prices):
        lines.append(f"{(START + timedelta(weeks=k)).isoformat()},{float(p)!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # CLI arguments before --data and --out
    n: int  # series length
    inputs: int  # distinct series per round
    smoke_n: int
    smoke_argv: tuple[str, ...]

    def series_seeds(self, seed: int) -> list:
        """Generator seeds of the round's series.  A one-series workload
        uses the workload seed itself, so seed 11 is the baseline series."""
        if self.inputs == 1:
            return [seed]
        return [[seed, k] for k in range(self.inputs)]

    def expected(self, n: int, argv: tuple[str, ...]) -> dict[str, tuple[str, list[str]]]:
        """Output file -> (column line, first field of every data row)."""
        if argv[0] == "kernels":
            return {"kernels.csv": ("kernel,mse,mape", ["linear", "poly", "mlp", "rbf"])}
        if argv[0] == "stability":
            runs = argv[argv.index("--runs") + 1]
            return {"stability.csv": ("runs,mse_mean,mse_std,mape_mean,mape_std", [runs])}
        # lag: the CLI windows 3 lags and splits 80/20; one error per test step but the last
        models = argv[argv.index("--models") + 1].split(",")
        windows = n - 3
        errors = windows - math.floor(0.8 * windows) - 1
        files = {f"lag_{m}.csv": ("t,e", [str(t) for t in range(1, errors + 1)]) for m in models}
        files["lag_summary.csv"] = ("model,mean,std,frac_negative,n_errors", models)
        return files


LAG_MODELS = ("lssvm", "rbf", "grnn")

WORKLOADS = {
    w.name: w
    for w in (
        # About 95% of main() is svr.fit, across four kernels with different
        # solver regimes; bp and linalg do not run.  The pass count, and so the
        # time, varies several-fold from series to series (standard deviation
        # about 0.4 of the mean at 60, 80 and 100 points), so a round averages
        # 48 short series instead of timing one long one.  Shorter series
        # average more of that variation away within the same run time.
        Workload("svr-kernels", ("kernels",), n=60, inputs=48,
                 smoke_n=40, smoke_argv=("kernels",)),
        # About 90% of the time is bpnn.train (5 reseeded trainings x 500
        # epochs); svr, lssvm and linalg do not run.  A stacked-seed trainer's
        # gain grows with --runs; 5 keeps one command near 2 s, so a run
        # holds many commands and the calibrations around each one follow
        # the host's speed while it runs.
        Workload("bp-stability", ("stability", "--runs", "5"), n=427, inputs=1,
                 smoke_n=40, smoke_argv=("stability", "--runs", "2", "--epochs", "5")),
        # One 1118-square saddle solve in linalg.solve takes about 90% of
        # main(); the median width over 0.62 M pairs, k-means and the GRNN
        # walk-forward also run.  At 427 points the solve is too small to
        # show; at 1400 one command takes about 2 s, short enough for the
        # calibrations around it to follow the host's speed.  No svr or bp.
        Workload("long-lag", ("lag", "--models", ",".join(LAG_MODELS)), n=1400, inputs=1,
                 smoke_n=60, smoke_argv=("lag", "--models", ",".join(LAG_MODELS))),
    )
}
