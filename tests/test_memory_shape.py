"""How many n x n arrays the quadratic steps hold at once.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call, above what was held before it, counts every temporary the call
makes.  The sizes are long-lag's, 1117 training rows of 3 lags, but for
svr's: its count is the same at 200 rows, where a fit is quick, and for
backprop's, which are the stability sweep's 427-week series.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import make_ar_series

from fivecast import evaluate, grnn, lssvm, svr, timeseries
from fivecast.errors import DomainError
from fivecast.kernels import KERNEL_KINDS, KernelSpec, expansion, gram_sq_dists, median_pairwise_distance

N = 1117


def peak_bytes(call) -> int:
    """Traced bytes at the peak of call(), above those held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def rows(n=N):
    return np.random.default_rng(5).uniform(0.0, 1.0, (n, 3))


def test_lssvm_fit_holds_the_system_and_its_elimination():
    # the saddle matrix and the elimination's working copy, plus panels of
    # 64 columns and a boolean finiteness mask; not the kernel matrix or
    # the ridge beside them
    x = rows()
    y = np.sin(x.sum(axis=1))
    saddle = 8 * (N + 1) ** 2
    peak = peak_bytes(lambda: lssvm.fit(x, y, KernelSpec("rbf", sigma=0.5)))
    assert peak <= 2.25 * saddle


def test_pairwise_distances_hold_one_matrix():
    x = rows()
    assert peak_bytes(lambda: gram_sq_dists(x)) <= 1.15 * 8 * N * N
    assert peak_bytes(lambda: grnn.default_smoothing(x)) <= 1.15 * 8 * N * N
    assert peak_bytes(lambda: median_pairwise_distance(x)) <= 1.15 * 8 * N * N


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_expansion_holds_a_few_columns(kind):
    # one input row's kernel column and its temporaries, plus the n
    # predictions: about 3-4.5 n values, against 1 n^2 for a kernel matrix
    # over every input row at once
    x = rows()
    coefs = np.sin(x[:, 0])
    peak = peak_bytes(lambda: expansion(KernelSpec(kind, sigma=0.5), x, coefs, 0.1, x))
    assert peak <= 8 * 8 * N


def test_svr_fit_holds_the_kernel_matrix_and_the_pair_curvatures():
    # the kernel matrix and two more n x n arrays while the pair
    # curvatures are built; the pair steps read the kernel matrix itself
    n = 200
    x = rows(n)
    y = np.sin(x.sum(axis=1))
    peak = peak_bytes(lambda: svr.fit(x, y, KernelSpec("rbf", sigma=0.5)))
    assert peak <= 3.25 * 8 * n * n


@pytest.mark.parametrize("epochs, batch", [(1, 16), (1, 10**6), (0, 16)], ids=["epoch", "full-batch", "no-epoch"])
def test_bp_sweep_holds_no_more_than_the_gate_counts(epochs, batch, monkeypatch):
    # with the memory cap one value below the traced peak, the backprop
    # gate refuses the sweep: its count is not below what the sweep holds
    ds = timeseries.split(timeseries.make_windows(make_ar_series(11), 3), 0.8)
    cfg = evaluate.HarnessConfig(bp_hidden=500, bp_epochs=epochs, bp_batch=batch)
    evaluate.check_bp_work(ds, cfg, 4)
    peak = peak_bytes(lambda: evaluate.stability(ds, cfg, runs=4))
    assert peak > 8 * 4 * 85 * 500  # at least one activation array over the test block
    monkeypatch.setattr(evaluate, "MAX_BP_VALUES", -(-peak // 8) - 1)
    with pytest.raises(DomainError, match="^backprop memory of "):
        evaluate.check_bp_work(ds, cfg, 4)
