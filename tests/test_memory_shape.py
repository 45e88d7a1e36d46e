"""How many n x n arrays the quadratic steps hold at once.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call, above what was held before it, counts every temporary the call
makes.  The sizes are long-lag's: 1117 training rows of 3 lags.
"""

import tracemalloc

import numpy as np

from fivecast import grnn, lssvm
from fivecast.kernels import KernelSpec, gram_sq_dists

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
