"""How many n x n arrays the quadratic steps hold at once.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call, above what was held before it, counts every temporary the call
makes.  The sizes are long-lag's, 1117 training rows of 3 lags, but for
svr's: its count is the same at 200 rows, where a fit is quick.
"""

import tracemalloc

import numpy as np

from fivecast import grnn, lssvm, svr
from fivecast.kernels import KernelSpec, expansion, gram_sq_dists, median_pairwise_distance

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


def test_rbf_expansion_holds_two_blocks_of_64_rows():
    # the block of kernel columns being built and one scratch block, plus
    # numpy's ufunc buffers: about 0.13 n^2 here, against 1 n^2 for a
    # kernel matrix over every input row at once
    x = rows()
    coefs = np.sin(x[:, 0])
    peak = peak_bytes(lambda: expansion(KernelSpec("rbf", sigma=0.5), x, coefs, 0.1, x))
    assert peak <= 0.15 * 8 * N * N


def test_svr_fit_holds_the_kernel_matrix_and_the_pair_curvatures():
    # the kernel matrix and two more n x n arrays while the pair
    # curvatures are built; the pair steps read the kernel matrix itself
    n = 200
    x = rows(n)
    y = np.sin(x.sum(axis=1))
    peak = peak_bytes(lambda: svr.fit(x, y, KernelSpec("rbf", sigma=0.5)))
    assert peak <= 3.25 * 8 * n * n
