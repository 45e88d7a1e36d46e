"""Feed-forward network: forward pass, gradients, and SGD training."""

import math
import sys
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from conftest import make_ar_series
from hypothesis import given, settings
from hypothesis import strategies as st

from fivecast import bpnn, evaluate, timeseries
from fivecast.bpnn import (
    BpNetwork,
    SgdConfig,
    hidden_size_rule,
    new_network,
    predict_batch,
    train,
    training_cost,
)
from fivecast.errors import DivergenceError, DomainError, ShapeError


def row(net, k):
    """Network k of a stack, as a stack of one viewing its row."""
    return BpNetwork(net.layer_sizes, net.params[k : k + 1])


def batch_gradients(net, xs, ys):
    """Gradients of the half squared error summed over the rows of xs, from
    the per-batch function training calls, shaped like the parameters of
    net, a stack of one."""
    x = np.asarray(xs, dtype=np.float64)[None]
    t = np.asarray(ys, dtype=np.float64).reshape(1, x.shape[1], -1)
    grads = BpNetwork(net.layer_sizes, np.empty_like(net.params))
    bpnn._batch_gradients(net.weights, net.biases, x, t, grads.weights, grads.biases)
    return grads.weights, grads.biases


def fd_gradients(net, x, y, h=1e-5):
    """Central finite differences over every parameter.

    Perturbs the live arrays one entry at a time and restores them; the
    cost comes from training_cost's forward pass, not the gradient's.
    """

    def cost():
        return training_cost(net, [x], [np.atleast_1d(y)])[0]

    grads = []
    for params in (net.weights, net.biases):
        block = []
        for arr in params:
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                up = cost()
                arr[idx] = orig - h
                dn = cost()
                arr[idx] = orig
                g[idx] = (up - dn) / (2.0 * h)
            block.append(g)
        grads.append(block)
    return grads[0], grads[1]


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def scaled_ar_dataset():
    ds = timeseries.split(timeseries.make_windows(make_ar_series(11), lags=3))
    sc = timeseries.fit_scaler(ds.train_targets)
    return sc.transform(ds.train_inputs), sc.transform(ds.train_targets)


def full_batch_backprop_step(net, xs, ys, eta):
    """Weights and biases after one mean-gradient step built from
    single-sample gradients."""
    acc_w = [np.zeros_like(w) for w in net.weights]
    acc_b = [np.zeros_like(b) for b in net.biases]
    for x, y in zip(xs, ys):
        gw, gb = batch_gradients(net, [x], [y])
        for l in range(len(acc_w)):
            acc_w[l] += gw[l]
            acc_b[l] += gb[l]
    n = len(xs)
    return (
        [w - eta * g / n for w, g in zip(net.weights, acc_w)],
        [b - eta * g / n for b, g in zip(net.biases, acc_b)],
    )


def one_hidden_layer_reference(net, xs, ys, cfg, seed):
    """Per-network mini-batch SGD for input->hidden->output nets, shuffled
    by seed, written as plain 2-D products batch by batch, on a copy of
    net, a stack of one; training must equal it exactly."""
    trained = BpNetwork(net.layer_sizes, net.params.copy())
    wh, wo = (w[0] for w in trained.weights)
    bh, bo = (b[0, 0] for b in trained.biases)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64).reshape(x.shape[0], -1)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            a1 = 1.0 / (1.0 + np.exp(-(np.dot(xb, np.ascontiguousarray(wh.T)) + bh)))
            d2 = np.dot(a1, np.ascontiguousarray(wo.T)) + bo - yb
            d1 = np.dot(d2, wo) * (a1 * (1.0 - a1))
            s = cfg.eta / idx.shape[0]
            wo -= s * np.dot(np.ascontiguousarray(d2.T), a1)
            bo -= s * np.sum(d2, axis=0)
            wh -= s * np.dot(np.ascontiguousarray(d1.T), xb)
            bh -= s * np.sum(d1, axis=0)
    return trained.weights, trained.biases


def _reference_stacked_epoch(weights, biases, xs, ts, batch_size, eta):
    # _stacked_epoch before the flat buffers, verbatim
    last = len(weights) - 1
    for start in range(0, xs.shape[1], batch_size):
        acts = [xs[:, start : start + batch_size]]
        for l, (w, b) in enumerate(zip(weights, biases)):
            z = np.matmul(acts[-1], bpnn._transposed(w))
            z += b
            acts.append(z if l == last else 1.0 / (1.0 + np.exp(-z)))
        delta = acts[-1] - ts[:, start : start + batch_size]
        grads = []
        for l in range(last, -1, -1):
            gw = np.matmul(bpnn._transposed(delta), acts[l])
            grads.append((gw, np.add.reduce(delta, axis=1, keepdims=True)))
            if l > 0:
                delta = np.matmul(delta, weights[l]) * (acts[l] * (1.0 - acts[l]))
        s = eta / acts[0].shape[1]
        for (gw, gb), w, b in zip(grads, weights[::-1], biases[::-1]):
            w -= s * gw
            b -= s * gb


def reference_train(net, inputs, targets, cfg, seeds):
    """train before the gated cost check and the flat buffers: the cost is
    computed after every epoch, and each layer steps on its own.  The
    stack trains on a copy, written back at the end."""
    if len(seeds) != net.params.shape[0]:
        raise ShapeError(f"need one seed per network: {net.params.shape[0]}, {len(seeds)}")
    x, t = bpnn._samples(net, inputs, targets)
    if x.shape[0] == 0:
        raise DomainError("no training samples")
    trained = BpNetwork(net.layer_sizes, net.params.copy())
    weights, biases = trained.weights, trained.biases
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live, failure = len(seeds), None  # only networks below a diverged one still matter
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = np.stack([rng.permutation(x.shape[0]) for rng in rngs[:live]])
            _reference_stacked_epoch(
                [w[:live] for w in weights], [b[:live] for b in biases],
                x[order], t[order], cfg.batch_size, cfg.eta,
            )
            costs = training_cost(BpNetwork(net.layer_sizes, trained.params[:live]), x, t)
            bad = np.flatnonzero(~np.isfinite(costs))
            if bad.size:
                live = int(bad[0])
                failure = DivergenceError(f"training cost became non-finite ({costs[live]})")
            if live == 0:
                break
    if failure is not None:
        raise failure
    net.params[...] = trained.params


def assert_same_params(a, b):
    for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(pa, pb)


def unit_chain():
    """(1, 1, 1) network whose output is the hidden sigmoid of its input."""
    net = BpNetwork((1, 1, 1), np.zeros((1, 4)))
    net.weights[0][0, 0, 0] = net.weights[1][0, 0, 0] = 1.0
    return net


class TestSigmoid:
    """The hidden layers' logistic sigmoid, read through a unit chain."""

    def test_quarter_points(self):
        net = unit_chain()
        assert predict_batch(net, [[0.0]])[0, 0] == 0.5
        npt.assert_allclose(predict_batch(net, [[math.log(3.0)]]), 0.75, rtol=1e-15)
        npt.assert_allclose(predict_batch(net, [[-math.log(3.0)]]), 0.25, rtol=1e-15)

    def test_saturation(self):
        # predict_batch saturates at ±1000 with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = predict_batch(unit_chain(), [[1000.0], [-1000.0]])
        assert out.tolist() == [[1.0, 0.0]]

    def test_training_cost_saturates_without_warning(self):
        net = unit_chain()
        pair = BpNetwork((1, 1, 1), np.repeat(net.params, 2, axis=0))
        xs = [[1000.0], [-1000.0], [1000.0], [-1000.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = training_cost(net, xs, [1.0, 0.0, 1.0, 0.0])
            miss = training_cost(pair, xs, [0.0, 1.0, 2.0, 0.0])
        assert fit.tolist() == [0.0]
        assert miss.tolist() == [0.375, 0.375]  # misses 1, 1, 1, 0


class TestHiddenSizeRule:
    def test_frozen_values(self):
        assert hidden_size_rule(1, 3) == 3
        assert hidden_size_rule(1, 1) == 2
        assert hidden_size_rule(2, 4) == 4

    def test_matches_formula(self):
        for l in range(1, 4):
            for n in range(1, 7):
                raw = math.sqrt(
                    0.43 * l * n + 0.12 * l * l + 2.54 * n + 0.77 * l + 0.35
                )
                assert hidden_size_rule(l, n) == math.floor(raw + 0.51)

    def test_bad_widths(self):
        with pytest.raises(DomainError):
            hidden_size_rule(0, 3)
        with pytest.raises(DomainError):
            hidden_size_rule(1, 0)


class TestNewNetwork:
    def test_shapes_and_init(self):
        net = new_network((3, 4, 1), [5, 6])
        assert net.layer_sizes == (3, 4, 1)
        assert [w.shape for w in net.weights] == [(2, 4, 3), (2, 1, 4)]
        assert [b.shape for b in net.biases] == [(2, 1, 4), (2, 1, 1)]
        for w in net.weights:
            assert np.all(np.abs(w) < 0.5)
        for b in net.biases:
            npt.assert_array_equal(b, 0.0)

    def test_seed_determinism(self):
        a = new_network((3, 3, 1), [9])
        b = new_network((3, 3, 1), [9])
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)

    def test_draws_each_layer_in_order(self):
        # each row holds its seed's draws of per-layer networks, layer by
        # layer, whatever the other rows' seeds
        rng = np.random.default_rng(4)
        drawn = [rng.uniform(-0.5, 0.5, shape) for shape in [(5, 2), (3, 5), (1, 3)]]
        net = new_network((2, 5, 3, 1), [0, 4, 4])
        for k in (1, 2):
            for got, want in zip(net.weights, drawn):
                assert got[k].tobytes() == want.tobytes()
        assert net.params[0].tobytes() == new_network((2, 5, 3, 1), [0]).params.tobytes()
        assert net.params.shape == (3, bpnn.parameter_count((2, 5, 3, 1))) == (3, 37)

    def test_layers_are_views_of_the_row(self):
        net = new_network((3, 2, 1), [1, 2])
        net.weights[0][1, 1, 2] = 7.0
        net.biases[1][1, 0, 0] = -3.0
        assert net.params[1, 5] == 7.0
        assert net.params[1, -1] == -3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            new_network((3,), [0])
        with pytest.raises(DomainError):
            new_network((3, 0, 1), [0])
        with pytest.raises(DomainError):  # checked before drawing weights
            new_network((3, -3, 1), [0])
        with pytest.raises(ShapeError):
            BpNetwork((2, 1), np.ones((1, 4)))
        with pytest.raises(ShapeError):  # a row is not a stack
            BpNetwork((2, 1), np.ones(3))
        with pytest.raises(ShapeError):  # nor is an empty block
            new_network((2, 1), [])

    def test_seeds_numpy_refuses(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            new_network((3, 3, 1), [0, -1])
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 2\.5$"):
            new_network((3, 3, 1), [2.5])

    @pytest.mark.parametrize("runs", [10**20, 10**18], ids=["past-ssize_t", "past-numpy-shape"])
    def test_stack_that_cannot_be_held_lists_no_generators(self, runs, monkeypatch):
        # the parameter block is asked for first, so no generator is built
        built = mock.Mock(side_effect=AssertionError("a generator was built"))
        monkeypatch.setattr(np.random, "default_rng", built)
        with pytest.raises(DomainError, match=r"^cannot allocate layers of sizes \(3, 3, 1\): "):
            new_network((3, 3, 1), range(runs))

    def test_layer_size_that_is_not_an_integer(self):
        # not rounded down to a (3, 2, 1) network
        with pytest.raises(DomainError, match=r"^layer size must be an integer, got 2\.5$"):
            new_network((3, 2.5, 1), [0])


class TestForward:
    def test_zero_net(self):
        net = BpNetwork((1, 1, 1), np.zeros((1, 4)))
        assert predict_batch(net, [[0.7]])[0, 0] == 0.0
        # a unit output weight reads the hidden sigmoid of 0
        net.weights[1][0, 0, 0] = 1.0
        assert predict_batch(net, [[0.7]])[0, 0] == 0.5

    def test_matches_manual_chain(self):
        net = new_network((3, 3, 1), [2])
        x = np.array([0.2, -0.5, 0.9])
        z1 = net.weights[0][0] @ x + net.biases[0][0, 0]
        a1 = 1.0 / (1.0 + np.exp(-z1))
        out = net.weights[1][0] @ a1 + net.biases[1][0, 0]
        npt.assert_allclose(predict_batch(net, [x])[0], out, rtol=1e-15)

    def test_output_is_not_squashed(self):
        # identity output layer can leave (0, 1)
        net = BpNetwork((1, 1, 1), np.zeros((1, 4)))
        net.weights[1][0, 0, 0] = 10.0
        assert predict_batch(net, [[0.0]])[0, 0] == 5.0

    def test_input_shape(self):
        net = new_network((3, 3, 1), [0])
        with pytest.raises(ShapeError):
            predict_batch(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            predict_batch(net, np.ones(3))

    def test_predict_batch_matches_loop(self):
        net = new_network((3, 3, 1), [4])
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, 1.0, (12, 3))
        batch = predict_batch(net, xs)
        npt.assert_allclose(batch[0], [predict_batch(net, [x])[0, 0] for x in xs], rtol=1e-14)


def reference_sigmoid(z):
    # the former bpnn.sigmoid, verbatim
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):  # saturation is well-defined
        return 1.0 / (1.0 + np.exp(-z))


def reference_forward(net, inputs):
    """The former _forward_batch, verbatim: products with transposed views
    of the weights, then the sigmoid; outputs (S, n, out)."""
    a = timeseries.as_rows(inputs, net.layer_sizes[0])
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.matmul(a, w.transpose(0, 2, 1)) + b
        a = z if l == last else reference_sigmoid(z)
    return a


@st.composite
def cli_forward_cases(draw, widths, stacks=st.just(1)):
    """A stack of networks of a shape the CLI trains, 3 lags into h hidden
    units into one output, with their weights scaled as training may leave
    them, and 2 to 400 input rows around the scaled range [0, 1]."""
    h = draw(widths)
    count = draw(stacks)
    net = new_network((3, h, 1), draw(st.lists(st.integers(0, 2**16), min_size=count, max_size=count)))
    net.params *= draw(st.sampled_from([1.0, 4.0, 30.0]))
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return net, rng.uniform(-0.5, 1.5, (n, 3)), rng.uniform(0.0, 1.0, n)


class TestOneForwardPass:
    """Prediction and the cost check run the forward pass training runs.

    That pass multiplies by a contiguous copy of each transposed weight
    matrix, where the former prediction path multiplied by a transposed
    view.  On the OpenBLAS 0.3.31 Haswell kernels the two products agree
    bit for bit up to 195 hidden units.  From 196 units, with 16 rows or
    more, the first layer's product can differ in its last bit, and then
    about one prediction block in five does too (149 of 813 drawn
    blocks).  The default hidden width, 3 for 3 lags, is far below that.
    Each network of a stack predicts and costs bit for bit as it does as a
    stack of one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(cli_forward_cases(st.integers(1, 195), st.integers(1, 100)))
    def test_same_bits_as_the_former_forward(self, case):
        net, xs, ys = case
        preds, costs = predict_batch(net, xs), training_cost(net, xs, ys)
        assert preds.shape == (net.params.shape[0], xs.shape[0])
        for k in range(net.params.shape[0]):
            one = row(net, k)
            want = reference_forward(one, xs)
            assert predict_batch(one, xs).tobytes() == want[0, :, 0].tobytes() == preds[k].tobytes()
            cost = 0.5 * np.mean(np.sum((ys[:, None] - want) ** 2, axis=2), axis=1)
            assert training_cost(one, xs, ys).tobytes() == cost.tobytes() == costs[k : k + 1].tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(cli_forward_cases(st.integers(196, 1000)))
    def test_wide_hidden_layers_agree_to_rounding(self, case):
        net, xs, ys = case
        want = reference_forward(net, xs)[0, :, 0]
        npt.assert_allclose(predict_batch(net, xs)[0], want, rtol=1e-12, atol=1e-12)

    def test_training_runs_the_same_forward(self):
        # the activations the gradient differentiates end in the prediction
        net = new_network((3, 4, 1), [3])
        xs = np.random.default_rng(3).uniform(0.0, 1.0, (6, 3))
        acts = bpnn._forward(net.weights, net.biases, xs[None])
        assert [a.shape for a in acts] == [(1, 6, 3), (1, 6, 4), (1, 6, 1)]
        assert acts[-1][0, :, 0].tobytes() == predict_batch(net, xs)[0].tobytes()


class TestBackprop:
    """The per-batch gradient that every training epoch runs."""

    def test_elementwise_gating(self):
        # the delta recursion multiplies componentwise
        npt.assert_array_equal(
            np.array([1.0, 2.0]) * np.array([3.0, 4.0]), [3.0, 8.0]
        )

    def test_zero_error_sample(self):
        net = new_network((3, 3, 1), [3])
        x = np.array([0.1, 0.4, 0.8])
        y = predict_batch(net, [x])[0]
        gw, gb = batch_gradients(net, [x], [y])
        for g in gw + gb:
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for seed in range(3):
            net = new_network((3, 3, 1), [seed])
            x = rng.uniform(-1.0, 1.0, 3)
            y = rng.uniform(-1.0, 1.0, 1)
            gw, gb = batch_gradients(net, [x], [y])
            fw, fb = fd_gradients(net, x, y)
            assert max_relative_error(gw, fw) < 1e-6
            assert max_relative_error(gb, fb) < 1e-6

    def test_deep_net_finite_differences(self):
        net = new_network((2, 3, 3, 1), [8])
        x = np.array([0.3, -0.7])
        y = np.array([0.25])
        gw, gb = batch_gradients(net, [x], [y])
        fw, fb = fd_gradients(net, x, y)
        assert max_relative_error(gw, fw) < 1e-6
        assert max_relative_error(gb, fb) < 1e-6

    def test_target_shape(self):
        net = new_network((3, 3, 1), [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((1, 3)), np.ones((1, 2)), SgdConfig(epochs=1), [0])


class TestTrainingCost:
    def test_by_hand(self):
        # prediction 5.0 vs target 4.0 on a one-sample set: 0.5 * 1
        net = BpNetwork((1, 1, 1), np.zeros((1, 4)))
        net.weights[1][0, 0, 0] = 10.0
        assert training_cost(net, [[0.0]], [4.0])[0] == 0.5

    def test_zero_at_fit(self):
        net = new_network((2, 2, 1), [1])
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        ys = predict_batch(net, xs)[0]
        assert training_cost(net, xs, ys)[0] == 0.0


class TestTrain:
    def test_eta_zero_is_identity(self):
        net = new_network((3, 3, 1), [6])
        before_w = [w.copy() for w in net.weights]
        before_b = [b.copy() for b in net.biases]
        rng = np.random.default_rng(1)
        train(
            net,
            rng.uniform(0, 1, (10, 3)),
            rng.uniform(0, 1, 10),
            SgdConfig(eta=0.0, batch_size=10, epochs=1),
            [0],
        )
        for w, orig in zip(net.weights, before_w):
            npt.assert_array_equal(w, orig)
        for b, orig in zip(net.biases, before_b):
            npt.assert_array_equal(b, orig)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, (20, 3))
        ys = rng.uniform(0, 1, 20)
        cfg = SgdConfig(eta=0.05, batch_size=4, epochs=10)
        a, b = new_network((3, 3, 1), [7]), new_network((3, 3, 1), [7])
        train(a, xs, ys, cfg, [3])
        train(b, xs, ys, cfg, [3])
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            npt.assert_array_equal(ba, bb)

    def test_single_sample_manual_step(self):
        # scalar chain computed with plain math, no arrays
        wh, bh, wo, bo = 0.4, 0.1, 0.6, 0.2
        x, y, eta = 0.5, 0.9, 0.3
        z1 = wh * x + bh
        a1 = 1.0 / (1.0 + math.exp(-z1))
        d2 = (wo * a1 + bo) - y
        d1 = wo * d2 * a1 * (1.0 - a1)
        expected = (
            wh - eta * d1 * x,
            bh - eta * d1,
            wo - eta * d2 * a1,
            bo - eta * d2,
        )
        net = BpNetwork((1, 1, 1), np.array([[wh, bh, wo, bo]]))  # each layer's weight, then bias
        train(net, [[x]], [y], SgdConfig(eta=eta, batch_size=1, epochs=1), [0])
        got = (
            net.weights[0][0, 0, 0],
            net.biases[0][0, 0, 0],
            net.weights[1][0, 0, 0],
            net.biases[1][0, 0, 0],
        )
        npt.assert_allclose(got, expected, rtol=1e-12)

    def test_full_batch_step_is_mean_gradient(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, (8, 3))
        ys = rng.uniform(-1, 1, 8)
        net = new_network((3, 4, 1), [11])
        expected_w, expected_b = full_batch_backprop_step(net, xs, ys, 0.5)
        train(net, xs, ys, SgdConfig(eta=0.5, batch_size=8, epochs=1), [0])
        for got, exp in zip(net.weights + net.biases, expected_w + expected_b):
            npt.assert_allclose(got, exp, atol=1e-12)

    def test_deep_net_full_batch_step(self):
        # the batched update against the per-sample gradient oracle
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, (5, 2))
        ys = rng.uniform(-1, 1, 5)
        net = new_network((2, 3, 3, 1), [12])
        expected_w, expected_b = full_batch_backprop_step(net, xs, ys, 0.2)
        train(net, xs, ys, SgdConfig(eta=0.2, batch_size=5, epochs=1), [0])
        for got, exp in zip(net.weights + net.biases, expected_w + expected_b):
            npt.assert_allclose(got, exp, atol=1e-12)

    def test_cost_decreases_on_scaled_data(self):
        xs, ys = scaled_ar_dataset()
        net = new_network((3, 3, 1), [0])
        start = training_cost(net, xs, ys)[0]
        train(net, xs, ys, SgdConfig(eta=0.01, batch_size=16, epochs=200), [0])
        assert training_cost(net, xs, ys)[0] < start

    def test_divergence_detected(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (30, 3))
        ys = rng.uniform(0, 1, 30)
        net = new_network((3, 3, 1), [1])
        with pytest.raises(DivergenceError):
            train(net, xs, ys, SgdConfig(eta=1e6, batch_size=4, epochs=50), [0])

    def test_validation(self):
        net = new_network((3, 3, 1), [0])
        cfg = SgdConfig()
        with pytest.raises(DomainError):
            train(net, np.empty((0, 3)), np.empty(0), cfg, [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 2)), np.ones(4), cfg, [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 3)), np.ones(5), cfg, [0])

    def test_shuffle_seeds_numpy_refuses(self):
        net = new_network((3, 3, 1), [0, 1])
        before = net.params.copy()
        xs, ys, cfg = np.ones((4, 3)), np.ones(4), SgdConfig(epochs=1)
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            train(net, xs, ys, cfg, [0, -1])
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 2\.5$"):
            train(net, xs, ys, cfg, [2.5, 0])
        assert net.params.tobytes() == before.tobytes()


class TestStackedTrain:
    def test_seven_seeds_equal_seven_single_trainings(self):
        xs, ys = scaled_ar_dataset()
        seeds = [3, 7, 7, 0, 11, 2, 5]  # a duplicate pair trains identically
        cfg = SgdConfig(eta=0.05, batch_size=16, epochs=40)
        stacked = new_network((3, 3, 1), seeds)
        train(stacked, xs, ys, cfg, seeds)
        for k, seed in enumerate(seeds):
            alone = new_network((3, 3, 1), [seed])
            train(alone, xs, ys, cfg, [seed])
            assert_same_params(row(stacked, k), alone)
        assert_same_params(row(stacked, 1), row(stacked, 2))

    @pytest.mark.parametrize(
        "sizes, n, batch",
        [((3, 3, 1), 93, 16), ((3, 1, 1), 17, 8), ((1, 3, 1), 9, 4), ((3, 4, 2), 33, 7), ((2, 5, 3), 5, 2)],
    )
    def test_stack_equals_plain_2d_reference(self, sizes, n, batch):
        rng = np.random.default_rng(n)
        xs = rng.uniform(0, 1, (n, sizes[0]))
        ys = rng.uniform(0, 1, (n, sizes[-1]))
        seeds = [0, 5]
        cfg = SgdConfig(eta=0.3, batch_size=batch, epochs=4)
        nets = new_network(sizes, seeds)
        train(nets, xs, ys, cfg, seeds)
        for k, seed in enumerate(seeds):
            exp_w, exp_b = one_hidden_layer_reference(new_network(sizes, [seed]), xs, ys, cfg, seed)
            net = row(nets, k)
            for got, exp in zip(net.weights + net.biases, exp_w + exp_b):
                assert np.array_equal(got, exp)

    def test_four_layer_stack_equals_single_and_backprop(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, (11, 2))
        ys = rng.uniform(-1, 1, 11)
        seeds = [12, 4, 9]
        cfg = SgdConfig(eta=0.2, batch_size=4, epochs=6)
        stacked = new_network((2, 3, 3, 1), seeds)
        train(stacked, xs, ys, cfg, seeds)
        for k, seed in enumerate(seeds):
            alone = new_network((2, 3, 3, 1), [seed])
            train(alone, xs, ys, cfg, [seed])
            assert_same_params(row(stacked, k), alone)
        # one full-batch epoch of the stack is each net's backprop mean step
        nets = new_network((2, 3, 3, 1), seeds)
        expected = [full_batch_backprop_step(row(nets, k), xs, ys, 0.2) for k in range(len(seeds))]
        train(nets, xs, ys, SgdConfig(eta=0.2, batch_size=11, epochs=1), seeds)
        for k, (exp_w, exp_b) in enumerate(expected):
            net = row(nets, k)
            for got, exp in zip(net.weights + net.biases, exp_w + exp_b):
                npt.assert_allclose(got, exp, atol=1e-12)

    def test_one_shuffle_seed_for_two_networks(self):
        xs, ys = scaled_ar_dataset()
        cfg = SgdConfig(eta=0.05, batch_size=16, epochs=5)
        pair = new_network((3, 3, 1), [1, 2])
        train(pair, xs, ys, cfg, [4, 4])
        for k, seed in enumerate((1, 2)):
            alone = new_network((3, 3, 1), [seed])
            train(alone, xs, ys, cfg, [4])
            assert_same_params(row(pair, k), alone)

    def divergence_case(self):
        """Data and config near the divergence threshold: at eta 4, with the
        same seed for the weights and the shuffle, seeds 3 and 5 train,
        seed 11 diverges with an infinite cost by epoch 21 and seed 2 with
        a NaN cost at epoch 36."""
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (30, 3))
        ys = rng.uniform(0, 1, 30)
        return xs, ys, SgdConfig(eta=4.0, batch_size=4, epochs=40)

    def divergence_message(self, seeds):
        xs, ys, cfg = self.divergence_case()
        with pytest.raises(DivergenceError) as info:
            train(new_network((3, 3, 1), seeds), xs, ys, cfg, seeds)
        return str(info.value)

    def test_divergence_of_a_later_seed_raises(self):
        xs, ys, cfg = self.divergence_case()
        for seed in (3, 5):
            train(new_network((3, 3, 1), [seed]), xs, ys, cfg, [seed])  # trains alone
        assert self.divergence_message([11]) == "training cost became non-finite (inf)"
        assert self.divergence_message([3, 5, 11]) == "training cost became non-finite (inf)"

    def test_lowest_diverging_seed_raises_even_if_a_later_one_diverges_first(self):
        assert self.divergence_message([2]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 2, 11]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 11, 2]) == "training cost became non-finite (inf)"

    def test_networks_unchanged_after_divergence(self):
        xs, ys, cfg = self.divergence_case()
        nets = new_network((3, 3, 1), [3, 11])
        with pytest.raises(DivergenceError):
            train(nets, xs, ys, cfg, seeds=[3, 11])
        for k, seed in enumerate((3, 11)):
            assert_same_params(row(nets, k), new_network((3, 3, 1), [seed]))

    def test_stack_validation(self):
        xs, ys = np.ones((4, 3)), np.ones(4)
        cfg = SgdConfig(epochs=1)
        with pytest.raises(ShapeError):
            train(new_network((3, 3, 1), [0]), xs, ys, cfg, [])
        with pytest.raises(ShapeError):
            train(new_network((3, 3, 1), [0, 0]), xs, ys, cfg, seeds=[1])
        with pytest.raises(ShapeError):
            train(new_network((3, 3, 1), [0]), xs, ys, cfg, seeds=[1, 2])


@st.composite
def training_cases(draw):
    """Layer shapes, seeds, data and a config for one stacked training.

    Batches never divide n.  Inputs and targets are scaled apart up to
    1e160: near 1e150 the bound fails while the cost stays finite, higher
    up the cost itself overflows.  Some inputs hold a NaN.
    """
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    seeds = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7))
    n = draw(st.integers(3, 40))
    batch = draw(st.integers(2, n - 1).filter(lambda b: n % b))
    eta = draw(st.sampled_from([0.0, 0.01, 1.0, 4.0]))
    scales = st.sampled_from([1.0, 1e3, 1e80, 1e150, 1e160])
    x_scale, t_scale = draw(scales), draw(scales)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    xs = x_scale * rng.uniform(0.0, 1.0, (n, sizes[0]))
    if draw(st.integers(0, 4)) == 0:
        xs[rng.integers(n), rng.integers(sizes[0])] = np.nan
    ys = t_scale * rng.uniform(0.0, 1.0, (n, sizes[-1]))
    cfg = SgdConfig(eta=eta, batch_size=batch, epochs=draw(st.integers(1, 30)))
    return sizes, seeds, xs, ys, cfg


# each trainer's epoch function, by owner and name, and its samples argument
EPOCH_FUNCTIONS = {
    train: (bpnn, "_stacked_epoch", 3),
    reference_train: (sys.modules[__name__], "_reference_stacked_epoch", 2),
}


def trained_or_error(train_fn, sizes, seeds, xs, ys, cfg):
    """The number of networks still training in each epoch, then the
    stack's parameter bytes after training or the error text."""
    owner, name, samples = EPOCH_FUNCTIONS[train_fn]
    net = new_network(sizes, seeds)
    with mock.patch.object(owner, name, wraps=getattr(owner, name)) as epoch:
        try:
            train_fn(net, xs, ys, cfg, seeds)
            result = net.params.tobytes()
        except DivergenceError as exc:
            result = str(exc)
    return [call.args[samples].shape[0] for call in epoch.call_args_list], result


class TestGatedCostCheck:
    """Before its last epoch, train computes the cost only when an output
    bound could overflow; it must still match the trainer that computes it
    every epoch: the same bytes, and divergence at the same epoch with the
    same message."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(training_cases())
    def test_matches_per_epoch_cost_reference(self, case):
        assert trained_or_error(train, *case) == trained_or_error(reference_train, *case)

    def count_cost_calls(self, monkeypatch):
        calls = []
        real = bpnn.training_cost

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(bpnn, "training_cost", counted)
        return calls

    def test_default_sweep_computes_the_cost_once(self, monkeypatch):
        # 500 epochs, 5 seeds: the bound holds throughout, so only the last
        # epoch computes the cost
        calls = self.count_cost_calls(monkeypatch)
        ds = timeseries.split(timeseries.make_windows(make_ar_series(11), lags=3), 0.8)
        evaluate.stability(ds, evaluate.HarnessConfig(), runs=5)
        assert len(calls) == 1

    def test_cost_runs_before_the_last_epoch_near_divergence(self, monkeypatch):
        # seed 11 at eta 4 diverges by epoch 21 of 40: the bound fails in
        # time for training to stop there
        calls = self.count_cost_calls(monkeypatch)
        xs, ys, cfg = TestStackedTrain().divergence_case()
        with mock.patch.object(bpnn, "_stacked_epoch", wraps=bpnn._stacked_epoch) as epoch:
            with pytest.raises(DivergenceError):
                train(new_network((3, 3, 1), [11]), xs, ys, cfg, [11])
        assert len(calls) >= 1
        assert epoch.call_count < cfg.epochs

    def test_bound_counts_every_output(self):
        # saturated hidden units and equal outputs 2 against targets -1:
        # every one of the 3 outputs of every sample misses by the bound 3
        net = BpNetwork((1, 1, 3), np.ones((1, 8)))
        net.weights[0][0, 0, 0], net.biases[0][0, 0, 0] = 40.0, 0.0
        xs, ys = np.ones((5, 1)), -np.ones((5, 3))
        bound = bpnn._squared_error_bound(net.params, net.layer_sizes, 1.0, 1.0, 5)
        summed = 2 * 5 * training_cost(net, xs, ys)[0]
        assert summed == 5 * 3 * 9.0
        assert summed <= bound


class TestSgdConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SgdConfig(eta=-0.1)
        for eta in (math.inf, math.nan):
            with pytest.raises(DomainError, match="eta must be finite"):
                SgdConfig(eta=eta)
        with pytest.raises(DomainError):
            SgdConfig(batch_size=0)
        with pytest.raises(DomainError):
            SgdConfig(epochs=-1)

    def test_rejects_a_batch_size_that_is_not_an_integer(self):
        with pytest.raises(DomainError, match=r"^batch_size must be an integer, got 2\.5$"):
            SgdConfig(batch_size=2.5)
