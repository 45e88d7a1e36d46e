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


def views(net):
    """The hidden weights and biases, then the output weights and bias, of
    a stack: views of its parameter block."""
    return bpnn._layers(net.params, net.inputs, net.hidden)


def row(net, k):
    """Network k of a stack, as a stack of one viewing its row."""
    return BpNetwork(net.inputs, net.hidden, net.params[k : k + 1])


def batch_gradients(net, xs, ys):
    """Gradients of the half squared error summed over the rows of xs, from
    the per-batch function training calls, as a parameter row of net, a
    stack of one."""
    x = np.asarray(xs, dtype=np.float64)[None]
    t = np.asarray(ys, dtype=np.float64).reshape(1, x.shape[1], 1)
    grads = np.empty_like(net.params)
    bpnn._batch_gradients(views(net), x, t, bpnn._layers(grads, net.inputs, net.hidden))
    return grads[0]


def fd_gradients(net, x, y, h=1e-5):
    """Central finite differences over every parameter of net, a stack of
    one, as a parameter row.

    Perturbs the live row one entry at a time and restores it; the cost
    comes from training_cost's forward pass, not the gradient's.
    """
    p = net.params[0]
    grads = np.zeros_like(p)
    for idx in range(p.shape[0]):
        orig = p[idx]
        p[idx] = orig + h
        up = training_cost(net, [x], np.atleast_1d(y))[0]
        p[idx] = orig - h
        dn = training_cost(net, [x], np.atleast_1d(y))[0]
        p[idx] = orig
        grads[idx] = (up - dn) / (2.0 * h)
    return grads


def max_relative_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def scaled_ar_dataset():
    ds = timeseries.split(timeseries.make_windows(make_ar_series(11), lags=3))
    sc = timeseries.fit_scaler(ds.train_targets)
    return sc.transform(ds.train_inputs), sc.transform(ds.train_targets)


def full_batch_backprop_step(net, xs, ys, eta):
    """The parameter row after one mean-gradient step built from
    single-sample gradients."""
    acc = np.zeros(net.params.shape[1])
    for x, y in zip(xs, ys):
        acc += batch_gradients(net, [x], [y])
    return net.params[0] - eta * acc / len(xs)


def one_hidden_layer_reference(net, xs, ys, cfg, seed):
    """Per-network mini-batch SGD, shuffled by seed, written as plain 2-D
    products batch by batch, on a copy of net, a stack of one; training
    must equal it exactly."""
    trained = BpNetwork(net.inputs, net.hidden, net.params.copy())
    w_h, b_h, w_o, b_o = views(trained)
    wh, bh, wo, bo = w_h[0], b_h[0, 0], w_o[0], b_o[0, 0]
    x = np.ascontiguousarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64).reshape(x.shape[0], 1)
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
    return trained


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
    x, t = timeseries.as_samples(timeseries.as_rows(inputs, net.inputs), targets)
    trained = BpNetwork(net.inputs, net.hidden, net.params.copy())
    w_h, b_h, w_o, b_o = views(trained)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live, failure = len(seeds), None  # only networks below a diverged one still matter
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = np.stack([rng.permutation(x.shape[0]) for rng in rngs[:live]])
            _reference_stacked_epoch(
                [w_h[:live], w_o[:live]], [b_h[:live], b_o[:live]],
                x[order], t[order][:, :, None], cfg.batch_size, cfg.eta,
            )
            costs = training_cost(BpNetwork(net.inputs, net.hidden, trained.params[:live]), x, t)
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
    assert np.array_equal(a.params, b.params)


def unit_chain():
    """1-input, 1-hidden-unit network whose output is the hidden sigmoid
    of its input."""
    net = BpNetwork(1, 1, np.zeros((1, 4)))
    w_h, _, w_o, _ = views(net)
    w_h[...] = w_o[...] = 1.0
    return net


class TestSigmoid:
    """The hidden units' logistic sigmoid, read through a unit chain."""

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
        pair = BpNetwork(1, 1, np.repeat(net.params, 2, axis=0))
        xs = [[1000.0], [-1000.0], [1000.0], [-1000.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = training_cost(net, xs, [1.0, 0.0, 1.0, 0.0])
            miss = training_cost(pair, xs, [0.0, 1.0, 2.0, 0.0])
        assert fit.tolist() == [0.0]
        assert miss.tolist() == [0.375, 0.375]  # misses 1, 1, 1, 0


class TestHiddenSizeRule:
    def test_frozen_values(self):
        assert hidden_size_rule(3) == 3
        assert hidden_size_rule(1) == 2

    def test_matches_formula(self):
        # the rule for l outputs, at the one output the network has
        l = 1
        for n in range(1, 200):
            raw = math.sqrt(
                0.43 * l * n + 0.12 * l * l + 2.54 * n + 0.77 * l + 0.35
            )
            assert hidden_size_rule(n) == math.floor(raw + 0.51)

    def test_bad_widths(self):
        with pytest.raises(DomainError):
            hidden_size_rule(0)


class TestNewNetwork:
    def test_shapes_and_init(self):
        net = new_network(3, 4, [5, 6])
        assert (net.inputs, net.hidden) == (3, 4)
        w_h, b_h, w_o, b_o = views(net)
        assert [v.shape for v in (w_h, b_h, w_o, b_o)] == [(2, 4, 3), (2, 1, 4), (2, 1, 4), (2, 1, 1)]
        for w in (w_h, w_o):
            assert np.all(np.abs(w) < 0.5)
        for b in (b_h, b_o):
            npt.assert_array_equal(b, 0.0)

    def test_seed_determinism(self):
        a = new_network(3, 3, [9])
        b = new_network(3, 3, [9])
        npt.assert_array_equal(a.params, b.params)

    def test_draws_each_layer_in_order(self):
        # each row holds its seed's draws, the hidden weights first, then
        # the output weights, whatever the other rows' seeds
        rng = np.random.default_rng(4)
        drawn = [rng.uniform(-0.5, 0.5, shape) for shape in [(5, 2), (1, 5)]]
        net = new_network(2, 5, [0, 4, 4])
        w_h, _, w_o, _ = views(net)
        for k in (1, 2):
            for got, want in zip((w_h, w_o), drawn):
                assert got[k].tobytes() == want.tobytes()
        assert net.params[0].tobytes() == new_network(2, 5, [0]).params.tobytes()
        assert net.params.shape == (3, bpnn.parameter_count(2, 5)) == (3, 21)

    def test_layers_are_views_of_the_row(self):
        net = new_network(3, 2, [1, 2])
        w_h, _, _, b_o = views(net)
        w_h[1, 1, 2] = 7.0
        b_o[1, 0, 0] = -3.0
        assert net.params[1, 5] == 7.0
        assert net.params[1, -1] == -3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            new_network(0, 3, [0])
        with pytest.raises(DomainError):
            new_network(3, 0, [0])
        with pytest.raises(DomainError):  # checked before drawing weights
            new_network(3, -3, [0])
        with pytest.raises(ShapeError):
            BpNetwork(2, 1, np.ones((1, 4)))
        with pytest.raises(ShapeError):  # a row is not a stack
            BpNetwork(2, 1, np.ones(5))
        with pytest.raises(ShapeError):  # nor is an empty block
            new_network(2, 1, [])

    def test_seeds_numpy_refuses(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -1$"):
            new_network(3, 3, [0, -1])
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 2\.5$"):
            new_network(3, 3, [2.5])

    @pytest.mark.parametrize("runs", [10**20, 10**18], ids=["past-ssize_t", "past-numpy-shape"])
    def test_stack_that_cannot_be_held_lists_no_generators(self, runs, monkeypatch):
        # the parameter block is asked for first, so no generator is built
        built = mock.Mock(side_effect=AssertionError("a generator was built"))
        monkeypatch.setattr(np.random, "default_rng", built)
        with pytest.raises(DomainError, match=r"^cannot allocate networks of 3 inputs and 3 hidden units: "):
            new_network(3, 3, range(runs))

    def test_layer_size_that_is_not_an_integer(self):
        # not rounded down to 2 hidden units
        with pytest.raises(DomainError, match=r"^hidden width must be an integer, got 2\.5$"):
            new_network(3, 2.5, [0])
        with pytest.raises(DomainError, match=r"^input width must be an integer, got 3\.0$"):
            BpNetwork(3.0, 2, np.zeros((1, 11)))


class TestForward:
    def test_zero_net(self):
        net = BpNetwork(1, 1, np.zeros((1, 4)))
        assert predict_batch(net, [[0.7]])[0, 0] == 0.0
        # a unit output weight reads the hidden sigmoid of 0
        views(net)[2][0, 0, 0] = 1.0
        assert predict_batch(net, [[0.7]])[0, 0] == 0.5

    def test_matches_manual_chain(self):
        net = new_network(3, 3, [2])
        w_h, b_h, w_o, b_o = views(net)
        x = np.array([0.2, -0.5, 0.9])
        z1 = w_h[0] @ x + b_h[0, 0]
        a1 = 1.0 / (1.0 + np.exp(-z1))
        out = w_o[0] @ a1 + b_o[0, 0]
        npt.assert_allclose(predict_batch(net, [x])[0], out, rtol=1e-15)

    def test_output_is_not_squashed(self):
        # identity output layer can leave (0, 1)
        net = BpNetwork(1, 1, np.zeros((1, 4)))
        views(net)[2][0, 0, 0] = 10.0
        assert predict_batch(net, [[0.0]])[0, 0] == 5.0

    def test_input_shape(self):
        net = new_network(3, 3, [0])
        with pytest.raises(ShapeError):
            predict_batch(net, [[1.0, 2.0]])
        with pytest.raises(ShapeError):
            predict_batch(net, np.ones(3))

    def test_predict_batch_matches_loop(self):
        net = new_network(3, 3, [4])
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
    a = timeseries.as_rows(inputs, net.inputs)
    w_h, b_h, w_o, b_o = views(net)
    last = 1
    for l, (w, b) in enumerate(zip((w_h, w_o), (b_h, b_o))):
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
    net = new_network(3, h, draw(st.lists(st.integers(0, 2**16), min_size=count, max_size=count)))
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
        net = new_network(3, 4, [3])
        xs = np.random.default_rng(3).uniform(0.0, 1.0, (6, 3))
        hidden, out = bpnn._forward(views(net), xs[None])
        assert [hidden.shape, out.shape] == [(1, 6, 4), (1, 6, 1)]
        assert out[0, :, 0].tobytes() == predict_batch(net, xs)[0].tobytes()


class TestBackprop:
    """The per-batch gradient that every training epoch runs."""

    def test_elementwise_gating(self):
        # the delta recursion multiplies componentwise
        npt.assert_array_equal(
            np.array([1.0, 2.0]) * np.array([3.0, 4.0]), [3.0, 8.0]
        )

    def test_zero_error_sample(self):
        net = new_network(3, 3, [3])
        x = np.array([0.1, 0.4, 0.8])
        y = predict_batch(net, [x])[0]
        npt.assert_array_equal(batch_gradients(net, [x], y), 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for seed in range(3):
            net = new_network(3, 3, [seed])
            x = rng.uniform(-1.0, 1.0, 3)
            y = rng.uniform(-1.0, 1.0, 1)
            assert max_relative_error(batch_gradients(net, [x], y), fd_gradients(net, x, y)) < 1e-6

    def test_target_shape(self):
        net = new_network(3, 3, [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((1, 3)), np.ones((1, 2)), SgdConfig(epochs=1), [0])


class TestTrainingCost:
    def test_by_hand(self):
        # prediction 5.0 vs target 4.0 on a one-sample set: 0.5 * 1
        net = BpNetwork(1, 1, np.zeros((1, 4)))
        views(net)[2][0, 0, 0] = 10.0
        assert training_cost(net, [[0.0]], [4.0])[0] == 0.5

    def test_zero_at_fit(self):
        net = new_network(2, 2, [1])
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        ys = predict_batch(net, xs)[0]
        assert training_cost(net, xs, ys)[0] == 0.0


class TestTrain:
    def test_eta_zero_is_identity(self):
        net = new_network(3, 3, [6])
        before = net.params.copy()
        rng = np.random.default_rng(1)
        train(
            net,
            rng.uniform(0, 1, (10, 3)),
            rng.uniform(0, 1, 10),
            SgdConfig(eta=0.0, batch_size=10, epochs=1),
            [0],
        )
        npt.assert_array_equal(net.params, before)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, (20, 3))
        ys = rng.uniform(0, 1, 20)
        cfg = SgdConfig(eta=0.05, batch_size=4, epochs=10)
        a, b = new_network(3, 3, [7]), new_network(3, 3, [7])
        train(a, xs, ys, cfg, [3])
        train(b, xs, ys, cfg, [3])
        npt.assert_array_equal(a.params, b.params)

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
        net = BpNetwork(1, 1, np.array([[wh, bh, wo, bo]]))  # the hidden weight and bias, then the output's
        train(net, [[x]], [y], SgdConfig(eta=eta, batch_size=1, epochs=1), [0])
        npt.assert_allclose(net.params[0], expected, rtol=1e-12)

    def test_full_batch_step_is_mean_gradient(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, (8, 3))
        ys = rng.uniform(-1, 1, 8)
        net = new_network(3, 4, [11])
        expected = full_batch_backprop_step(net, xs, ys, 0.5)
        train(net, xs, ys, SgdConfig(eta=0.5, batch_size=8, epochs=1), [0])
        npt.assert_allclose(net.params[0], expected, atol=1e-12)

    def test_cost_decreases_on_scaled_data(self):
        xs, ys = scaled_ar_dataset()
        net = new_network(3, 3, [0])
        start = training_cost(net, xs, ys)[0]
        train(net, xs, ys, SgdConfig(eta=0.01, batch_size=16, epochs=200), [0])
        assert training_cost(net, xs, ys)[0] < start

    def test_divergence_detected(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (30, 3))
        ys = rng.uniform(0, 1, 30)
        net = new_network(3, 3, [1])
        with pytest.raises(DivergenceError):
            train(net, xs, ys, SgdConfig(eta=1e6, batch_size=4, epochs=50), [0])

    def test_validation(self):
        net = new_network(3, 3, [0])
        cfg = SgdConfig()
        with pytest.raises(DomainError):
            train(net, np.empty((0, 3)), np.empty(0), cfg, [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 2)), np.ones(4), cfg, [0])
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 3)), np.ones(5), cfg, [0])

    def test_shuffle_seeds_numpy_refuses(self):
        net = new_network(3, 3, [0, 1])
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
        stacked = new_network(3, 3, seeds)
        train(stacked, xs, ys, cfg, seeds)
        for k, seed in enumerate(seeds):
            alone = new_network(3, 3, [seed])
            train(alone, xs, ys, cfg, [seed])
            assert_same_params(row(stacked, k), alone)
        assert_same_params(row(stacked, 1), row(stacked, 2))

    @pytest.mark.parametrize(
        "sizes, n, batch",
        [((3, 3), 93, 16), ((3, 1), 17, 8), ((1, 3), 9, 4), ((3, 4), 33, 7), ((2, 5), 5, 2)],
    )
    def test_stack_equals_plain_2d_reference(self, sizes, n, batch):
        # sizes are the input and hidden widths
        rng = np.random.default_rng(n)
        xs = rng.uniform(0, 1, (n, sizes[0]))
        ys = rng.uniform(0, 1, n)
        seeds = [0, 5]
        cfg = SgdConfig(eta=0.3, batch_size=batch, epochs=4)
        nets = new_network(*sizes, seeds)
        train(nets, xs, ys, cfg, seeds)
        for k, seed in enumerate(seeds):
            expected = one_hidden_layer_reference(new_network(*sizes, [seed]), xs, ys, cfg, seed)
            assert_same_params(row(nets, k), expected)

    def test_one_shuffle_seed_for_two_networks(self):
        xs, ys = scaled_ar_dataset()
        cfg = SgdConfig(eta=0.05, batch_size=16, epochs=5)
        pair = new_network(3, 3, [1, 2])
        train(pair, xs, ys, cfg, [4, 4])
        for k, seed in enumerate((1, 2)):
            alone = new_network(3, 3, [seed])
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
            train(new_network(3, 3, seeds), xs, ys, cfg, seeds)
        return str(info.value)

    def test_divergence_of_a_later_seed_raises(self):
        xs, ys, cfg = self.divergence_case()
        for seed in (3, 5):
            train(new_network(3, 3, [seed]), xs, ys, cfg, [seed])  # trains alone
        assert self.divergence_message([11]) == "training cost became non-finite (inf)"
        assert self.divergence_message([3, 5, 11]) == "training cost became non-finite (inf)"

    def test_lowest_diverging_seed_raises_even_if_a_later_one_diverges_first(self):
        assert self.divergence_message([2]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 2, 11]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 11, 2]) == "training cost became non-finite (inf)"

    def test_networks_unchanged_after_divergence(self):
        xs, ys, cfg = self.divergence_case()
        nets = new_network(3, 3, [3, 11])
        with pytest.raises(DivergenceError):
            train(nets, xs, ys, cfg, seeds=[3, 11])
        for k, seed in enumerate((3, 11)):
            assert_same_params(row(nets, k), new_network(3, 3, [seed]))

    def test_stack_validation(self):
        xs, ys = np.ones((4, 3)), np.ones(4)
        cfg = SgdConfig(epochs=1)
        with pytest.raises(ShapeError):
            train(new_network(3, 3, [0]), xs, ys, cfg, [])
        with pytest.raises(ShapeError):
            train(new_network(3, 3, [0, 0]), xs, ys, cfg, seeds=[1])
        with pytest.raises(ShapeError):
            train(new_network(3, 3, [0]), xs, ys, cfg, seeds=[1, 2])


@st.composite
def training_cases(draw):
    """Input and hidden widths, seeds, data and a config for one stacked
    training.

    Batches never divide n.  Inputs and targets are scaled apart up to
    1e160: near 1e150 the bound fails while the cost stays finite, higher
    up the cost itself overflows.  Some inputs hold a NaN.
    """
    inputs, hidden = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7))
    n = draw(st.integers(3, 40))
    batch = draw(st.integers(2, n - 1).filter(lambda b: n % b))
    eta = draw(st.sampled_from([0.0, 0.01, 1.0, 4.0]))
    scales = st.sampled_from([1.0, 1e3, 1e80, 1e150, 1e160])
    x_scale, t_scale = draw(scales), draw(scales)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    xs = x_scale * rng.uniform(0.0, 1.0, (n, inputs))
    if draw(st.integers(0, 4)) == 0:
        xs[rng.integers(n), rng.integers(inputs)] = np.nan
    ys = t_scale * rng.uniform(0.0, 1.0, n)
    cfg = SgdConfig(eta=eta, batch_size=batch, epochs=draw(st.integers(1, 30)))
    return inputs, hidden, seeds, xs, ys, cfg


# each trainer's epoch function, by owner and name, and its samples argument
EPOCH_FUNCTIONS = {
    train: (bpnn, "_stacked_epoch", 3),
    reference_train: (sys.modules[__name__], "_reference_stacked_epoch", 2),
}


def trained_or_error(train_fn, inputs, hidden, seeds, xs, ys, cfg):
    """The number of networks still training in each epoch, then the
    stack's parameter bytes after training or the error text."""
    owner, name, samples = EPOCH_FUNCTIONS[train_fn]
    net = new_network(inputs, hidden, seeds)
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
                train(new_network(3, 3, [11]), xs, ys, cfg, [11])
        assert len(calls) >= 1
        assert epoch.call_count < cfg.epochs

    def test_bound_is_reached_at_saturation(self):
        # a saturated hidden unit and output 2 against targets -1: every
        # sample misses by the bound 3
        net = BpNetwork(1, 1, np.array([[40.0, 0.0, 1.0, 1.0]]))
        xs, ys = np.ones((5, 1)), -np.ones(5)
        bound = bpnn._squared_error_bound(net.params, 1, 1, 1.0, 1.0, 5)
        summed = 2 * 5 * training_cost(net, xs, ys)[0]
        assert summed == 5 * 9.0
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
