"""Feed-forward network: forward pass, gradients, and SGD training."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from conftest import make_ar_series

from fivecast import timeseries
from fivecast.bpnn import (
    BpNetwork,
    SgdConfig,
    backprop,
    forward,
    hidden_size_rule,
    new_network,
    predict,
    predict_batch,
    sigmoid,
    train,
    training_cost,
)
from fivecast.errors import DivergenceError, DomainError, ShapeError


def fd_gradients(net, x, y, h=1e-5):
    """Central finite differences over every parameter.

    Perturbs the live arrays one entry at a time and restores them, so the
    only code shared with backprop is the forward pass itself.
    """

    def cost():
        out = forward(net, x)[0][-1]
        t = np.atleast_1d(np.asarray(y, dtype=np.float64))
        return 0.5 * float(np.sum((out - t) ** 2))

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
    """Weights and biases after one mean-gradient step built from backprop."""
    acc_w = [np.zeros_like(w) for w in net.weights]
    acc_b = [np.zeros_like(b) for b in net.biases]
    for x, y in zip(xs, ys):
        gw, gb = backprop(net, x, y)
        for l in range(len(acc_w)):
            acc_w[l] += gw[l]
            acc_b[l] += gb[l]
    n = len(xs)
    return (
        [w - eta * g / n for w, g in zip(net.weights, acc_w)],
        [b - eta * g / n for b, g in zip(net.biases, acc_b)],
    )


def one_hidden_layer_reference(net, xs, ys, cfg):
    """Per-network mini-batch SGD for input->hidden->output nets, written
    as plain 2-D products batch by batch; training must equal it exactly."""
    wh, wo = (w.copy() for w in net.weights)
    bh, bo = (b.copy() for b in net.biases)
    x = np.ascontiguousarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64).reshape(x.shape[0], -1)
    rng = np.random.default_rng(cfg.seed)
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
    return [wh, wo], [bh, bo]


def assert_same_params(a, b):
    for pa, pb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(pa, pb)


class TestSigmoid:
    def test_quarter_points(self):
        assert sigmoid(0.0) == 0.5
        npt.assert_allclose(sigmoid(math.log(3.0)), 0.75, rtol=1e-15)
        npt.assert_allclose(sigmoid(-math.log(3.0)), 0.25, rtol=1e-15)

    def test_saturation(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


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
        net = new_network((3, 4, 1), seed=5)
        assert net.layer_sizes == (3, 4, 1)
        assert [w.shape for w in net.weights] == [(4, 3), (1, 4)]
        assert [b.shape for b in net.biases] == [(4,), (1,)]
        for w in net.weights:
            assert np.all(np.abs(w) < 0.5)
        for b in net.biases:
            npt.assert_array_equal(b, 0.0)

    def test_seed_determinism(self):
        a = new_network((3, 3, 1), seed=9)
        b = new_network((3, 3, 1), seed=9)
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)

    def test_validation(self):
        with pytest.raises(DomainError):
            new_network((3,))
        with pytest.raises(DomainError):
            new_network((3, 0, 1))
        with pytest.raises(ShapeError):
            BpNetwork((2, 1), [np.ones((2, 2))], [np.ones(1)])
        with pytest.raises(ShapeError):
            BpNetwork((2, 1), [np.ones((1, 2))], [np.ones(2)])


class TestForward:
    def test_zero_net(self):
        net = BpNetwork((1, 1, 1), [np.zeros((1, 1)), np.zeros((1, 1))], [np.zeros(1), np.zeros(1)])
        activations, pre = forward(net, [0.7])
        npt.assert_array_equal(activations[1], [0.5])
        npt.assert_array_equal(activations[2], [0.0])
        npt.assert_array_equal(pre[0], [0.0])
        assert predict(net, [0.7]) == 0.0

    def test_matches_manual_chain(self):
        net = new_network((3, 3, 1), seed=2)
        x = np.array([0.2, -0.5, 0.9])
        z1 = net.weights[0] @ x + net.biases[0]
        a1 = 1.0 / (1.0 + np.exp(-z1))
        out = net.weights[1] @ a1 + net.biases[1]
        activations, pre = forward(net, x)
        npt.assert_allclose(pre[0], z1, rtol=1e-15)
        npt.assert_allclose(activations[1], a1, rtol=1e-15)
        npt.assert_allclose(activations[2], out, rtol=1e-15)
        npt.assert_allclose(predict(net, x), out[0], rtol=1e-15)

    def test_output_is_not_squashed(self):
        # identity output layer can leave (0, 1)
        net = BpNetwork(
            (1, 1, 1),
            [np.array([[0.0]]), np.array([[10.0]])],
            [np.zeros(1), np.zeros(1)],
        )
        assert predict(net, [0.0]) == 5.0

    def test_input_shape(self):
        net = new_network((3, 3, 1))
        with pytest.raises(ShapeError):
            forward(net, [1.0, 2.0])
        with pytest.raises(ShapeError):
            predict(net, np.ones((3, 1)))

    def test_predict_batch_matches_loop(self):
        net = new_network((3, 3, 1), seed=4)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, 1.0, (12, 3))
        batch = predict_batch(net, xs)
        npt.assert_allclose(batch, [predict(net, x) for x in xs], rtol=1e-14)


class TestBackprop:
    def test_elementwise_gating(self):
        # the delta recursion multiplies componentwise
        npt.assert_array_equal(
            np.array([1.0, 2.0]) * np.array([3.0, 4.0]), [3.0, 8.0]
        )

    def test_zero_error_sample(self):
        net = new_network((3, 3, 1), seed=3)
        x = np.array([0.1, 0.4, 0.8])
        y = predict(net, x)
        gw, gb = backprop(net, x, y)
        for g in gw + gb:
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for seed in range(3):
            net = new_network((3, 3, 1), seed=seed)
            x = rng.uniform(-1.0, 1.0, 3)
            y = rng.uniform(-1.0, 1.0, 1)
            gw, gb = backprop(net, x, y)
            fw, fb = fd_gradients(net, x, y)
            assert max_relative_error(gw, fw) < 1e-6
            assert max_relative_error(gb, fb) < 1e-6

    def test_deep_net_finite_differences(self):
        net = new_network((2, 3, 3, 1), seed=8)
        x = np.array([0.3, -0.7])
        y = np.array([0.25])
        gw, gb = backprop(net, x, y)
        fw, fb = fd_gradients(net, x, y)
        assert max_relative_error(gw, fw) < 1e-6
        assert max_relative_error(gb, fb) < 1e-6

    def test_target_shape(self):
        net = new_network((3, 3, 1))
        with pytest.raises(ShapeError):
            backprop(net, np.ones(3), np.ones(2))


class TestTrainingCost:
    def test_by_hand(self):
        # prediction 5.0 vs target 4.0 on a one-sample set: 0.5 * 1
        net = BpNetwork(
            (1, 1, 1),
            [np.array([[0.0]]), np.array([[10.0]])],
            [np.zeros(1), np.zeros(1)],
        )
        assert training_cost(net, [[0.0]], [4.0]) == 0.5

    def test_zero_at_fit(self):
        net = new_network((2, 2, 1), seed=1)
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        ys = predict_batch(net, xs)
        assert training_cost(net, xs, ys) == 0.0


class TestTrain:
    def test_eta_zero_is_identity(self):
        net = new_network((3, 3, 1), seed=6)
        before_w = [w.copy() for w in net.weights]
        before_b = [b.copy() for b in net.biases]
        rng = np.random.default_rng(1)
        train(
            net,
            rng.uniform(0, 1, (10, 3)),
            rng.uniform(0, 1, 10),
            SgdConfig(eta=0.0, batch_size=10, epochs=1, seed=0),
        )
        for w, orig in zip(net.weights, before_w):
            npt.assert_array_equal(w, orig)
        for b, orig in zip(net.biases, before_b):
            npt.assert_array_equal(b, orig)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(0, 1, (20, 3))
        ys = rng.uniform(0, 1, 20)
        cfg = SgdConfig(eta=0.05, batch_size=4, epochs=10, seed=3)
        a = train(new_network((3, 3, 1), seed=7), xs, ys, cfg)
        b = train(new_network((3, 3, 1), seed=7), xs, ys, cfg)
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
        net = BpNetwork(
            (1, 1, 1),
            [np.array([[wh]]), np.array([[wo]])],
            [np.array([bh]), np.array([bo])],
        )
        train(net, [[x]], [y], SgdConfig(eta=eta, batch_size=1, epochs=1, seed=0))
        got = (
            net.weights[0][0, 0],
            net.biases[0][0],
            net.weights[1][0, 0],
            net.biases[1][0],
        )
        npt.assert_allclose(got, expected, rtol=1e-12)

    def test_full_batch_step_is_mean_gradient(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-1, 1, (8, 3))
        ys = rng.uniform(-1, 1, 8)
        net = new_network((3, 4, 1), seed=11)
        expected_w, expected_b = full_batch_backprop_step(net, xs, ys, 0.5)
        train(net, xs, ys, SgdConfig(eta=0.5, batch_size=8, epochs=1, seed=0))
        for got, exp in zip(net.weights + net.biases, expected_w + expected_b):
            npt.assert_allclose(got, exp, atol=1e-12)

    def test_deep_net_full_batch_step(self):
        # the batched update against the per-sample gradient oracle
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, (5, 2))
        ys = rng.uniform(-1, 1, 5)
        net = new_network((2, 3, 3, 1), seed=12)
        expected_w, expected_b = full_batch_backprop_step(net, xs, ys, 0.2)
        train(net, xs, ys, SgdConfig(eta=0.2, batch_size=5, epochs=1, seed=0))
        for got, exp in zip(net.weights + net.biases, expected_w + expected_b):
            npt.assert_allclose(got, exp, atol=1e-12)

    def test_cost_decreases_on_scaled_data(self):
        xs, ys = scaled_ar_dataset()
        net = new_network((3, 3, 1), seed=0)
        start = training_cost(net, xs, ys)
        train(net, xs, ys, SgdConfig(eta=0.01, batch_size=16, epochs=200, seed=0))
        assert training_cost(net, xs, ys) < start

    def test_divergence_detected(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (30, 3))
        ys = rng.uniform(0, 1, 30)
        net = new_network((3, 3, 1), seed=1)
        with pytest.raises(DivergenceError):
            train(net, xs, ys, SgdConfig(eta=1e6, batch_size=4, epochs=50, seed=0))

    def test_validation(self):
        net = new_network((3, 3, 1))
        cfg = SgdConfig()
        with pytest.raises(DomainError):
            train(net, np.empty((0, 3)), np.empty(0), cfg)
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 2)), np.ones(4), cfg)
        with pytest.raises(ShapeError):
            train(net, np.ones((4, 3)), np.ones(5), cfg)


class TestStackedTrain:
    def test_seven_seeds_equal_seven_single_trainings(self):
        xs, ys = scaled_ar_dataset()
        seeds = [3, 7, 7, 0, 11, 2, 5]  # a duplicate pair trains identically
        cfg = SgdConfig(eta=0.05, batch_size=16, epochs=40, seed=0)
        stacked = [new_network((3, 3, 1), seed=s) for s in seeds]
        assert train(stacked, xs, ys, cfg, seeds=seeds) is stacked
        for seed, net in zip(seeds, stacked):
            alone = train(
                new_network((3, 3, 1), seed=seed), xs, ys, replace(cfg, seed=seed)
            )
            assert_same_params(net, alone)
        assert_same_params(stacked[1], stacked[2])

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
        nets = train([new_network(sizes, seed=s) for s in seeds], xs, ys, cfg, seeds)
        for seed, net in zip(seeds, nets):
            exp_w, exp_b = one_hidden_layer_reference(
                new_network(sizes, seed=seed), xs, ys, replace(cfg, seed=seed)
            )
            for got, exp in zip(net.weights + net.biases, exp_w + exp_b):
                assert np.array_equal(got, exp)

    def test_four_layer_stack_equals_single_and_backprop(self):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-1, 1, (11, 2))
        ys = rng.uniform(-1, 1, 11)
        seeds = [12, 4, 9]
        cfg = SgdConfig(eta=0.2, batch_size=4, epochs=6, seed=0)
        stacked = train([new_network((2, 3, 3, 1), seed=s) for s in seeds], xs, ys, cfg, seeds)
        for seed, net in zip(seeds, stacked):
            alone = train(new_network((2, 3, 3, 1), seed=seed), xs, ys, replace(cfg, seed=seed))
            assert_same_params(net, alone)
        # one full-batch epoch of the stack is each net's backprop mean step
        nets = [new_network((2, 3, 3, 1), seed=s) for s in seeds]
        expected = [full_batch_backprop_step(net, xs, ys, 0.2) for net in nets]
        train(nets, xs, ys, SgdConfig(eta=0.2, batch_size=11, epochs=1), seeds)
        for net, (exp_w, exp_b) in zip(nets, expected):
            for got, exp in zip(net.weights + net.biases, exp_w + exp_b):
                npt.assert_allclose(got, exp, atol=1e-12)

    def test_default_seeds_come_from_the_config(self):
        xs, ys = scaled_ar_dataset()
        cfg = SgdConfig(eta=0.05, batch_size=16, epochs=5, seed=4)
        pair = train([new_network((3, 3, 1), seed=1), new_network((3, 3, 1), seed=2)], xs, ys, cfg)
        assert_same_params(pair[0], train(new_network((3, 3, 1), seed=1), xs, ys, cfg))
        assert_same_params(pair[1], train(new_network((3, 3, 1), seed=2), xs, ys, cfg))

    def divergence_case(self, seed):
        """Data and config near the divergence threshold: at eta 4 seeds 3
        and 5 train, seed 11 diverges with an infinite cost by epoch 21
        and seed 2 with a NaN cost at epoch 36."""
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 1, (30, 3))
        ys = rng.uniform(0, 1, 30)
        return xs, ys, SgdConfig(eta=4.0, batch_size=4, epochs=40, seed=seed)

    def divergence_message(self, seeds):
        xs, ys, cfg = self.divergence_case(0)
        with pytest.raises(DivergenceError) as info:
            train([new_network((3, 3, 1), seed=s) for s in seeds], xs, ys, cfg, seeds)
        return str(info.value)

    def test_divergence_of_a_later_seed_raises(self):
        for seed in (3, 5):
            xs, ys, cfg = self.divergence_case(seed)
            train(new_network((3, 3, 1), seed=seed), xs, ys, cfg)  # trains alone
        assert self.divergence_message([11]) == "training cost became non-finite (inf)"
        assert self.divergence_message([3, 5, 11]) == "training cost became non-finite (inf)"

    def test_lowest_diverging_seed_raises_even_if_a_later_one_diverges_first(self):
        assert self.divergence_message([2]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 2, 11]) == "training cost became non-finite (nan)"
        assert self.divergence_message([3, 11, 2]) == "training cost became non-finite (inf)"

    def test_networks_unchanged_after_divergence(self):
        xs, ys, cfg = self.divergence_case(0)
        nets = [new_network((3, 3, 1), seed=s) for s in (3, 11)]
        with pytest.raises(DivergenceError):
            train(nets, xs, ys, cfg, seeds=[3, 11])
        for seed, net in zip((3, 11), nets):
            assert_same_params(net, new_network((3, 3, 1), seed=seed))

    def test_stack_validation(self):
        xs, ys = np.ones((4, 3)), np.ones(4)
        cfg = SgdConfig(epochs=1)
        with pytest.raises(ShapeError):
            train([], xs, ys, cfg)
        with pytest.raises(ShapeError):
            train([new_network((3, 3, 1)), new_network((3, 3, 1))], xs, ys, cfg, seeds=[1])
        with pytest.raises(ShapeError):
            train([new_network((3, 3, 1)), new_network((3, 2, 1))], xs, ys, cfg, seeds=[1, 2])


class TestSgdConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SgdConfig(eta=-0.1)
        with pytest.raises(DomainError):
            SgdConfig(batch_size=0)
        with pytest.raises(DomainError):
            SgdConfig(epochs=-1)
