"""Training step and optimizer tests: closed-form updates, degenerate
settings that must reproduce plain backpropagation, and fit() determinism."""

import numpy as np
import pytest

from ibpnet.errors import ConfigError
from ibpnet.gradcheck import rel_error
from ibpnet.layers import FullyConnected, ReLU, Softmax
from ibpnet.network import Network
from ibpnet.presets import acceptance_net
from ibpnet.training import (
    GradientSet,
    SgdMomentum,
    TrainConfig,
    adversarial_shift,
    error_rate,
    fit,
    input_gradient,
    run_step,
    sgd_update,
    step_at,
    step_bp,
    step_fast_at,
    step_fast_tbp,
    step_loss_ibp,
)


def one_param_net(w0=1.0):
    net = Network([FullyConnected(1, 1, np.random.default_rng(0))])
    net.layers[0].w[:] = w0
    net.layers[0].b[:] = 0.0
    return net


def const_grads(dw, adw=0.0):
    return GradientSet(dw=[np.array([[dw]])], db=[np.zeros(1)],
                       aux_dw=[np.array([[adw]])])


def make_batch(rng, n, in_shape, classes):
    x = rng.normal(size=(n,) + in_shape)
    labels = np.eye(classes)[rng.integers(0, classes, size=n)]
    return x, labels


class TestTrainConfig:
    def test_defaults_resolve_skip_softmax_per_algo(self):
        assert TrainConfig(algo="bp").skip_softmax is False
        assert TrainConfig(algo="pred-ibp").skip_softmax is True
        assert TrainConfig(algo="tbp").skip_softmax is True
        assert TrainConfig(algo="fast-tbp").skip_softmax is False
        assert TrainConfig(algo="tbp", skip_softmax=False).skip_softmax is False

    @pytest.mark.parametrize("kwargs", [
        {"algo": "sgd"},
        {"loss": "hinge"},
        {"alpha": 0.0},
        {"beta": -1.0},
        {"epsilon": -0.1},
        {"momentum": 1.0},
        {"decay": 0.0},
        {"decay": 1.5},
        {"r": 3},
        {"batch_size": 0},
        {"epochs": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestSgdMomentum:
    def test_velocity_recursion_closed_form(self):
        # v <- m v + g, w <- w - lr v with g = 0.5, m = 0.9, lr = 0.1:
        # v1 = 0.5, w1 = 0.95; v2 = 0.95, w2 = 0.855
        net = one_param_net(1.0)
        cfg = TrainConfig(alpha=0.1, momentum=0.9, decay=1.0)
        opt = SgdMomentum(net, cfg)
        opt.update(net, const_grads(0.5), epoch=0)
        assert opt.velocity[0][0][0, 0] == 0.5
        np.testing.assert_allclose(net.layers[0].w, [[0.95]], rtol=1e-15)
        opt.update(net, const_grads(0.5), epoch=0)
        np.testing.assert_allclose(net.layers[0].w, [[0.855]], rtol=1e-15)
        # two constant-gradient steps move w by -lr*g*(2 + m) in total
        np.testing.assert_allclose(1.0 - net.layers[0].w[0, 0],
                                   0.1 * 0.5 * (2 + 0.9), rtol=1e-12)

    def test_lr_decay_schedule(self):
        cfg = TrainConfig(alpha=0.1, decay=0.98)
        opt = SgdMomentum(one_param_net(), cfg)
        assert opt.lr_at(0) == 0.1
        assert opt.lr_at(1) == 0.1 * 0.98
        np.testing.assert_allclose(opt.lr_at(80), 0.019864885008204065, rtol=1e-12)

    def test_beta_combines_aux_direction(self):
        net = one_param_net(1.0)
        cfg = TrainConfig(algo="loss-ibp", alpha=0.1, beta=0.1, momentum=0.0, decay=1.0)
        sgd_update(net, const_grads(0.5, adw=2.0), cfg, epoch=0)
        np.testing.assert_allclose(net.layers[0].w, [[1.0 - 0.1 * 0.7]], rtol=1e-15)

    def test_beta_zero_ignores_aux_bitwise(self):
        a, b = one_param_net(1.0), one_param_net(1.0)
        plain = TrainConfig(alpha=0.1, momentum=0.9, decay=1.0)
        with_aux = TrainConfig(algo="loss-ibp", alpha=0.1, beta=0.0,
                               momentum=0.9, decay=1.0)
        sgd_update(a, const_grads(0.3), plain, epoch=0)
        sgd_update(b, const_grads(0.3, adw=7.0), with_aux, epoch=0)
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)

    def test_absent_aux_equals_zero_aux_bitwise(self):
        a, b = one_param_net(1.0), one_param_net(1.0)
        cfg = TrainConfig(algo="loss-ibp", alpha=0.1, beta=0.1, momentum=0.9, decay=1.0)
        main_only = GradientSet(dw=[np.array([[0.3]])], db=[np.zeros(1)])
        sgd_update(a, main_only, cfg, epoch=0)
        sgd_update(b, const_grads(0.3, adw=0.0), cfg, epoch=0)
        assert a.layers[0].w[0, 0] != 1.0
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)


class TestAdversarialShift:
    def test_epsilon_zero_is_the_same_object(self):
        x = np.ones((2, 3))
        assert adversarial_shift(x, np.ones_like(x), 0.0) is x

    def test_shift_follows_gradient_sign(self):
        x = np.array([0.5, 0.5])
        got = adversarial_shift(x, np.array([2.0, -3.0]), 0.1)
        np.testing.assert_allclose(got, [0.6, 0.4], rtol=1e-15)

    def test_clip_to_unit_interval(self):
        x = np.array([0.95, 0.05])
        got = adversarial_shift(x, np.array([1.0, -1.0]), 0.1, clip=True)
        np.testing.assert_array_equal(got, [1.0, 0.0])


class TestStepClosedForms:
    def test_bp_on_linear_net_squared_loss(self):
        # out = w x, L = (out - t)^2 / 2 with one sample: dw = x (out - t)
        net = one_param_net(2.0)
        cfg = TrainConfig(algo="bp", loss="squared", momentum=0.0, decay=1.0)
        loss, grads = step_bp(net, (np.array([[1.0]]), np.array([[0.0]])), cfg)
        assert loss == 2.0
        np.testing.assert_array_equal(grads.dw[0], [[2.0]])
        np.testing.assert_array_equal(grads.db[0], [2.0])

    def test_at_epsilon_zero_equals_bp_bitwise(self):
        rng = np.random.default_rng(4)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        cfg_at = TrainConfig(algo="at", epsilon=0.0)
        cfg_bp = TrainConfig(algo="bp")
        net_a, net_b = acceptance_net(7), acceptance_net(7)
        _, g_at = step_at(net_a, (x, labels), cfg_at)
        _, g_bp = step_bp(net_b, (x, labels), cfg_bp)
        for a, b in zip(g_at.dw, g_bp.dw):
            np.testing.assert_array_equal(a, b)

    def test_fast_at_epsilon_zero_equals_bp_bitwise(self):
        rng = np.random.default_rng(5)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        net_a, net_b = acceptance_net(8), acceptance_net(8)
        _, g_fast = step_fast_at(net_a, (x, labels), TrainConfig(algo="fast-at", epsilon=0.0))
        _, g_bp = step_bp(net_b, (x, labels), TrainConfig(algo="bp"))
        for a, b in zip(g_fast.dw + g_fast.db, g_bp.dw + g_bp.db):
            np.testing.assert_array_equal(a, b)

    def test_loss_ibp_beta_zero_update_equals_bp_bitwise(self):
        rng = np.random.default_rng(6)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        net_a, net_b = acceptance_net(9), acceptance_net(9)
        cfg_i = TrainConfig(algo="loss-ibp", beta=0.0, r=2)
        cfg_b = TrainConfig(algo="bp")
        _, _, g_i = step_loss_ibp(net_a, (x, labels), cfg_i)
        _, g_b = step_bp(net_b, (x, labels), cfg_b)
        sgd_update(net_a, g_i, cfg_i, 0)
        sgd_update(net_b, g_b, cfg_b, 0)
        for (wa, ba), (wb, bb) in zip(net_a.params(), net_b.params()):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)


class TestFastTbpFiveTangents:
    """The step pushes the summed tangent once; the reference below makes
    one push and one contraction per tangent, as the four-pass form does."""

    @staticmethod
    def case():
        rng = np.random.default_rng(17)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        tangents = [rng.normal(0.0, 0.5, size=x.shape) for _ in range(5)]
        return (x, labels), tangents, TrainConfig(algo="fast-tbp", beta=0.1)

    @staticmethod
    def per_tangent_reference(net, batch, tangents):
        x, labels = batch
        probs = net.forward(x, train=True)
        top = len(net.layers) - 1  # seed below the final softmax
        dy0 = net.vjp((probs - labels) / x.shape[0], upto=top)
        net.zero_aux()
        aux = 0.0
        for t in tangents:
            aux += float((dy0 * t).sum())
            net.jvp(t, upto=top)
            net.aux_from_cot()
        return aux, [l.aux_dw.copy() for l in net.param_layers]

    def test_matches_per_tangent_pushes(self):
        batch, tangents, cfg = self.case()
        assert all(t.any() for t in tangents)
        _, aux, grads = step_fast_tbp(acceptance_net(18), batch, tangents, cfg)
        ref_aux, ref_dw = self.per_tangent_reference(acceptance_net(18), batch,
                                                     tangents)
        for got, want in zip(grads.aux_dw, ref_dw):
            assert want.any()
            assert rel_error(got, want)[0] <= 1e-10
        assert abs(aux - ref_aux) <= 1e-10 * abs(ref_aux)

    def test_one_push_per_step_and_tangents_untouched(self):
        batch, tangents, cfg = self.case()
        saved = [t.copy() for t in tangents]
        net = acceptance_net(18)
        pushes = []
        jvp = net.jvp

        def counted_jvp(v, **kw):
            pushes.append(v)
            return jvp(v, **kw)

        net.jvp = counted_jvp
        step_fast_tbp(net, batch, tangents, cfg)
        assert len(pushes) == 1
        for t, s in zip(tangents, saved):
            np.testing.assert_array_equal(t, s)


class TestRunStep:
    def test_tbp_without_tangents_raises(self):
        rng = np.random.default_rng(7)
        x, labels = make_batch(rng, 4, (1, 7, 7), 16)
        for algo in ("tbp", "fast-tbp"):
            with pytest.raises(ConfigError, match="tangent"):
                run_step(acceptance_net(0), (x, labels), TrainConfig(algo=algo))

    def test_aux_loss_zero_for_unregularized_algos(self):
        rng = np.random.default_rng(8)
        x, labels = make_batch(rng, 4, (1, 7, 7), 16)
        for algo in ("bp", "at", "fast-at"):
            res = run_step(acceptance_net(0), (x, labels), TrainConfig(algo=algo))
            assert res.aux_loss == 0.0

    def test_aux_gradients_only_from_regularized_algos(self):
        rng = np.random.default_rng(9)
        x, labels = make_batch(rng, 4, (1, 7, 7), 16)
        tangents = [rng.normal(size=x.shape)]
        for algo in ("bp", "at", "fast-at"):
            res = run_step(acceptance_net(0), (x, labels), TrainConfig(algo=algo))
            assert res.grads.aux_dw is None
        for algo in ("loss-ibp", "pred-ibp", "tbp", "fast-tbp"):
            res = run_step(acceptance_net(0), (x, labels), TrainConfig(algo=algo, beta=1.0),
                           tangents)
            assert [a.shape for a in res.grads.aux_dw] == [w.shape for w, _ in
                                                           acceptance_net(0).params()]


class TestInputGradient:
    def test_batch_size_independent(self):
        rng = np.random.default_rng(9)
        net = acceptance_net(10)
        x, labels = make_batch(rng, 10, (1, 7, 7), 16)
        a = input_gradient(net, x, labels, batch_size=3)
        b = input_gradient(net, x, labels, batch_size=100)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_matches_fd_of_single_sample_loss(self):
        rng = np.random.default_rng(10)
        net = acceptance_net(11)
        x, labels = make_batch(rng, 1, (1, 7, 7), 16)
        from ibpnet.losses import nll_softmax_loss

        def loss_of(xv):
            out = xv
            for layer in net.layers[:-1]:
                out = layer.forward(out)
            return nll_softmax_loss(out, labels)[0]

        g = input_gradient(net, x, labels)
        h = 1e-5
        flat = x.reshape(-1)
        for i in range(0, flat.size, 7):  # spot-check a stride of coordinates
            old = flat[i]
            flat[i] = old + h
            up = loss_of(x)
            flat[i] = old - h
            dn = loss_of(x)
            flat[i] = old
            np.testing.assert_allclose(g.reshape(-1)[i], (up - dn) / (2 * h),
                                       rtol=0, atol=1e-8)


class TestErrorRate:
    def test_int_and_onehot_labels_agree(self):
        net = Network([FullyConnected(3, 3, np.random.default_rng(11))])
        net.layers[0].w[:] = np.eye(3)
        net.layers[0].b[:] = 0.0
        x = np.array([[3.0, 1.0, 0.0],
                      [0.0, 2.0, 1.0],
                      [0.0, 1.0, 5.0],
                      [9.0, 0.0, 1.0]])
        ints = np.array([0, 1, 0, 2])  # two misses: rows 2 and 3
        assert error_rate(net, x, ints) == 0.5
        assert error_rate(net, x, np.eye(3)[ints]) == 0.5


class TestFit:
    def test_same_seed_same_weights(self):
        rng = np.random.default_rng(12)
        x, labels = make_batch(rng, 30, (1, 7, 7), 16)
        cfg = TrainConfig(algo="bp", epochs=2, batch_size=8, seed=5)
        net_a, net_b = acceptance_net(13), acceptance_net(13)
        fit(net_a, x, labels, cfg)
        fit(net_b, x, labels, cfg)
        for (wa, ba), (wb, bb) in zip(net_a.params(), net_b.params()):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_different_seed_different_order(self):
        rng = np.random.default_rng(13)
        x, labels = make_batch(rng, 30, (1, 7, 7), 16)
        net_a, net_b = acceptance_net(14), acceptance_net(14)
        fit(net_a, x, labels, TrainConfig(epochs=1, batch_size=8, seed=0))
        fit(net_b, x, labels, TrainConfig(epochs=1, batch_size=8, seed=1))
        assert any(not np.array_equal(wa, wb)
                   for (wa, _), (wb, _) in zip(net_a.params(), net_b.params()))

    def test_zero_epochs_leaves_weights_untouched(self):
        rng = np.random.default_rng(14)
        x, labels = make_batch(rng, 10, (1, 7, 7), 16)
        net = acceptance_net(15)
        before = [w.copy() for w, _ in net.params()]
        history = fit(net, x, labels, TrainConfig(epochs=0))
        assert history == []
        for old, (w, _) in zip(before, net.params()):
            np.testing.assert_array_equal(old, w)

    def test_history_and_eval_and_log(self):
        rng = np.random.default_rng(15)
        x, labels = make_batch(rng, 20, (1, 7, 7), 16)
        seen = []
        history = fit(acceptance_net(16), x, labels,
                      TrainConfig(epochs=3, batch_size=10),
                      eval_set=(x, labels), log=seen.append)
        assert [s.epoch for s in history] == [0, 1, 2]
        assert all(s.test_error is not None for s in history)
        assert seen == history

    def test_label_count_mismatch(self):
        with pytest.raises(ConfigError, match="labels count"):
            fit(acceptance_net(0), np.zeros((4, 1, 7, 7)), np.zeros((3, 4)),
                TrainConfig())

    def test_batch_transform_applied(self):
        rng = np.random.default_rng(16)
        x, labels = make_batch(rng, 20, (1, 7, 7), 16)
        cfg = TrainConfig(epochs=1, batch_size=5, seed=2)
        net_a, net_b = acceptance_net(17), acceptance_net(17)
        fit(net_a, x, labels, cfg)
        fit(net_b, x, labels, cfg, batch_transform=lambda xb: xb * 0.5)
        assert any(not np.array_equal(wa, wb)
                   for (wa, _), (wb, _) in zip(net_a.params(), net_b.params()))
