"""Training step and optimizer tests: closed-form updates, degenerate
settings that must reproduce plain backpropagation, and fit() determinism."""

from dataclasses import fields

import numpy as np
import pytest

from ibpnet.errors import ConfigError, NumericError
from ibpnet.gradcheck import rel_error, step_aux
from ibpnet.layers import FullyConnected, ReLU, Softmax
from ibpnet.network import Network, batched_forward
from ibpnet.losses import aux_loss_lp
from ibpnet.perturb import sweep
from ibpnet.presets import acceptance_net, build_net, zoo_net
from ibpnet.tangents import tangent_vectors
from ibpnet.training import (
    ALGOS,
    REGULARIZED,
    GradientSet,
    SgdMomentum,
    TrainConfig,
    _main_passes,
    adversarial_shift,
    error_rate,
    fit,
    input_gradient,
    run_step,
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


def const_grads(dw):
    return GradientSet(dw=[np.array([[dw]])], db=[np.zeros(1)])


def make_batch(rng, n, in_shape, classes):
    x = rng.normal(size=(n,) + in_shape)
    labels = np.eye(classes)[rng.integers(0, classes, size=n)]
    return x, labels


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"algo": "sgd"},
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_subnormal_velocity_is_zero_after_the_next_epochs_first_update(self, dtype):
        # a dead unit's velocity decays into subnormal values, where
        # 0.9 * 4 * (smallest subnormal) rounds back to itself; the first
        # update of a later epoch zeroes it after moving the weights, so
        # they equal an unflushed update's bit for bit
        cfg = TrainConfig(alpha=0.1, momentum=0.9, decay=1.0)
        nets = [Network([FullyConnected(1, 1, None, dtype)]) for _ in range(2)]
        opts = [SgdMomentum(net, cfg) for net in nets]

        def grads(g):
            return GradientSet(dw=[np.full((1, 1), g, dtype)], db=[np.full(1, g, dtype)])

        stuck = 4 * np.nextafter(dtype(0), dtype(1))
        for net, opt in zip(nets, opts):
            opt.update(net, grads(0.5), epoch=0)
            for v in opt.velocity[0]:
                v[...] = stuck
            opt.update(net, grads(0.0), epoch=0)
            assert [v.item() for v in opt.velocity[0]] == [stuck, stuck]
        opts[0].update(nets[0], grads(0.0), epoch=1)
        opts[1].update(nets[1], grads(0.0), epoch=0)  # unflushed reference
        assert [v.item() for v in opts[0].velocity[0]] == [0.0, 0.0]
        assert [v.item() for v in opts[1].velocity[0]] == [stuck, stuck]
        for a, b in zip(*(net.params()[0] for net in nets)):
            assert a.item() != 0.0
            np.testing.assert_array_equal(a, b)
        # later updates of the same epoch leave a normal velocity alone
        opts[0].update(nets[0], grads(0.5), epoch=1)
        opts[0].update(nets[0], grads(0.0), epoch=1)
        assert opts[0].velocity[0][0].item() == dtype(0.9) * dtype(0.5)

    def test_lr_decay_schedule(self):
        cfg = TrainConfig(alpha=0.1, decay=0.98)
        opt = SgdMomentum(one_param_net(), cfg)
        assert opt.lr_at(0) == 0.1
        assert opt.lr_at(1) == 0.1 * 0.98
        np.testing.assert_allclose(opt.lr_at(80), 0.019864885008204065, rtol=1e-12)

    def test_update_ignores_beta_and_algo_bitwise(self):
        # the step folds beta into dw; the optimizer is plain momentum on
        # whatever dw and db it is handed, whichever algorithm made them
        a, b = one_param_net(1.0), one_param_net(1.0)
        plain = TrainConfig(alpha=0.1, momentum=0.9, decay=1.0)
        regularized = TrainConfig(algo="pred-ibp", alpha=0.1, beta=0.7,
                                  momentum=0.9, decay=1.0)
        opt_a, opt_b = SgdMomentum(a, plain), SgdMomentum(b, regularized)
        for g in (0.3, -0.2):
            opt_a.update(a, const_grads(g), epoch=0)
            opt_b.update(b, const_grads(g), epoch=0)
        assert a.layers[0].w[0, 0] != 1.0
        np.testing.assert_array_equal(a.layers[0].w, b.layers[0].w)
        np.testing.assert_array_equal(a.layers[0].b, b.layers[0].b)


class TestAdversarialShift:
    def test_epsilon_zero_is_the_same_object(self):
        x = np.ones((2, 3))
        assert adversarial_shift(x, np.ones_like(x), 0.0) is x

    def test_shift_follows_gradient_sign(self):
        x = np.array([0.5, 0.5])
        got = adversarial_shift(x, np.array([2.0, -3.0]), 0.1)
        np.testing.assert_allclose(got, [0.6, 0.4], rtol=1e-15)


class TestStepClosedForms:
    def test_at_epsilon_zero_equals_bp_bitwise(self):
        rng = np.random.default_rng(4)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        cfg_at = TrainConfig(algo="at", epsilon=0.0)
        cfg_bp = TrainConfig(algo="bp")
        net_a, net_b = acceptance_net(7), acceptance_net(7)
        g_at = step_at(net_a, (x, labels), cfg_at).grads
        g_bp = step_bp(net_b, (x, labels), cfg_bp).grads
        for a, b in zip(g_at.dw, g_bp.dw):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_at_averages_in_place_into_arrays_no_layer_holds(self, epsilon):
        rng = np.random.default_rng(23)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        cfg = TrainConfig(algo="at", epsilon=epsilon)
        ref = acceptance_net(7)
        _, dy0 = _main_passes(ref, x, labels, cfg)
        first = [a.copy() for l in ref.param_layers for a in (l.dw, l.db)]
        _main_passes(ref, adversarial_shift(x, dy0, epsilon), labels, cfg)
        second = [a for l in ref.param_layers for a in (l.dw, l.db)]

        net, filled = acceptance_net(7), []
        vjp = net.vjp

        def recorded_vjp(*args, **kw):
            out = vjp(*args, **kw)
            filled.append([a for l in net.param_layers for a in (l.dw, l.db)])
            return out

        net.vjp = recorded_vjp
        grads = step_at(net, (x, labels), cfg).grads
        got = [a for pair in zip(grads.dw, grads.db) for a in pair]
        held = [a for l in net.param_layers for a in (l.dw, l.db)]
        for g, a, b, first_arr in zip(got, first, second, filled[0]):
            np.testing.assert_array_equal(g, (a + b) / 2.0)
            assert g is first_arr  # averaged into the first pass's arrays
            assert not any(np.shares_memory(g, h) for h in held)

    def test_fast_at_epsilon_zero_equals_bp_bitwise(self):
        rng = np.random.default_rng(5)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        net_a, net_b = acceptance_net(8), acceptance_net(8)
        g_fast = step_fast_at(net_a, (x, labels), TrainConfig(algo="fast-at", epsilon=0.0)).grads
        g_bp = step_bp(net_b, (x, labels), TrainConfig(algo="bp")).grads
        for a, b in zip(g_fast.dw + g_fast.db, g_bp.dw + g_bp.db):
            np.testing.assert_array_equal(a, b)

    def test_loss_ibp_beta_zero_update_equals_bp_bitwise(self):
        rng = np.random.default_rng(6)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        net_a, net_b = acceptance_net(9), acceptance_net(9)
        cfg_i = TrainConfig(algo="loss-ibp", beta=0.0, r=2)
        cfg_b = TrainConfig(algo="bp")
        g_i = step_loss_ibp(net_a, (x, labels), cfg_i).grads
        g_b = step_bp(net_b, (x, labels), cfg_b).grads
        SgdMomentum(net_a, cfg_i).update(net_a, g_i, epoch=0)
        SgdMomentum(net_b, cfg_b).update(net_b, g_b, epoch=0)
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
        dy0 = net.vjp((probs - labels) / x.shape[0])  # seeded below the final softmax
        aux, aux_dw = 0.0, [0.0] * len(net.param_layers)
        for t in tangents:
            aux += float((dy0 * t).sum())
            net.jvp(t)
            for k, l in enumerate(net.param_layers):
                aux_dw[k] = aux_dw[k] + l.weight_grad(l.tan_in, l.cot_out)[0]
        return aux, aux_dw

    def test_matches_per_tangent_pushes(self):
        batch, tangents, cfg = self.case()
        assert all(t.any() for t in tangents)
        # the step folds beta * aux into dw; step_aux takes it back out
        res, aux_dw = step_aux(acceptance_net(18), batch, cfg, tangents)
        aux = res.aux_loss
        ref_aux, ref_dw = self.per_tangent_reference(acceptance_net(18), batch,
                                                     tangents)
        for got, want in zip(aux_dw, ref_dw):
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
        step_fast_tbp(net, batch, cfg, tangents)
        assert len(pushes) == 1
        for t, s in zip(tangents, saved):
            np.testing.assert_array_equal(t, s)


class TestAuxPullStopsAtLowestWeightLayer:
    """tbp (five distinct non-zero tangents) and pred-ibp against a reference
    that pulls every tangent's seed all the way down to the input; then
    every algorithm against one whose main backward pulls down to the input."""

    NETS = {
        "acceptance": (acceptance_net, (1, 7, 7), 16),
        "zoo": (zoo_net, (1, 9, 9), 5),
        "mnist-tiny": (lambda seed: build_net("mnist-tiny", seed), (1, 28, 28), 10),
    }

    # the Network pass that runs the lowest weight layer's pull, per algorithm
    PULLS = {"bp": [], "loss-ibp": ["vjp"], "pred-ibp": ["vjp"], "tbp": [],
             "fast-tbp": ["vjp"], "at": ["vjp"], "fast-at": ["vjp_linear"]}

    @staticmethod
    def full_pull_reference(net, batch, tangents, cfg):
        """(aux loss, dw, db) with each tangent's beta-scaled seed pulled down
        to the input, its recorded pull terms contracted with the main backward's
        by aux_from_cot, as the step contracts them."""
        x, labels = batch
        n = x.shape[0]
        probs = net.forward(x, train=True)
        dy0 = net.vjp((probs - labels) / n, _dw=False)  # seeded below the final softmax
        total = 0.0
        for t in (tangents if tangents is not None else [dy0]):
            raw, seed = aux_loss_lp(net.jvp(t), cfg.r)
            total += raw / n
            delta = cfg.beta * seed / n
            for layer in reversed(net.layers[:-1]):  # below the final softmax
                delta = layer.lin_vjp(delta)
        net.aux_from_cot(0.0)
        return total, [l.dw for l in net.param_layers], [l.db for l in net.param_layers]

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("algo", ["tbp", "pred-ibp"])
    @pytest.mark.parametrize("name", list(NETS))
    def test_bitwise_equal_to_full_pull_and_never_pulls_lowest(self, name, algo, r):
        make, in_shape, classes = self.NETS[name]
        rng = np.random.default_rng(19)
        x, labels = make_batch(rng, 6, in_shape, classes)
        tangents = None
        if algo == "tbp":
            tangents = [rng.normal(0.0, 0.5, size=x.shape) for _ in range(5)]
        cfg = TrainConfig(algo=algo, beta=0.1, r=r)

        net = make(20)
        lowest, phase, aux_pulls = net.param_layers[0], ["main"], []
        pull, lin_vjp = lowest.vjp_linear, net.lin_vjp

        def recorded_pull(dy):
            aux_pulls.append(phase[0])
            return pull(dy)

        def aux_phase(*args, **kw):
            phase[0] = "aux"
            try:
                return lin_vjp(*args, **kw)
            finally:
                phase[0] = "main"

        lowest.vjp_linear, net.lin_vjp = recorded_pull, aux_phase
        res = run_step(net, (x, labels), cfg, tangents)
        # the main backward pulls dy0 for pred-ibp only; tbp never reads it
        assert aux_pulls == (["main"] if algo == "pred-ibp" else [])

        ref_aux, ref_dw, ref_db = self.full_pull_reference(make(20), (x, labels),
                                                           tangents, cfg)
        assert res.aux_loss == ref_aux
        for got, want in zip(res.grads.dw + res.grads.db, ref_dw + ref_db):
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def main_full_pull(net):
        """net with a main backward that always pulls down to the input, as a
        layer-by-layer loop over the default Layer.vjp."""
        def vjp(dy, pull=True, _dw=True):
            for layer in reversed(net.seeded):
                dy = layer.vjp(dy, _dw=_dw)
            return dy
        net.vjp = vjp
        return net

    @staticmethod
    def record_pulls(net):
        """Names of the Network passes during which the lowest weight layer
        pulls through its Jacobian, in call order."""
        lowest, passes, pulls = net.param_layers[0], [], []
        inner = lowest.vjp_linear

        def pull(dy):
            pulls.append(passes[-1])
            return inner(dy)

        lowest.vjp_linear = pull
        for name in ("vjp", "vjp_linear", "lin_vjp"):
            def wrapped(*args, name=name, run=getattr(net, name), **kw):
                passes.append(name)
                try:
                    return run(*args, **kw)
                finally:
                    passes.pop()
            setattr(net, name, wrapped)
        return pulls

    @pytest.mark.parametrize("name", list(NETS))
    def test_lowest_layer_pulls_only_for_dy0_and_grads_bitwise_equal(self, name):
        make, in_shape, classes = self.NETS[name]
        rng = np.random.default_rng(21)
        x, labels = make_batch(rng, 6, in_shape, classes)
        tangents = [rng.normal(0.0, 0.5, size=x.shape) for _ in range(3)]
        for algo, want_pulls in self.PULLS.items():
            cfg = TrainConfig(algo=algo, beta=0.1, epsilon=0.1)
            net = make(22)
            pulls = self.record_pulls(net)
            res = run_step(net, (x, labels), cfg, tangents)
            assert pulls == want_pulls, algo
            ref = run_step(self.main_full_pull(make(22)), (x, labels), cfg, tangents)
            assert (res.main_loss, res.aux_loss) == (ref.main_loss, ref.aux_loss), algo
            got, want = res.grads, ref.grads
            for g, w in zip(got.dw + got.db, want.dw + want.db):
                np.testing.assert_array_equal(g, w, err_msg=algo)


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
        # every step returns one update direction, dw and db; the regularized
        # ones fold beta * aux into dw, so at beta 1 their dw leaves bp's
        rng = np.random.default_rng(9)
        x, labels = make_batch(rng, 4, (1, 7, 7), 16)
        tangents = [rng.normal(size=x.shape)]
        bp = run_step(acceptance_net(0), (x, labels), TrainConfig()).grads
        shapes = [w.shape for w, _ in acceptance_net(0).params()]
        for algo in ALGOS:
            res = run_step(acceptance_net(0), (x, labels), TrainConfig(algo=algo, beta=1.0),
                           tangents)
            assert [f.name for f in fields(res.grads)] == ["dw", "db"]
            assert [a.shape for a in res.grads.dw] == shapes
            moved = any((a != b).any() for a, b in zip(res.grads.dw, bp.dw))
            assert moved == (algo in REGULARIZED), algo

    def test_pred_ibp_and_tbp_pull_nothing_at_beta_zero_or_a_zero_seed(self):
        # such a pull adds only zeros, up to their sign, to bp's dw; the step
        # skips it, so dw stays bp's bit for bit and the pass costs nothing
        rng = np.random.default_rng(10)
        x, labels = make_batch(rng, 4, (1, 7, 7), 16)
        tangents = [rng.normal(size=x.shape)]
        cases = [("pred-ibp", 0.0, None, 0), ("tbp", 0.0, tangents, 0),
                 ("tbp", 1.0, [np.zeros_like(x)], 0),
                 ("pred-ibp", 0.1, None, 1), ("tbp", 0.1, tangents * 2, 2)]
        for algo, beta, tan, want in cases:
            net, pulls = acceptance_net(0), []
            pull = net.lin_vjp
            net.lin_vjp = lambda *a, **kw: pulls.append(1) or pull(*a, **kw)
            run_step(net, (x, labels), TrainConfig(algo=algo, beta=beta), tan)
            assert len(pulls) == want, (algo, beta)

    @pytest.mark.parametrize("algo,r", [("loss-ibp", 2), ("pred-ibp", 1), ("pred-ibp", 2),
                                        ("tbp", 2), ("fast-tbp", 2)])
    def test_folded_term_scales_with_beta(self, algo, r):
        # dw = bp dw + beta * aux, with aux independent of beta: doubling beta
        # doubles dw's departure from bp's, and db stays bp's bit for bit
        rng = np.random.default_rng(11)
        x, labels = make_batch(rng, 8, (1, 7, 7), 16)
        tangents = [rng.normal(size=x.shape) for _ in range(2)]
        bp = run_step(acceptance_net(3), (x, labels), TrainConfig()).grads
        one, two = (run_step(acceptance_net(3), (x, labels),
                             TrainConfig(algo=algo, beta=beta, r=r), tangents).grads
                    for beta in (0.05, 0.1))
        for w1, w2, w0 in zip(one.dw, two.dw, bp.dw):
            assert (w1 != w0).any()
            np.testing.assert_allclose(w2 - w0, 2.0 * (w1 - w0), rtol=1e-7,
                                       atol=1e-12 * np.abs(w0).max())
        for d1, d2, d0 in zip(one.db, two.db, bp.db):
            np.testing.assert_array_equal(d1, d0)
            np.testing.assert_array_equal(d2, d0)


class TestInputGradient:
    def test_batch_size_independent(self):
        rng = np.random.default_rng(9)
        net = acceptance_net(10)
        x, labels = make_batch(rng, 10, (1, 7, 7), 16)
        a, _ = input_gradient(net, x, labels, batch_size=3)
        b, _ = input_gradient(net, x, labels, batch_size=100)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_leaves_weights_alone(self):
        rng = np.random.default_rng(13)
        net = acceptance_net(13)
        x, labels = make_batch(rng, 10, (1, 7, 7), 16)
        before = [w.copy() for w, _ in net.params()]
        input_gradient(net, x, labels)
        for old, (w, _) in zip(before, net.params()):
            np.testing.assert_array_equal(old, w)

    def test_returns_the_clean_outputs_of_its_forward(self):
        rng = np.random.default_rng(12)
        net = acceptance_net(12)
        x, labels = make_batch(rng, 10, (1, 7, 7), 16)
        _, out = input_gradient(net, x, labels, batch_size=3)
        np.testing.assert_array_equal(out, batched_forward(net, x, batch_size=3))

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

        g, _ = input_gradient(net, x, labels)
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

    def test_non_finite_loss_names_input_gradient(self):
        # finite logits of +-1e308 overflow when the loss subtracts their max.
        # Float32 logits cannot: the loss runs in float64, where +-3e38 is small.
        fc = FullyConnected(1, 2, np.random.default_rng(0))
        fc.w[...] = [[1e308, -1e308]]
        net = Network([fc])
        x, labels = np.ones((2, 1)), np.eye(2)
        assert np.isfinite(net.forward(x)).all()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="in input_gradient"):
            input_gradient(net, x, labels)

    def test_non_finite_gradient_names_input_gradient(self):
        # the logits and the float64 loss are finite, but the float32
        # per-sample gradient (the pull times the batch size) overflows to inf
        fc = FullyConnected(1, 2, np.random.default_rng(0), np.float32)
        fc.w[...] = [[3e38, -3e38]]
        net = Network([fc])
        x, labels = np.ones((2, 1)), np.eye(2)
        assert np.isfinite(net.forward(x)).all()
        # an adversarial sweep must fail too, not take sign(inf) of the gradient
        for run in (lambda: input_gradient(net, x, labels),
                    lambda: sweep(net, x, labels, "adversarial", [0, 0.1], seed=0)):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericError, match="input gradient in input_gradient"):
                run()


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

    def test_tbp_without_tangents_raises_before_any_step(self):
        x = np.zeros((4, 1, 7, 7))
        for algo in ("tbp", "fast-tbp"):
            with pytest.raises(ConfigError, match="tangent"):
                fit(acceptance_net(0), x, np.zeros((4, 16)),
                    TrainConfig(algo=algo, epochs=0))

    @pytest.mark.parametrize("name", ["mnist-tiny", "mnist-paper"])
    def test_tbp_trains_the_same_bytes_on_float32_tangents(self, name):
        # a float32 net casts each tangent to float32 at its first weight
        # layer, so storing the float64 tangents as float32 moves no byte
        rng = np.random.default_rng(18)
        x = rng.random((16, 1, 28, 28))
        labels = np.eye(10)[rng.integers(0, 10, size=16)]
        tan64 = tangent_vectors(x, 0.9).transpose(0, 2, 1, 3, 4)
        cfg = TrainConfig(algo="tbp", beta=0.1, r=2, epochs=1, batch_size=8, seed=0)
        nets = [build_net(name, 0), build_net(name, 0)]
        fit(nets[0], x, labels, cfg, tangents=tan64)
        fit(nets[1], x, labels, cfg, tangents=tan64.astype(np.float32))
        for (wa, ba), (wb, bb) in zip(nets[0].params(), nets[1].params()):
            assert wa.dtype == np.float32
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()

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
