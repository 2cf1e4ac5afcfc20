"""Tests of the verification machinery itself: the relative-error metric,
finite-difference driver, oracle tensor ops, and the frozen linearization."""

import tracemalloc

import numpy as np
import pytest

from ibpnet import gradcheck, losses, training
from ibpnet.errors import ConfigError
from ibpnet.gradcheck import (
    CheckReport,
    FrozenChain,
    _main_passes,
    _neuron_cases,
    _oracle_conv,
    _oracle_conv_transpose,
    _oracle_gather,
    _oracle_meanpool,
    _oracle_meanpool_transpose,
    _oracle_scatter,
    _synthetic_batch,
    all_passed,
    check_aux_grad_fd,
    check_fast_at_firstorder,
    check_fast_tbp_equivalence,
    check_layer_identities,
    check_main_grad_fd,
    check_noise_injection,
    compare_tensors,
    fd_weight_grad,
    format_reports,
    rel_error,
)
from ibpnet.layers import FullyConnected, ReLU, Softmax
from ibpnet.network import Network
from ibpnet.presets import acceptance_net, zoo_net
from ibpnet.tensor import conv2d, conv2d_input_grad, maxpool_forward, rng_stream
from ibpnet.training import TrainConfig

from batches import make_batch


def one_param_net(w0):
    net = Network([FullyConnected(1, 1, np.random.default_rng(0))])
    net.layers[0].w[:] = w0
    net.layers[0].b[:] = 0.0
    return net


class TestRelError:
    def test_identical_tensors(self):
        a = np.array([1.0, -2.0, 0.0])
        err, _ = rel_error(a, a.copy())
        assert err == 0.0

    def test_both_zero(self):
        err, _ = rel_error(np.zeros(3), np.zeros(3))
        assert err == 0.0

    def test_known_value_and_worst_index(self):
        err, idx = rel_error(np.array([1.0, 2.0]), np.array([1.0, 2.02]))
        np.testing.assert_allclose(err, 0.02 / 2.02, rtol=1e-12)
        assert idx == 1

    def test_floor_suppresses_tiny_denominators(self):
        # absolute noise far below the tensor scale must not dominate
        err, _ = rel_error(np.array([1.0, 1e-9]), np.array([1.0, 0.0]))
        assert err == 1e-9 / 0.01


class TestCompareTensors:
    def test_pass_and_fail(self):
        a = np.array([1.0, 2.0])
        rep = compare_tensors("same", [("w", a, a.copy())], tol=1e-12)
        assert rep.passed and rep.max_rel_err == 0.0
        rep = compare_tensors("off", [("w", a, a * 1.1)], tol=1e-3)
        assert not rep.passed
        assert rep.worst.startswith("w[")

    def test_report_line_format(self):
        line = CheckReport("demo", 1.5e-7, 1e-6, True, "w[3]").line()
        assert line.startswith("PASS")
        assert "demo" in line and "1.500e-07" in line and "[w[3]]" in line
        assert CheckReport("demo", 1.0, 1e-6, False).line().startswith("FAIL")


class TestFdWeightGrad:
    def test_quadratic(self):
        net = one_param_net(3.0)
        dws, dbs = fd_weight_grad(net, lambda: float(net.layers[0].w[0, 0] ** 2))
        assert abs(dws[0][0, 0] - 6.0) < 1e-9
        assert dbs[0][0] == 0.0

    def test_linear_is_exact(self):
        net = one_param_net(2.0)
        dws, _ = fd_weight_grad(net, lambda: float(5.0 * net.layers[0].w[0, 0]))
        assert abs(dws[0][0, 0] - 5.0) < 1e-10

    def test_biases_flag(self):
        net = one_param_net(1.0)
        evals = []
        _, dbs = fd_weight_grad(net, lambda: evals.append(1) or 0.0, biases=False)
        assert len(evals) == 2  # only the weight entry was stepped
        np.testing.assert_array_equal(dbs[0], [0.0])

    def test_restores_weights(self):
        net = one_param_net(3.0)
        fd_weight_grad(net, lambda: float(net.layers[0].w[0, 0] ** 2))
        assert net.layers[0].w[0, 0] == 3.0

    def test_error_shrinks_quadratically_in_h(self):
        # central differences have O(h^2) truncation: shrinking h tenfold
        # must shrink the error of a known derivative by at least 10x
        net = one_param_net(2.0)
        fn = lambda: float(net.layers[0].w[0, 0] ** 4)
        errs = {}
        for h in (1e-4, 1e-5):
            dws, _ = fd_weight_grad(net, fn, h=h)
            errs[h] = abs(dws[0][0, 0] - 32.0)
        assert errs[1e-5] < errs[1e-4] / 10.0


class TestOracleOps:
    """Independent loop/einsum formulations must agree with the production
    tensor kernels on random batches."""

    def test_conv_pair(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 7, 8))
        w = rng.normal(size=(4, 3, 3, 2))
        got = _oracle_conv(x, w, (1, 0), (2, 2))
        np.testing.assert_allclose(got, conv2d(x, w, (1, 0), (2, 2)), rtol=1e-12)

    def test_conv_transpose_pair(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3, 3, 2))
        dy = rng.normal(size=(2, 4, 4, 4))
        got = _oracle_conv_transpose(dy, w, (1, 0), (2, 2), (7, 8))
        ref = conv2d_input_grad(dy, w, (1, 0), (2, 2), (7, 8))
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_pool_pair(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 7, 6))
        out, argmax = maxpool_forward(x, (3, 3), (2, 2))
        v = rng.normal(size=x.shape)
        dy = rng.normal(size=out.shape)
        gathered = _oracle_gather(v, argmax, (7, 6))
        assert gathered.shape == out.shape
        np.testing.assert_array_equal(_oracle_gather(x, argmax, (7, 6)), out)
        # gather/scatter must be adjoints of each other
        lhs = float((dy * gathered).sum())
        rhs = float((_oracle_scatter(dy, argmax, (7, 6)) * v).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_meanpool_pair(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(2, 1, 5, 5))
        out = _oracle_meanpool(v, (2, 2), (2, 2))
        dy = rng.normal(size=out.shape)
        lhs = float((dy * out).sum())
        back = _oracle_meanpool_transpose(dy, (2, 2), (2, 2), (5, 5))
        np.testing.assert_allclose(lhs, float((back * v).sum()), rtol=1e-12)


class TestFrozenChain:
    def test_spans_the_seeded_layers(self):
        # the oracle's push and pull equal the layers' own over net.seeded:
        # both end at the logits, below the final softmax
        rng = np.random.default_rng(4)
        net = acceptance_net(1)
        x, _ = make_batch(rng, 3, (1, 7, 7), 16)
        chain = FrozenChain(net, x)
        assert len(chain.frozen) == len(net.seeded) == len(net.layers) - 1
        t, s = rng.normal(size=x.shape), rng.normal(size=(3, 16))
        pushed, pulled = t, s
        for layer in net.seeded:
            pushed = layer.jvp(pushed)
        for layer in reversed(net.seeded):
            pulled = layer.vjp_linear(pulled)
        np.testing.assert_allclose(chain.push(t), pushed, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(chain.pull(s), pulled, rtol=1e-12, atol=1e-14)

    def test_push_pull_adjoint(self):
        rng = np.random.default_rng(5)
        net = acceptance_net(1)
        x, _ = make_batch(rng, 3, (1, 7, 7), 16)
        chain = FrozenChain(net, x)
        t = rng.normal(size=x.shape)
        s = rng.normal(size=(3, 16))
        lhs = float((s * chain.push(t)).sum())
        rhs = float((chain.pull(s) * t).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_push_is_linear(self):
        rng = np.random.default_rng(6)
        net = acceptance_net(2)
        x, _ = make_batch(rng, 2, (1, 7, 7), 16)
        chain = FrozenChain(net, x)
        a, b = rng.normal(size=x.shape), rng.normal(size=x.shape)
        lhs = chain.push(2.0 * a - b)
        rhs = 2.0 * chain.push(a) - chain.push(b)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_weights_read_live_but_structure_frozen(self):
        rng = np.random.default_rng(7)
        net = acceptance_net(3)
        x, _ = make_batch(rng, 2, (1, 7, 7), 16)
        chain = FrozenChain(net, x)
        t = rng.normal(size=x.shape)
        before = chain.push(t)
        net.layers[0].w[0, 0, 0, 0] += 0.5  # visible: weights are live
        after = chain.push(t)
        assert not np.array_equal(before, after)
        net.layers[0].w[0, 0, 0, 0] -= 0.5
        np.testing.assert_array_equal(chain.push(t), before)  # masks unchanged


class TestCheckValidation:
    def test_fast_at_eps_list_must_decrease(self):
        rng = np.random.default_rng(8)
        net = acceptance_net(4)
        batch = make_batch(rng, 4, (1, 7, 7), 16)
        with pytest.raises(ConfigError, match="decreasing"):
            check_fast_at_firstorder(net, batch, eps_list=(1e-4, 1e-3))

    def test_noise_injection_label_validation(self):
        with pytest.raises(ConfigError, match="label"):
            check_noise_injection(np.array([0.5]), 0.3, np.array([0.4]), 2)

    def test_noise_injection_rejects_saturated_p(self):
        with pytest.raises(ConfigError, match="p="):
            check_noise_injection(np.array([0.0]), 0.999, np.array([0.4]), 1)

    def test_noise_injection_closed_form(self):
        # p = 0.5, label 1: dL/dp = -2, so ||grad||^2 = 4 * w.w = 1.0
        rep = check_noise_injection(np.array([0.5]), 0.3, np.array([0.4]), 1,
                                    mc=False)
        assert rep.passed
        assert "analytic=1" in rep.worst


class TestNoiseInjectionBlocks:
    """The Monte-Carlo pairs are drawn and summed in fixed blocks."""

    def _neuron(self):
        return np.array([0.3, -0.2, 0.5, 0.1]), 0.2, np.array([0.4, 0.1, -0.3, 0.6]), 1

    @pytest.mark.parametrize("block", [gradcheck._MC_BLOCK, 7919])  # 7919: a short last block
    def test_blocks_give_the_whole_draw(self, block, monkeypatch):
        # the estimate of one (500000, 4) draw, as it was made before blocks
        w, b, x, label = self._neuron()
        p = float(w @ x + b)
        shifts = rng_stream(3, "noise-injection").normal(0.0, 0.01, size=(500000, 4)) @ w
        l0 = gradcheck._neuron_loss(p, label)
        pairs = 0.5 * (gradcheck._neuron_loss(p + shifts, label)
                       + gradcheck._neuron_loss(p - shifts, label))
        whole = float((pairs - l0).mean()) * 2.0 / 0.01 ** 2
        monkeypatch.setattr(gradcheck, "_MC_BLOCK", block)
        got = gradcheck._mc_trace(w, p, label, 0.01, 10 ** 6, 3)
        assert got == pytest.approx(whole, rel=1e-9)  # only the summation order moved

    def test_peak_memory_of_a_million_samples(self):
        # a whole draw held (500000, 4) float64 samples and three 4 MB
        # temporaries, 28 MB
        w, b, x, label = self._neuron()
        tracemalloc.start()
        try:
            check_noise_injection(w, b, x, label, samples=10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"{peak / 2**20:.1f} MiB"


class TestCheckVerdicts:
    """Each check passes correct code over many seeds and fails a gradient
    that is slightly wrong."""

    def test_noise_injection_fd_passes_on_the_suite_neurons(self):
        # the step scales with p's distance to the log singularity, so
        # roundoff divided by the squared step stays below the tolerance
        for seed in range(300):
            for w, b, x, label in _neuron_cases(seed):
                rep = check_noise_injection(w, b, x, label, mc=False)
                assert rep.passed, f"seed {seed}: {rep.line()}"

    def test_fast_at_firstorder_passes_correct_gradients(self):
        for seed in range(50):
            net = acceptance_net(seed)
            rep = check_fast_at_firstorder(net, _synthetic_batch(net, (1, 7, 7), 16, seed))
            assert rep.passed, f"seed {seed}: {rep.line()}"
            assert rep.tol == 0.5

    @pytest.mark.parametrize("scale", [0.999, 1.001])
    def test_fast_at_firstorder_fails_a_scaled_gradient(self, monkeypatch, scale):
        def scaled_passes(*args, **kw):
            loss, dy0 = _main_passes(*args, **kw)
            return loss, scale * dy0

        monkeypatch.setattr(gradcheck, "_main_passes", scaled_passes)
        for seed in range(5):
            net = acceptance_net(seed)
            rep = check_fast_at_firstorder(net, _synthetic_batch(net, (1, 7, 7), 16, seed))
            assert not rep.passed, f"seed {seed}: {rep.line()}"

    def test_main_fd_judges_the_gradients_run_step_returns(self, monkeypatch):
        # at's step swapped for fast-at's: the gradients at x* alone are
        # not those of at's averaged objective
        net = acceptance_net(0)
        batch = _synthetic_batch(net, (1, 7, 7), 16, 0)
        cfg = TrainConfig(algo="at", epsilon=0.05)
        assert check_main_grad_fd(net, batch, cfg).passed
        monkeypatch.setitem(training.STEPS, "at", training.step_fast_at)
        assert not check_main_grad_fd(net, batch, cfg).passed

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("algo", ["pred-ibp", "tbp"])
    def test_aux_fd_judges_the_gradients_run_step_returns(self, monkeypatch, algo, r):
        # the auxiliary term the step folds into dw off by a factor 1 + 1e-5,
        # through a linearized pull whose seed is scaled by it
        net = acceptance_net(0)
        batch = _synthetic_batch(net, (1, 7, 7), 16, 0)
        rng = rng_stream(0, "checks/tangents")
        tangents = None
        if algo == "tbp":
            tangents = [rng.normal(0.0, 0.5, size=batch[0].shape) for _ in range(2)]
        cfg = TrainConfig(algo=algo, beta=0.1, r=r)
        assert check_aux_grad_fd(net, batch, cfg, tangents).passed
        pull = Network.lin_vjp
        monkeypatch.setattr(Network, "lin_vjp", lambda self, delta:
                            pull(self, (1.0 + 1e-5) * delta))
        rep = check_aux_grad_fd(net, batch, cfg, tangents)
        assert not rep.passed, rep.line()

    def test_aux_fd_fails_an_r1_seed_with_a_relative_error_of_1e_5(self, monkeypatch):
        # the r=1 seed is sign(dy0); the frozen-sign oracle keeps np.sign
        net = acceptance_net(0)
        batch = _synthetic_batch(net, (1, 7, 7), 16, 0)
        cfg = TrainConfig(algo="loss-ibp", beta=0.1, r=1)
        assert check_aux_grad_fd(net, batch, cfg).passed

        def scaled_seed(dy0, r):
            raw, seed = losses.aux_loss_lp(dy0, r)
            return raw, (1.0 + 1e-5) * seed

        monkeypatch.setattr(training, "aux_loss_lp", scaled_seed)
        rep = check_aux_grad_fd(net, batch, cfg)
        assert not rep.passed, rep.line()

    @pytest.mark.parametrize("algo, r", [("loss-ibp", 1), ("loss-ibp", 2), ("fast-tbp", 1)])
    def test_aux_fd_fails_a_folded_term_off_by_1e_5(self, monkeypatch, algo, r):
        # the step folds beta * aux into dw; the check takes bp's dw back
        # out and judges the auxiliary term alone, so a fold with
        # beta * (1 + 1e-5) fails it however small beta * aux is beside dw
        net = acceptance_net(0)
        batch = _synthetic_batch(net, (1, 7, 7), 16, 0)
        rng = rng_stream(0, "checks/tangents")
        tangents = [rng.normal(0.0, 0.5, size=batch[0].shape) for _ in range(2)]
        cfg = TrainConfig(algo=algo, beta=0.1, r=r)
        assert check_aux_grad_fd(net, batch, cfg, tangents).passed
        fold = Network.aux_from_cot
        monkeypatch.setattr(Network, "aux_from_cot",
                            lambda self, beta: fold(self, beta * (1.0 + 1e-5)))
        rep = check_aux_grad_fd(net, batch, cfg, tangents)
        assert not rep.passed, rep.line()

    def test_fast_tbp_equivalence_fails_a_fold_with_another_layers_cotangent(self, monkeypatch):
        rng = np.random.default_rng(3)
        net = Network([FullyConnected(6, 6, rng), ReLU(), FullyConnected(6, 6, rng), Softmax()])
        batch = make_batch(rng, 4, (6,), 6)
        tangent = rng.normal(size=batch[0].shape)
        assert check_fast_tbp_equivalence(net, batch, tangent).passed

        def crossed_fold(self, beta):
            # each weight layer's tangent input meets the other one's cotangent
            layers = self.param_layers
            for layer, other in zip(layers, layers[::-1]):
                layer.dw, layer.db = layer.weight_grad(layer.x, layer.cot_out)
                layer.dw = layer.dw + beta * layer.weight_grad(layer.tan_in, other.cot_out)[0]

        monkeypatch.setattr(Network, "aux_from_cot", crossed_fold)
        rep = check_fast_tbp_equivalence(net, batch, tangent)
        assert not rep.passed, rep.line()

    def test_folded_aux_needs_a_nonzero_beta(self):
        net = acceptance_net(0)
        batch = _synthetic_batch(net, (1, 7, 7), 16, 0)
        with pytest.raises(ConfigError, match="at beta 0"):
            check_aux_grad_fd(net, batch, TrainConfig(algo="loss-ibp", beta=0.0))

    def test_frozen_oracle_fails_an_inverted_relu_mask(self, monkeypatch):
        # push is pull on a relu, so the adjoint identity holds either way;
        # only the oracle's own mask tells the inverted one from the right one
        net = zoo_net(0)
        x, _ = _synthetic_batch(net, (1, 9, 9), 5, 0)
        name = "frozen-oracle/push-and-pull"
        assert {r.name: r for r in check_layer_identities(net, x)}[name].passed
        monkeypatch.setattr(ReLU, "vjp_linear", lambda self, dy: dy * ~self.mask)
        reports = {r.name: r for r in check_layer_identities(net, x)}
        assert not reports[name].passed, reports[name].line()
        assert "ReLU" in reports[name].worst
        assert reports["adjoint-identity"].passed

    def test_frozen_oracle_fails_a_softmax_jacobian_without_its_rank_one_term(self, monkeypatch):
        # no pass spans the final softmax, so its Jacobian is judged here
        # alone; diag(y) is symmetric too, so only the oracle tells it apart
        net = zoo_net(0)
        x, _ = _synthetic_batch(net, (1, 9, 9), 5, 0)
        assert net.layers[-1] not in net.seeded
        monkeypatch.setattr(Softmax, "vjp_linear", lambda self, dy: self.y * dy)
        reports = {r.name: r for r in check_layer_identities(net, x)}
        name = "frozen-oracle/push-and-pull"
        assert not reports[name].passed, reports[name].line()
        assert "Softmax" in reports[name].worst
        assert reports["adjoint-identity"].passed


class TestReportHelpers:
    def test_format_and_all_passed(self):
        reports = [CheckReport("a", 0.0, 1e-6, True),
                   CheckReport("b", 2.0, 1e-6, False)]
        text = format_reports(reports)
        assert "1/2 checks passed" in text
        assert not all_passed(reports)
        assert all_passed(reports[:1])
