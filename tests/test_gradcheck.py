"""Tests of the verification machinery itself: the relative-error metric,
finite-difference driver, oracle tensor ops, and the frozen linearization."""

import numpy as np
import pytest

from ibpnet.errors import ConfigError
from ibpnet.gradcheck import (
    CheckReport,
    FrozenChain,
    _oracle_conv,
    _oracle_conv_transpose,
    _oracle_gather,
    _oracle_meanpool,
    _oracle_meanpool_transpose,
    _oracle_scatter,
    all_passed,
    check_fast_at_firstorder,
    check_noise_injection,
    compare_tensors,
    fd_weight_grad,
    format_reports,
    rel_error,
)
from ibpnet.layers import FullyConnected
from ibpnet.network import Network
from ibpnet.presets import acceptance_net
from ibpnet.tensor import conv2d, conv2d_input_grad, maxpool_forward

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


class TestReportHelpers:
    def test_format_and_all_passed(self):
        reports = [CheckReport("a", 0.0, 1e-6, True),
                   CheckReport("b", 2.0, 1e-6, False)]
        text = format_reports(reports)
        assert "1/2 checks passed" in text
        assert not all_passed(reports)
        assert all_passed(reports[:1])
