"""Layer-level tests: gradients against central differences, adjoint pairing
of the tangent push and linearized pull, and cache lifetime rules."""

import numpy as np
import pytest

from ibpnet.errors import ConfigError, ShapeError, StateError
from ibpnet.layers import (
    Conv2D,
    Dropout,
    FullyConnected,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Softmax,
)


def probe_grad(make_out, arr, p, h=1e-6):
    """d/d(arr) of sum(p * make_out()) by central differences, in place."""
    g = np.zeros(arr.size)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = float((p * make_out()).sum())
        flat[i] = old - h
        dn = float((p * make_out()).sum())
        flat[i] = old
        g[i] = (up - dn) / (2.0 * h)
    return g.reshape(arr.shape)


def adjoint_sides(layer, x, rng):
    """<dy, J v> and <J^T dy, v> for the layer linearized at x."""
    y = layer.forward(x)
    v = rng.normal(size=x.shape)
    dy = rng.normal(size=np.asarray(y).shape)
    lhs = float((dy * layer.jvp(v)).sum())
    rhs = float((layer.vjp_linear(dy) * v).sum())
    return lhs, rhs


class TestFullyConnected:
    def test_forward_flattens_and_affines(self):
        rng = np.random.default_rng(0)
        fc = FullyConnected(12, 5, rng)
        x = rng.normal(size=(3, 2, 2, 3))
        y = fc.forward(x)
        ref = x.reshape(3, 12) @ fc.w + fc.b
        np.testing.assert_array_equal(y, ref)

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(1)
        fc = FullyConnected(6, 4, rng)
        x = rng.normal(size=(2, 6))
        p = rng.normal(size=(2, 4))
        fc.forward(x)
        dx = fc.vjp(p)
        np.testing.assert_allclose(dx, probe_grad(lambda: fc.forward(x), x, p),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(fc.dw, probe_grad(lambda: fc.forward(x), fc.w, p),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(fc.db, probe_grad(lambda: fc.forward(x), fc.b, p),
                                   rtol=0, atol=1e-8)

    def test_vjp_restores_input_shape(self):
        rng = np.random.default_rng(2)
        fc = FullyConnected(12, 3, rng)
        x = rng.normal(size=(2, 3, 2, 2))
        fc.forward(x)
        assert fc.vjp(np.ones((2, 3))).shape == x.shape

    def test_jvp_adjoint(self):
        rng = np.random.default_rng(3)
        fc = FullyConnected(6, 4, rng)
        lhs, rhs = adjoint_sides(fc, rng.normal(size=(3, 6)), rng)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_aux_paths_agree_and_accumulate(self):
        # lin_vjp and aux_from_cot contract the same cached pair, so the
        # auxiliary weight gradients they produce are identical.
        rng = np.random.default_rng(4)
        fc = FullyConnected(6, 4, rng)
        x = rng.normal(size=(3, 6))
        dy = rng.normal(size=(3, 4))
        fc.forward(x)
        fc.vjp(dy)
        fc.jvp(rng.normal(size=(3, 6)))
        fc.aux_from_cot()
        direct = fc.aux_dw.copy()
        fc.aux_dw[:] = 0.0
        fc.lin_vjp(dy)
        np.testing.assert_array_equal(fc.aux_dw, direct)
        fc.lin_vjp(dy)
        np.testing.assert_array_equal(fc.aux_dw, 2.0 * direct)

    def test_he_init_stats(self):
        rng = np.random.default_rng(5)
        fc = FullyConnected(4096, 8, rng)
        want = np.sqrt(2.0 / 4096)
        assert abs(fc.w.std() - want) < 0.05 * want
        assert abs(fc.w.mean()) < 0.001
        assert not fc.b.any()

    def test_errors(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ConfigError):
            FullyConnected(0, 4, rng)
        fc = FullyConnected(6, 4, rng)
        with pytest.raises(ShapeError):
            fc.forward(np.ones((2, 7)))


class TestConv2DLayer:
    def make(self, rng):
        return Conv2D(2, 3, (3, 3), (1, 1), (2, 2), rng)

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(7)
        conv = self.make(rng)
        x = rng.normal(size=(2, 2, 5, 5))
        p = rng.normal(size=(2, 3, 3, 3))
        conv.forward(x)
        dx = conv.vjp(p)
        np.testing.assert_allclose(dx, probe_grad(lambda: conv.forward(x), x, p),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(conv.db, p.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_jvp_adjoint(self):
        rng = np.random.default_rng(8)
        conv = self.make(rng)
        lhs, rhs = adjoint_sides(conv, rng.normal(size=(2, 2, 5, 5)), rng)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_aux_paths_agree(self):
        rng = np.random.default_rng(9)
        conv = self.make(rng)
        x = rng.normal(size=(2, 2, 5, 5))
        dy = rng.normal(size=(2, 3, 3, 3))
        conv.forward(x)
        conv.vjp(dy)
        conv.jvp(rng.normal(size=x.shape))
        conv.aux_from_cot()
        direct = conv.aux_dw.copy()
        conv.aux_dw[:] = 0.0
        conv.lin_vjp(dy)
        np.testing.assert_array_equal(conv.aux_dw, direct)

    def test_shape_errors(self):
        rng = np.random.default_rng(10)
        conv = self.make(rng)
        with pytest.raises(ShapeError):
            conv.forward(np.ones((2, 5, 5)))
        with pytest.raises(ShapeError):
            conv.forward(np.ones((2, 3, 5, 5)))
        with pytest.raises(ConfigError):
            Conv2D(2, 0, (3, 3), (0, 0), (1, 1), rng)


class TestActivations:
    def test_relu_zero_derivative_convention(self):
        relu = ReLU()
        y = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu.vjp(np.ones((1, 3))), [[0.0, 0.0, 1.0]])

    def test_relu_fd_away_from_kink(self):
        rng = np.random.default_rng(11)
        relu = ReLU()
        x = rng.normal(size=(2, 5))
        x[np.abs(x) < 0.1] += 0.2  # keep the FD stencil on one side of 0
        p = rng.normal(size=(2, 5))
        relu.forward(x)
        np.testing.assert_allclose(relu.vjp(p),
                                   probe_grad(lambda: relu.forward(x), x, p),
                                   rtol=0, atol=1e-9)

    def test_sigmoid_fd(self):
        rng = np.random.default_rng(12)
        sig = Sigmoid()
        x = rng.normal(size=(2, 5))
        p = rng.normal(size=(2, 5))
        sig.forward(x)
        np.testing.assert_allclose(sig.vjp(p),
                                   probe_grad(lambda: sig.forward(x), x, p),
                                   rtol=0, atol=1e-9)

    def test_sigmoid_saturation_is_stable(self):
        with np.errstate(over="raise"):
            y = Sigmoid().forward(np.array([[1000.0, -1000.0, 0.0]]))
        np.testing.assert_array_equal(y, [[1.0, 0.0, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        y = Softmax().forward(rng.normal(size=(4, 6)) * 10)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(4), rtol=1e-12)
        assert (y > 0).all()

    def test_softmax_fd(self):
        rng = np.random.default_rng(14)
        sm = Softmax()
        x = rng.normal(size=(3, 5))
        p = rng.normal(size=(3, 5))
        sm.forward(x)
        np.testing.assert_allclose(sm.vjp(p),
                                   probe_grad(lambda: sm.forward(x), x, p),
                                   rtol=0, atol=1e-9)

    def test_softmax_large_logits_stable(self):
        with np.errstate(over="raise"):
            y = Softmax().forward(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        np.testing.assert_allclose(y, [[1.0, 0.0], [1.0, 0.0]], atol=1e-300)

    def test_symmetric_jacobians_push_equals_pull(self):
        # elementwise and softmax Jacobians are symmetric, so pushing a
        # vector forward equals pulling it back
        rng = np.random.default_rng(15)
        for layer in (ReLU(), Sigmoid(), Softmax()):
            x = rng.normal(size=(3, 5))
            layer.forward(x)
            v = rng.normal(size=(3, 5))
            np.testing.assert_array_equal(layer.jvp(v), layer.vjp_linear(v))


class TestPoolingLayers:
    def test_maxpool_fd_distinct_values(self):
        rng = np.random.default_rng(16)
        pool = MaxPool2D((3, 3), (2, 2))
        # distinct well-separated values keep the argmax fixed under FD steps
        x = rng.permutation(np.arange(2 * 1 * 5 * 5, dtype=np.float64)).reshape(2, 1, 5, 5)
        p = rng.normal(size=pool.forward(x).shape)
        np.testing.assert_allclose(pool.vjp(p),
                                   probe_grad(lambda: pool.forward(x), x, p, h=1e-3),
                                   rtol=0, atol=1e-10)

    def test_maxpool_tie_prefers_first_position(self):
        pool = MaxPool2D((2, 2), (2, 2))
        pool.forward(np.full((1, 1, 2, 2), 3.0))
        dx = pool.vjp(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_maxpool_push_pull_adjoint(self):
        rng = np.random.default_rng(17)
        pool = MaxPool2D((3, 3), (2, 2))
        lhs, rhs = adjoint_sides(pool, rng.normal(size=(2, 2, 7, 6)), rng)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_meanpool_fd(self):
        rng = np.random.default_rng(18)
        pool = MeanPool2D((2, 2), (2, 2))
        x = rng.normal(size=(2, 1, 5, 4))  # ragged bottom row windows
        p = rng.normal(size=pool.forward(x).shape)
        np.testing.assert_allclose(pool.vjp(p),
                                   probe_grad(lambda: pool.forward(x), x, p),
                                   rtol=0, atol=1e-9)

    def test_meanpool_push_pull_adjoint(self):
        rng = np.random.default_rng(19)
        pool = MeanPool2D((3, 3), (2, 2))
        lhs, rhs = adjoint_sides(pool, rng.normal(size=(2, 2, 7, 7)), rng)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            MaxPool2D((0, 2), (2, 2))
        with pytest.raises(ConfigError):
            MeanPool2D((2, 2), (2, 0))


class TestDropout:
    def test_eval_is_identity(self):
        rng = np.random.default_rng(20)
        drop = Dropout(0.5, rng)
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(drop.forward(x, train=False), x)
        np.testing.assert_array_equal(drop.vjp(x), x)

    def test_rate_zero_is_identity_in_training(self):
        rng = np.random.default_rng(21)
        drop = Dropout(0.0, rng)
        x = rng.normal(size=(4, 10))
        np.testing.assert_array_equal(drop.forward(x, train=True), x)

    def test_train_mask_reused_by_all_passes(self):
        rng = np.random.default_rng(22)
        drop = Dropout(0.5, rng)
        x = rng.normal(size=(8, 25))
        y = drop.forward(x, train=True)
        mask = drop.mask.copy()
        np.testing.assert_array_equal(y, x * mask)
        ones = np.ones_like(x)
        np.testing.assert_array_equal(drop.vjp(ones), mask)
        np.testing.assert_array_equal(drop.jvp(ones), mask)
        np.testing.assert_array_equal(drop.vjp_linear(ones), mask)
        drop.forward(x, train=True)
        assert not np.array_equal(drop.mask, mask)  # fresh batch, fresh mask

    def test_mask_values_and_scaling(self):
        rng = np.random.default_rng(23)
        drop = Dropout(0.25, rng)
        drop.forward(np.zeros((100, 100)), train=True)
        keep = 1.0 - 0.25
        assert set(np.unique(drop.mask)) == {0.0, 1.0 / keep}
        assert abs(drop.mask.mean() - 1.0) < 0.03  # inverted scaling keeps E[mask]=1

    def test_rate_validation(self):
        rng = np.random.default_rng(24)
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                Dropout(rate, rng)


class TestCacheLifetimes:
    @pytest.mark.parametrize("layer,dy_shape", [
        (FullyConnected(4, 3, np.random.default_rng(0)), (2, 3)),
        (Conv2D(1, 2, (3, 3), (1, 1), (1, 1), np.random.default_rng(0)), (2, 2, 4, 4)),
        (ReLU(), (2, 4)),
        (Sigmoid(), (2, 4)),
        (Softmax(), (2, 4)),
        (MaxPool2D((2, 2), (2, 2)), (2, 1, 2, 2)),
        (Dropout(0.5, np.random.default_rng(0)), (2, 4)),
        (MeanPool2D((2, 2), (2, 2)), (2, 1, 2, 2)),
    ])
    def test_pull_before_forward_raises(self, layer, dy_shape):
        with pytest.raises(StateError):
            layer.vjp(np.ones(dy_shape))
        with pytest.raises(StateError):
            layer.vjp_linear(np.ones(dy_shape))

    def test_aux_before_tangent_push_raises(self):
        rng = np.random.default_rng(25)
        fc = FullyConnected(4, 3, rng)
        fc.forward(rng.normal(size=(2, 4)))
        fc.vjp(np.ones((2, 3)))
        with pytest.raises(StateError):
            fc.lin_vjp(np.ones((2, 3)))  # no jvp yet, no cached tangent
        with pytest.raises(StateError):
            fc.aux_from_cot()
