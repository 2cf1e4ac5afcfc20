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
from ibpnet.network import Network
from ibpnet.presets import zoo_net


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
        # lin_vjp records the cached tangent input with the cotangent it is
        # given; aux_from_cot contracts x + beta * tangent input with the
        # cotangent cached by vjp, and every recorded pair, so it adds beta
        # times the fold and each pair's contraction to bp's dw, then drops
        # the record
        rng = np.random.default_rng(4)
        fc = FullyConnected(6, 4, rng)
        x = rng.normal(size=(3, 6))
        dy = rng.normal(size=(3, 4))
        fc.forward(x)
        fc.vjp(dy)
        dw, db = fc.dw.copy(), fc.db
        t = rng.normal(size=(3, 6))
        fc.jvp(t)
        once = fc.weight_grad(t, dy)[0]
        fc.lin_vjp(dy)
        fc.lin_vjp(dy)
        assert [(a is fc.tan_in, d.shape) for a, d in fc.pulls] == [(True, (3, 4))] * 2
        Network([fc]).aux_from_cot(0.5)
        np.testing.assert_allclose(fc.dw, dw + 2.5 * once, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(fc.db, db)
        assert fc.pulls == []
        Network([fc]).aux_from_cot(0.5)
        np.testing.assert_allclose(fc.dw, dw + 0.5 * once, rtol=1e-12, atol=1e-15)

    def test_weight_grad_sum_stacks_the_rows_into_one_gemm(self):
        # without pulls, weight_grad bit for bit; with them, one contraction
        # of the main and pulled rows stacked, equal to the pair-by-pair sum
        # to rounding, with db from the main cotangent alone
        rng = np.random.default_rng(41)
        fc = FullyConnected(6, 4, rng)
        pairs = [(rng.normal(size=(3, 6)), rng.normal(size=(3, 4))) for _ in range(3)]
        for got, want in zip(fc.weight_grad_sum(*pairs[0], []), fc.weight_grad(*pairs[0])):
            np.testing.assert_array_equal(got, want)
        calls, inner = [], fc.weight_grad
        fc.weight_grad = lambda a, dy: calls.append(a.shape) or inner(a, dy)
        dw, db = fc.weight_grad_sum(*pairs[0], pairs[1:])
        assert calls == [(9, 6)]
        want = sum(inner(a, d)[0] for a, d in pairs)
        np.testing.assert_allclose(dw, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(db, pairs[0][1].sum(axis=0))

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
        # as for the FC layer, but the conv records each pull's contraction,
        # a weight-sized term, and adds the terms to the main contraction in
        # pull order
        rng = np.random.default_rng(9)
        conv = self.make(rng)
        x = rng.normal(size=(2, 2, 5, 5))
        dy = rng.normal(size=(2, 3, 3, 3))
        conv.forward(x)
        conv.vjp(dy)
        dw, db = conv.dw.copy(), conv.db
        t1, t2 = rng.normal(size=x.shape), rng.normal(size=x.shape)
        d2 = rng.normal(size=dy.shape)
        conv.jvp(t1)
        conv.lin_vjp(dy)
        conv.jvp(t2)
        conv.lin_vjp(d2)
        assert [term.shape for term in conv.pulls] == [conv.w.shape] * 2
        Network([conv]).aux_from_cot(0.0)
        want = conv.weight_grad(x, dy)[0]
        want += conv.weight_grad(t1, dy)[0]
        want += conv.weight_grad(t2, d2)[0]
        np.testing.assert_array_equal(conv.dw, want)
        np.testing.assert_array_equal(conv.db, db)
        aux = conv.weight_grad(t2, dy)[0]
        Network([conv]).aux_from_cot(0.5)
        np.testing.assert_allclose(conv.dw, dw + 0.5 * aux, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(conv.db, db)

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

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 64])
    def test_relu_forward_bitwise_masked_select(self, n):
        """Bit for bit np.where(x > 0, x, 0.0): relu(NaN) = relu(-0.0) = +0.0,
        ±inf, subnormals, on runs long and short enough for vector loops and
        their scalar tails."""
        special = np.array([np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf,
                            5e-324, -5e-324, 1e-300, -1e-300, 1.5, -1.5])
        rng = np.random.default_rng(n)
        for x in (np.resize(special, n), np.full(n, -0.0), rng.permutation(np.resize(special, n)),
                  rng.normal(size=(n, 3, 4, 4))):
            relu = ReLU()
            y = relu.forward(x)
            ref = np.where(x > 0.0, x, 0.0)
            assert y.shape == ref.shape and y.dtype == ref.dtype
            np.testing.assert_array_equal(y.view(np.uint64), ref.view(np.uint64))
            np.testing.assert_array_equal(relu.mask, x > 0.0)

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
        fc.jvp(rng.normal(size=(2, 4)))
        # no backward yet, so no record for lin_vjp to add its pair to
        with pytest.raises(StateError, match="FullyConnected pull record"):
            fc.lin_vjp(np.ones((2, 3)))
        fc.vjp(np.ones((2, 3)), _dw=False)
        fc.lin_vjp(np.ones((2, 3)))
        assert len(fc.pulls) == 1
        fc = FullyConnected(4, 3, rng)
        fc.forward(rng.normal(size=(2, 4)))
        fc.vjp(np.ones((2, 3)))
        with pytest.raises(StateError):
            fc.lin_vjp(np.ones((2, 3)))  # no jvp yet, no cached tangent
        with pytest.raises(StateError):
            Network([fc]).aux_from_cot(0.1)


PULL_CASES = [
    (lambda rng: FullyConnected(6, 4, rng), (3, 6), (3, 4)),
    (lambda rng: Conv2D(2, 3, (3, 3), (1, 1), (1, 1), rng), (2, 2, 5, 5), (2, 3, 5, 5)),
    (lambda rng: ReLU(), (3, 5), (3, 5)),
]


class TestLinVjpPull:
    @pytest.mark.parametrize("make, x_shape, dy_shape", PULL_CASES)
    def test_returns_the_pulled_cotangent_unless_told_not_to(self, make, x_shape,
                                                             dy_shape):
        rng = np.random.default_rng(26)
        layer = make(rng)
        layer.forward(rng.normal(size=x_shape))
        layer.jvp(rng.normal(size=x_shape))
        delta = rng.normal(size=dy_shape)
        if layer.has_params:
            layer.pulls = []  # as a backward starts the record
        pulled = layer.lin_vjp(delta)
        np.testing.assert_array_equal(pulled, layer.vjp_linear(delta))
        assert layer.lin_vjp(delta, pull=False) is None
        if layer.has_params:
            # the term is still recorded, bitwise as with the pull (the
            # arrays of an FC layer's rows, the rows of a conv's term)
            first, second = layer.pulls
            for a, b in zip(first, second):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("make, x_shape, dy_shape", PULL_CASES)
    def test_vjp_without_pull_fills_the_same_caches(self, make, x_shape, dy_shape):
        rng = np.random.default_rng(27)
        layer = make(rng)
        layer.forward(rng.normal(size=x_shape))
        dy = rng.normal(size=dy_shape)
        np.testing.assert_array_equal(layer.vjp(dy), layer.vjp_linear(dy))
        full = (layer.dw, layer.db, layer.cot_out)
        layer.dw = layer.db = layer.cot_out = None
        pulls, inner = [], layer.vjp_linear
        layer.vjp_linear = lambda d: pulls.append(d) or inner(d)
        assert layer.vjp(dy, pull=False) is None
        assert pulls == []
        for got, want in zip((layer.dw, layer.db, layer.cot_out), full):
            if want is None:  # a layer without weights caches nothing
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


def zoo_in(dtype):
    """zoo_net(6) with its weights cast to dtype (its dropout stream unchanged)."""
    net = zoo_net(6)
    for layer in net.param_layers:
        layer.w, layer.b = layer.w.astype(dtype), layer.b.astype(dtype)
    return net


def every_pass(net):
    """{(layer index, kind, pass): array} for every pass of every layer, run
    layer by layer on float64 inputs, tangents and seeds, as images, dataset
    tangents and loss seeds arrive; then each weight layer's gradients."""
    rng = np.random.default_rng(7)
    layers = list(enumerate(net.layers))
    outs = {}

    def walk(what, a, order, run):
        for i, layer in order:
            a = run(layer, a)
            outs[i, layer.spec()["kind"], what] = a
        return a

    x = rng.normal(size=(4, 1, 9, 9))
    walk("predict", x, layers, lambda l, a: l.predict(a))
    y = walk("forward", x, layers, lambda l, a: l.forward(a, train=True))
    walk("jvp", rng.normal(size=x.shape), layers, lambda l, a: l.jvp(a))
    top_down = layers[::-1]
    walk("vjp", rng.normal(size=y.shape), top_down, lambda l, a: l.vjp(a))
    weight_layers = [(i, layer) for i, layer in layers if layer.has_params]
    for i, layer in weight_layers:
        outs[i, "fc/conv", "dw"], outs[i, "fc/conv", "db"] = layer.dw, layer.db
    walk("vjp_linear", rng.normal(size=y.shape), top_down, lambda l, a: l.vjp_linear(a))
    walk("lin_vjp", rng.normal(size=y.shape), top_down, lambda l, a: l.lin_vjp(a))
    for i, layer in weight_layers:
        zeros = np.zeros_like(layer.x), np.zeros_like(layer.cot_out)
        outs[i, "fc/conv", "lin_vjp dw"] = layer.weight_grad_sum(*zeros, layer.pulls)[0]
    net.aux_from_cot(0.5)
    for i, layer in weight_layers:
        outs[i, "fc/conv", "aux_from_cot dw"] = layer.dw
    return outs


class TestDtypes:
    """Every layer pass keeps the net's dtype; Softmax alone computes in
    float64 whatever it is given, so its float32 logits cannot underflow."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_pass_returns_the_weights_dtype(self, dtype):
        for (i, kind, what), out in every_pass(zoo_in(dtype)).items():
            want = np.float64 if kind == "softmax" else dtype
            assert out.dtype == want, f"layer {i} ({kind}) {what}: {out.dtype}"

    def test_float32_passes_agree_with_float64(self):
        ref = every_pass(zoo_in(np.float64))
        for key, out in every_pass(zoo_in(np.float32)).items():
            scale = np.abs(ref[key]).max()
            np.testing.assert_allclose(out, ref[key], rtol=1e-4, atol=1e-5 * scale,
                                       err_msg=str(key))
