"""Network container tests: pass orchestration, the auxiliary term's fold
into dw, and the binary model file format."""

import hashlib

import numpy as np
import pytest

from ibpnet.errors import FormatError, StateError
from ibpnet.layers import Dropout, FullyConnected, Layer, MaxPool2D, ReLU, Softmax
from ibpnet import network
from ibpnet.network import MAGIC, Network, batched_forward, layer_from_spec, slice_images
from ibpnet.presets import acceptance_net, build_net, zoo_net
from ibpnet.tensor import _EVAL_SLICE_BYTES, rng_stream


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return Network([FullyConnected(6, 8, rng), ReLU(),
                    FullyConnected(8, 3, rng), Softmax()])


def dws(net):
    return [l.dw for l in net.param_layers]


def start_records(net):
    # as a backward does: lin_vjp records its pull terms from here on
    for layer in net.param_layers:
        layer.pulls = []


class TestSeeded:
    """Every pass spans Network.seeded: all layers but a final softmax, whose
    Jacobian the nll seed already holds."""

    def test_drops_only_a_final_softmax(self):
        rng = np.random.default_rng(0)
        final = small_net()
        assert final.seeded == final.layers[:3]
        inner = Network([FullyConnected(6, 8, rng), Softmax(), FullyConnected(8, 3, rng)])
        assert inner.seeded == inner.layers
        assert Network([]).seeded == []

    def test_passes_equal_a_manual_loop_over_seeded(self):
        rng = np.random.default_rng(1)
        net, ref = small_net(), small_net()
        x = rng.normal(size=(4, 6))
        v, seed, delta = rng.normal(size=x.shape), rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        for n in (net, ref):
            n.forward(x)
        pulled = seed
        for layer in reversed(ref.seeded):
            pulled = layer.vjp(pulled)
        np.testing.assert_array_equal(net.vjp(seed), pulled)
        for got, want in zip(net.param_layers, ref.param_layers):
            np.testing.assert_array_equal(got.dw, want.dw)
        np.testing.assert_array_equal(net.vjp_linear(seed), pulled)
        pushed = v
        for layer in ref.seeded:
            pushed = layer.jvp(pushed)
        assert pushed.shape == (4, 3)  # the logits
        np.testing.assert_array_equal(net.jvp(v), pushed)
        net.lin_vjp(delta)
        d = delta
        for layer in reversed(ref.seeded):
            d = layer.lin_vjp(d)
        for got, want in zip(net.param_layers, ref.param_layers):  # FC rows
            for a, b in zip(got.pulls[0], want.pulls[0]):
                np.testing.assert_array_equal(a, b)


class TestPasses:
    def test_forward_composes_layers(self):
        rng = np.random.default_rng(0)
        net = small_net()
        x = rng.normal(size=(4, 6))
        y = x
        for layer in net.layers:
            y = layer.forward(y)
        np.testing.assert_array_equal(net.forward(x), y)

    def test_aux_from_cot_calls_layer_aux_from_cot_once_per_weight_layer(self, monkeypatch):
        rng = np.random.default_rng(4)
        net = small_net()
        net.forward(rng.normal(size=(4, 6)))
        net.vjp(rng.normal(size=(4, 3)), _dw=False)
        net.jvp(rng.normal(size=(4, 6)))
        calls, inner = [], Layer.aux_from_cot

        def recorded(layer, beta):
            calls.append((layer, beta))
            inner(layer, beta)

        monkeypatch.setattr(Layer, "aux_from_cot", recorded)
        net.aux_from_cot(0.25)
        assert calls == [(layer, 0.25) for layer in net.param_layers]
        assert all(l.dw is not None and l.db is not None for l in net.param_layers)

    def test_lin_vjp_records_until_aux_from_cot_and_each_step_allocates(self):
        # the pull records its pairs until aux_from_cot contracts them into a
        # fresh dw and drops them; the next step allocates afresh, so
        # gradients captured before it keep their values and a second step
        # does not carry the first one's term; a backward drops any record
        rng = np.random.default_rng(3)
        net = small_net()
        x, dy = rng.normal(size=(4, 6)), rng.normal(size=(4, 3))
        v, delta = rng.normal(size=x.shape), rng.normal(size=(4, 3))

        def step():
            net.forward(x)
            net.vjp(dy)
            bp = [dw.copy() for dw in dws(net)]
            net.vjp(dy, _dw=False)
            net.jvp(v)
            net.lin_vjp(delta)
            assert [len(l.pulls) for l in net.param_layers] == [1, 1]
            net.aux_from_cot(0.0)
            assert [l.pulls for l in net.param_layers] == [[], []]
            return bp, dws(net)

        bp, first = step()
        snapshot = [dw.copy() for dw in first]
        for dw, b in zip(first, bp):
            assert (dw != b).any()
        bp_again, second = step()
        for old, snap, new, b, b2 in zip(first, snapshot, second, bp, bp_again):
            assert not np.shares_memory(old, new)
            np.testing.assert_array_equal(old, snap)
            np.testing.assert_array_equal(b2, b)
            np.testing.assert_array_equal(new, snap)
        net.lin_vjp(delta)
        net.vjp(dy)
        assert [l.pulls for l in net.param_layers] == [[], []]

    def test_aux_from_cot_folds_the_aux_gradient_into_dw(self):
        # one contraction of x + beta * tan_in per weight layer: bp's dw plus
        # beta times the contraction of the pair a linearized pull seeded
        # like the backward records; that pair, contracted with the main one
        # at beta 0, adds it once; at beta 0 or with all-zero tangents and
        # no record, bp's dw bit for bit
        rng = np.random.default_rng(5)
        net = small_net()
        x = rng.normal(size=(4, 6))
        seed = rng.normal(size=(4, 3))
        net.forward(x)
        net.vjp(seed)
        bp = [(l.dw, l.db) for l in net.param_layers]
        for beta, v in ((0.0, rng.normal(size=x.shape)), (0.3, np.zeros_like(x))):
            net.jvp(v)
            net.aux_from_cot(beta)
            for layer, (dw, db) in zip(net.param_layers, bp):
                np.testing.assert_array_equal(layer.dw, dw)
                np.testing.assert_array_equal(layer.db, db)
        net.jvp(rng.normal(size=x.shape))
        net.lin_vjp(seed)
        aux = [l.weight_grad(*l.pulls[0])[0] for l in net.param_layers]  # FC rows
        for beta, scale in ((0.0, 1.0), (0.3, 0.3)):
            net.aux_from_cot(beta)  # the first call drops the record
            for layer, (dw, db), a in zip(net.param_layers, bp, aux):
                assert a.any()
                np.testing.assert_allclose(layer.dw, dw + scale * a, rtol=1e-12, atol=1e-15)
                np.testing.assert_array_equal(layer.db, db)

    def test_vjp_can_leave_the_weight_contraction_to_aux_from_cot(self):
        rng = np.random.default_rng(6)
        net = small_net()
        net.forward(rng.normal(size=(4, 6)))
        seed = rng.normal(size=(4, 3))
        full = net.vjp(seed)
        cots = [l.cot_out for l in net.param_layers]
        np.testing.assert_array_equal(net.vjp(seed, _dw=False), full)
        for layer, cot in zip(net.param_layers, cots):
            assert layer.dw is None and layer.db is None
            np.testing.assert_array_equal(layer.cot_out, cot)

    def test_param_accessors(self):
        net = small_net()
        assert len(net.param_layers) == 2
        assert sum(w.size + b.size for w, b in net.params()) == 6 * 8 + 8 + 8 * 3 + 3
        assert [w.shape for w, _ in net.params()] == [(6, 8), (8, 3)]

    # float32 mnist-paper slices hold at most 52 images under batch size 256,
    # mnist-tiny ones 256; 53 and 257 images would leave a one-image slice,
    # whose one-row FC product takes another BLAS path and may differ in the
    # last bits, but are cut into two slices of near-equal size
    @pytest.mark.parametrize("build, x_shape, dtype", [
        (acceptance_net, (23, 1, 7, 7), np.float64),
        (lambda seed: build_net("mnist-paper", seed), (126, 1, 28, 28), np.float32),
        (lambda seed: build_net("mnist-paper", seed), (53, 1, 28, 28), np.float32),
        (lambda seed: build_net("mnist-tiny", seed), (257, 1, 28, 28), np.float32),
    ], ids=["acceptance", "mnist-paper", "mnist-paper-53", "mnist-tiny-257"])
    def test_batched_forward_matches_whole_batch(self, build, x_shape, dtype):
        rng = np.random.default_rng(4)
        net = build(0)
        x = rng.normal(size=x_shape).astype(dtype)
        whole = net.forward(x)
        for batch_size in (256, 7):
            assert batched_forward(net, x, batch_size).tobytes() == whole.tobytes()


class TestInferenceSlices:
    """Inference passes run in slices that keep the net's widest per-image
    activation within one byte budget, capped by the caller's batch size."""

    # the widest float32 activation per image: conv1's output on the two
    # conv nets (32 filters of 25x25 and 28x28), the input on mnist-tiny;
    # then the images per slice at the default batch size of 256
    @pytest.mark.parametrize("name, in_shape, widest, at_256", [
        ("mnist-paper", (1, 28, 28), 32 * 25 * 25 * 4, 52),
        ("cifar-paper", (3, 32, 32), 32 * 28 * 28 * 4, 41),
        ("mnist-tiny", (1, 28, 28), 28 * 28 * 4, 256),
    ])
    def test_slice_from_the_widest_activation(self, name, in_shape, widest, at_256):
        net = build_net(name, 0)
        x = np.zeros((3,) + in_shape, np.float32)
        assert slice_images(net, x, 10 ** 6) == _EVAL_SLICE_BYTES // widest
        assert slice_images(net, x, 256) == at_256
        assert slice_images(net, x, 7) == 7  # the batch size stays the upper bound

    @pytest.mark.parametrize("n, sizes", [(53, [26, 27]), (104, [52, 52]), (157, [39, 39, 39, 40])])
    def test_slices_of_near_equal_size(self, n, sizes):
        net = build_net("mnist-paper", 0)
        slices = network.image_slices(net, np.zeros((n, 1, 28, 28), np.float32), 256)
        assert [sl.stop - sl.start for sl in slices] == sizes
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))

    def test_at_least_one_image(self, monkeypatch):
        monkeypatch.setattr(network, "_EVAL_SLICE_BYTES", 1)
        assert slice_images(acceptance_net(0), np.zeros((5, 1, 7, 7)), 256) == 1


class TestPredict:
    """Network.predict is the eval-mode forward without the max-pool
    positions that only a later pull or push reads."""

    @pytest.mark.parametrize("build,in_shape", [
        (acceptance_net, (1, 7, 7)),
        (zoo_net, (1, 9, 9)),  # dropout, meanpool and sigmoid too
        (lambda seed: build_net("mnist-paper", seed), (1, 28, 28)),
    ], ids=["acceptance", "zoo", "mnist-paper"])
    def test_bitwise_forward_in_eval_mode(self, build, in_shape):
        rng = np.random.default_rng(5)
        net = build(0)
        x = rng.normal(size=(7,) + in_shape)  # more than one pool1 chunk of mnist-paper
        np.testing.assert_array_equal(net.predict(x), net.forward(x, train=False))

    @pytest.mark.parametrize("infer", [
        lambda net, x: net.predict(x),
        lambda net, x: batched_forward(net, x, batch_size=2),
    ], ids=["predict", "batched_forward"])
    def test_pool_pull_and_push_after_inference_raise(self, infer):
        # positions cached by an earlier training forward must not be reused
        rng = np.random.default_rng(6)
        net = acceptance_net(0)
        pool = net.layers[1]
        net.forward(rng.normal(size=(3, 1, 7, 7)), train=True)
        infer(net, rng.normal(size=(3, 1, 7, 7)))
        with pytest.raises(StateError):
            pool.vjp_linear(np.ones((3, 4, 2, 2)))
        with pytest.raises(StateError):
            pool.jvp(np.ones((3, 4, 5, 5)))


def record_calls(net, method="vjp_linear"):
    """Wrap every layer's method (by default its pull); returns the list of
    layer indices it ran on, in call order."""
    ran = []
    for i, layer in enumerate(net.layers):
        def recorded(dy, *args, i=i, inner=getattr(layer, method), **kw):
            ran.append(i)
            return inner(dy, *args, **kw)
        setattr(layer, method, recorded)
    return ran


class TestLinVjpStopsAtLowestWeightLayer:
    @staticmethod
    def pool_dropout_net():
        rng = np.random.default_rng(5)
        return Network([MaxPool2D((2, 2), (2, 2)), Dropout(0.3, rng_stream(5, "d")),
                        FullyConnected(9, 8, rng), ReLU(),
                        FullyConnected(8, 3, rng), Softmax()])

    def test_nothing_pulls_below_the_lowest_weight_layer(self):
        rng = np.random.default_rng(6)
        net, ref = self.pool_dropout_net(), self.pool_dropout_net()
        x = rng.normal(size=(4, 1, 6, 6))
        v = rng.normal(size=x.shape)
        delta = rng.normal(size=(4, 3))
        for n in (net, ref):
            n.forward(x, train=True)
            n.jvp(v)
            start_records(n)
        pulled = record_calls(net)
        assert net.lin_vjp(delta) is None
        assert pulled == [4, 3]  # fc2 and relu; fc1 only records
        d = delta
        for layer in reversed(ref.layers[:-1]):  # a full pull to the input
            d = layer.lin_vjp(d)
        for got, want in zip(net.param_layers, ref.param_layers):  # FC rows
            (t, d), (t_ref, d_ref) = got.pulls + want.pulls
            assert d_ref.any()
            np.testing.assert_array_equal(t, t_ref)
            np.testing.assert_array_equal(d, d_ref)

    def test_main_backward_without_pull_stops_there_too(self):
        rng = np.random.default_rng(8)
        net, ref = self.pool_dropout_net(), self.pool_dropout_net()
        x = rng.normal(size=(4, 1, 6, 6))
        seed = rng.normal(size=(4, 3))
        for n in (net, ref):
            n.forward(x, train=True)
        ref.vjp(seed)
        ran, pulled = record_calls(net, "vjp"), record_calls(net)
        assert net.vjp(seed, pull=False) is None
        assert ran == [4, 3, 2]  # nothing below fc1 runs
        assert pulled == [4, 3]  # fc1 fills its gradients without pulling
        for got, want in zip(net.param_layers, ref.param_layers):
            for cache in ("dw", "db", "cot_out"):
                np.testing.assert_array_equal(getattr(got, cache), getattr(want, cache))

    def test_range_without_weight_layers_does_nothing(self):
        rng = np.random.default_rng(7)
        for net, x in ((Network([MaxPool2D((2, 2), (2, 2)), Dropout(0.3, rng_stream(5, "d")),
                                 ReLU()]), rng.normal(size=(4, 1, 6, 6))),
                       (Network([ReLU(), Softmax()]), rng.normal(size=(4, 3)))):
            out = net.forward(x, train=True)
            net.jvp(rng.normal(size=x.shape))
            pulled = record_calls(net)
            assert net.lin_vjp(rng.normal(size=out.shape)) is None
            ran = record_calls(net, "vjp")
            assert net.vjp(rng.normal(size=out.shape), pull=False) is None
            assert ran == pulled == []


class TestModelFile:
    def test_roundtrip_preserves_weights_and_outputs(self, tmp_path):
        rng = np.random.default_rng(5)
        net = zoo_net(3)
        path = tmp_path / "model.ibpnet"
        net.save(path)
        loaded = Network.load(path)
        for (w, b), (lw, lb) in zip(net.params(), loaded.params()):
            np.testing.assert_array_equal(w, lw)
            np.testing.assert_array_equal(b, lb)
        x = rng.normal(size=(2, 1, 9, 9))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_resave_is_byte_identical(self, tmp_path):
        net = acceptance_net(1)
        a, b = tmp_path / "a.ibpnet", tmp_path / "b.ibpnet"
        net.save(a)
        Network.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_float64_file_bytes_unchanged(self, tmp_path):
        # the bytes acceptance_net(1) saved before weight dtypes were recorded
        path = tmp_path / "model.ibpnet"
        acceptance_net(1).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0a6a1cca608d20d2ee9f6e4281222b11e8e9bbdd6bd567258f7b0be1ed3e71a5")

    @pytest.mark.parametrize("build, digest", [
        # every layer kind, float64
        (lambda: zoo_net(3), "0653020f90a25a88cb2c83070c1281e8bc909a3d4ebb81933f89251c7103a3a9"),
        # float32 weight layers, whose records carry "dtype"
        (lambda: build_net("mnist-paper", 1),
         "7cf1fc397f86183944312d6a45abb10357fec9bb5f99d164e0e31258568db1b0"),
        (lambda: build_net("cifar-paper", 1),
         "73b6b46e570cc5ee2b1c1cf78367aded6c135f777ee529807f08dd0639106593"),
        (lambda: build_net("mnist-tiny", 1),
         "aae4a4029d4ef6caf6babbc79828b9db8c8cf67a171c1ac36ff223d8b30be6ff"),
    ], ids=["zoo_net-3", "mnist-paper-1", "cifar-paper-1", "mnist-tiny-1"])
    def test_untrained_file_bytes_unchanged(self, tmp_path, build, digest):
        # untrained weights come from PCG64 draws and casts only, not BLAS
        path = tmp_path / "model.ibpnet"
        build().save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_float32_roundtrip_resaves_byte_identical(self, tmp_path):
        net = build_net("mnist-paper", 1)
        a, b = tmp_path / "a.ibpnet", tmp_path / "b.ibpnet"
        net.save(a)
        loaded = Network.load(a)
        loaded.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert [l.spec().get("dtype") for l in loaded.param_layers] == ["float32"] * 4
        for (w, bias), (lw, lb) in zip(net.params(), loaded.params()):
            assert lw.dtype == lb.dtype == np.float32
            np.testing.assert_array_equal(w, lw)
            np.testing.assert_array_equal(bias, lb)
        # 4 bytes a parameter: half the float64 file's blob
        assert a.stat().st_size - 4 * sum(w.size + b.size for w, b in net.params()) < 1024

    def test_truncated_float32_weights(self, tmp_path):
        path = tmp_path / "model.ibpnet"
        build_net("mnist-paper", 2).save(path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError, match="truncated weight"):
            Network.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ibpnet"
        path.write_bytes(b"NOTNET1" + bytes(16))
        with pytest.raises(FormatError, match="bad magic"):
            Network.load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ibpnet"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(FormatError, match="truncated"):
            Network.load(path)

    def test_truncated_weights(self, tmp_path):
        net = acceptance_net(2)
        path = tmp_path / "model.ibpnet"
        net.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError, match="truncated weight"):
            Network.load(path)

    def test_trailing_bytes(self, tmp_path):
        net = acceptance_net(2)
        path = tmp_path / "model.ibpnet"
        net.save(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            Network.load(path)

    def test_undecodable_layer_record(self, tmp_path):
        path = tmp_path / "model.ibpnet"
        rec = b"\xff\xfe not json"
        import struct
        path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(rec)) + rec)
        with pytest.raises(FormatError, match="undecodable"):
            Network.load(path)


class TestLayerFromSpec:
    def test_roundtrips_every_kind(self):
        net = zoo_net(4)
        kinds = [layer.spec()["kind"] for layer in net.layers]
        assert {"fc", "conv", "relu", "sigmoid", "softmax",
                "maxpool", "meanpool", "dropout"} <= set(kinds)
        rng = rng_stream(0, "load-init")
        for layer in net.layers:
            rebuilt = layer_from_spec(layer.spec(), rng)
            assert rebuilt.spec() == layer.spec()

    def test_without_a_generator_weights_start_at_zero(self):
        # as load builds them: the file's bytes then overwrite every entry
        for layer in zoo_net(4).param_layers:
            rebuilt = layer_from_spec(layer.spec(), None)
            assert rebuilt.spec() == layer.spec()
            assert rebuilt.w.shape == layer.w.shape and not rebuilt.w.any()

    @pytest.mark.parametrize("kind", ["maxpool", "meanpool"])
    @pytest.mark.parametrize("window, stride, hw, out_hw", [
        ([2, 2], [3, 3], (12, 12), (4, 4)),  # row and column 11 lie in no window
        ([3, 3], [2, 2], (1, 5), (1, 2)),    # a window taller than the map
    ])
    def test_pool_records_a_file_may_hold_run_every_pass(self, kind, window, stride,
                                                         hw, out_hw):
        rng = np.random.default_rng(9)
        layer = layer_from_spec({"kind": kind, "window": window, "stride": stride}, None)
        x = rng.normal(size=(2, 3) + hw)
        assert layer.forward(x, train=True).shape == (2, 3) + out_hw
        dy = rng.normal(size=(2, 3) + out_hw)
        assert layer.vjp(dy).shape == x.shape
        assert layer.jvp(rng.normal(size=x.shape)).shape == dy.shape

    @pytest.mark.parametrize("dtype", ["float16", "<f8", ["float32"]])
    def test_unknown_dtype(self, dtype):
        with pytest.raises(FormatError, match="unknown weight dtype"):
            layer_from_spec({"kind": "fc", "in_features": 2, "out_features": 2,
                             "dtype": dtype}, np.random.default_rng(0))

    def test_unknown_kind(self):
        with pytest.raises(FormatError, match="unknown layer kind"):
            layer_from_spec({"kind": "attention"}, np.random.default_rng(0))

    @pytest.mark.parametrize("record, message", [
        (["fc", 4, 3], "not a JSON object"),
        ({"kind": ["fc"]}, "unknown layer kind"),
        ({"kind": "fc", "in_features": 4}, r"fc record: missing fields \['out_features'\]"),
        ({"kind": "relu", "junk": 1}, r"relu record: .* undeclared fields \['junk'\]"),
        ({"kind": "maxpool", "window": [2, 2], "stride": [2, 2], "dtype": "float32"},
         r"maxpool record: .* undeclared fields \['dtype'\]"),
        ({"kind": "maxpool", "window": 3, "stride": [2, 2]},
         r"maxpool record .*'window': 3.* is rejected"),
        ({"kind": "conv", "in_channels": 1, "filters": 2, "kernel": [3, 3],
          "pad": [1], "stride": [1, 1]}, r"conv record .*'pad': \[1\].* is rejected"),
        ({"kind": "fc", "in_features": 0, "out_features": 3}, "fc record .* is rejected"),
        ({"kind": "dropout", "rate": "0.5"}, "dropout record .* is rejected"),
    ], ids=["list", "unhashable-kind", "missing-field", "undeclared-field",
            "dtype-off-weights", "bad-window", "bad-pad", "zero-extent", "string-rate"])
    def test_malformed_record_is_a_format_error(self, record, message):
        with pytest.raises(FormatError, match=message):
            layer_from_spec(record, np.random.default_rng(0))
