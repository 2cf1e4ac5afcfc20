"""Corrupted-testset and sweep tests: zero-level identity, per-level
determinism, the CSV row schema, and levels corrupted one batch at a time."""

import math
import tracemalloc

import numpy as np
import pytest

from ibpnet import perturb
from ibpnet.errors import ConfigError
from ibpnet.perturb import (
    CSV_HEADER,
    SWEEP_KINDS,
    gaussian_testset,
    sweep,
)
from ibpnet.presets import acceptance_net, build_net
from ibpnet.tensor import _EVAL_SLICE_BYTES
from ibpnet.training import adversarial_shift, error_rate, input_gradient

from batches import make_batch


@pytest.fixture()
def net_and_data():
    rng = np.random.default_rng(0)
    x, labels = make_batch(rng, 40, (1, 7, 7), 16)
    return acceptance_net(0), x, labels


class TestCorruptedSets:
    def test_zero_sigma_returns_input_unchanged(self, net_and_data):
        _, x, _ = net_and_data
        assert gaussian_testset(x, 0.0, seed=1) is x

    def test_adversarial_moves_pixels_by_epsilon(self, net_and_data):
        net, x, labels = net_and_data
        shifted = adversarial_shift(x, input_gradient(net, x, labels)[0], 0.25)
        moved = np.abs(shifted - x)
        # pixels the pooling never selects have zero gradient and stay put
        assert ((np.abs(moved - 0.25) < 1e-12) | (moved == 0.0)).all()
        assert (moved > 0.0).mean() > 0.5

    def test_gaussian_deterministic_per_level_and_seed(self, net_and_data):
        _, x, _ = net_and_data
        a = gaussian_testset(x, 0.3, seed=5)
        np.testing.assert_array_equal(a, gaussian_testset(x, 0.3, seed=5))
        assert not np.array_equal(a, gaussian_testset(x, 0.3, seed=6))
        assert not np.array_equal(a - x, gaussian_testset(x, 0.2, seed=5) - x)

    def test_gaussian_noise_moments(self):
        x = np.zeros((50, 1, 10, 10))
        noise = gaussian_testset(x, 0.3, seed=7)
        assert abs(noise.std() - 0.3) < 0.01
        assert abs(noise.mean()) < 0.01

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            gaussian_testset(np.zeros((1, 1, 2, 2)), -0.1, seed=0)


class TestSweep:
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_level_zero_matches_standalone_error_rate(self, net_and_data, kind):
        net, x, labels = net_and_data
        sw = sweep(net, x, labels, kind, [0.0, 0.1], seed=2)
        assert sw.errors[0] == error_rate(net, x, labels)

    def test_adversarial_clean_level_scored_from_the_gradient_pass(self, net_and_data,
                                                                    monkeypatch):
        # one forward per batch for the gradient (which also scores level 0)
        # and one per batch for the shifted level, not a third for level 0
        net, x, labels = net_and_data
        forwards = []
        for name in ("forward", "predict"):
            def counted(*args, inner=getattr(net, name), **kw):
                forwards.append(args[0].shape[0])
                return inner(*args, **kw)
            monkeypatch.setattr(net, name, counted)
        sweep(net, x, labels, "adversarial", [0.0, 0.1], seed=0, batch_size=16)
        assert len(forwards) == 2 * math.ceil(len(x) / 16)
        assert sum(forwards) == 2 * len(x)

    def test_clean_only_adversarial_sweep_computes_no_gradient(self, net_and_data,
                                                               monkeypatch):
        net, x, labels = net_and_data

        def refuse(*args, **kw):
            raise AssertionError("input_gradient called for a clean-only sweep")

        monkeypatch.setattr(perturb, "input_gradient", refuse)
        sw = sweep(net, x, labels, "adversarial", [0.0], seed=0)
        assert sw.errors == [error_rate(net, x, labels)]

    def test_deterministic_and_order_free(self, net_and_data):
        # a level's result must not depend on which other levels ran
        net, x, labels = net_and_data
        full = sweep(net, x, labels, "gaussian", [0.0, 0.1, 0.2], seed=3)
        short = sweep(net, x, labels, "gaussian", [0.0, 0.2], seed=3)
        assert full.errors[2] == short.errors[1]

    def test_level_validation(self, net_and_data):
        net, x, labels = net_and_data
        with pytest.raises(ConfigError, match="start at 0"):
            sweep(net, x, labels, "gaussian", [0.1, 0.2], seed=0)
        with pytest.raises(ConfigError, match="start at 0"):
            sweep(net, x, labels, "gaussian", [], seed=0)
        with pytest.raises(ConfigError, match="strictly increasing"):
            sweep(net, x, labels, "gaussian", [0.0, 0.2, 0.1], seed=0)
        with pytest.raises(ConfigError, match="kind"):
            sweep(net, x, labels, "saltpepper", [0.0], seed=0)

    def test_adversarial_direction_computed_once_per_sweep(self, net_and_data,
                                                           monkeypatch):
        net, x, labels = net_and_data
        levels = [0.0, 0.05, 0.1, 0.2]
        grad = input_gradient(net, x, labels)[0]
        want = [error_rate(net, adversarial_shift(x, grad, eps), labels)
                for eps in levels]
        calls = []
        gradient = perturb.input_gradient

        def counted(*args, **kw):
            calls.append(args)
            return gradient(*args, **kw)

        monkeypatch.setattr(perturb, "input_gradient", counted)
        sw = sweep(net, x, labels, "adversarial", levels, seed=0)
        assert len(calls) == 1
        assert sw.errors == want
        assert len(set(want)) > 1  # the levels really differ

    def test_csv_schema(self, net_and_data, tmp_path):
        net, x, labels = net_and_data
        sw = sweep(net, x, labels, "adversarial", [0.0, 0.25], seed=4)
        rows = list(sw.rows())
        assert len(rows) == 2
        kind, level, err, n, seed = rows[1].split(",")
        assert kind == "adversarial"
        assert level == "0.25"
        assert float(err) == sw.errors[1]
        assert n == "40" and seed == "4"
        path = tmp_path / "sweep.csv"
        sw.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1:] == rows


LEVELS = {"gaussian": [0.0, 0.5, 2.0], "adversarial": [0.0, 0.1, 0.3]}


class TestStreamedSweep:
    """Each level is corrupted one slice at a time."""

    @pytest.fixture()
    def net_and_set(self):
        rng = np.random.default_rng(11)
        x, labels = make_batch(rng, 150, (1, 7, 7), 16)
        return acceptance_net(0), x, labels

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_errors_do_not_depend_on_batch_size(self, net_and_set, kind):
        net, x, labels = net_and_set
        runs = [sweep(net, x, labels, kind, LEVELS[kind], seed=3, batch_size=b).errors
                for b in (7, 64, len(x))]
        assert runs[0] == runs[1] == runs[2]
        assert len(set(runs[0])) > 1  # the levels really differ

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_net_sees_the_whole_set_corruption(self, net_and_set, kind, monkeypatch):
        net, x, labels = net_and_set
        level = LEVELS[kind][1]
        if kind == "gaussian":
            want = gaussian_testset(x, level, seed=3)
        else:
            want = adversarial_shift(x, input_gradient(net, x, labels)[0], level)
        seen = []
        predict = net.predict
        monkeypatch.setattr(net, "predict", lambda xb: seen.append(xb.copy()) or predict(xb))
        sweep(net, x, labels, kind, [0.0, level], seed=3, batch_size=7)
        got = np.concatenate(seen[-math.ceil(len(x) / 7):])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # the adversarial sweep keeps the float32 gradient of every image, half a
    # copy, for all its levels; one corrupted copy of the set per level, or
    # its noise, would exceed either bound
    @pytest.mark.parametrize("kind, copies", [("gaussian", 0.5), ("adversarial", 0.75)])
    def test_peak_memory_below_copies_of_the_set(self, kind, copies):
        # a float32 net on float32 images, as datasets store them; one copy is
        # the set in float64
        net = build_net("mnist-tiny", 0)
        rng = np.random.default_rng(12)
        x = rng.random((2000, 1, 28, 28), dtype=np.float32)
        labels = np.eye(10)[rng.integers(0, 10, size=2000)]
        tracemalloc.start()
        try:
            sweep(net, x, labels, kind, [0.0, 0.1], seed=0, batch_size=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        used = peak / (x.size * 8)
        assert used < copies, f"{used:.2f} float64 copies of the set"


def paper_set(name: str, n: int):
    """An untrained float32 paper net and n random float32 images of its input shape."""
    shape = {"mnist-paper": (1, 28, 28), "cifar-paper": (3, 32, 32),
             "mnist-tiny": (1, 28, 28)}[name]
    rng = np.random.default_rng(14)
    x = rng.random((n,) + shape, dtype=np.float32)
    return build_net(name, 0), x, np.eye(10)[rng.integers(0, 10, size=n)]


class TestSlicedSweep:
    """The paper nets' sweeps run in slices sized from the widest activation,
    not from the caller's 256-image batch."""

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("name", ["mnist-paper", "cifar-paper"])
    def test_peak_memory_set_by_the_slice_budget(self, name, kind):
        # a slice's activations, caches and cotangents, and the kernels' chunk
        # temporaries, fit in a few budgets; the adversarial sweep also keeps
        # the set's gradient. Whole 256-image batches peaked at 36-58 MiB.
        net, x, labels = paper_set(name, 256)
        tracemalloc.start()
        try:
            sweep(net, x, labels, kind, [0.0, 0.1], seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * _EVAL_SLICE_BYTES + x.nbytes
        assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("name", ["mnist-paper", "cifar-paper"])
    def test_errors_equal_at_batch_size_7(self, name, kind):
        net, x, labels = paper_set(name, 256)
        levels = [0.0, 0.1, 0.5]
        assert (sweep(net, x, labels, kind, levels, seed=0).errors
                == sweep(net, x, labels, kind, levels, seed=0, batch_size=7).errors)

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("name, step", [("mnist-tiny", 256), ("mnist-paper", 52)])
    def test_one_pass_per_slice_and_level(self, name, step, kind, monkeypatch):
        net, x, labels = paper_set(name, 600)
        sizes = []
        for method in ("forward", "predict"):
            def counted(*args, inner=getattr(net, method), **kw):
                sizes.append(args[0].shape[0])
                return inner(*args, **kw)
            monkeypatch.setattr(net, method, counted)
        sweep(net, x, labels, kind, [0.0, 0.1, 0.2], seed=0)
        # the adversarial gradient pass also scores level 0
        per_level = [step] * (len(x) // step) + [len(x) % step]
        assert sizes == per_level * 3
