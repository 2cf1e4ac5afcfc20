"""Corrupted-testset and sweep tests: zero-level identity, per-level
determinism, and the CSV row schema."""

import numpy as np
import pytest

from ibpnet.errors import ConfigError
from ibpnet.perturb import (
    CSV_HEADER,
    adversarial_testset,
    gaussian_testset,
    sweep,
)
from ibpnet.presets import acceptance_net
from ibpnet.training import error_rate

from batches import make_batch


@pytest.fixture()
def net_and_data():
    rng = np.random.default_rng(0)
    x, labels = make_batch(rng, 40, (1, 7, 7), 16)
    return acceptance_net(0), x, labels


class TestCorruptedSets:
    def test_zero_epsilon_returns_input_unchanged(self, net_and_data):
        net, x, labels = net_and_data
        assert adversarial_testset(net, x, labels, 0.0) is x

    def test_zero_sigma_returns_input_unchanged(self, net_and_data):
        _, x, _ = net_and_data
        assert gaussian_testset(x, 0.0, seed=1) is x

    def test_adversarial_moves_pixels_by_epsilon(self, net_and_data):
        net, x, labels = net_and_data
        shifted = adversarial_testset(net, x, labels, 0.25)
        moved = np.abs(shifted - x)
        # pixels the pooling never selects have zero gradient and stay put
        assert ((np.abs(moved - 0.25) < 1e-12) | (moved == 0.0)).all()
        assert (moved > 0.0).mean() > 0.5

    def test_adversarial_leaves_weights_alone(self, net_and_data):
        net, x, labels = net_and_data
        before = [w.copy() for w, _ in net.params()]
        adversarial_testset(net, x, labels, 0.1)
        for old, (w, _) in zip(before, net.params()):
            np.testing.assert_array_equal(old, w)

    def test_adversarial_clip(self, net_and_data):
        net, x, labels = net_and_data
        clipped = adversarial_testset(net, x, labels, 0.5, clip=True)
        assert clipped.min() >= 0.0 and clipped.max() <= 1.0

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
    def test_level_zero_matches_standalone_error_rate(self, net_and_data):
        net, x, labels = net_and_data
        sw = sweep(net, x, labels, "gaussian", [0.0, 0.1], seed=2)
        assert sw.errors[0] == error_rate(net, x, labels)

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
