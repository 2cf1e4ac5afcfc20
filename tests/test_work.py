"""Counted work per training step: the multiply-adds of the conv kernels and
the FC passes in one `run_step` on `mnist-paper`, from shapes alone.

Unlike the timed cost ratios of criterion 8, these counts read no clock, so
they cannot flake: a change that adds or drops a pass changes a pin here.
"""

import numpy as np
import pytest

from ibpnet import layers
from ibpnet.presets import mnist_paper_net
from ibpnet.training import ALGOS, TrainConfig, run_step

from batches import make_batch

BATCH = 32
TANGENTS = 5
# multiply-adds in one step at batch 32, per algorithm (24.5 MMAC per sample
# for bp; the ratio to bp in the comments)
STEP_MACS = {
    "bp": 785137664,
    "loss-ibp": 1060503552,   # 1.35
    "pred-ibp": 1580515328,   # 2.01
    "tbp": 4710825984,        # 6.00
    "fast-tbp": 1060503552,   # 1.35
    "at": 1580515328,         # 2.01
    "fast-at": 1315389440,    # 1.68
}


def _filter_macs(filters) -> int:
    """Multiply-adds per output (or output-cotangent) value of a conv: C*kh*kw."""
    return int(np.prod(filters.shape[1:]))


def count_step_macs(monkeypatch, algo: str) -> int:
    """Multiply-adds of one run_step of algo on mnist_paper_net(0)."""
    total = 0

    def counted(fn, macs):
        def wrapper(*args, **kwargs):
            nonlocal total
            out = fn(*args, **kwargs)
            total += macs(out, *args)
            return out
        return wrapper

    # each conv kernel multiplies every value of its output-side array by a
    # (C, kh, kw) filter slice; the kernels are patched as layers binds them
    monkeypatch.setattr(layers, "conv2d", counted(
        layers.conv2d, lambda out, x, w, *rest: out.size * _filter_macs(w)))
    monkeypatch.setattr(layers, "conv2d_input_grad", counted(
        layers.conv2d_input_grad, lambda out, dy, w, *rest: dy.size * _filter_macs(w)))
    monkeypatch.setattr(layers, "conv2d_weight_grad", counted(
        layers.conv2d_weight_grad, lambda out, x, dy, *rest: dy.size * _filter_macs(out[0])))

    # an FC pass multiplies a (rows, in) by an (in, out) matrix
    fc = layers.FullyConnected

    def fc_macs(out, layer, a, *rest):
        return a.shape[0] * layer.in_features * layer.out_features

    monkeypatch.setattr(fc, "forward", counted(fc.forward, fc_macs))
    monkeypatch.setattr(fc, "jvp", counted(fc.jvp, fc_macs))
    monkeypatch.setattr(fc, "vjp_linear", counted(fc.vjp_linear, fc_macs))
    monkeypatch.setattr(fc, "weight_grad", counted(fc.weight_grad, fc_macs))

    rng = np.random.default_rng(0)
    x, labels = make_batch(rng, BATCH, (1, 28, 28), 10)
    tangents = rng.normal(size=(TANGENTS, BATCH, 1, 28, 28))  # one batch per tangent
    cfg = TrainConfig(algo=algo, beta=0.1, r=2, epsilon=0.1)
    run_step(mnist_paper_net(0), (x, labels), cfg, tangents)
    return total


@pytest.fixture(scope="module")
def step_macs():
    with pytest.MonkeyPatch.context() as mp:
        counts = {}
        for algo in ALGOS:
            counts[algo] = count_step_macs(mp, algo)
            mp.undo()
        return counts


class TestWorkPerStep:
    def test_every_algorithm_is_pinned(self):
        assert set(STEP_MACS) == set(ALGOS)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_exact_count(self, step_macs, algo):
        assert step_macs[algo] == STEP_MACS[algo]

    def test_paper_orderings(self, step_macs):
        assert step_macs["loss-ibp"] > step_macs["bp"]
        # pred-ibp is "slightly slower" than loss-ibp
        assert step_macs["pred-ibp"] > step_macs["loss-ibp"]
        assert step_macs["fast-tbp"] < step_macs["tbp"]
        assert step_macs["fast-at"] < step_macs["at"]
