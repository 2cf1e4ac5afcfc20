import numpy as np

import probes
from spans import Tracer


def _snapshot():
    from ibpnet import datasets, layers, network, perturb, tangents, training

    owners = [layers, network.Network, training, training.SgdMomentum,
              tangents, datasets, perturb, layers.Layer]
    owners += [getattr(layers, name) for name in probes.LAYER_KINDS]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_every_wrapper_is_removed_and_each_original_restored():
    before = _snapshot()
    tracer = Tracer()
    probes.instrument(tracer)
    assert tracer.patched > 40
    assert _snapshot() != before
    tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_kernels_are_seen_through_the_layers_binding():
    from ibpnet.presets import acceptance_net
    from ibpnet.training import TrainConfig, run_step

    net = acceptance_net(0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 1, 7, 7))
    labels = np.eye(16)[rng.integers(0, 16, size=4)]
    tracer = Tracer()
    probes.instrument(tracer)
    try:
        from ibpnet import training
        training.run_step(net, (x, labels), TrainConfig(algo="bp"))
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names[0] == "training.run_step"
    for expected in ("network.forward", "network.vjp", "layers.conv.forward",
                     "tensor.conv2d", "tensor.conv2d_weight_grad",
                     "tensor.maxpool_forward", "layers.fc.vjp",
                     "losses.nll_from_probs"):
        assert expected in names
    # the restored step runs untraced
    run_step(net, (x, labels), TrainConfig(algo="bp"))
    assert len(tracer.spans) == len(names)
