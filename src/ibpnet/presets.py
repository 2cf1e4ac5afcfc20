"""Named network architectures and run presets for the experiment harness.

``NETS`` holds the paper's nets (``mnist-paper``, ``cifar-paper``,
``mnist-tiny``) as rows of one table: the input shape and, per conv block,
the filters, kernel and pad. ``build_net`` makes each block conv ->
maxpool(3x3, stride 2) -> relu, then adds FC 256 -> relu -> FC 10 -> softmax,
sizing the first FC layer from the input shape. Relu and max pooling
commute, so the block order only fixes which activations the caches hold.
Each weight layer draws its init from the run seed's stream for its
position, so the nets are reproducible irrespective of build order.

The named nets train in float32; ``acceptance_net`` and ``zoo_net`` stay
float64, since the gradient checks take finite differences of them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .layers import (
    Conv2D,
    Dropout,
    FullyConnected,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Softmax,
)
from .network import Network
from .tensor import conv_output_hw, pool_output_extent, rng_stream

POOL = dict(window=(3, 3), stride=(2, 2))
TANGENT_SIGMA = 0.9  # the blur every run builds its tangents with

# name: ((channels, height, width) of the input, ((filters, kernel, pad) per conv block))
NETS = {
    "mnist-paper": ((1, 28, 28), ((32, 4, 0), (64, 5, 2))),
    "cifar-paper": ((3, 32, 32), ((32, 5, 0), (32, 5, 2), (64, 5, 2))),
    "mnist-tiny": ((1, 28, 28), ()),
}


def _init(seed: int, idx: int):
    return rng_stream(seed, f"init/{idx}")


def build_net(name: str, seed: int) -> Network:
    """The float32 net of NETS[name], its weights drawn from the run seed."""
    if name not in NETS:
        raise ConfigError(f"unknown network {name!r}; choose from {sorted(NETS)}")
    (channels, h, w), blocks = NETS[name]
    layers = []
    for idx, (filters, k, p) in enumerate(blocks):
        conv = Conv2D(channels, filters, (k, k), (p, p), (1, 1), _init(seed, idx), np.float32)
        layers += [conv, MaxPool2D(**POOL), ReLU()]
        h, w = conv_output_hw(h, w, (k, k), (p, p), (1, 1))
        h, w = (pool_output_extent(n, win, s)
                for n, win, s in zip((h, w), POOL["window"], POOL["stride"]))
        channels = filters
    fc = len(blocks)
    return Network(layers + [
        FullyConnected(channels * h * w, 256, _init(seed, fc), np.float32),
        ReLU(),
        FullyConnected(256, 10, _init(seed, fc + 1), np.float32),
        Softmax(),
    ])


def acceptance_net(seed: int) -> Network:
    """Fixed tiny gradient-check net for 1x7x7 inputs, 312 parameters:
    conv(4 filters 3x3) -> maxpool(3x3 s2) -> FC 16 -> softmax."""
    return Network([
        Conv2D(1, 4, (3, 3), (0, 0), (1, 1), _init(seed, 0)),  # 5x5
        MaxPool2D(**POOL),                                      # 2x2
        FullyConnected(16, 16, _init(seed, 1)),
        Softmax(),
    ])


def zoo_net(seed: int) -> Network:
    """One of every layer kind, for the pass-identity and adjoint checks.
    Input is 1x9x9."""
    return Network([
        Conv2D(1, 3, (3, 3), (1, 1), (1, 1), _init(seed, 0)),   # 9x9
        ReLU(),
        MaxPool2D(**POOL),                                       # 4x4
        Conv2D(3, 4, (3, 3), (1, 1), (1, 1), _init(seed, 1)),   # 4x4
        Sigmoid(),
        MeanPool2D((2, 2), (2, 2)),                              # 2x2
        Dropout(0.2, rng_stream(seed, "dropout/0")),
        FullyConnected(16, 12, _init(seed, 2)),
        ReLU(),
        FullyConnected(12, 5, _init(seed, 3)),
        Softmax(),
    ])


# the paper's SGD settings, the same for every net
_SGD = dict(batch_size=32, alpha=0.1, momentum=0.9, decay=0.98)
PRESETS = {
    "mnist-paper": dict(_SGD, dataset="mnist", subset=10000, epochs=80),
    "cifar-paper": dict(_SGD, dataset="cifar10", subset=10000, epochs=80),
    "mnist-tiny": dict(_SGD, dataset="digits", subset=1000, epochs=20),
}
