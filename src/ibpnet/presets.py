"""Named network architectures and run presets for the experiment harness.

Convolutional stacks follow conv -> maxpool(3x3, stride 2) -> relu; relu and
max pooling commute, so the order only fixes which activations the caches
hold. All weight layers draw their init from per-position RNG streams of the
run seed, so architectures are reproducible irrespective of build order.

The named nets (``mnist-paper``, ``cifar-paper``, ``mnist-tiny``) train in
float32; ``acceptance_net`` and ``zoo_net`` stay float64, since the gradient
checks take finite differences of them.
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
from .tensor import rng_stream

POOL = dict(window=(3, 3), stride=(2, 2))
F32 = np.float32


def _init(seed: int, idx: int):
    return rng_stream(seed, f"init/{idx}")


def mnist_paper_net(seed: int) -> Network:
    """Two conv blocks (32@4x4 pad 0, 64@5x5 pad 2) + FC 256 for 1x28x28."""
    return Network([
        Conv2D(1, 32, (4, 4), (0, 0), (1, 1), _init(seed, 0), F32),   # 25x25
        MaxPool2D(**POOL),                                            # 12x12
        ReLU(),
        Conv2D(32, 64, (5, 5), (2, 2), (1, 1), _init(seed, 1), F32),  # 12x12
        MaxPool2D(**POOL),                                            # 6x6
        ReLU(),
        FullyConnected(64 * 6 * 6, 256, _init(seed, 2), F32),
        ReLU(),
        FullyConnected(256, 10, _init(seed, 3), F32),
        Softmax(),
    ])


def cifar_paper_net(seed: int) -> Network:
    """Three conv blocks (5x5, paddings 0/2/2, 32/32/64 filters) + FC 256
    for 3x32x32 inputs."""
    return Network([
        Conv2D(3, 32, (5, 5), (0, 0), (1, 1), _init(seed, 0), F32),   # 28x28
        MaxPool2D(**POOL),                                            # 14x14
        ReLU(),
        Conv2D(32, 32, (5, 5), (2, 2), (1, 1), _init(seed, 1), F32),  # 14x14
        MaxPool2D(**POOL),                                            # 7x7
        ReLU(),
        Conv2D(32, 64, (5, 5), (2, 2), (1, 1), _init(seed, 2), F32),  # 7x7
        MaxPool2D(**POOL),                                            # 3x3
        ReLU(),
        FullyConnected(64 * 3 * 3, 256, _init(seed, 3), F32),
        ReLU(),
        FullyConnected(256, 10, _init(seed, 4), F32),
        Softmax(),
    ])


def mnist_tiny_net(seed: int) -> Network:
    """One hidden FC layer of 256 units for 1x28x28; fast desk-scale runs."""
    return Network([
        FullyConnected(28 * 28, 256, _init(seed, 0), F32),
        ReLU(),
        FullyConnected(256, 10, _init(seed, 1), F32),
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


NET_BUILDERS = {
    "mnist-paper": mnist_paper_net,
    "cifar-paper": cifar_paper_net,
    "mnist-tiny": mnist_tiny_net,
}

PRESETS = {
    "mnist-paper": dict(net="mnist-paper", dataset="mnist", subset=10000,
                        epochs=80, batch_size=32, alpha=0.1, momentum=0.9,
                        decay=0.98, sigma=0.9),
    "cifar-paper": dict(net="cifar-paper", dataset="cifar10", subset=10000,
                        epochs=80, batch_size=32, alpha=0.1, momentum=0.9,
                        decay=0.98, sigma=0.9),
    "mnist-tiny": dict(net="mnist-tiny", dataset="digits", subset=1000,
                       epochs=20, batch_size=32, alpha=0.1, momentum=0.9,
                       decay=0.98, sigma=0.9),
}


def build_net(name: str, seed: int) -> Network:
    if name not in NET_BUILDERS:
        raise ConfigError(f"unknown network {name!r}; choose from {sorted(NET_BUILDERS)}")
    return NET_BUILDERS[name](seed)
