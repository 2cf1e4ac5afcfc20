"""Train nine step configurations for one epoch on two nets and print the
sha256 of each saved model file.

Each run builds ``mnist-tiny`` or ``mnist-paper`` from seed 0 and trains it
for one epoch, in two batches of 32, on the same 64 seeded 1x28x28 images,
labels and tangents. Every algorithm runs: bp, loss-ibp and pred-ibp at
r=1 and r=2, tbp, fast-tbp, at and fast-at. The model is written with
``Network.save`` and its digest printed, one line per run:

    <net> <configuration> <sha256>

Training is deterministic, so two runs of one checkout print the same 18
lines, and two checkouts print the same lines exactly when they train the
same model bytes. Compare a change against its parent with

    PYTHONPATH=src python3 tools/model_digests.py > after.txt
    (in a checkout of the parent, the same command > before.txt)
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from ibpnet.presets import build_net
from ibpnet.tangents import dataset_tangents
from ibpnet.training import TrainConfig, fit

NETS = ("mnist-tiny", "mnist-paper")
CONFIGS = {
    "bp": dict(algo="bp"),
    "loss-ibp-r1": dict(algo="loss-ibp", beta=0.1, r=1),
    "loss-ibp-r2": dict(algo="loss-ibp", beta=0.1, r=2),
    "pred-ibp-r1": dict(algo="pred-ibp", beta=0.1, r=1),
    "pred-ibp-r2": dict(algo="pred-ibp", beta=0.1, r=2),
    "tbp": dict(algo="tbp", beta=0.1, r=2),
    "fast-tbp": dict(algo="fast-tbp", beta=0.1),
    "at": dict(algo="at", epsilon=0.1),
    "fast-at": dict(algo="fast-at", epsilon=0.1),
}
N_IMAGES = 64
SEED = 0


def training_set():
    """64 seeded images in [0, 1], one-hot labels and their five tangents."""
    rng = np.random.default_rng(SEED)
    x = rng.random((N_IMAGES, 1, 28, 28))
    labels = np.eye(10)[rng.integers(0, 10, size=N_IMAGES)]
    return x, labels, dataset_tangents(x, sigma=0.9)


def digests():
    """[(net, configuration, sha256 of the saved model)] in print order."""
    x, labels, tangents = training_set()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in NETS:
            for label, kw in CONFIGS.items():
                net = build_net(name, SEED)
                cfg = TrainConfig(epochs=1, batch_size=32, seed=SEED, **kw)
                fit(net, x, labels, cfg, tangents=tangents)
                path = os.path.join(tmp, f"{name}-{label}.ibpnet")
                net.save(path)
                with open(path, "rb") as fh:
                    out.append((name, label, hashlib.sha256(fh.read()).hexdigest()))
    return out


if __name__ == "__main__":
    for name, label, digest in digests():
        print(name, label, digest)
