"""Train ten step configurations for one epoch on two nets, and two
``ibpnet train`` commands, and print the sha256 of each saved model file
and epoch CSV.

Each ``fit`` run builds ``mnist-tiny`` or ``mnist-paper`` from seed 0 and
trains it for one epoch, in two batches of 32, on the same 64 seeded
1x28x28 images, labels and tangents. Every algorithm runs: bp, loss-ibp and
pred-ibp at r=1 and r=2, tbp, fast-tbp, at and fast-at, and bp once more on
batches augmented by ``augment_batch`` from a fresh ``rng_stream(0,
"augment")``, as ``ibpnet train --augment`` draws them. The model is
written with ``Network.save`` and its digest printed, one line per run:

    <net> <configuration> <sha256>

The command-line leg generates the built-in ``glyphs`` set in a temporary
directory and runs ``ibpnet.cli.main`` with the flags in ``CLI_RUNS``: a
preset run with flag overrides and augmentation, and a two-value beta grid.
It prints one line per IDX file of the generated data, then one per model
and CSV the commands write:

    data <file name> <sha256>
    cli <file name> <sha256>

Data generation and training are deterministic, so two runs of one checkout
print the same 30 lines, and two checkouts print the same lines exactly when
they write the same data and train the same bytes. Compare a change against
its parent with

    PYTHONPATH=src python3 tools/model_digests.py > after.txt
    (in a checkout of the parent, the same command > before.txt)
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from ibpnet.cli import main as cli_main
from ibpnet.datasets import GLYPHS_SUBDIR, MNIST_FILES, AugmentSpec, augment_batch
from ibpnet.presets import build_net
from ibpnet.tangents import dataset_tangents
from ibpnet.tensor import rng_stream
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
    "bp-augment": dict(algo="bp"),
}
CLI_RUNS = (
    ("--preset", "mnist-tiny", "--dataset", "glyphs", "--subset-size", "100",
     "--epochs", "1", "--lr", "0.05", "--augment"),
    ("--dataset", "glyphs", "--subset-size", "100", "--epochs", "1",
     "--algo", "loss-ibp", "--beta-grid", "0,0.1", "--r", "2"),
)
N_IMAGES = 64
SEED = 0


def training_set():
    """64 seeded images in [0, 1], one-hot labels and their five tangents."""
    rng = np.random.default_rng(SEED)
    x = rng.random((N_IMAGES, 1, 28, 28))
    labels = np.eye(10)[rng.integers(0, 10, size=N_IMAGES)]
    return x, labels, dataset_tangents(x, sigma=0.9)


def augment_transform():
    """A fresh augment_batch transform; the images are already in [0, 1]."""
    rng = rng_stream(SEED, "augment")
    spec = AugmentSpec()
    return lambda xb: augment_batch(xb, spec, rng)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests():
    """[(net, configuration, sha256 of the saved model)] in print order."""
    x, labels, tangents = training_set()
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in NETS:
            for label, kw in CONFIGS.items():
                net = build_net(name, SEED)
                cfg = TrainConfig(epochs=1, batch_size=32, seed=SEED, **kw)
                fit(net, x, labels, cfg, tangents=tangents,
                    batch_transform=augment_transform() if label == "bp-augment" else None)
                path = os.path.join(tmp, f"{name}-{label}.ibpnet")
                net.save(path)
                out.append((name, label, sha256(path)))
    return out


def cli_digests():
    """[("data", file name, sha256)] of the four glyph IDX files the commands
    generate, in MNIST_FILES order, then [("cli", file name, sha256)] of every
    model and CSV that the CLI_RUNS commands write, by file name."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = os.path.join(tmp, "runs")
        for flags in CLI_RUNS:
            # the epoch log carries wall times, so it is not printed
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["train", *flags, "--data-dir", tmp, "--out", runs])
            if code != 0:
                raise SystemExit(f"ibpnet train {' '.join(flags)} exited {code}")
        for fname in MNIST_FILES:
            out.append(("data", fname, sha256(os.path.join(tmp, GLYPHS_SUBDIR, fname))))
        for fname in sorted(os.listdir(runs)):
            if fname.endswith((".ibpnet", ".csv")):
                out.append(("cli", fname, sha256(os.path.join(runs, fname))))
    return out


if __name__ == "__main__":
    for name, label, digest in digests() + cli_digests():
        print(name, label, digest)
