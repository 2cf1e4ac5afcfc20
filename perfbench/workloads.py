"""Seeded inputs and per-workload plans for the ibpnet benchmark.

The generator writes class-conditional 28x28 uint8 images and their labels
as MNIST-named IDX files, which the library reads with
``datasets.load_split_pair(root, "mnist")``. It uses NumPy alone: no
scikit-learn and no download. The same seed gives the same bytes.

Each class is a prototype made of a few Gaussian strokes; a sample is its
class prototype shifted by up to two pixels, scaled in brightness and
overlaid with pixel noise, so a net can learn the classes within a few steps.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

SIDE = 28
CLASSES = 10
BATCH = 32            # training batch, as in criterion 8
EVAL_BATCH = 256      # perturb.sweep default batch
TRAIN_N = 1024        # training split; blocks train on its first batches
HELD_OUT_SEED = 7919  # never used while tuning; reserved for validating claims

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)

TRAIN_PHASES = ("bp", "loss-ibp", "pred-ibp", "tbp", "fast-tbp", "at",
                "fast-at", "bp-augment")
EVAL_PHASES = ("gaussian", "adversarial")

# TrainConfig settings of each phase; alpha, momentum and decay come from
# the net's preset. bp-augment is bp with the CLI's --augment transform.
PHASE_CONFIG = {
    "bp": dict(algo="bp"),
    "loss-ibp": dict(algo="loss-ibp", beta=0.1, r=2),
    "pred-ibp": dict(algo="pred-ibp", beta=0.1, r=2),
    "tbp": dict(algo="tbp", beta=0.1, r=2),
    "fast-tbp": dict(algo="fast-tbp", beta=0.1),
    "at": dict(algo="at", epsilon=0.1),
    "fast-at": dict(algo="fast-at", epsilon=0.1),
    "bp-augment": dict(algo="bp"),
}
TANGENT_SIGMA = 0.9
GAUSSIAN_LEVELS = (0.0, 0.3)
ADVERSARIAL_LEVELS = (0.0, 0.1)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a net, its step plan and its eval set.

    A pass runs rounds until its time is up. Each round runs one timed
    ``fit`` call (a block) of ``steps[phase]`` batches per training phase,
    every block from the same initial weights so blocks do identical work,
    then one gaussian and one adversarial ``perturb.sweep`` over ``test_n``
    generated images (not a multiple of 256). Blocks of one phase do
    identical work, so their summed time measures that work over the whole
    pass. The training split holds TRAIN_N images, so set-up loads and
    builds tangents for all of them, as the CLI does for its subset, while
    the blocks use its first batches. Interleaving the phases spreads any
    slow spell of the machine over all of them.
    """

    name: str
    net: str
    why: str
    steps: dict
    test_n: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mnist-paper-train",
            net="mnist-paper",
            why="conv/pool kernels dominate: training at batch 32, then "
                "eval-noise sweeps of the saved bp model at batch 256",
            # bp's steps are the shortest; two per block steady its figure
            steps={phase: 2 if phase in ("bp", "bp-augment") else 1
                   for phase in TRAIN_PHASES},
            test_n=260,
        ),
        Workload(
            name="mnist-tiny-train",
            net="mnist-tiny",
            why="FC-only net, no conv or pool: orchestration, the optimizer "
                "and augmentation dominate, so kernel changes read as none",
            steps={"bp": 30, "loss-ibp": 18, "pred-ibp": 15, "tbp": 8,
                   "fast-tbp": 8, "at": 13, "fast-at": 20, "bp-augment": 5},
            test_n=1000,
        ),
    )
}


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    """(CLASSES, SIDE, SIDE) float images in [0, 1], four strokes each."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((CLASSES, SIDE, SIDE))
    for c in range(CLASSES):
        for _ in range(4):
            cy, cx = rng.uniform(7.0, 21.0, size=2)
            sy, sx = rng.uniform(1.2, 4.0, size=2)
            protos[c] += np.exp(-0.5 * (((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2))
        protos[c] /= protos[c].max()
    return protos


def _samples(protos, labels, rng) -> np.ndarray:
    n = labels.shape[0]
    padded = np.pad(protos, ((0, 0), (2, 2), (2, 2)))
    shifts = rng.integers(0, 5, size=(n, 2))
    out = np.empty((n, SIDE, SIDE))
    for i, (c, (dy, dx)) in enumerate(zip(labels, shifts)):
        out[i] = padded[c, dy:dy + SIDE, dx:dx + SIDE]
    out *= rng.uniform(0.7, 1.0, size=(n, 1, 1))
    out += rng.normal(0.0, 0.08, size=out.shape)
    return np.clip(np.rint(out * 255.0), 0, 255).astype(np.uint8)


def _write_idx(path, array: np.ndarray):
    """IDX file: big-endian magic (0x08 uint8, rank) and extents, then bytes."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">HBB", 0, 0x08, array.ndim))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.tobytes())


def write_dataset(root: str, seed: int, n_train: int, n_test: int):
    """Write the four MNIST-named IDX files for this seed under root."""
    rng = np.random.default_rng([seed, 0x1B9])
    protos = _prototypes(rng)
    os.makedirs(root, exist_ok=True)
    for (img_name, lab_name), n in ((MNIST_FILES[:2], n_train),
                                    (MNIST_FILES[2:], n_test)):
        labels = rng.integers(0, CLASSES, size=n).astype(np.uint8)
        _write_idx(os.path.join(root, img_name), _samples(protos, labels, rng))
        _write_idx(os.path.join(root, lab_name), labels)
