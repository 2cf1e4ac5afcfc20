"""Error-vs-noise-level sweeps over corrupted test sets.

Adversarial corruption shifts each pixel by epsilon in the direction of the
loss gradient sign, unclipped, with the gradient taken against the true
labels once per sweep; the forward pass of that gradient also scores level
0. Gaussian corruption adds N(0, sigma^2) noise from a per-level RNG
stream, so results do not depend on the order in which levels are
evaluated. Every other level is scored by one error_rate call
(``Network.predict``) that corrupts the set one slice at a time as it reads
it, so a sweep holds one corrupted slice (and, if adversarial, the set's
gradient in the net's dtype). Both passes run in slices of at most
batch_size images that keep the net's widest activation within a fixed byte
budget (``network.slice_images``); at the default batch_size of 256 that is
256 images on ``mnist-tiny``, 52 on ``mnist-paper`` and 41 on
``cifar-paper``. The noise drawn slice after slice has the values of one
whole-set draw (``gaussian_testset``), so the errors do not depend on the
slice size.
Sweeps emit one CSV row per level with the schema `kind,level,error,n,seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import Network
from .tensor import rng_stream
from .training import error_rate, input_gradient, output_error

SWEEP_KINDS = ("adversarial", "gaussian")
CSV_HEADER = "kind,level,error,n,seed"


@dataclass
class NoiseSweep:
    """Error rates of one model over increasing corruption levels."""

    kind: str
    levels: list
    errors: list
    n: int
    seed: int

    def rows(self):
        for level, err in zip(self.levels, self.errors):
            yield f"{self.kind},{level:g},{err:.6f},{self.n},{self.seed}"

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in self.rows():
                fh.write(row + "\n")


class _Corrupted:
    """images + shift(sl), made per slice as batched_forward reads it: each
    slice once, in order, so a shift drawn from an RNG stream draws in the
    order of a whole-set draw. shape and dtype are those of the sums."""

    def __init__(self, images: np.ndarray, shift, shift_dtype):
        self.images, self.shift = images, shift
        self.shape, self.dtype = images.shape, np.result_type(images, shift_dtype)

    def __getitem__(self, sl):
        return self.images[sl] + self.shift(sl)


def _gaussian(images: np.ndarray, sigma: float, seed: int) -> _Corrupted:
    """images + N(0, sigma^2) noise from the level's stream, per slice read."""
    rng = rng_stream(seed, f"gaussian/{sigma!r}")
    return _Corrupted(images, lambda sl: rng.normal(0.0, sigma, size=images[sl].shape),
                      np.float64)


def gaussian_testset(images: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """x + N(0, sigma^2) noise; deterministic per (seed, sigma). The same
    values as a sweep draws slice by slice."""
    if sigma < 0:
        raise ConfigError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return images
    return _gaussian(images, sigma, seed)[:]


def sweep(net: Network, images: np.ndarray, labels: np.ndarray, kind: str,
          levels, seed: int, batch_size: int = 256) -> NoiseSweep:
    """Classification error at each corruption level (level 0 required)."""
    levels = [float(v) for v in levels]
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"sweep kind must be one of {SWEEP_KINDS}, got {kind!r}")
    if not levels or levels[0] != 0.0:
        raise ConfigError("sweep levels must start at 0")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"sweep levels must be strictly increasing: {levels}")
    if kind == "gaussian":
        errors, corrupted = [], [images] + [_gaussian(images, v, seed) for v in levels[1:]]
    elif len(levels) == 1:
        errors, corrupted = [], [images]
    else:  # one gradient pass gives every level's direction and the clean outputs
        grad, out = input_gradient(net, images, labels, batch_size=batch_size)
        errors = [output_error(out, labels)]
        direction = np.sign(grad, out=grad)
        corrupted = [_Corrupted(images, lambda sl, level=level: level * direction[sl],
                                direction.dtype) for level in levels[1:]]
    errors += [error_rate(net, c, labels, batch_size=batch_size) for c in corrupted]
    return NoiseSweep(kind, levels, errors, images.shape[0], seed)
