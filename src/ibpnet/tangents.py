"""Tangent vectors of image transformations via smoothed spatial derivatives.

For each image the five tangents (x shift, y shift, x scaling, y scaling,
rotation) are first-order directional derivatives of the pixel values under
the transformation, computed from central-difference gradients of a
Gaussian-smoothed copy. Coordinates are centered on the image so scaling and
rotation act about the center.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

TANGENT_NAMES = ("shift-x", "shift-y", "scale-x", "scale-y", "rotation")


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps, truncated at radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def _smooth_axis(a: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(a, axis, -1)
    n = moved.shape[-1]
    radius = len(kernel) // 2
    pad = [(0, 0)] * (moved.ndim - 1) + [(radius, radius)]
    padded = np.pad(moved, pad)
    out = np.zeros_like(moved)
    for j, kj in enumerate(kernel):
        out += kj * padded[..., j:j + n]
    return np.moveaxis(out, -1, axis)


def gaussian_smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur over the trailing two axes, zero-padded borders."""
    img = np.asarray(img, dtype=np.float64)
    k = gaussian_kernel1d(sigma)
    return _smooth_axis(_smooth_axis(img, k, -1), k, -2)


def tangent_vectors(img: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """Five tangent tensors for one image or a batch.

    Accepts (..., H, W) and returns (..., 5, H, W) ordered as TANGENT_NAMES.
    With normalize=True each tangent of each image is scaled to unit L2 norm
    (zero tangents stay zero).
    """
    img = np.asarray(img, dtype=np.float64)
    smoothed = gaussian_smooth(img, sigma)
    gx = np.gradient(smoothed, axis=-1)
    gy = np.gradient(smoothed, axis=-2)
    h, w = img.shape[-2:]
    xs = np.arange(w, dtype=np.float64) - (w - 1) / 2.0
    ys = np.arange(h, dtype=np.float64) - (h - 1) / 2.0
    dx = xs[None, :]
    dy = ys[:, None]
    tangents = np.stack(
        [gx, gy, dx * gx, dy * gy, dy * gx - dx * gy], axis=-3
    )
    if normalize:
        flat = tangents.reshape(*tangents.shape[:-2], -1)
        norms = np.linalg.norm(flat, axis=-1)
        flat /= np.where(norms > 0, norms, 1.0)[..., None]
    return tangents


def dataset_tangents(x: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """Tangents for a dataset (N, C, H, W) -> (N, 5, C, H, W)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ConfigError(f"dataset_tangents expects (N,C,H,W), got {x.shape}")
    t = tangent_vectors(x, sigma, normalize=normalize)  # (N, C, 5, H, W)
    return np.ascontiguousarray(t.transpose(0, 2, 1, 3, 4))


def load_or_build_tangents(x: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """dataset_tangents, built in memory; the entry point of the CLI."""
    return dataset_tangents(x, sigma, normalize)
