"""Tangent vectors of image transformations via smoothed spatial derivatives.

For each image the five tangents (x shift, y shift, x scaling, y scaling,
rotation) are first-order directional derivatives of the pixel values under
the transformation, computed from central-difference gradients of a
Gaussian-smoothed copy. Coordinates are centered on the image so scaling and
rotation act about the center. The per-image functions compute in float32
for float32 input and in float64 otherwise. A dataset's tangents are built
in float32, the dtype the named nets train in, in fixed-size blocks of
images straight into the result, so peak memory is about the result's size;
the bytes do not depend on the block size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

TANGENT_NAMES = ("shift-x", "shift-y", "scale-x", "scale-y", "rotation")
_TANGENT_BLOCK_BYTES = 1 << 20  # tangents of one block of images


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps, truncated at radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def _float(img) -> np.ndarray:
    """img as float32 if it is float32, else as float64."""
    img = np.asarray(img)
    return img if img.dtype == np.float32 else img.astype(np.float64, copy=False)


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Blur of img (..., H, W) along x then y, zero-padded, in img's dtype:
    a view into a padded buffer."""
    # Each pass runs on the flat buffer, so a tap is one long vector operation
    # and the stride picks the axis. Sums that reach across a row or an image
    # land only in the padding, which nothing reads; the rest add the same
    # taps in the same order from +0.0 as a per-row convolution would.
    k = gaussian_kernel1d(sigma).astype(img.dtype)
    r = len(k) // 2
    h, w = img.shape[-2:]
    a = np.zeros(img.shape[:-2] + (h + 2 * r, w + 2 * r), dtype=img.dtype)
    a[..., r:r + h, r:r + w] = img
    b = np.zeros_like(a)
    for src, dst, stride in ((a.ravel(), b.ravel(), 1), (b.ravel(), a.ravel(), w + 2 * r)):
        n = max(0, src.size - 2 * r * stride)
        res, part = dst[r * stride:r * stride + n], np.empty(n, dtype=img.dtype)
        res.fill(0.0)
        for j, kj in enumerate(k):
            res += np.multiply(src[j * stride:j * stride + n], kj, out=part)
    return a[..., r:r + h, r:r + w]


def _fill_tangents(img: np.ndarray, sigma: float, normalize: bool, out: np.ndarray) -> np.ndarray:
    """Write the tangents of img (..., H, W) into out (..., 5, H, W), both of
    one dtype that the arithmetic keeps, and return out."""
    gx, gy = np.gradient(_blur(img, sigma), axis=(-1, -2))
    h, w = img.shape[-2:]
    dx = (np.arange(w, dtype=img.dtype) - (w - 1) / 2.0)[None, :]
    dy = (np.arange(h, dtype=img.dtype) - (h - 1) / 2.0)[:, None]
    out[..., 0, :, :], out[..., 1, :, :] = gx, gy
    np.multiply(dx, gx, out=out[..., 2, :, :])
    np.multiply(dy, gy, out=out[..., 3, :, :])
    rot = np.multiply(dy, gx, out=out[..., 4, :, :])
    rot -= dx * gy
    if normalize:
        norms = np.linalg.norm(out.reshape(*out.shape[:-2], -1), axis=-1)
        out /= np.where(norms > 0, norms, 1.0)[..., None, None]
    return out


def tangent_vectors(img: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """Five tangent tensors for one image or a batch.

    Accepts (..., H, W) and returns (..., 5, H, W) ordered as TANGENT_NAMES.
    With normalize=True each tangent of each image is scaled to unit L2 norm
    (zero tangents stay zero). float32 input gives float32 tangents, any
    other input float64.
    """
    img = _float(img)
    out = np.empty(img.shape[:-2] + (5,) + img.shape[-2:], dtype=img.dtype)
    return _fill_tangents(img, sigma, normalize, out)


def dataset_tangents(x: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """Tangents for a dataset (N, C, H, W) -> (N, 5, C, H, W), float32.

    Built in float32 from the float32 images, so each image's bytes equal
    tangent_vectors' of its float32 copy. The named nets train in float32
    and cast each tangent to it, so float64 would only double the memory.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ConfigError(f"dataset_tangents expects (N,C,H,W), got {x.shape}")
    t = np.empty((x.shape[0], 5) + x.shape[1:], dtype=np.float32)
    # blocks whose tangents fit _TANGENT_BLOCK_BYTES; each image goes through the
    # same operations in the same order at any block size, so the bytes equal
    # tangent_vectors' image by image
    step = max(1, _TANGENT_BLOCK_BYTES // max(t[:1].nbytes, 1))
    for lo in range(0, x.shape[0], step):
        _fill_tangents(np.asarray(x[lo:lo + step], dtype=np.float32), sigma, normalize,
                       np.moveaxis(t[lo:lo + step], 1, -3))
    return t


def load_or_build_tangents(x: np.ndarray, sigma: float, normalize: bool = False) -> np.ndarray:
    """dataset_tangents, built in memory; the entry point of the CLI."""
    return dataset_tangents(x, sigma, normalize)
