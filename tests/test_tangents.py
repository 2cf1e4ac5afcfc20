"""Tangent generator tests.

The five tangents are checked against finite differences of actual image
warps: ramp images make bilinear resampling exact, so shift tangents match to
rounding and scale/rotation residuals shrink linearly with the warp size.
"""

import tracemalloc

import numpy as np
import pytest

from ibpnet import tangents
from ibpnet.datasets import _affine_batch
from ibpnet.errors import ConfigError
from ibpnet.tangents import (
    TANGENT_NAMES,
    _blur,
    dataset_tangents,
    gaussian_kernel1d,
    load_or_build_tangents,
    tangent_vectors,
)

EYE = np.eye(2)

# (tangent index, warp matrix, warp offset) pairs whose finite difference in
# the warp size reproduces the corresponding tangent
WARPS = [
    (0, lambda d: EYE, lambda d: (-d, 0.0)),
    (1, lambda d: EYE, lambda d: (0.0, -d)),
    (2, lambda d: np.diag([1.0 - d, 1.0]), lambda d: (0.0, 0.0)),
    (3, lambda d: np.diag([1.0, 1.0 - d]), lambda d: (0.0, 0.0)),
    (4, lambda d: np.array([[np.cos(d), -np.sin(d)],
                            [np.sin(d), np.cos(d)]]), lambda d: (0.0, 0.0)),
]


def warp_fd(img, k, d):
    mat, off = WARPS[k][1](d), WARPS[k][2](d)
    warped = _affine_batch(img[None, None], np.asarray(mat, float)[None],
                           np.array([off], float))[0, 0]
    return (warped - img) / d


def centered_ramp(h, w, a, b, c):
    ys, xs = np.indices((h, w), dtype=np.float64)
    return a + b * (xs - (w - 1) / 2.0) + c * (ys - (h - 1) / 2.0)


def plain_tangents(img, sigma):
    """The tangents by the plain formula: np.pad, one temporary per tap,
    np.gradient and np.stack."""
    k = gaussian_kernel1d(sigma)
    r = len(k) // 2
    smoothed = img
    for axis in (-1, -2):
        moved = np.moveaxis(smoothed, axis, -1)
        padded = np.pad(moved, [(0, 0)] * (moved.ndim - 1) + [(r, r)])
        acc = np.zeros_like(moved)
        for j, kj in enumerate(k):
            acc += kj * padded[..., j:j + moved.shape[-1]]
        smoothed = np.moveaxis(acc, -1, axis)
    gx, gy = np.gradient(smoothed, axis=-1), np.gradient(smoothed, axis=-2)
    h, w = img.shape[-2:]
    dx = (np.arange(w, dtype=np.float64) - (w - 1) / 2.0)[None, :]
    dy = (np.arange(h, dtype=np.float64) - (h - 1) / 2.0)[:, None]
    return np.stack([gx, gy, dx * gx, dy * gy, dy * gx - dx * gy], axis=-3)


class TestKernel:
    def test_normalized_and_symmetric(self):
        k = gaussian_kernel1d(0.9)
        assert len(k) == 2 * 3 + 1  # radius ceil(3 * 0.9) = 3
        np.testing.assert_allclose(k.sum(), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(k, k[::-1])
        assert k.argmax() == len(k) // 2

    def test_rejects_non_positive_sigma(self):
        for sigma in (0.0, -1.0):
            with pytest.raises(ConfigError):
                gaussian_kernel1d(sigma)


class TestSmoothing:
    def test_impulse_response_is_separable_kernel(self):
        img = np.zeros((11, 11))
        img[5, 5] = 1.0
        k = gaussian_kernel1d(1.0)  # radius 3 fits inside the image
        out = _blur(img, 1.0)
        np.testing.assert_allclose(out[2:9, 2:9], np.outer(k, k), rtol=1e-12)
        assert out[0, 0] == 0.0

    def test_constant_preserved_away_from_borders(self):
        out = _blur(np.full((11, 11), 3.0), 1.0)
        np.testing.assert_allclose(out[3:8, 3:8], 3.0, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(9, 9)), rng.normal(size=(9, 9))
        lhs = _blur(2.0 * a - 3.0 * b, 0.7)
        rhs = 2.0 * _blur(a, 0.7) - 3.0 * _blur(b, 0.7)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestTangentVectors:
    def test_shape_and_order(self):
        rng = np.random.default_rng(1)
        t = tangent_vectors(rng.normal(size=(12, 10)), 0.9)
        assert t.shape == (5, 12, 10)
        assert len(TANGENT_NAMES) == 5
        batched = tangent_vectors(rng.normal(size=(3, 2, 12, 10)), 0.9)
        assert batched.shape == (3, 2, 5, 12, 10)
        assert tangent_vectors(np.zeros((0, 12, 10)), 0.9).shape == (0, 5, 12, 10)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(11, 11)), rng.normal(size=(11, 11))
        lhs = tangent_vectors(0.5 * a + 2.0 * b, 0.9)
        rhs = 0.5 * tangent_vectors(a, 0.9) + 2.0 * tangent_vectors(b, 0.9)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_ramp_interior_values(self):
        # a + b*x + c*y has constant spatial gradient, so shift tangents are
        # b and c and the scale tangents are b*x and c*y exactly, away from
        # the zero-padded border
        img = centered_ramp(15, 15, 0.3, 0.7, -0.4)
        t = tangent_vectors(img, 0.9)
        m = 4  # kernel radius 3 plus one gradient cell
        np.testing.assert_allclose(t[0][m:-m, m:-m], 0.7, rtol=1e-12)
        np.testing.assert_allclose(t[1][m:-m, m:-m], -0.4, rtol=1e-12)
        xs = np.arange(15, dtype=np.float64) - 7.0
        shape = t[2][m:-m, m:-m].shape
        np.testing.assert_allclose(t[2][m:-m, m:-m],
                                   np.broadcast_to(0.7 * xs[None, m:-m], shape),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(t[3][m:-m, m:-m],
                                   np.broadcast_to(-0.4 * xs[m:-m][:, None], shape),
                                   rtol=0, atol=1e-12)

    def test_radial_image_has_no_rotation_tangent(self):
        ys, xs = np.indices((15, 15), dtype=np.float64)
        r2 = (xs - 7.0) ** 2 + (ys - 7.0) ** 2
        t = tangent_vectors(np.exp(-r2 / 18.0), 0.9)
        rot = np.abs(t[4][5:-5, 5:-5]).max()
        shift = np.abs(t[0][5:-5, 5:-5]).max()
        assert rot < 0.01 * shift

    @pytest.mark.parametrize("shape,sigma", [((3, 2, 12, 10), 0.9), ((2, 5, 4), 0.9),
                                             ((3, 9, 7), 2.5)])
    def test_bytes_of_the_plain_formula(self, shape, sigma):
        # the blur runs on flat padded buffers; the same taps in the same
        # order give the same bytes, also at -0.0 pixels and with a kernel
        # wider than the image
        img = np.random.default_rng(6).normal(size=shape)
        img[0, ..., :2, :] = -0.0
        assert tangent_vectors(img, sigma).tobytes() == plain_tangents(img, sigma).tobytes()

    def test_normalize_flag(self):
        rng = np.random.default_rng(3)
        imgs = rng.normal(size=(4, 9, 9))
        imgs[2] = 0.0  # zero image keeps zero tangents under normalization
        t = tangent_vectors(imgs, 0.9, normalize=True)
        norms = np.linalg.norm(t.reshape(4, 5, -1), axis=-1)
        np.testing.assert_allclose(norms[[0, 1, 3]], 1.0, rtol=1e-12)
        np.testing.assert_array_equal(norms[2], np.zeros(5))


class TestWarpConsistency:
    def test_shift_tangents_exact_on_ramp(self):
        img = centered_ramp(15, 15, 0.3, 0.7, -0.4)
        t = tangent_vectors(img, 0.9)
        m = 6
        for k in (0, 1):
            resid = np.abs((warp_fd(img, k, 0.2) - t[k])[m:-m, m:-m]).max()
            assert resid < 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_scale_and_rotation_converge_on_ramp(self, k):
        img = centered_ramp(15, 15, 0.3, 0.7, -0.4)
        t = tangent_vectors(img, 0.9)
        m = 6
        resid = [np.abs((warp_fd(img, k, d) - t[k])[m:-m, m:-m]).max()
                 for d in (0.2, 0.1, 0.05)]
        assert resid[1] < 0.6 * resid[0]
        assert resid[2] < 0.6 * resid[1]
        assert resid[2] < 0.05

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_direction_on_generic_smooth_image(self, k):
        rng = np.random.default_rng(4)
        img = _blur(rng.normal(size=(21, 21)), 2.0)
        t = tangent_vectors(img, 0.9)
        m = 6
        a = warp_fd(img, k, 0.25)[m:-m, m:-m].ravel()
        b = t[k][m:-m, m:-m].ravel()
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos > 0.85


class TestDatasetTangents:
    def test_shape_and_per_image_agreement(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 9, 9))
        t = dataset_tangents(x, 0.9)
        assert t.shape == (3, 5, 2, 9, 9)
        single = tangent_vectors(x[1].astype(np.float32), 0.9)  # (C, 5, H, W)
        np.testing.assert_array_equal(t[1], single.transpose(1, 0, 2, 3))
        assert dataset_tangents(np.zeros((0, 2, 9, 9)), 0.9).shape == (0, 5, 2, 9, 9)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float32_result_for_any_float_input(self, dtype):
        x = np.random.default_rng(9).random((4, 3, 8, 6)).astype(dtype)
        t = dataset_tangents(x, 0.9)
        assert t.dtype == np.float32
        assert t.nbytes == 4 * 5 * 3 * 8 * 6 * 4
        # the per-image functions keep float32 and float64 as they are given
        assert tangent_vectors(x[0], 0.9).dtype == dtype
        assert _blur(x[0], 0.9).dtype == dtype

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("sigma", [0.3, 0.9, 2.5])
    @pytest.mark.parametrize("shape", [(1, 28, 28), (3, 32, 32)])
    def test_close_to_float64_tangents(self, shape, sigma, normalize):
        # float32 rounding only: within 1e-5 of the largest tangent
        x = np.random.default_rng(10).random((6,) + shape) - 0.13
        ref = tangent_vectors(x, sigma, normalize).transpose(0, 2, 1, 3, 4)
        assert ref.dtype == np.float64
        err = np.abs(dataset_tangents(x, sigma, normalize) - ref).max()
        assert err <= 1e-5 * np.abs(ref).max()

    def test_rejects_non_4d(self):
        with pytest.raises(ConfigError):
            dataset_tangents(np.zeros((3, 9, 9)), 0.9)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("shape", [(1, 28, 28), (3, 32, 32)])
    def test_blocks_give_the_bytes_of_per_image_tangents(self, shape, normalize):
        # two full blocks and a short one
        step = tangents._TANGENT_BLOCK_BYTES // (5 * int(np.prod(shape)) * 4)
        assert step > 1
        x = np.random.default_rng(6).random((2 * step + 3,) + shape)
        t = dataset_tangents(x, 0.9, normalize)
        for i in range(x.shape[0]):
            image = x[i].astype(np.float32)
            single = tangent_vectors(image, 0.9, normalize).transpose(1, 0, 2, 3)
            assert t[i].tobytes() == np.ascontiguousarray(single).tobytes()

    def test_peak_memory_is_about_the_result(self):
        x = np.random.default_rng(7).random((512, 1, 28, 28))
        tracemalloc.start()
        try:
            t = dataset_tangents(x, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * t.nbytes


class TestLoadOrBuild:
    def test_same_bytes_as_dataset_tangents(self):
        x = np.random.default_rng(8).normal(size=(2, 1, 9, 9))
        for normalize in (False, True):
            assert (load_or_build_tangents(x, 0.9, normalize).tobytes()
                    == dataset_tangents(x, 0.9, normalize).tobytes())
