"""Tangent generator tests.

The five tangents are checked against finite differences of actual image
warps: ramp images make bilinear resampling exact, so shift tangents match to
rounding and scale/rotation residuals shrink linearly with the warp size.
"""

import numpy as np
import pytest

from ibpnet.datasets import affine_sample
from ibpnet.errors import ConfigError
from ibpnet.tangents import (
    TANGENT_NAMES,
    dataset_tangents,
    gaussian_kernel1d,
    gaussian_smooth,
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
    return (affine_sample(img[None], np.asarray(mat, float), off)[0] - img) / d


def centered_ramp(h, w, a, b, c):
    ys, xs = np.indices((h, w), dtype=np.float64)
    return a + b * (xs - (w - 1) / 2.0) + c * (ys - (h - 1) / 2.0)


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
        out = gaussian_smooth(img, 1.0)
        np.testing.assert_allclose(out[2:9, 2:9], np.outer(k, k), rtol=1e-12)
        assert out[0, 0] == 0.0

    def test_constant_preserved_away_from_borders(self):
        out = gaussian_smooth(np.full((11, 11), 3.0), 1.0)
        np.testing.assert_allclose(out[3:8, 3:8], 3.0, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(9, 9)), rng.normal(size=(9, 9))
        lhs = gaussian_smooth(2.0 * a - 3.0 * b, 0.7)
        rhs = 2.0 * gaussian_smooth(a, 0.7) - 3.0 * gaussian_smooth(b, 0.7)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestTangentVectors:
    def test_shape_and_order(self):
        rng = np.random.default_rng(1)
        t = tangent_vectors(rng.normal(size=(12, 10)), 0.9)
        assert t.shape == (5, 12, 10)
        assert len(TANGENT_NAMES) == 5
        batched = tangent_vectors(rng.normal(size=(3, 2, 12, 10)), 0.9)
        assert batched.shape == (3, 2, 5, 12, 10)

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
        img = gaussian_smooth(rng.normal(size=(21, 21)), 2.0)
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
        single = tangent_vectors(x[1], 0.9)  # (C, 5, H, W)
        np.testing.assert_array_equal(t[1], single.transpose(1, 0, 2, 3))

    def test_rejects_non_4d(self):
        with pytest.raises(ConfigError):
            dataset_tangents(np.zeros((3, 9, 9)), 0.9)


class TestCache:
    def test_no_cache_dir_builds_directly(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 1, 9, 9))
        np.testing.assert_array_equal(load_or_build_tangents(x, 0.9),
                                      dataset_tangents(x, 0.9))
