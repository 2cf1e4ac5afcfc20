"""Kernel-level checks against plain-loop and earlier-kernel references."""

import tracemalloc

import numpy as np
import pytest

from ibpnet import tensor
from ibpnet.errors import ConfigError
from ibpnet.tensor import (
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    conv_output_hw,
    lp_norm,
    maxpool_forward,
    maxpool_gather,
    maxpool_scatter,
    meanpool_backward,
    meanpool_forward,
    pool_output_extent,
    rng_stream,
    sign,
)


def conv_loops(x, w, pad, stride):
    """Six-nested-loop cross-correlation reference."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ph, pw = pad
    sh, sw = stride
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    out = np.zeros((n, f, ho, wo))
    for b in range(n):
        for g in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ch in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[b, ch, i * sh + u, j * sw + v] * w[g, ch, u, v]
                    out[b, g, i, j] = acc
    return out


def pool_windows(h, w, window, stride):
    kh, kw = window
    sh, sw = stride
    ho = min(max(0, -((h - kh) // -sh)) + 1, (h - 1) // sh + 1)
    wo = min(max(0, -((w - kw) // -sw)) + 1, (w - 1) // sw + 1)
    for i in range(ho):
        for j in range(wo):
            yield i, j, i * sh, min(i * sh + kh, h), j * sw, min(j * sw + kw, w)


def maxpool_loops(x, window, stride):
    n, c, h, w = x.shape
    slots = list(pool_windows(h, w, window, stride))
    ho = max(s[0] for s in slots) + 1
    wo = max(s[1] for s in slots) + 1
    out = np.zeros((n, c, ho, wo))
    arg = np.zeros((n, c, ho, wo), dtype=np.int64)
    for b in range(n):
        for ch in range(c):
            for i, j, r0, r1, c0, c1 in slots:
                win = x[b, ch, r0:r1, c0:c1]
                k = int(win.argmax())  # first occurrence in row-major order
                u, v = divmod(k, c1 - c0)
                out[b, ch, i, j] = win.flat[k]
                arg[b, ch, i, j] = (r0 + u) * w + (c0 + v)
    return out, arg


def meanpool_loops(x, window, stride):
    n, c, h, w = x.shape
    slots = list(pool_windows(h, w, window, stride))
    ho = max(s[0] for s in slots) + 1
    wo = max(s[1] for s in slots) + 1
    out = np.zeros((n, c, ho, wo))
    for i, j, r0, r1, c0, c1 in slots:
        out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


# Earlier whole-batch NCHW kernels, kept as references for the chunked
# channels-last ones: strided tensordot convolution, a tap-by-tap transposed
# convolution, argmax over a copied window view, np.add.at and fancy indexing.

def ref_conv2d(x, filters, pad, stride):
    ph, pw = pad
    kh, kw = filters.shape[2:]
    out_hw = conv_output_hw(x.shape[2], x.shape[3], (kh, kw), pad, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = tensor._window_view(xp, (kh, kw), stride, out_hw)
    out = np.tensordot(cols, filters, axes=((1, 4, 5), (1, 2, 3)))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def ref_conv2d_weight_grad(x, dy, kernel, pad, stride):
    ph, pw = pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = tensor._window_view(xp, kernel, stride, dy.shape[2:])
    dw = np.tensordot(cols, dy, axes=((0, 2, 3), (0, 2, 3)))
    return np.ascontiguousarray(dw.transpose(3, 0, 1, 2)), dy.sum(axis=(0, 2, 3))


def ref_conv2d_input_grad(dy, filters, pad, stride, in_hw):
    n, f, ho, wo = dy.shape
    kh, kw = filters.shape[2:]
    ph, pw = pad
    sh, sw = stride
    h, w = in_hw
    c = filters.shape[1]
    dyt = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
    taps = np.ascontiguousarray(filters.transpose(2, 3, 0, 1))
    dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, c))
    for u in range(kh):
        for v in range(kw):
            dxp[:, u:u + (ho - 1) * sh + 1:sh,
                v:v + (wo - 1) * sw + 1:sw, :] += (dyt @ taps[u, v]).reshape(n, ho, wo, c)
    return np.ascontiguousarray(dxp[:, ph:ph + h, pw:pw + w, :].transpose(0, 3, 1, 2))


def ref_maxpool_forward(x, window, stride):
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    ho = pool_output_extent(h, kh, sh)
    wo = pool_output_extent(w, kw, sw)
    hp, wp = (ho - 1) * sh + kh, (wo - 1) * sw + kw
    xp = np.full((n, c, hp, wp), -np.inf)
    xp[:, :, :h, :w] = x[:, :, :hp, :wp]
    flat = tensor._window_view(xp, window, stride, (ho, wo)).reshape(n, c, ho, wo, kh * kw)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    rows = idx // kw + np.arange(ho)[None, None, :, None] * sh
    cols = idx % kw + np.arange(wo)[None, None, None, :] * sw
    return np.ascontiguousarray(out), rows * w + cols


def ref_maxpool_scatter(dy, argmax, in_hw):
    n, c = dy.shape[:2]
    h, w = in_hw
    dx = np.zeros((n, c, h * w))
    np.add.at(dx, (np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None], argmax), dy)
    return dx.reshape(n, c, h, w)


def ref_maxpool_gather(v, argmax, in_hw):
    n, c = v.shape[:2]
    flat = v.reshape(n, c, in_hw[0] * in_hw[1])
    return flat[np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None], argmax]


class TestScalars:
    def test_sign_values(self):
        np.testing.assert_array_equal(
            sign(np.array([-2.0, 0.0, 0.5])), [-1.0, 0.0, 1.0]
        )

    def test_lp_norms(self):
        t = np.array([3.0, -4.0])
        assert lp_norm(t, 1) == 7.0
        assert lp_norm(t, 2) == 12.5
        with pytest.raises(ConfigError):
            lp_norm(t, 3)

    def test_rng_stream_determinism(self):
        a = rng_stream(7, "x").normal(size=5)
        b = rng_stream(7, "x").normal(size=5)
        c = rng_stream(7, "y").normal(size=5)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-3


class TestConv2D:
    # output rows of 8 and 9 outrun the 6-value kernel rows (per image, NCHW);
    # 6 and 5 do not (channels-last)
    @pytest.mark.parametrize("pad,stride,hw", [
        ((0, 0), (1, 1), (8, 9)),
        ((2, 1), (1, 2), (8, 10)),
        ((1, 1), (2, 2), (7, 8)),
        ((1, 1), (2, 2), (7, 16)),
    ])
    def test_against_loops(self, pad, stride, hw):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3) + hw)
        w = rng.normal(size=(4, 3, 3, 2))
        got = conv2d(x, w, pad=pad, stride=stride)
        np.testing.assert_allclose(got, conv_loops(x, w, pad, stride), rtol=1e-12)

    def test_bias_and_3d_input(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6, 6))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        got = conv2d(x, w, bias=b)
        ref = conv_loops(x[None], w, (0, 0), (1, 1))[0] + b[:, None, None]
        assert got.shape == (2, 4, 4)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_output_size_errors(self):
        assert conv_output_hw(8, 10, (3, 2), (2, 1), (1, 2)) == (10, 6)
        with pytest.raises(ConfigError):
            conv_output_hw(8, 8, (3, 3), (0, 0), (2, 2))  # (8-3)/2 not integral
        with pytest.raises(ConfigError):
            conv_output_hw(2, 8, (3, 3), (0, 0), (1, 1))  # negative extent

    def test_weight_grad_against_loops(self):
        rng = np.random.default_rng(3)
        # 4 output columns run channels-last, 8 per image in NCHW (kernel rows: 6)
        for width in (7, 15):
            x = rng.normal(size=(2, 2, 7, width))
            w = rng.normal(size=(3, 2, 3, 3))
            dy = rng.normal(size=conv2d(x, w, pad=(1, 1), stride=(2, 2)).shape)
            dw, db = conv2d_weight_grad(x, dy, (3, 3), (1, 1), (2, 2))
            ref = np.zeros_like(w)
            xp = np.zeros((2, 2, 9, width + 2))
            xp[:, :, 1:8, 1:width + 1] = x
            for b in range(2):
                for g in range(3):
                    for ch in range(2):
                        for u in range(3):
                            for v in range(3):
                                for i in range(dy.shape[2]):
                                    for j in range(dy.shape[3]):
                                        ref[g, ch, u, v] += (
                                            xp[b, ch, i * 2 + u, j * 2 + v] * dy[b, g, i, j]
                                        )
            np.testing.assert_allclose(dw, ref, rtol=1e-12)
            np.testing.assert_allclose(db, dy.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_input_grad_is_adjoint(self):
        # <dy, conv(x)> == <conv_input_grad(dy), x> for random probes
        rng = np.random.default_rng(4)
        # 3 output columns run channels-last, 11 per image in NCHW (kernel rows: 9)
        for width in (7, 23):
            x = rng.normal(size=(2, 3, 7, width))
            w = rng.normal(size=(4, 3, 3, 3))
            dy = rng.normal(size=conv2d(x, w, pad=(1, 0), stride=(2, 2)).shape)
            dx = conv2d_input_grad(dy, w, (1, 0), (2, 2), (7, width))
            lhs = float((dy * conv2d(x, w, pad=(1, 0), stride=(2, 2))).sum())
            rhs = float((dx * x).sum())
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


# pool geometries with pixels that no window reaches (stride beyond the
# window) or with a window wider than its axis
ODD_POOLS = [
    ((12, 12), (2, 2), (3, 3)),
    ((1, 5), (3, 3), (2, 2)),
    ((2, 1), (3, 2), (2, 2)),
]


class TestPooling:
    def test_extent_covers_every_pixel(self):
        # output extents: enough windows to cover the axis, none fully padded
        assert pool_output_extent(8, 3, 2) == 4   # last window truncated to 2
        assert pool_output_extent(7, 3, 2) == 3   # exact fit
        assert pool_output_extent(5, 2, 2) == 3   # last window is one column
        assert pool_output_extent(4, 4, 4) == 1
        assert pool_output_extent(1, 3, 2) == 1   # one window, truncated to 1
        assert pool_output_extent(12, 2, 3) == 4  # row 11 lies in no window
        assert pool_output_extent(0, 2, 2) == 0

    @pytest.mark.parametrize("hw,window,stride", [
        ((6, 6), (3, 3), (2, 2)),
        ((8, 5), (3, 2), (2, 2)),
        ((7, 7), (2, 2), (2, 2)),
    ] + ODD_POOLS)
    def test_maxpool_against_loops(self, hw, window, stride):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3) + hw)
        out, arg = maxpool_forward(x, window, stride)
        ref_out, ref_arg = maxpool_loops(x, window, stride)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(arg, ref_arg)

    def test_maxpool_tie_takes_first_position(self):
        x = np.array([[[[5.0, 5.0], [5.0, 1.0]]]])
        out, arg = maxpool_forward(x, (2, 2), (2, 2))
        assert out[0, 0, 0, 0] == 5.0
        assert arg[0, 0, 0, 0] == 0  # row-major first among equals

    def test_scatter_gather_roundtrip_nonoverlapping(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 4, 4))
        _, arg = maxpool_forward(x, (2, 2), (2, 2))
        dy = rng.normal(size=arg.shape)
        back = maxpool_gather(maxpool_scatter(dy, arg, (4, 4)), arg, (4, 4))
        np.testing.assert_array_equal(back, dy)

    @pytest.mark.parametrize("hw,window,stride", [
        ((6, 6), (2, 2), (2, 2)),
        ((7, 5), (3, 3), (2, 2)),
    ] + ODD_POOLS)
    def test_meanpool_against_loops(self, hw, window, stride):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 2) + hw)
        np.testing.assert_allclose(
            meanpool_forward(x, window, stride),
            meanpool_loops(x, window, stride), rtol=1e-12,
        )

    @pytest.mark.parametrize("hw,window,stride", [((7, 5), (3, 3), (2, 2))] + ODD_POOLS)
    def test_meanpool_backward_is_adjoint(self, hw, window, stride):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2) + hw)
        out = meanpool_forward(x, window, stride)
        dy = rng.normal(size=out.shape)
        dx = meanpool_backward(dy, window, stride, hw)
        np.testing.assert_allclose(
            float((dy * out).sum()), float((dx * x).sum()), rtol=1e-12
        )

    @pytest.mark.parametrize("hw,window,stride", ODD_POOLS)
    def test_maxpool_scatter_and_gather_are_adjoint(self, hw, window, stride):
        # pixels that no window reaches get no cotangent
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2) + hw)
        _, arg = maxpool_forward(x, window, stride)
        dy, v = rng.normal(size=arg.shape), rng.normal(size=x.shape)
        dx = maxpool_scatter(dy, arg, hw)
        np.testing.assert_allclose(float((dx * v).sum()),
                                   float((dy * maxpool_gather(v, arg, hw)).sum()), rtol=1e-12)
        if hw == (12, 12):
            assert not dx[:, :, 11].any() and not dx[:, :, :, 11].any()


# (name, input (C, H, W), filters (F, C, kh, kw), pad): the mnist-paper convs,
# the cifar-paper conv1 and a padded one-channel conv. Only conv2's output
# rows are shorter than its channels-last kernel rows, so it alone runs the
# channels-last kernels; the others run the per-image NCHW ones.
CONV_SHAPES = [
    ("conv1", (1, 28, 28), (32, 1, 4, 4), (0, 0)),
    ("conv2", (32, 12, 12), (64, 32, 5, 5), (2, 2)),
    ("cifar-conv1", (3, 32, 32), (32, 3, 5, 5), (0, 0)),
    ("padded-c1", (1, 16, 16), (8, 1, 5, 5), (2, 2)),
]
# conv1 and conv2 outputs, pooled 3x3 / 2; 12 -> 6 truncates the last windows
POOL_SHAPES = [("pool1", (32, 25, 25)), ("pool2", (64, 12, 12))]
POOL = ((3, 3), (2, 2))
F64_ITEMSIZE = 8  # the kernel cases below run in float64


def batch_sizes(chunk):
    """1, 32, 257 and one below, at and one above the kernel's chunk length."""
    return sorted({1, 32, 257, chunk - 1, chunk, chunk + 1} - {0})


def conv_cases():
    for name, xs, ws, pad in CONV_SHAPES:
        out_hw = conv_output_hw(xs[1], xs[2], ws[2:], pad, (1, 1))
        for n in batch_sizes(tensor._conv_chunk(xs[0], ws[2:], out_hw, F64_ITEMSIZE)):
            yield pytest.param(n, xs, ws, pad, id=f"{name}-n{n}")


def pool_cases():
    for name, xs in POOL_SHAPES:
        for n in batch_sizes(tensor._pool_chunk(xs[0], xs[1:], F64_ITEMSIZE)):
            yield pytest.param(n, xs, id=f"{name}-n{n}")


def assert_conv_close(got, ref):
    # the kernels sum in a different order; float64 rounding of the sums,
    # relative to the largest magnitude, stays far below 1e-12
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def tie_heavy(x):
    """Rounded and relu'd, so most pool windows hold several equal maxima."""
    return np.maximum(np.round(2.0 * x), 0.0)


class TestAgainstEarlierKernels:
    def test_conv_shapes_cover_both_layouts(self):
        per_image = {name: tensor._per_image(xs[0], ws[2:], conv_output_hw(*xs[1:], ws[2:], pad, (1, 1)))
                     for name, xs, ws, pad in CONV_SHAPES}
        assert per_image == {"conv1": True, "conv2": False, "cifar-conv1": True, "padded-c1": True}

    @pytest.mark.parametrize("n,xs,ws,pad", conv_cases())
    def test_conv_kernels(self, n, xs, ws, pad):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n,) + xs)
        w = rng.normal(size=ws)
        b = rng.normal(size=ws[0])
        y = conv2d(x, w, pad, (1, 1), b)
        ref = ref_conv2d(x, w, pad, (1, 1))
        assert_conv_close(y, ref + b[:, None, None])
        dy = rng.normal(size=y.shape)
        dw, db = conv2d_weight_grad(x, dy, ws[2:], pad, (1, 1))
        ref_dw, ref_db = ref_conv2d_weight_grad(x, dy, ws[2:], pad, (1, 1))
        assert_conv_close(dw, ref_dw)
        np.testing.assert_array_equal(db, ref_db)
        dx = conv2d_input_grad(dy, w, pad, (1, 1), xs[1:])
        assert_conv_close(dx, ref_conv2d_input_grad(dy, w, pad, (1, 1), xs[1:]))

    @pytest.mark.parametrize("positions", [True, False], ids=["positions", "max-only"])
    @pytest.mark.parametrize("prep", [lambda x: x, tie_heavy], ids=["normal", "ties"])
    @pytest.mark.parametrize("n,xs", pool_cases())
    def test_maxpool_kernels_bitwise(self, n, xs, prep, positions):
        rng = np.random.default_rng(n)
        x = prep(rng.normal(size=(n,) + xs))
        out, arg = maxpool_forward(x, *POOL, positions=positions)
        ref_out, ref_arg = ref_maxpool_forward(x, *POOL)
        np.testing.assert_array_equal(out, ref_out)
        if not positions:
            assert arg is None
            return
        np.testing.assert_array_equal(arg, ref_arg)
        dy = rng.normal(size=out.shape)
        np.testing.assert_array_equal(
            maxpool_scatter(dy, arg, xs[1:]), ref_maxpool_scatter(dy, arg, xs[1:]))
        v = rng.normal(size=x.shape)
        np.testing.assert_array_equal(
            maxpool_gather(v, arg, xs[1:]), ref_maxpool_gather(v, arg, xs[1:]))


def one_bincount_scatter(dy, argmax, in_hw):
    """maxpool_scatter as one bincount over the whole batch, cast back to dy's dtype."""
    n, c = dy.shape[:2]
    h, w = in_hw
    planes = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    dx = np.bincount((argmax + planes).ravel(), weights=dy.ravel(), minlength=n * c * h * w)
    return dx.astype(dy.dtype, copy=False).reshape(n, c, h, w)


class TestScatterChunks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_keep_one_bincount_bytes(self, dtype):
        # 260 images, the eval set size: many chunks and a ragged last one
        n, xs = 260, POOL_SHAPES[0][1]
        chunk = tensor._pool_chunk(xs[0], xs[1:], F64_ITEMSIZE)
        assert n // chunk >= 3 and n % chunk
        rng = np.random.default_rng(12)
        x = tie_heavy(rng.normal(size=(n,) + xs)).astype(dtype)
        _, arg = maxpool_forward(x, *POOL)
        dy = rng.normal(size=arg.shape).astype(dtype)
        got = maxpool_scatter(dy, arg, xs[1:])
        want = one_bincount_scatter(dy, arg, xs[1:])
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def scatter_loop(dy, argmax, in_hw):
    """Adds each cotangent at its argmax, in row-major output order."""
    n, c, ho, wo = dy.shape
    dx = np.zeros((n, c, in_hw[0] * in_hw[1]))
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    dx[b, ch, argmax[b, ch, i, j]] += dy[b, ch, i, j]
    return dx.reshape(n, c, *in_hw)


class TestOverlappingPoolWindows:
    """The presets' 3x3 / 2 windows overlap: one input pixel can be the
    argmax of up to four windows."""

    def shared_peaks(self):
        rng = np.random.default_rng(9)
        x = tie_heavy(rng.normal(size=(3, 2, 12, 12)))
        x[:, :, 2::2, 2::2] += 10.0  # each peak wins the 4 windows around it
        return rng, x

    def test_scatter_matches_ordered_loop(self):
        rng, x = self.shared_peaks()
        _, arg = maxpool_forward(x, *POOL)
        hits = np.stack([np.bincount(a.ravel(), minlength=144) for a in arg.reshape(6, -1)])
        assert hits.max() == 4
        dy = rng.normal(size=arg.shape)
        np.testing.assert_array_equal(maxpool_scatter(dy, arg, (12, 12)),
                                      scatter_loop(dy, arg, (12, 12)))

    def test_gather_matches_loop(self):
        rng, x = self.shared_peaks()
        _, arg = maxpool_forward(x, *POOL)
        v = rng.normal(size=x.shape)
        ref = np.array([[[[v[b, ch].flat[k] for k in row] for row in plane]
                         for ch, plane in enumerate(img)] for b, img in enumerate(arg)])
        np.testing.assert_array_equal(maxpool_gather(v, arg, (12, 12)), ref)

    @pytest.mark.parametrize("positions", [True, False], ids=["positions", "max-only"])
    def test_nan_in_window_gives_nan(self, positions):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 1, 7, 7))
        x[0, 0, 2, 2] = np.nan  # inside windows (0,0), (0,1), (1,0), (1,1)
        out, arg = maxpool_forward(x, *POOL, positions=positions)
        expect = np.zeros((3, 3), dtype=bool)
        expect[:2, :2] = True
        np.testing.assert_array_equal(np.isnan(out[0, 0]), expect)
        ref_out, ref_arg = ref_maxpool_forward(x, *POOL)
        np.testing.assert_array_equal(out[0, 0][~expect], ref_out[0, 0][~expect])
        if not positions:
            assert arg is None
            return
        np.testing.assert_array_equal(arg[0, 0][~expect], ref_arg[0, 0][~expect])
        np.testing.assert_array_equal(arg[0, 0][expect], [0, 2, 14, 16])  # window starts


def memory_cases():
    kernels = ("conv2d", "conv2d_weight_grad", "conv2d_input_grad")
    for dtype, suffix in ((np.float64, ""), (np.float32, "-float32")):
        for kernel in kernels + ("maxpool_forward",):
            yield pytest.param(CONV_SHAPES[1], kernel, dtype, id=kernel + suffix)
        for kernel in kernels:
            yield pytest.param(CONV_SHAPES[0], kernel, dtype, id=f"conv1-{kernel}{suffix}")


class TestMemory:
    """Traced NumPy peak at the mnist-paper conv2 and conv1 shapes, batch 256:
    the kernel's output plus at most 16 MiB, however large the batch, in
    float64 and in float32 (where a float64 temporary would take twice the
    chunk budget)."""

    @pytest.mark.parametrize("shape,kernel,dtype", memory_cases())
    def test_peak_within_output_plus_16mib(self, shape, kernel, dtype):
        _, xs, ws, pad = shape
        kernel_hw = ws[2:]
        rng = np.random.default_rng(11)
        x = rng.normal(size=(256,) + xs).astype(dtype)
        w = rng.normal(size=ws).astype(dtype)
        dy = rng.normal(size=(256, ws[0]) + conv_output_hw(*xs[1:], kernel_hw, pad, (1, 1)))
        dy = dy.astype(dtype)
        run = {
            "conv2d": lambda: conv2d(x, w, pad, (1, 1)),
            "conv2d_weight_grad": lambda: conv2d_weight_grad(x, dy, kernel_hw, pad, (1, 1)),
            "conv2d_input_grad": lambda: conv2d_input_grad(dy, w, pad, (1, 1), xs[1:]),
            "maxpool_forward": lambda: maxpool_forward(dy, *POOL),
        }[kernel]
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = sum(r.nbytes for r in (result if isinstance(result, tuple) else (result,)))
        assert peak <= out_bytes + (16 << 20), f"{peak / 2**20:.1f} MiB traced"


# (input (N, C, H, W), filters (F, C, kh, kw), pad): output rows outrun
# kernel rows in the first (per-image NCHW), not in the second (channels-last)
DTYPE_CONVS = [((2, 1, 9, 9), (3, 1, 3, 3), (1, 1)), ((2, 3, 4, 4), (4, 3, 3, 3), (1, 1))]


class TestDtypes:
    """Every kernel computes in and returns its input's dtype, for float32
    and float64: a default-dtype buffer would silently upcast a float32 net."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("xs,ws,pad", DTYPE_CONVS)
    def test_conv_kernels(self, dtype, xs, ws, pad):
        rng = np.random.default_rng(3)
        x = rng.normal(size=xs).astype(dtype)
        w = rng.normal(size=ws).astype(dtype)
        b = rng.normal(size=ws[0]).astype(dtype)
        y = conv2d(x, w, pad, (1, 1), b)
        dy = rng.normal(size=y.shape).astype(dtype)
        dw, db = conv2d_weight_grad(x, dy, ws[2:], pad, (1, 1))
        dx = conv2d_input_grad(dy, w, pad, (1, 1), xs[2:])
        for out in (y, conv2d(x[0], w, pad, (1, 1)), dw, db, dx):
            assert out.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gemm_operands(self, dtype):
        # a float64 layout copy makes the GEMM upcast its float32 operand,
        # though the result, written into a float32 output, would not show it
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 4)).astype(dtype)
        assert tensor._channels_last(x, (6, 6), (1, 1), 0.0).dtype == dtype
        assert tensor._patch_stack(x, (3, 3), (1, 1), (1, 1), (4, 4)).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_kernels_and_sign(self, dtype):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 7, 5)).astype(dtype)
        out, arg = maxpool_forward(x, *POOL)
        dy = rng.normal(size=out.shape).astype(dtype)
        mean = meanpool_forward(x, *POOL)
        outs = [out, maxpool_forward(x, *POOL, positions=False)[0],
                maxpool_scatter(dy, arg, x.shape[2:]), maxpool_gather(x, arg, x.shape[2:]),
                mean, meanpool_backward(dy, *POOL, x.shape[2:]), sign(x)]
        for got in outs:
            assert got.dtype == dtype
