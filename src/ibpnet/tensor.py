"""Dense tensor kernels: 2D convolution and pooling, reductions, RNG.

Callers see C-order float arrays in NCHW layout, batch first. Every kernel
computes in, and returns, the dtype of its input (float32 or float64).
Convolution is cross-correlation (no kernel flip). The pooling kernels use
"ceil mode": window starts advance by the stride and partial windows at the
bottom/right borders are truncated to the image, with no padding.

Inside, the conv and max-pool kernels work on batch chunks whose size is a
fixed byte budget divided by the bytes one image needs at the input's item
size, so each chunk's temporaries stay in cache and no temporary grows with
the batch. Max pooling works channels-last (NHWC); its backward scatter
makes one bincount per chunk (sized by bincount's float64 sums), and as
images are disjoint planes each keeps its summation order, so the chunk size
does not change a byte. Each conv kernel picks its layout from the layer's
geometry: when an output row (Wo values) is longer than a channels-last
kernel row (kw*C values), as in first layers with few input channels, it
works per image in NCHW on a (C*kh*kw, Ho*Wo) patch stack; otherwise
channels-last on one patch matrix per chunk.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, ShapeError

_CONV_CHUNK_BYTES = 2 << 20  # patch matrix per conv chunk
_POOL_CHUNK_BYTES = 1 << 20  # input per max-pool chunk
_EVAL_SLICE_BYTES = 4 << 20  # widest activation per inference slice (network.slice_images)


def lp_norm(t: np.ndarray, r: int) -> float:
    """(1/r) * sum(|t_i|^r) for r in {1, 2}."""
    if r not in (1, 2):
        raise ConfigError(f"lp_norm order must be 1 or 2, got {r}")
    if r == 1:
        return float(np.abs(t).sum())
    return float(0.5 * np.square(t).sum())


def rng_stream(seed: int, tag: str) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, purpose tag).

    The tag is hashed so that weight init, shuffling, dropout, augmentation
    and noise never share a stream. Identical (seed, tag) gives an identical
    draw sequence on every platform (PCG64 is platform independent).
    """
    tag_int = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag_int])))


# ---------------------------------------------------------------------------
# 2D convolution (cross-correlation)
# ---------------------------------------------------------------------------

def conv_output_hw(h: int, w: int, kernel, pad, stride) -> tuple[int, int]:
    """Output spatial extents; raises ConfigError when they are not positive integers."""
    kh, kw = kernel
    ph, pw = pad
    sh, sw = stride
    num_h = h + 2 * ph - kh
    num_w = w + 2 * pw - kw
    if num_h < 0 or num_w < 0 or num_h % sh or num_w % sw:
        raise ConfigError(
            f"conv geometry invalid: input {h}x{w}, kernel {kh}x{kw}, "
            f"pad {ph}x{pw}, stride {sh}x{sw} gives non-integral output extent"
        )
    return num_h // sh + 1, num_w // sw + 1


def _window_view(x: np.ndarray, kernel, stride, out_hw):
    """Read-only (N, C, Ho, Wo, kh, kw) sliding-window view of x."""
    kh, kw = kernel
    sh, sw = stride
    ho, wo = out_hw
    n, c = x.shape[:2]
    sn, sc, srow, scol = x.strides
    return as_strided(
        x, (n, c, ho, wo, kh, kw), (sn, sc, srow * sh, scol * sw, srow, scol)
    )


def _conv_chunk(channels: int, kernel, out_hw, itemsize: int) -> int:
    """Images per conv chunk: as many patch matrices as fit _CONV_CHUNK_BYTES, at least one."""
    patch_bytes = out_hw[0] * out_hw[1] * kernel[0] * kernel[1] * channels * itemsize
    return max(1, _CONV_CHUNK_BYTES // patch_bytes)


def _pool_chunk(channels: int, in_hw, itemsize: int) -> int:
    """Images per pool chunk: as many inputs as fit _POOL_CHUNK_BYTES, at least one."""
    return max(1, _POOL_CHUNK_BYTES // (channels * in_hw[0] * in_hw[1] * itemsize))


def _channels_last(x, padded_hw, origin, fill) -> np.ndarray:
    """(N, Hp, Wp, C) copy of an NCHW chunk, its image placed at origin and
    the border filled with fill."""
    n, c, h, w = x.shape
    r, s = origin
    out = np.full((n, *padded_hw, c), fill, dtype=x.dtype)
    out[:, r:r + h, s:s + w, :] = x.transpose(0, 2, 3, 1)
    return out


def _patches(xp, kernel, stride, out_hw) -> np.ndarray:
    """(N*Ho*Wo, kh*kw*C) patch matrix of a channels-last padded chunk, kernel
    taps outer and channels inner, so each row copies kw*C contiguous values
    per kernel row."""
    n, _, _, c = xp.shape
    kh, kw = kernel
    sh, sw = stride
    ho, wo = out_hw
    sn, srow, scol, sc = xp.strides
    view = as_strided(xp, (n, ho, wo, kh, kw, c), (sn, srow * sh, scol * sw, srow, scol, sc))
    return view.reshape(n * ho * wo, kh * kw * c)


def _per_image(channels: int, kernel, out_hw) -> bool:
    """True when an output row (Wo values) is longer than a channels-last
    kernel row (kw*C values): the conv kernels then work per image in NCHW."""
    return out_hw[1] > kernel[1] * channels


def _patch_stack(x, kernel, pad, stride, out_hw) -> np.ndarray:
    """(N, C*kh*kw, Ho*Wo) patch stack of an NCHW chunk, zero-padded by pad:
    channels and taps outer, output positions inner, so each row copies runs
    of Wo values."""
    n, c, h, w = x.shape
    ph, pw = pad
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
        x = xp
    view = _window_view(x, kernel, stride, out_hw).transpose(0, 1, 4, 5, 2, 3)
    return view.reshape(n, c * kernel[0] * kernel[1], out_hw[0] * out_hw[1])


def conv2d(x, filters, pad=(0, 0), stride=(1, 1), bias=None) -> np.ndarray:
    """Cross-correlate x (N,C,H,W) with filters (F,C,kh,kw).

    Out-of-bounds reads of the zero-padded input are zero. Returns
    (N,F,Ho,Wo). Per batch chunk, either the (F, C*kh*kw) filter matrix
    times each image's patch stack, written straight into the NCHW output
    (when output rows outrun kernel rows), or one channels-last patch
    matrix times the (kh*kw*C, F) filter matrix.
    """
    if x.ndim != 4 or filters.ndim != 4:
        raise ShapeError(f"conv2d expects (N,C,H,W) and (F,C,kh,kw), got {x.shape} and {filters.shape}")
    if x.shape[1] != filters.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs filters {filters.shape}")
    n, c, h, w = x.shape
    f, _, kh, kw = filters.shape
    ph, pw = pad
    ho, wo = conv_output_hw(h, w, (kh, kw), pad, stride)
    per_image = _per_image(c, (kh, kw), (ho, wo))
    if per_image:
        wmat = filters.reshape(f, c * kh * kw)
    else:
        wmat = filters.transpose(2, 3, 1, 0).reshape(kh * kw * c, f)
    out = np.empty((n, f, ho, wo), dtype=x.dtype)
    step = _conv_chunk(c, (kh, kw), (ho, wo), x.itemsize)
    for n0 in range(0, n, step):
        xc = x[n0:n0 + step]
        b = len(xc)
        if per_image:
            y = out[n0:n0 + b].reshape(b, f, ho * wo)
            np.matmul(wmat, _patch_stack(xc, (kh, kw), pad, stride, (ho, wo)), out=y)
            if bias is not None:
                y += bias[:, None]
            continue
        xp = _channels_last(xc, (h + 2 * ph, w + 2 * pw), pad, 0.0)
        y = _patches(xp, (kh, kw), stride, (ho, wo)) @ wmat
        if bias is not None:
            y += bias
        out[n0:n0 + b] = y.reshape(b, ho, wo, f).transpose(0, 3, 1, 2)
    return out


def conv2d_weight_grad(x, dy, kernel, pad, stride):
    """Gradient of a conv2d output contraction w.r.t. filters and bias.

    x is the (N,C,H,W) layer input, dy the (N,F,Ho,Wo) cotangent at the
    output. Returns (dw, db) with dw shaped (F,C,kh,kw). Each batch chunk adds
    either its per-image products of dy with the transposed patch stack
    (when output rows outrun kernel rows), or its channels-last patch
    matrix, transposed, times its channels-last dy.
    """
    n, c, h, w = x.shape
    f, ho, wo = dy.shape[1:]
    kh, kw = kernel
    ph, pw = pad
    step = _conv_chunk(c, kernel, (ho, wo), x.itemsize)
    if _per_image(c, kernel, (ho, wo)):
        acc = np.zeros((f, c * kh * kw), dtype=x.dtype)
        for n0 in range(0, n, step):
            stack = _patch_stack(x[n0:n0 + step], kernel, pad, stride, (ho, wo))
            dyc = dy[n0:n0 + step].reshape(len(stack), f, ho * wo)
            acc += np.matmul(dyc, stack.transpose(0, 2, 1)).sum(axis=0)
        dw = acc.reshape(f, c, kh, kw)
    else:
        acc = np.zeros((kh * kw * c, f), dtype=x.dtype)
        for n0 in range(0, n, step):
            xp = _channels_last(x[n0:n0 + step], (h + 2 * ph, w + 2 * pw), pad, 0.0)
            dyc = dy[n0:n0 + step].transpose(0, 2, 3, 1).reshape(-1, f)
            acc += _patches(xp, kernel, stride, (ho, wo)).T @ dyc
        dw = np.ascontiguousarray(acc.reshape(kh, kw, c, f).transpose(3, 2, 0, 1))
    db = dy.sum(axis=(0, 2, 3))
    return dw, db


def conv2d_input_grad(dy, filters, pad, stride, in_hw) -> np.ndarray:
    """Cotangent at the conv2d input: transposed convolution of dy with filters.

    Per batch chunk (as many images as conv2d puts in one), each kernel tap's
    contribution is added into a strided slice of a padded accumulator. When
    output rows outrun kernel rows, the contributions are one product of the
    transposed (C*kh*kw, F) filter matrix with each image's dy, and the
    accumulator is NCHW, so a stride-1 slice runs over Wo contiguous values.
    Otherwise each tap is a channel-mixing matmul of the channels-last dy and
    the accumulator is channels-last, so a slice runs over Wo*C values, where
    a patch-matrix scatter would add only C at a time.
    """
    n, f, ho, wo = dy.shape
    c, kh, kw = filters.shape[1:]
    ph, pw = pad
    sh, sw = stride
    h, w = in_hw
    rows = [slice(u, u + (ho - 1) * sh + 1, sh) for u in range(kh)]
    cols = [slice(v, v + (wo - 1) * sw + 1, sw) for v in range(kw)]
    per_image = _per_image(c, (kh, kw), (ho, wo))
    if per_image:
        wmat_t = filters.reshape(f, c * kh * kw).T
    else:
        taps = np.ascontiguousarray(filters.transpose(2, 3, 0, 1))  # kh,kw,F,C
    dx = np.empty((n, c, h, w), dtype=dy.dtype)
    step = _conv_chunk(c, (kh, kw), (ho, wo), dy.itemsize)
    for n0 in range(0, n, step):
        dyc = dy[n0:n0 + step]
        b = len(dyc)
        if per_image:
            per_tap = np.matmul(wmat_t, dyc.reshape(b, f, ho * wo)).reshape(b, c, kh, kw, ho, wo)
            dxp = np.zeros((b, c, h + 2 * ph, w + 2 * pw), dtype=dy.dtype)
            for u in range(kh):
                for v in range(kw):
                    dxp[:, :, rows[u], cols[v]] += per_tap[:, :, u, v]
            dx[n0:n0 + b] = dxp[:, :, ph:ph + h, pw:pw + w]
            continue
        dyt = dyc.transpose(0, 2, 3, 1).reshape(b * ho * wo, f)
        dxp = np.zeros((b, h + 2 * ph, w + 2 * pw, c), dtype=dy.dtype)
        for u in range(kh):
            for v in range(kw):
                dxp[:, rows[u], cols[v], :] += (dyt @ taps[u, v]).reshape(b, ho, wo, c)
        dx[n0:n0 + b] = dxp[:, ph:ph + h, pw:pw + w, :].transpose(0, 3, 1, 2)
    return dx


# ---------------------------------------------------------------------------
# Pooling (ceil mode, truncated border windows, no padding)
# ---------------------------------------------------------------------------

def pool_output_extent(h: int, k: int, s: int) -> int:
    """Number of pooling windows along one axis: at least one on a
    non-empty axis, whose window is truncated when k > h."""
    n = max(0, -((h - k) // -s)) + 1  # ceil((h-k)/s) + 1
    return min(n, (h - 1) // s + 1)  # every window must intersect the image


def _pool_geometry(in_hw, window, stride):
    """(Ho, Wo) windows and the (Hp, Wp) extent their rows and columns span;
    with a stride beyond the window the last rows and columns may lie in
    none, and the kernels read only x[..., :Hp, :Wp]."""
    h, w = in_hw
    kh, kw = window
    sh, sw = stride
    ho = pool_output_extent(h, kh, sh)
    wo = pool_output_extent(w, kw, sw)
    return (ho, wo), ((ho - 1) * sh + kh, (wo - 1) * sw + kw)


def maxpool_forward(x, window, stride, positions: bool = True):
    """Max over each window; returns (out, argmax) with argmax as int32 flat
    (H*W) indices within each (image, channel) plane.

    Ties are broken by the first maximal element in a row-major scan of the
    window, so the selected index is deterministic. A window holding NaN
    gives NaN (np.maximum propagates it) and its first element as argmax.
    positions=False skips the index scan and returns argmax None.

    Per batch chunk, channels-last: a running maximum over the window taps,
    then a backwards scan over the taps blends each tap's flat offset in the
    window into the argmax wherever that tap equals the maximum, so the
    first one wins; the window start added to it gives the flat index.
    """
    n, c, h, w = x.shape
    kh, kw = window
    sh, sw = stride
    (ho, wo), (hp, wp) = _pool_geometry((h, w), window, stride)
    # flat index of tap (u, v) is window_start + u*W + v; Python ints, so
    # that the scan below keeps its unsigned dtype
    offsets = [u * w + v for u in range(kh) for v in range(kw)]
    starts = np.arange(ho)[:, None] * (sh * w) + np.arange(wo) * sw
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    # positions lie below H*W; gather and scatter add int64 plane offsets
    argmax = np.empty((n, c, ho, wo), dtype=np.int32) if positions else None
    step = _pool_chunk(c, (h, w), x.itemsize)
    for n0 in range(0, n, step):
        xc = x[n0:n0 + step]
        xp = _channels_last(xc[:, :, :hp, :wp], (hp, wp), (0, 0), -np.inf)
        taps = [xp[:, u:u + (ho - 1) * sh + 1:sh, v:v + (wo - 1) * sw + 1:sw, :]
                for u in range(kh) for v in range(kw)]
        best = taps[0].copy()
        for t in taps[1:]:
            np.maximum(best, t, out=best)
        out[n0:n0 + len(xc)] = best.transpose(0, 3, 1, 2)
        if not positions:
            continue
        # idx -= hit * (idx - off) sets idx to off where the tap at offset
        # off is maximal; the smallest unsigned type holding every offset
        # keeps it exact
        idx = np.zeros(best.shape, dtype=np.min_scalar_type(offsets[-1]))
        hit = np.empty(best.shape, dtype=bool)
        delta = np.empty_like(idx)
        for t, off in zip(taps[::-1], offsets[::-1]):
            np.equal(t, best, out=hit)
            np.subtract(idx, off, out=delta)
            np.multiply(delta, hit, out=delta)
            np.subtract(idx, delta, out=idx)
        np.add(idx.transpose(0, 3, 1, 2), starts, out=argmax[n0:n0 + len(xc)])
    return out, argmax


def maxpool_scatter(dy, argmax, in_hw) -> np.ndarray:
    """VJP of maxpool: route each output cotangent back to its argmax position.

    One bincount per batch chunk over (image, channel)-offset positions;
    cotangents that meet at one input pixel add in row-major output order.
    bincount sums in float64 whatever the weights' dtype, so each chunk is
    cast back to dy's as it is written.
    """
    n, c = dy.shape[:2]
    h, w = in_hw
    dx = np.empty((n, c, h, w), dtype=dy.dtype)
    step = _pool_chunk(c, in_hw, 8)  # sized by bincount's float64 sums
    planes = np.arange(step * c).reshape(step, c, 1, 1) * (h * w)
    for n0 in range(0, n, step):
        chunk = dx[n0:n0 + step]
        chunk[...] = np.bincount((argmax[n0:n0 + step] + planes[:len(chunk)]).ravel(),
                                 dy[n0:n0 + step].ravel(), chunk.size).reshape(chunk.shape)
    return dx


def maxpool_gather(v, argmax, in_hw) -> np.ndarray:
    """JVP of maxpool: pick the cached argmax positions regardless of value,
    as one flat take at argmax plus each (image, channel) plane's offset."""
    n, c = v.shape[:2]
    planes = np.arange(n * c).reshape(n, c, 1, 1) * (in_hw[0] * in_hw[1])
    return np.take(v.reshape(-1), argmax + planes)


def _pool_counts(in_hw, window, stride, out_hw, dtype):
    """Per-window element counts, accounting for truncated border windows,
    as dtype so that dividing by them keeps the dividend's dtype."""
    h, w = in_hw
    kh, kw = window
    sh, sw = stride
    ho, wo = out_hw
    rows = np.minimum(np.arange(ho) * sh + kh, h) - np.arange(ho) * sh
    cols = np.minimum(np.arange(wo) * sw + kw, w) - np.arange(wo) * sw
    return (rows[:, None] * cols[None, :]).astype(dtype)


def meanpool_forward(x, window, stride) -> np.ndarray:
    """Mean over each (truncated) window."""
    n, c, h, w = x.shape
    (ho, wo), (hp, wp) = _pool_geometry((h, w), window, stride)
    xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
    xp[:, :, :h, :w] = x[:, :, :hp, :wp]
    win = _window_view(xp, window, stride, (ho, wo))
    return win.sum(axis=(4, 5)) / _pool_counts((h, w), window, stride, (ho, wo), x.dtype)


def meanpool_backward(dy, window, stride, in_hw) -> np.ndarray:
    """VJP of meanpool: spread each cotangent uniformly over its actual window."""
    n, c, ho, wo = dy.shape
    h, w = in_hw
    kh, kw = window
    sh, sw = stride
    dx = np.zeros((n, c, h, w), dtype=dy.dtype)
    scaled = dy / _pool_counts((h, w), window, stride, (ho, wo), dy.dtype)
    for i in range(kh):
        nv = min(ho, -((h - i) // -sh))  # windows whose row i stays inside
        if nv <= 0:
            continue
        for j in range(kw):
            mv = min(wo, -((w - j) // -sw))
            if mv <= 0:
                continue
            dx[:, :, i:i + (nv - 1) * sh + 1:sh, j:j + (mv - 1) * sw + 1:sw] += scaled[:, :, :nv, :mv]
    return dx
