"""Kernel-floor microbench: each tensor kernel against a float64 GEMM of the
same operation count, at the mnist-paper conv1 and conv2 shapes, batch 32.

FLOP counts and bytes moved are computed from the shapes (two FLOPs per
multiply-add; bytes are the float64 operands read plus the result written
once), not measured by hardware counters.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import BATCH

# (name, input (N, C, H, W), filters (F, C, kh, kw), pad); pooled by 3x3 / 2
SHAPES = (
    ("conv1", (BATCH, 1, 28, 28), (32, 1, 4, 4), (0, 0)),
    ("conv2", (BATCH, 32, 12, 12), (64, 32, 5, 5), (2, 2)),
)
CONV_KERNELS = ("conv2d", "conv2d_weight_grad", "conv2d_input_grad")
POOL = ((3, 3), (2, 2))


def _median_seconds(fn, reps: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _gemm(m: int, k: int, n: int, rng):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    return lambda: a @ b


def microbench(reps: int = 5, seed: int = 0) -> dict:
    """{shape: {kernel: {ms, gemm_ms, vs_gemm, gflops, mbytes}}}."""
    from ibpnet import tensor

    rng = np.random.default_rng(seed)
    out = {}
    for name, xs, ws, pad in SHAPES:
        n, c, h, w = xs
        f, _, kh, kw = ws
        ho, wo = tensor.conv_output_hw(h, w, (kh, kw), pad, (1, 1))
        x = rng.standard_normal(xs)
        filt = rng.standard_normal(ws)
        y = tensor.conv2d(x, filt, pad, (1, 1))
        dy = rng.standard_normal(y.shape)
        m_rows, k_red = n * ho * wo, c * kh * kw
        flops = 2.0 * m_rows * k_red * f
        conv_bytes = 8.0 * (x.size + filt.size + y.size)
        runs = {
            "conv2d": (lambda: tensor.conv2d(x, filt, pad, (1, 1)),
                       _gemm(m_rows, k_red, f, rng)),
            "conv2d_weight_grad": (
                lambda: tensor.conv2d_weight_grad(x, dy, (kh, kw), pad, (1, 1)),
                _gemm(k_red, m_rows, f, rng)),
            "conv2d_input_grad": (
                lambda: tensor.conv2d_input_grad(dy, filt, pad, (1, 1), (h, w)),
                _gemm(m_rows, f, k_red, rng)),
        }
        pooled, _ = tensor.maxpool_forward(y, *POOL)
        compares = float(pooled.size * POOL[0][0] * POOL[0][1])
        side = max(1, round((compares / 2.0) ** (1.0 / 3.0)))
        runs["maxpool_forward"] = (lambda: tensor.maxpool_forward(y, *POOL),
                                   _gemm(side, side, side, rng))
        shape_out = {}
        for kernel, (fn, gemm) in runs.items():
            secs = _median_seconds(fn, reps)
            gemm_secs = _median_seconds(gemm, reps)
            if kernel == "maxpool_forward":
                work = compares
                moved = 8.0 * (y.size + 2 * pooled.size)
            else:
                work = flops
                moved = conv_bytes
            shape_out[kernel] = dict(
                ms=secs * 1e3, gemm_ms=gemm_secs * 1e3, vs_gemm=secs / gemm_secs,
                gflops=work / secs / 1e9, mbytes=moved / 2**20,
            )
        out[name] = shape_out
    return out
