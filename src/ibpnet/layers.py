"""Network layers: each states its Jacobian once, and the base ``Layer``
builds every pass from it.

A subclass defines:

* ``forward(x, train)``: compute the activation and cache whatever the
  Jacobian at this batch needs (inputs, masks, max positions).
* ``vjp_linear(dy)``: pull a cotangent through that frozen Jacobian.
* ``jvp(v)``, only where the Jacobian is not symmetric: push a tangent
  through the layer linearized at the cached batch. Biases vanish under
  linearization, and data-dependent choices (relu mask, max positions,
  dropout mask) are reused from the forward cache rather than recomputed.
* ``weight_grad(a, dy) -> (dw, db)``, on parametric layers only: contract a
  layer input with an output cotangent.

From these the base ``Layer`` builds:

* ``jvp(v)``: by default ``vjp_linear``, since the Jacobian is symmetric.
* ``vjp(dy)``: the backward pass; on parametric layers it caches
  ``cot_out`` and fills ``dw``/``db`` before pulling.
* ``lin_vjp(delta)``: pull back through the linearized layer, accumulating
  ``aux_dw`` against the tangent input cached by ``jvp``.
* ``aux_from_cot()``: the cheap alternative to ``lin_vjp``. It contracts the
  cached tangent input with the cotangent cached by ``vjp``, which yields
  the auxiliary weight gradient directly when the auxiliary loss is a
  function of the input cotangent.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor import (
    conv2d,
    conv2d_input_grad,
    conv2d_weight_grad,
    maxpool_forward,
    maxpool_gather,
    maxpool_scatter,
    meanpool_backward,
    meanpool_forward,
)


def _need(cache, what: str):
    if cache is None:
        raise StateError(f"{what} requested before the pass that populates it")
    return cache


class Layer:
    """Builds the backward and auxiliary passes from a subclass's Jacobian
    (``vjp_linear``, ``jvp``) and, on parametric layers, ``weight_grad``."""

    has_params = False
    # caches of parametric layers: forward input, backward cotangent and
    # tangent input (as weight_grad takes them), and the main gradients
    x = cot_out = tan_in = dw = db = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def vjp_linear(self, dy: np.ndarray) -> np.ndarray:
        """Pullback through the frozen Jacobian only (no weight gradients)."""
        raise NotImplementedError

    def jvp(self, v: np.ndarray) -> np.ndarray:
        return self.vjp_linear(v)

    def vjp(self, dy: np.ndarray) -> np.ndarray:
        if self.has_params:
            x = _need(self.x, f"{type(self).__name__} input cache")
            self.cot_out = dy
            self.dw, self.db = self.weight_grad(x, dy)
        return self.vjp_linear(dy)

    def lin_vjp(self, delta: np.ndarray) -> np.ndarray:
        if self.has_params:
            t = _need(self.tan_in, f"{type(self).__name__} tangent cache")
            self.aux_dw += self.weight_grad(t, delta)[0]
        return self.vjp_linear(delta)

    def aux_from_cot(self):
        t = _need(self.tan_in, f"{type(self).__name__} tangent cache")
        c = _need(self.cot_out, f"{type(self).__name__} cotangent cache")
        self.aux_dw += self.weight_grad(t, c)[0]

    def spec(self) -> dict:
        raise NotImplementedError


class FullyConnected(Layer):
    """Affine map y = flatten(x) @ w + b with He-initialized weights."""

    has_params = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        if in_features <= 0 or out_features <= 0:
            raise ConfigError(f"fc extents must be positive, got {in_features}x{out_features}")
        self.in_features = in_features
        self.out_features = out_features
        self.w = rng.normal(0.0, np.sqrt(2.0 / in_features), size=(in_features, out_features))
        self.b = np.zeros(out_features)
        self.aux_dw = np.zeros_like(self.w)
        self.x_shape = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self.x_shape = x.shape
        xf = x.reshape(x.shape[0], -1)
        if xf.shape[1] != self.in_features:
            raise ShapeError(f"fc expects {self.in_features} features, got input {x.shape}")
        self.x = xf
        return xf @ self.w + self.b

    def jvp(self, v):
        _need(self.x, "fc input cache")
        self.tan_in = np.asarray(v, dtype=np.float64).reshape(v.shape[0], -1)
        return self.tan_in @ self.w

    def vjp_linear(self, dy):
        x_shape = _need(self.x_shape, "fc input shape")
        return (dy @ self.w.T).reshape(x_shape)

    def weight_grad(self, a, dy):
        return a.T @ dy, dy.sum(axis=0)

    def spec(self):
        return {"kind": "fc", "in_features": self.in_features, "out_features": self.out_features}


class Conv2D(Layer):
    """Cross-correlation with F filters of shape (C, kh, kw), He-initialized."""

    has_params = True

    def __init__(self, in_channels: int, filters: int, kernel, pad, stride,
                 rng: np.random.Generator):
        kh, kw = kernel
        if min(in_channels, filters, kh, kw) <= 0:
            raise ConfigError("conv extents must be positive")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = (kh, kw)
        self.pad = tuple(pad)
        self.stride = tuple(stride)
        fan_in = in_channels * kh * kw
        self.w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(filters, in_channels, kh, kw))
        self.b = np.zeros(filters)
        self.aux_dw = np.zeros_like(self.w)
        self.in_hw = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"conv expects (N,{self.in_channels},H,W), got {x.shape}")
        self.x = x
        self.in_hw = x.shape[2:]
        return conv2d(x, self.w, self.pad, self.stride, self.b)

    def jvp(self, v):
        _need(self.x, "conv input cache")
        self.tan_in = np.asarray(v, dtype=np.float64)
        return conv2d(self.tan_in, self.w, self.pad, self.stride)

    def vjp_linear(self, dy):
        in_hw = _need(self.in_hw, "conv input geometry")
        return conv2d_input_grad(dy, self.w, self.pad, self.stride, in_hw)

    def weight_grad(self, a, dy):
        return conv2d_weight_grad(a, dy, self.kernel, self.pad, self.stride)

    def spec(self):
        return {
            "kind": "conv",
            "in_channels": self.in_channels,
            "filters": self.filters,
            "kernel": list(self.kernel),
            "pad": list(self.pad),
            "stride": list(self.stride),
        }


class ReLU(Layer):
    """max(x, 0); the derivative at 0 is taken as 0."""

    def __init__(self):
        self.mask = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self.mask = x > 0.0
        return np.where(self.mask, x, 0.0)

    def vjp_linear(self, dy):
        return dy * _need(self.mask, "relu mask")

    def spec(self):
        return {"kind": "relu"}


class Sigmoid(Layer):
    """Elementwise logistic function."""

    def __init__(self):
        self.y = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self.y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                          np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return self.y

    def vjp_linear(self, dy):
        y = _need(self.y, "sigmoid output cache")
        return dy * (y * (1.0 - y))

    def spec(self):
        return {"kind": "sigmoid"}


class Softmax(Layer):
    """Row softmax. Its Jacobian diag(y) - y y^T is symmetric, so the
    tangent push is the cotangent pull."""

    def __init__(self):
        self.y = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        self.y = e / e.sum(axis=1, keepdims=True)
        return self.y

    def vjp_linear(self, dy):
        y = _need(self.y, "softmax output cache")
        return y * (dy - (y * dy).sum(axis=1, keepdims=True))

    def spec(self):
        return {"kind": "softmax"}


class MaxPool2D(Layer):
    """Ceil-mode max pooling; border windows are truncated to the image."""

    def __init__(self, window, stride):
        kh, kw = window
        sh, sw = stride
        if min(kh, kw, sh, sw) <= 0:
            raise ConfigError("pool window and stride must be positive")
        self.window = (kh, kw)
        self.stride = (sh, sw)
        self.argmax = None
        self.in_hw = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self.in_hw = x.shape[2:]
        out, self.argmax = maxpool_forward(x, self.window, self.stride)
        return out

    def jvp(self, v):
        return maxpool_gather(v, _need(self.argmax, "maxpool positions"), self.in_hw)

    def vjp_linear(self, dy):
        return maxpool_scatter(dy, _need(self.argmax, "maxpool positions"), self.in_hw)

    def spec(self):
        return {"kind": "maxpool", "window": list(self.window), "stride": list(self.stride)}


class MeanPool2D(Layer):
    """Ceil-mode mean pooling; truncated windows divide by their actual size."""

    def __init__(self, window, stride):
        kh, kw = window
        sh, sw = stride
        if min(kh, kw, sh, sw) <= 0:
            raise ConfigError("pool window and stride must be positive")
        self.window = (kh, kw)
        self.stride = (sh, sw)
        self.in_hw = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self.in_hw = x.shape[2:]
        return meanpool_forward(x, self.window, self.stride)

    def jvp(self, v):
        return meanpool_forward(np.asarray(v, dtype=np.float64), self.window, self.stride)

    def vjp_linear(self, dy):
        return meanpool_backward(dy, self.window, self.stride, _need(self.in_hw, "meanpool geometry"))

    def spec(self):
        return {"kind": "meanpool", "window": list(self.window), "stride": list(self.stride)}


class Dropout(Layer):
    """Inverted dropout: at train time keep units with probability 1 - rate
    and scale by 1/(1 - rate); at eval time the layer is the identity.

    The mask drawn by ``forward`` is reused by every subsequent pass over the
    same batch, so the three training passes see one consistent subnetwork.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self.mask = None

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self.mask = np.ones_like(x)
            return x
        keep = 1.0 - self.rate
        self.mask = (self.rng.random(x.shape) < keep) / keep
        return x * self.mask

    def vjp_linear(self, dy):
        return dy * _need(self.mask, "dropout mask")

    def spec(self):
        return {"kind": "dropout", "rate": self.rate}
