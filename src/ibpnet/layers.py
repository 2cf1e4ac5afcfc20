"""Network layers: each states its Jacobian once, and the base ``Layer``
builds every pass from it.

A subclass defines:

* ``forward(x, train)``: compute the activation and cache whatever the
  Jacobian at this batch needs (inputs, masks, max positions).
* ``predict(x)``, only where inference can skip work (the base runs
  ``forward(x, False)``): max pooling drops its positions, so a pull or a
  push after it raises ``StateError``.
* ``vjp_linear(dy)``: pull a cotangent through that frozen Jacobian.
* ``jvp(v)``, only where the Jacobian is not symmetric: push a tangent
  through the layer linearized at the cached batch. Biases vanish under
  linearization, and data-dependent choices (relu mask, max positions,
  dropout mask) are reused from the forward cache rather than recomputed.
* ``weight_grad(a, dy) -> (dw, db)``, on parametric layers only: contract a
  layer input with an output cotangent.
* ``pull_term(t, delta)`` and ``weight_grad_sum(a, dy, pulls)``, only where
  the pulls of linearized passes contract more cheaply with the main pair
  than one by one: ``FullyConnected`` keeps each pull's rows and stacks
  them with the main rows into one GEMM.
* ``kind`` and ``fields``: its model-file record, which ``spec()`` writes
  and ``network.layer_from_spec`` reads back.

Weight layers hold their weights in the dtype they were built with and cast
every array that enters them to it: inputs, tangents, cotangents and seeds,
so float64 images and loss seeds meet a float32 net there. Parameter-free
layers keep their input's dtype, except ``Softmax`` (see there).

From these the base ``Layer`` builds:

* ``jvp(v)``: by default ``vjp_linear``, since the Jacobian is symmetric.
* ``vjp(dy, pull=True)``: the backward pass; on parametric layers it caches
  ``cot_out`` and fills ``dw``/``db``, then pulls back unless ``pull`` is False.
* ``lin_vjp(delta, pull=True)``: record ``pull_term`` of ``delta`` and the
  tangent input cached by ``jvp``, then pull back unless ``pull`` is False.
  By default the term is their contraction, made at once, so a pull keeps
  a weight-sized array rather than its activations. Each backward starts
  the record afresh.
* ``weight_grad_sum(a, dy, pulls)``: by default ``weight_grad(a, dy)``
  with the recorded terms added to dw in pull order; db is dy's alone.
* ``vjp(dy, _dw=False)`` caches ``cot_out`` only: ``Network.aux_from_cot``
  then fills ``dw``/``db`` by ``weight_grad_sum``, with an auxiliary term
  folded in.
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
    rng_stream,
)


def _need(cache, what: str):
    if cache is None:
        raise StateError(f"{what} requested before the pass that populates it")
    return cache


def _he_init(rng, fan_in: int, shape, dtype) -> np.ndarray:
    """He-normal draws in float64 cast to dtype; zeros without a generator."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype, copy=False)


class Layer:
    """Builds the backward and auxiliary passes from a subclass's Jacobian
    (``vjp_linear``, ``jvp``) and, on parametric layers, ``weight_grad``."""

    has_params = False
    # the model-file record: the layer's kind and the constructor arguments
    # it holds, each kept under its own name as an attribute (tuples are
    # written as JSON arrays)
    kind: str
    fields: tuple = ()
    # caches of parametric layers: forward input, backward cotangent and
    # tangent input (as weight_grad takes them), the pull terms lin_vjp
    # recorded since the backward, and the main gradients
    x = cot_out = tan_in = pulls = dw = db = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False)

    def vjp_linear(self, dy: np.ndarray) -> np.ndarray:
        """Pullback through the frozen Jacobian only (no weight gradients)."""
        raise NotImplementedError

    def jvp(self, v: np.ndarray) -> np.ndarray:
        return self.vjp_linear(v)

    def vjp(self, dy: np.ndarray, pull: bool = True, _dw: bool = True) -> np.ndarray | None:
        """Backward pass; pull=False skips the pull, _dw=False the contraction."""
        if self.has_params:
            x = _need(self.x, f"{type(self).__name__} input cache")
            dy = self.cast(dy)
            self.cot_out = dy
            self.pulls = []
            self.dw, self.db = self.weight_grad(x, dy) if _dw else (None, None)
        return self.vjp_linear(dy) if pull else None

    def lin_vjp(self, delta: np.ndarray, pull: bool = True) -> np.ndarray | None:
        if self.has_params:
            t = _need(self.tan_in, f"{type(self).__name__} tangent cache")
            pulls = _need(self.pulls, f"{type(self).__name__} pull record")
            delta = self.cast(delta)
            pulls.append(self.pull_term(t, delta))
        return self.vjp_linear(delta) if pull else None

    def pull_term(self, t: np.ndarray, delta: np.ndarray):
        return self.weight_grad(t, delta)[0]

    def weight_grad_sum(self, a: np.ndarray, dy: np.ndarray, pulls) -> tuple:
        dw, db = self.weight_grad(a, dy)
        for term in pulls:
            dw += term
        return dw, db

    def spec(self) -> dict:
        """The model-file record: kind, declared fields, non-float64 dtype."""
        rec = {"kind": self.kind, **{name: getattr(self, name) for name in self.fields}}
        if self.has_params and self.w.dtype != np.float64:
            rec["dtype"] = self.w.dtype.name
        return rec

    def cast(self, a) -> np.ndarray:
        """a in the weights' dtype (weight layers only); no copy if it already is."""
        return np.asarray(a, dtype=self.w.dtype)


class FullyConnected(Layer):
    """Affine map y = flatten(x) @ w + b with He-initialized weights."""

    kind, fields = "fc", ("in_features", "out_features")
    has_params = True

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None, dtype=np.float64):
        if in_features <= 0 or out_features <= 0:
            raise ConfigError(f"fc extents must be positive, got {in_features}x{out_features}")
        self.in_features = in_features
        self.out_features = out_features
        self.w = _he_init(rng, in_features, (in_features, out_features), dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.x_shape = None

    def forward(self, x, train=False):
        x = self.cast(x)
        self.x_shape = x.shape
        xf = x.reshape(x.shape[0], -1)
        if xf.shape[1] != self.in_features:
            raise ShapeError(f"fc expects {self.in_features} features, got input {x.shape}")
        self.x = xf
        return xf @ self.w + self.b

    def jvp(self, v):
        _need(self.x, "fc input cache")
        self.tan_in = self.cast(v).reshape(v.shape[0], -1)
        return self.tan_in @ self.w

    def vjp_linear(self, dy):
        x_shape = _need(self.x_shape, "fc input shape")
        return (self.cast(dy) @ self.w.T).reshape(x_shape)

    def weight_grad(self, a, dy):
        return a.T @ dy, dy.sum(axis=0)

    def pull_term(self, t, delta):
        return t, delta  # rows of the one contraction below

    def weight_grad_sum(self, a, dy, pulls):
        """One GEMM over the main rows and every pull's rows stacked."""
        if not pulls:
            return self.weight_grad(a, dy)
        rows, cots = zip(*pulls)
        stacked = self.weight_grad(np.concatenate((a, *rows)), np.concatenate((dy, *cots)))
        return stacked[0], dy.sum(axis=0)


class Conv2D(Layer):
    """Cross-correlation with F filters of shape (C, kh, kw), He-initialized."""

    kind, fields = "conv", ("in_channels", "filters", "kernel", "pad", "stride")
    has_params = True

    def __init__(self, in_channels: int, filters: int, kernel, pad, stride,
                 rng: np.random.Generator | None, dtype=np.float64):
        (kh, kw), (ph, pw), (sh, sw) = kernel, pad, stride
        if min(in_channels, filters, kh, kw, sh, sw) <= 0 or min(ph, pw) < 0:
            raise ConfigError("conv extents and strides must be positive, pads non-negative")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = (kh, kw)
        self.pad = (ph, pw)
        self.stride = (sh, sw)
        self.w = _he_init(rng, in_channels * kh * kw, (filters, in_channels, kh, kw), dtype)
        self.b = np.zeros(filters, dtype=dtype)
        self.in_hw = None

    def forward(self, x, train=False):
        x = self.cast(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"conv expects (N,{self.in_channels},H,W), got {x.shape}")
        self.x = x
        self.in_hw = x.shape[2:]
        return conv2d(x, self.w, self.pad, self.stride, self.b)

    def jvp(self, v):
        _need(self.x, "conv input cache")
        self.tan_in = self.cast(v)
        return conv2d(self.tan_in, self.w, self.pad, self.stride)

    def vjp_linear(self, dy):
        in_hw = _need(self.in_hw, "conv input geometry")
        return conv2d_input_grad(self.cast(dy), self.w, self.pad, self.stride, in_hw)

    def weight_grad(self, a, dy):
        return conv2d_weight_grad(a, dy, self.kernel, self.pad, self.stride)


class ReLU(Layer):
    """max(x, 0); the derivative at 0 is taken as 0."""

    kind = "relu"
    mask = None

    def forward(self, x, train=False):
        self.mask = x > 0.0
        # bitwise np.where(mask, x, 0.0): fmax maps NaN to 0.0, and adding
        # 0.0 turns a -0.0 that fmax may keep into +0.0
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def vjp_linear(self, dy):
        return dy * _need(self.mask, "relu mask")


class Sigmoid(Layer):
    """Elementwise logistic function."""

    kind = "sigmoid"
    y = None

    def forward(self, x, train=False):
        e = np.exp(-np.abs(x))
        self.y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return self.y

    def vjp_linear(self, dy):
        y = _need(self.y, "sigmoid output cache")
        return dy * (y * (1.0 - y))


class Softmax(Layer):
    """Row softmax. Its Jacobian diag(y) - y y^T is symmetric, so the
    tangent push is the cotangent pull."""

    kind = "softmax"
    y = None

    def forward(self, x, train=False):
        # float64 whatever the input: in float32, exp underflows to 0 once a
        # logit trails the largest by about 103, and the nll loss then meets
        # a zero probability at a labeled class
        x = np.asarray(x, dtype=np.float64)
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        self.y = e / e.sum(axis=1, keepdims=True)
        return self.y

    def vjp_linear(self, dy):
        y = _need(self.y, "softmax output cache")
        return y * (dy - (y * dy).sum(axis=1, keepdims=True))


class _Pool2D(Layer):
    """The window and stride that both pooling layers are built from."""

    fields = ("window", "stride")
    in_hw = None

    def __init__(self, window, stride):
        kh, kw = window
        sh, sw = stride
        if min(kh, kw, sh, sw) <= 0:
            raise ConfigError("pool window and stride must be positive")
        self.window = (kh, kw)
        self.stride = (sh, sw)


class MaxPool2D(_Pool2D):
    """Ceil-mode max pooling; border windows are truncated to the image."""

    kind = "maxpool"
    argmax = None

    def forward(self, x, train=False):
        self.in_hw = x.shape[2:]
        out, self.argmax = maxpool_forward(x, self.window, self.stride)
        return out

    def predict(self, x):
        self.in_hw = x.shape[2:]
        out, self.argmax = maxpool_forward(x, self.window, self.stride, positions=False)
        return out

    def jvp(self, v):
        return maxpool_gather(v, _need(self.argmax, "maxpool positions"), self.in_hw)

    def vjp_linear(self, dy):
        return maxpool_scatter(dy, _need(self.argmax, "maxpool positions"), self.in_hw)


class MeanPool2D(_Pool2D):
    """Ceil-mode mean pooling; truncated windows divide by their actual size."""

    kind = "meanpool"

    def forward(self, x, train=False):
        self.in_hw = x.shape[2:]
        return meanpool_forward(x, self.window, self.stride)

    def jvp(self, v):
        return meanpool_forward(v, self.window, self.stride)

    def vjp_linear(self, dy):
        return meanpool_backward(dy, self.window, self.stride, _need(self.in_hw, "meanpool geometry"))


class Dropout(Layer):
    """Inverted dropout: at train time keep units with probability 1 - rate
    and scale by 1/(1 - rate); at eval time the layer is the identity.

    The mask drawn by ``forward`` is reused by every subsequent pass over the
    same batch, so the three training passes see one consistent subnetwork.
    Built without a generator, as a model file builds it, it draws from a
    fixed stream.
    """

    kind, fields = "dropout", ("rate",)
    mask = None

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng_stream(0, "dropout-load") if rng is None else rng

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self.mask = np.ones_like(x)
            return x
        keep = 1.0 - self.rate
        self.mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self.mask

    def vjp_linear(self, dy):
        return dy * _need(self.mask, "dropout mask")

