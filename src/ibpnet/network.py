"""Layer stack container, its pass loops (``predict`` is the inference
forward, without the max positions a pull reads) and the model file format.

Model file layout (all integers little-endian):

* 7-byte magic ``IBPNET1``
* uint32 layer count
* per layer: uint32 record length, then that many bytes of JSON (sorted
  keys): the layer's ``kind`` and the ``fields`` its class declares in
  ``layers.py``; a weight layer's record carries ``"dtype"``
  (``"float32"``) only when its weights are not float64, so a record
  without it loads as float64
* then, for each parametric layer in declaration order, its weight tensor
  followed by its bias vector as raw little-endian values of that dtype, in
  C order.

The JSON records carry no tensor data, so the file is self-describing and
byte-for-byte reproducible for a given network.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError
from .layers import (
    Conv2D,
    Dropout,
    FullyConnected,
    Layer,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Softmax,
)
from .tensor import _EVAL_SLICE_BYTES

MAGIC = b"IBPNET1"
# every layer kind a model file may hold, by the kind its records carry
LAYER_CLASSES = {cls.kind: cls for cls in (
    FullyConnected, Conv2D, ReLU, Sigmoid, Softmax, MaxPool2D, MeanPool2D, Dropout)}


class Network:
    """An ordered stack of layers sharing one set of per-batch caches."""

    def __init__(self, layers):
        self.layers = list(layers)

    @property
    def param_layers(self):
        return [l for l in self.layers if l.has_params]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference output, bitwise forward(x, train=False); no max positions."""
        for layer in self.layers:
            x = layer.predict(x)
        return x

    @property
    def seeded(self):
        """The layers every pass spans: all but a final Softmax, whose Jacobian
        the loss seed already holds, so that passes end at the logits."""
        if self.layers and isinstance(self.layers[-1], Softmax):
            return self.layers[:-1]
        return self.layers

    def vjp(self, dy: np.ndarray, pull: bool = True, _dw: bool = True) -> np.ndarray | None:
        """Backward pass over the seeded layers; fills dw/db and cot_out on
        parametric layers and returns the cotangent at the network input. With
        pull=False no caller reads it: the pass ends at the lowest weight layer,
        which skips its pull, and returns None. _dw=False: see aux_from_cot."""
        for layer, layer_pull in self._top_down(pull):
            dy = layer.vjp(dy, pull=layer_pull, _dw=_dw)
        return dy if pull else None

    def vjp_linear(self, dy: np.ndarray) -> np.ndarray:
        """Cotangent pull through the frozen Jacobians of the seeded layers
        only; no gradient or cache buffer is written. vjp pulls through the
        same per-layer vjp_linear, so the returned cotangent is bitwise equal
        to the one a full backward pass would produce."""
        for layer in reversed(self.seeded):
            dy = layer.vjp_linear(dy)
        return dy

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """Tangent push through the seeded layers linearized at the cached
        batch, so under nll the push ends at the logits."""
        for layer in self.seeded:
            v = layer.jvp(v)
        return v

    def lin_vjp(self, delta: np.ndarray) -> None:
        """Cotangent pull through the linearized seeded layers that records,
        on each weight layer, the pull term of its delta and jvp's cached
        tangent input, for aux_from_cot to add into dw. Only those are read,
        so the pull stops at the lowest weight layer, which just records.
        Returns None; nothing runs without one."""
        for layer, layer_pull in self._top_down(pull=False):
            delta = layer.lin_vjp(delta, pull=layer_pull)

    def _top_down(self, pull: bool):
        """(layer, pull) over seeded, top first; without pull, only down to
        the lowest weight layer, which gets pull=False (none without one)."""
        stack = self.seeded
        low = 0 if pull else next((i for i, l in enumerate(stack) if l.has_params), len(stack))
        return [(stack[i], pull or i > low) for i in range(len(stack) - 1, low - 1, -1)]

    def aux_from_cot(self, beta: float):
        """Each weight layer's dw and db, formed once per step after
        vjp(_dw=False) by its Layer.aux_from_cot(beta)."""
        for layer in self.param_layers:
            layer.aux_from_cot(beta)

    def params(self):
        return [(l.w, l.b) for l in self.param_layers]

    # -- persistence --------------------------------------------------------

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(self.layers)))
            for layer in self.layers:
                rec = json.dumps(layer.spec(), sort_keys=True, separators=(",", ":")).encode()
                fh.write(struct.pack("<I", len(rec)))
                fh.write(rec)
            for layer in self.param_layers:
                for tensor in (layer.w, layer.b):
                    fh.write(np.ascontiguousarray(tensor, tensor.dtype.newbyteorder("<")).tobytes())

    @classmethod
    def load(cls, path) -> "Network":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:7] != MAGIC:
            raise FormatError(f"{path}: bad magic {blob[:7]!r}")
        off = 7
        if off + 4 > len(blob):
            raise FormatError(f"{path}: truncated header")
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        specs = []
        for _ in range(count):
            if off + 4 > len(blob):
                raise FormatError(f"{path}: truncated layer record")
            (rec_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            try:
                specs.append(json.loads(blob[off:off + rec_len].decode()))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FormatError(f"{path}: undecodable layer record") from exc
            off += rec_len
        net = cls([layer_from_spec(s, None) for s in specs])
        for layer in net.param_layers:
            for tensor in (layer.w, layer.b):
                nbytes = tensor.nbytes
                if off + nbytes > len(blob):
                    raise FormatError(f"{path}: truncated weight blob")
                tensor[...] = np.frombuffer(blob, dtype=tensor.dtype.newbyteorder("<"),
                                            count=tensor.size, offset=off).reshape(tensor.shape)
                off += nbytes
        if off != len(blob):
            raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
        return net


def layer_from_spec(spec: dict, rng: np.random.Generator | None) -> Layer:
    """Build one layer from its model-file record, which must hold exactly
    the fields its kind declares (and, on a weight layer, an optional
    ``"dtype"``); weights are drawn from rng, or zeros without one."""
    if not isinstance(spec, dict):
        raise FormatError(f"layer record {spec!r} is not a JSON object")
    kind = spec.get("kind")
    cls = LAYER_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormatError(f"unknown layer kind {kind!r}")
    args = {k: v for k, v in spec.items() if k != "kind"}
    weights = {"rng": rng, "dtype": args.pop("dtype", "float64")} if cls.has_params else {}
    missing = [name for name in cls.fields if name not in args]
    extra = sorted(set(args) - set(cls.fields))
    if missing or extra:
        raise FormatError(f"{kind} record: missing fields {missing}, undeclared fields {extra}")
    if weights.get("dtype", "float64") not in ("float32", "float64"):
        raise FormatError(f"unknown weight dtype {weights['dtype']!r}")
    try:
        return cls(**args, **weights)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{kind} record {spec!r} is rejected: {exc}") from exc


def slice_images(net: Network, x, batch_size: int) -> int:
    """Images per inference slice over x (anything with ``shape`` and
    ``dtype``): at most batch_size, and as many as keep the widest per-image
    activation, the input included, within tensor._EVAL_SLICE_BYTES; at least
    one. The widths come from a one-image predict of zeros, layer by layer."""
    a = np.zeros((1,) + tuple(x.shape[1:]), x.dtype)
    widest = a.nbytes
    for layer in net.layers:
        a = layer.predict(a)
        widest = max(widest, a.nbytes)
    return max(1, min(batch_size, _EVAL_SLICE_BYTES // widest))


def image_slices(net: Network, x, batch_size: int) -> list[slice]:
    """The fewest slices of x's images that hold at most
    slice_images(net, x, batch_size) each, of sizes that differ by at most
    one: a GEMM of very few rows takes another BLAS path, whose last bits
    differ, so no slice is left with a small remainder."""
    n = x.shape[0]
    k = -(-n // slice_images(net, x, batch_size))
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def batched_forward(net: Network, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Inference over x in image_slices(net, x, batch_size), concatenating
    the outputs."""
    outs = [net.predict(x[sl]) for sl in image_slices(net, x, batch_size)]
    return np.concatenate(outs, axis=0)
