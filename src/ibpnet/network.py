"""Layer stack container, pass orchestration over it, and the model file format.

Model file layout (all integers little-endian):

* 7-byte magic ``IBPNET1``
* uint32 layer count
* per layer: uint32 record length, then that many bytes of JSON (sorted
  keys) describing kind and geometry
* then, for each parametric layer in declaration order, its weight tensor
  followed by its bias vector as raw little-endian float64 in C order.

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
from .tensor import rng_stream

MAGIC = b"IBPNET1"


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

    def vjp(self, dy: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Backward pass over layers[:upto]; fills dw/db and cot_out on
        parametric layers and returns the cotangent at the network input.

        upto lets a loss seed the pass below the top layer (e.g. below a
        final softmax when the seed already includes its Jacobian).
        """
        for layer in reversed(self.layers[:upto]):
            dy = layer.vjp(dy)
        return dy

    def vjp_linear(self, dy: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Cotangent pull through the frozen Jacobians of layers[:upto] only;
        no gradient or cache buffer is written. vjp pulls through the same
        per-layer vjp_linear, so the returned cotangent is bitwise equal to
        the one a full backward pass would produce."""
        for layer in reversed(self.layers[:upto]):
            dy = layer.vjp_linear(dy)
        return dy

    def jvp(self, v: np.ndarray, upto: int | None = None,
            skip_softmax: bool = False) -> np.ndarray:
        """Tangent push through layers[:upto] linearized at the cached batch."""
        for layer in self.layers[:upto]:
            if skip_softmax and isinstance(layer, Softmax):
                continue
            v = layer.jvp(v)
        return v

    def lin_vjp(self, delta: np.ndarray, upto: int | None = None,
                skip_softmax: bool = False) -> np.ndarray:
        """Cotangent pull through the linearized network, accumulating
        auxiliary weight gradients against the tangents cached by jvp."""
        for layer in reversed(self.layers[:upto]):
            if skip_softmax and isinstance(layer, Softmax):
                continue
            delta = layer.lin_vjp(delta)
        return delta

    def zero_aux(self):
        # fresh buffers, so gradient sets captured earlier keep their values
        for layer in self.param_layers:
            layer.aux_dw = np.zeros_like(layer.w)

    def aux_from_cot(self):
        """Auxiliary weight gradients as tangent-input x main-cotangent
        contractions (valid when the auxiliary loss acts on the input
        cotangent of the main backward pass)."""
        for layer in self.param_layers:
            layer.aux_from_cot()

    def params(self):
        return [(l.w, l.b) for l in self.param_layers]

    def aux_grads(self):
        return [l.aux_dw for l in self.param_layers]

    def n_params(self) -> int:
        return sum(l.w.size + l.b.size for l in self.param_layers)

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
                fh.write(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())

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
        net = cls([layer_from_spec(s, rng_stream(0, "load-init")) for s in specs])
        for layer in net.param_layers:
            for tensor in (layer.w, layer.b):
                nbytes = tensor.size * 8
                if off + nbytes > len(blob):
                    raise FormatError(f"{path}: truncated weight blob")
                tensor[...] = np.frombuffer(blob, dtype="<f8", count=tensor.size,
                                            offset=off).reshape(tensor.shape)
                off += nbytes
        if off != len(blob):
            raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
        return net


def layer_from_spec(spec: dict, rng: np.random.Generator) -> Layer:
    """Build one layer from its spec record; weights are freshly initialized."""
    kind = spec.get("kind")
    if kind == "fc":
        return FullyConnected(spec["in_features"], spec["out_features"], rng)
    if kind == "conv":
        return Conv2D(spec["in_channels"], spec["filters"], spec["kernel"],
                      spec["pad"], spec["stride"], rng)
    if kind == "relu":
        return ReLU()
    if kind == "sigmoid":
        return Sigmoid()
    if kind == "softmax":
        return Softmax()
    if kind == "maxpool":
        return MaxPool2D(spec["window"], spec["stride"])
    if kind == "meanpool":
        return MeanPool2D(spec["window"], spec["stride"])
    if kind == "dropout":
        return Dropout(spec["rate"], rng_stream(0, "dropout-load"))
    raise FormatError(f"unknown layer kind {kind!r}")


def batched_forward(net: Network, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Inference over x in slices, concatenating the outputs."""
    outs = [net.forward(x[i:i + batch_size]) for i in range(0, len(x), batch_size)]
    return np.concatenate(outs, axis=0)
