"""Dataset loading, pixel normalization, class-stratified subsets, the
random affine augmentation, and two built-in MNIST stand-ins written as IDX
files: `glyphs` (stroke digits generated with NumPy alone) and `digits`
(scikit-learn's bundled 8x8 digits, upsampled).

Every file goes through one IDX codec (`read_idx`, `write_idx`; the rank
picks the magic) or the CIFAR-10 batch reader, and every split becomes a
`Dataset` in one place: pixels are scaled to [0, 1] and the mean pixel of
the training split is subtracted; the same mean is reused for the test
split. Both steps run in float64 and the images are then stored once in
float32, the dtype the named nets train in, so a split takes half the
memory and those nets see the values that casting the float64 images at
their first layer gives. A label byte outside 0-9 is a `FormatError`
naming the labels file or CIFAR batch that holds it.

Augmentation (`augment_batch`) draws a fresh transform for every image of a
batch: scale, then rotate, then shift, all about the image center. The draws
come from the generator passed in (`ibpnet train --augment` passes
`rng_stream(seed, "augment")`) as one (N, 5) uniform array, per image in the
order scale x, scale y, degrees, shift x, shift y. The batch is then
resampled bilinearly in blocks of a few images, sized by a private byte
budget so that the temporaries stay in cache; each block forms its own
coordinates and gathers its four taps at fixed offsets in a zero-padded copy,
so taps outside the source read 0. The bytes do not depend on the block
size. Augmentation computes in float64 whatever the images' dtype, and
`denormalize` and `normalize` return float64. tbp and fast-tbp still
penalize the tangents of the unwarped images, not of the warped batch they
train on, so augmented tbp results carry that caveat.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .tensor import rng_stream

CLASSES = 10  # every dataset here has ten classes
CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
# float64 (H, W) planes per resampling block, one per image: 5 MNIST images,
# 4 of 3x32x32. At batch 32, larger blocks ran up to 10% faster once the
# allocator had grown (as after set-up) but twice as slow in a fresh process.
_RESAMPLE_BLOCK_BYTES = 32 << 10
# standard IDX file names, shared by mnist and both built-in stand-ins
MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


@dataclass
class Dataset:
    """Images in normalized units (mean already subtracted), one-hot labels."""

    # float32, the dtype the named nets train in; augmentation and the
    # float64 nets cast what they read
    images: np.ndarray  # (N, C, H, W) float32 from the loaders
    labels: np.ndarray  # (N, K) one-hot float64
    mean_pixel: float

    def __len__(self):
        return self.images.shape[0]

    @property
    def class_ids(self) -> np.ndarray:
        return self.labels.argmax(axis=1)


def one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(y)
    out = np.zeros((y.shape[0], num_classes))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def normalize(raw: np.ndarray, mean_pixel: float) -> np.ndarray:
    """[0,1]-scaled pixels minus the training-split mean."""
    return np.asarray(raw, dtype=np.float64) - mean_pixel


def denormalize(images: np.ndarray, mean_pixel: float) -> np.ndarray:
    """[0,1]-scaled pixels from normalized images, in float64."""
    return np.asarray(images, dtype=np.float64) + mean_pixel


def _check_labels(labels: np.ndarray, path):
    """FormatError naming path at the first label byte outside 0-9."""
    bad = labels[labels >= CLASSES]
    if bad.size:
        raise FormatError(f"{path}: label byte {bad[0]} out of range for {CLASSES} classes")


def _split(pixels: np.ndarray, labels: np.ndarray, mean_pixel: float | None) -> Dataset:
    """uint8 pixels (N, C, H, W) and checked label bytes (N,) as a normalized
    float32 Dataset; mean_pixel None takes the split's own mean. The /255
    scaling, the mean and its subtraction are float64, in place, and the
    result is cast once: float32(normalize(raw, mean_pixel)), the values a
    float32 net gets by casting the float64 images at its first layer."""
    raw = pixels.astype(np.float64)
    raw /= 255.0
    if mean_pixel is None:
        mean_pixel = float(raw.mean())
    raw -= mean_pixel
    return Dataset(raw.astype(np.float32), one_hot(labels, CLASSES), mean_pixel)


# ---------------------------------------------------------------------------
# IDX (big-endian) files: magic 0x800 | rank, then rank unsigned extents
# ---------------------------------------------------------------------------

def read_idx(path, rank: int) -> np.ndarray:
    """uint8 array of the given rank (3 for images, 1 for labels) from an
    IDX file."""
    expected = 0x800 | rank
    with open(path, "rb") as fh:
        head = fh.read(4 * (rank + 1))
        if len(head) < 4 * (rank + 1):
            raise FormatError(f"{path}: truncated IDX header")
        magic, *shape = struct.unpack(f">{rank + 1}I", head)
        if magic != expected:
            raise FormatError(f"{path}: bad magic {magic} at offset 0 (expected {expected})")
        body = fh.read()
    if len(body) != math.prod(shape):
        raise FormatError(f"{path}: expected {math.prod(shape)} data bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def write_idx(path, array: np.ndarray):
    """array as uint8 in an IDX file of its rank."""
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{array.ndim + 1}I", 0x800 | array.ndim, *array.shape))
        fh.write(array.tobytes())


def load_mnist(images_path, labels_path, mean_pixel: float | None = None) -> Dataset:
    """One split of an IDX image/label pair as a normalized Dataset.

    mean_pixel, when given, reuses a training-split mean for this split;
    otherwise the split's own mean is used.
    """
    images = read_idx(images_path, 3)
    if images.shape[0] == 0:
        raise FormatError(f"{images_path}: holds no images")
    labels = read_idx(labels_path, 1)
    if images.shape[0] != labels.shape[0]:
        raise FormatError(f"{labels_path}: count mismatch: {len(labels)} labels, {len(images)} images")
    _check_labels(labels, labels_path)
    return _split(images[:, None], labels, mean_pixel)


def load_cifar10(batch_paths, mean_pixel: float | None = None) -> Dataset:
    """CIFAR-10 binary batches: per record one label byte then 3072 pixel
    bytes in channel-planar (R, G, B) order."""
    if isinstance(batch_paths, (str, os.PathLike)):
        batch_paths = [batch_paths]
    records = []
    for path in batch_paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) == 0 or len(blob) % CIFAR_RECORD:
            raise FormatError(f"{path}: length {len(blob)} is not a multiple of {CIFAR_RECORD}")
        records.append(np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD))
        _check_labels(records[-1][:, 0], path)
    rec = np.concatenate(records)
    return _split(rec[:, 1:].reshape(-1, 3, 32, 32), rec[:, 0], mean_pixel)


# ---------------------------------------------------------------------------
# Subsets
# ---------------------------------------------------------------------------

def subset(ds: Dataset, n: int, seed: int) -> Dataset:
    """Class-stratified subset: equal per-class counts (remainder spread over
    the lowest class ids), drawn without replacement."""
    if n < 1:
        raise ConfigError(f"subset size must be at least 1, got {n}")
    if n > len(ds):
        raise ConfigError(f"subset size {n} exceeds dataset size {len(ds)}")
    rng = rng_stream(seed, "subset")
    ids = ds.class_ids
    classes = np.unique(ids)
    base, extra = divmod(n, len(classes))
    picks = []
    for j, c in enumerate(classes):
        want = base + (1 if j < extra else 0)
        pool = np.flatnonzero(ids == c)
        if want > pool.size:
            raise ConfigError(f"class {c} has {pool.size} samples, need {want}")
        picks.append(rng.choice(pool, size=want, replace=False))
    order = np.sort(np.concatenate(picks))
    return Dataset(ds.images[order], ds.labels[order], ds.mean_pixel)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

@dataclass
class AugmentSpec:
    """Uniform sampling ranges for the per-access random transform."""

    shift: tuple = (-2.0, 2.0)      # pixels, per axis
    scale: tuple = (0.7, 1.4)       # factor, per axis
    rotation: tuple = (-18.0, 18.0)  # degrees

    def __post_init__(self):
        for name in ("shift", "scale", "rotation"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"augment {name} range inverted: ({lo}, {hi})")
        if self.scale[0] <= 0:
            raise ConfigError(f"augment scale must be positive: {tuple(self.scale)}")


def bilinear_sample(imgs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample each image of imgs (N, C, H, W) at its own fractional
    (rows, cols), both (N, ...); out-of-bounds taps read 0. The coordinates
    must be finite; augment_batch's are, since AugmentSpec rejects a
    non-positive scale."""
    n, c, h, w = imgs.shape
    # inside a two-pixel border of zeros, a top-left tap clipped to
    # [-2, H] x [-2, W] puts all four taps on the padded image, and a tap
    # off the image reads 0
    hp, wp = h + 4, w + 4
    pad = np.zeros((n, c, hp, wp))
    pad[:, :, 2:-2, 2:-2] = imgs
    r0, c0 = np.floor(rows), np.floor(cols)
    fr, fc = rows - r0, cols - c0
    corner = ((np.clip(r0, -2, h, out=r0) + 2) * wp
              + np.clip(c0, -2, w, out=c0) + 2).astype(np.intp)
    # the top-left tap's flat index in pad, one plane per (image, channel)
    index = corner[:, None] + np.arange(n * c).reshape(n, c, *[1] * (rows.ndim - 1)) * (hp * wp)
    gr, gc = 1 - fr, 1 - fc
    tap, acc = np.empty(index.shape), np.zeros(index.shape)
    for offset, weight in ((0, gr * gc), (1, gr * fc), (wp, fr * gc), (wp + 1, fr * fc)):
        np.take(pad.ravel()[offset:], index, out=tap)
        tap *= weight[:, None]
        acc += tap
    return acc


def _affine_batch(x: np.ndarray, matrices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Resample each image of x (N, C, H, W) under its forward map
    p' = matrices[i] @ p + offsets[i] about the image center, where
    p = (x, y) in centered pixel coordinates. The images are resampled in
    blocks: as many as give one float64 (H, W) plane each within
    _RESAMPLE_BLOCK_BYTES."""
    n, _, h, w = x.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    gx, gy = np.arange(w) - cx, np.arange(h)[:, None] - cy
    inv = np.linalg.inv(matrices)[..., None, None]  # (N, 2, 2, 1, 1)
    out = np.empty(x.shape)
    step = max(1, _RESAMPLE_BLOCK_BYTES // (h * w * 8))
    for i in range(0, n, step):
        b = slice(i, i + step)
        # (B, 1, W) and (B, H, 1): each element gets the operations a full grid got
        dx, dy = gx - offsets[b, 0, None, None], gy - offsets[b, 1, None, None]
        sx = inv[b, 0, 0] * dx + inv[b, 0, 1] * dy + cx
        sy = inv[b, 1, 0] * dx + inv[b, 1, 1] * dy + cy
        out[b] = bilinear_sample(x[b], sy, sx)
    return out


def affine_sample(img: np.ndarray, matrix: np.ndarray, offset) -> np.ndarray:
    """Resample img (C, H, W) under the forward map p' = matrix @ p + offset
    about the image center, where p = (x, y) in centered pixel coordinates."""
    img = np.asarray(img, dtype=np.float64)
    return _affine_batch(img[None], np.asarray(matrix, dtype=np.float64)[None],
                         np.asarray(offset, dtype=np.float64)[None])[0]


def _scale_rotate_matrices(sx, sy, degrees) -> np.ndarray:
    """(N, 2, 2) maps that scale x by sx and y by sy, then rotate by degrees.

    Angles go through math.cos and math.sin: np.cos and np.sin may round
    differently in the last bit, which would change every augmented model.
    """
    theta = [math.radians(d) for d in degrees]
    cos_t = np.array([math.cos(t) for t in theta])
    sin_t = np.array([math.sin(t) for t in theta])
    return np.stack([cos_t * sx, -sin_t * sy, sin_t * sx, cos_t * sy],
                    axis=1).reshape(-1, 2, 2)


def augment_batch(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    """A fresh scale -> rotate -> shift draw for each image of x (N, C, H, W).

    One draw of (N, 5) uniforms, per image in the order scale x, scale y,
    degrees, shift x, shift y; the batch is then resampled block by block.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = np.transpose([spec.scale, spec.scale, spec.rotation, spec.shift, spec.shift])
    p = rng.uniform(lo, hi, size=(x.shape[0], 5))
    matrices = _scale_rotate_matrices(p[:, 0], p[:, 1], p[:, 2])
    return _affine_batch(x, matrices, p[:, 3:])


# ---------------------------------------------------------------------------
# Built-in MNIST stand-ins: scikit-learn's small digit set, then the glyphs
# ---------------------------------------------------------------------------

_DIGITS_TRAIN_PER_CLASS = 150  # 1500 training images, the other 297 test


def _write_splits(folder: str, make) -> dict:
    """The four MNIST_FILES paths under folder, keyed by file name. Unless all
    four exist, make() gives their arrays (train images, train labels, test
    images, test labels) and they are written."""
    paths = {name: os.path.join(folder, name) for name in MNIST_FILES}
    if not all(os.path.exists(p) for p in paths.values()):
        arrays = make()
        os.makedirs(folder, exist_ok=True)
        for name, array in zip(MNIST_FILES, arrays):
            write_idx(paths[name], array)
    return paths


def _upsample(img8: np.ndarray, size: int = 28) -> np.ndarray:
    """Bilinear upsample of one (8, 8) image to (size, size)."""
    src = img8[None, None].astype(np.float64)
    pos = np.linspace(0.0, img8.shape[0] - 1.0, size)
    rows, cols = np.meshgrid(pos, pos, indexing="ij")
    return bilinear_sample(src, rows[None], cols[None])[0, 0]


def _digits_splits() -> tuple:
    try:
        from sklearn.datasets import load_digits
    except ImportError as exc:
        raise ConfigError(
            "built-in digits need scikit-learn (pip install 'ibpnet[digits]')"
        ) from exc
    bunch = load_digits()
    imgs = bunch.images / 16.0  # source values are 0..16
    labels = bunch.target.astype(np.uint8)
    # deterministic class-balanced split: per class, the first samples in
    # file order go to the training split
    ranks = np.empty(labels.shape[0], dtype=np.int64)
    for c in range(CLASSES):
        pool = np.flatnonzero(labels == c)
        ranks[pool] = np.arange(pool.size)
    train_mask = ranks < _DIGITS_TRAIN_PER_CLASS
    big = np.stack([_upsample(im) for im in imgs])
    big = np.clip(np.rint(big * 255.0), 0, 255).astype(np.uint8)
    return big[train_mask], labels[train_mask], big[~train_mask], labels[~train_mask]


def ensure_builtin_digits(root: str) -> dict:
    """Write the built-in 1797-image digit set (upsampled to 28x28) as IDX
    files under root, if not already present. Returns the four file paths
    keyed by MNIST_FILES entries.

    The images come from scikit-learn's bundled digits; install the
    'digits' extra to use this path.
    """
    return _write_splits(root, _digits_splits)


# ---------------------------------------------------------------------------
# Built-in stroke glyphs (NumPy-only MNIST stand-in)
# ---------------------------------------------------------------------------

GLYPHS_SUBDIR = "glyphs"

# Generator parameters; fixed, so every checkout writes the same bytes.
_GLYPH_SIZE = 28
_GLYPH_TRAIN_PER_CLASS = 200
_GLYPH_TEST_PER_CLASS = 50
_GLYPH_UNIT_PX = 9.0             # glyph box unit in pixels, per axis
# per-sample jitter: scale factor on the unit, rotation, shift in pixels
_GLYPH_JITTER = AugmentSpec(shift=(-2.0, 2.0), scale=(0.85, 1.15),
                            rotation=(-15.0, 15.0))
_GLYPH_WIDTH = (1.6, 3.0)        # stroke width in pixels
_GLYPH_NOISE = 0.05              # pixel noise sigma, on the [0, 1] scale


def _arc(cx, cy, rx, ry, a0, a1) -> np.ndarray:
    """Polyline along an elliptical arc from angle a0 to a1 (degrees)."""
    steps = max(3, math.ceil(abs(a1 - a0) / 15.0))
    t = np.radians(np.linspace(a0, a1, steps + 1))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*points) -> np.ndarray:
    return np.array(points, dtype=np.float64)


def _glyph_strokes() -> list:
    """Per class, the polylines of one digit in the box x in [-0.55, 0.55],
    y in [-1, 1] (y up)."""
    return [
        [_arc(0.0, 0.0, 0.5, 0.95, 90, 450)],
        [_line((0.0, -1.0), (0.0, 1.0)), _line((-0.3, 0.7), (0.0, 1.0))],
        [np.concatenate([_arc(0.0, 0.5, 0.5, 0.45, 160, -30),
                         _line((-0.5, -1.0), (0.55, -1.0))])],
        [_arc(0.0, 0.5, 0.45, 0.48, 150, -90),
         _arc(0.0, -0.5, 0.55, 0.5, 90, -150)],
        [_line((0.25, -1.0), (0.25, 1.0), (-0.55, -0.3), (0.55, -0.3))],
        [_line((0.5, 1.0), (-0.4, 1.0), (-0.45, 0.1)),
         _arc(0.0, -0.4, 0.5, 0.6, 130, -150)],
        [_arc(0.45, -0.4, 0.95, 1.4, 100, 180),
         _arc(0.0, -0.5, 0.5, 0.5, 0, 360)],
        [_line((-0.55, 1.0), (0.55, 1.0), (-0.1, -1.0))],
        [_arc(0.0, 0.5, 0.42, 0.48, 0, 360),
         _arc(0.0, -0.5, 0.52, 0.5, 0, 360)],
        [_arc(0.0, 0.5, 0.5, 0.5, 0, 360),
         _arc(-0.45, 0.4, 0.95, 1.4, 0, -80)],
    ]


def _render_glyph(strokes, matrix, offset, width) -> np.ndarray:
    """Anti-aliased (size, size) image in [0, 1] of the strokes mapped by
    p' = matrix @ p + offset (pixels, y up, about the image center)."""
    def mapped(points):
        # elementwise, not a GEMM, so no BLAS choice can change a pixel
        return np.stack([
            matrix[0, 0] * points[:, 0] + matrix[0, 1] * points[:, 1] + offset[0],
            matrix[1, 0] * points[:, 0] + matrix[1, 1] * points[:, 1] + offset[1],
        ], axis=1)

    seg_a = mapped(np.concatenate([s[:-1] for s in strokes]))
    seg_b = mapped(np.concatenate([s[1:] for s in strokes]))
    center = (_GLYPH_SIZE - 1) / 2.0
    rows, cols = np.indices((_GLYPH_SIZE, _GLYPH_SIZE), dtype=np.float64)
    px = (cols - center).reshape(-1, 1)
    py = (center - rows).reshape(-1, 1)
    ab = seg_b - seg_a
    apx, apy = px - seg_a[:, 0], py - seg_a[:, 1]
    t = np.clip((apx * ab[:, 0] + apy * ab[:, 1]) / (ab ** 2).sum(axis=1), 0.0, 1.0)
    dist = np.hypot(apx - t * ab[:, 0], apy - t * ab[:, 1]).min(axis=1)
    value = np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)
    return value.reshape(_GLYPH_SIZE, _GLYPH_SIZE)


def _glyph_split(per_class: int, tag: str) -> tuple:
    """(images uint8 (N, size, size), labels uint8 (N,)) with labels tiled 0-9."""
    n = 10 * per_class
    rng = rng_stream(0, tag)
    scale = _GLYPH_UNIT_PX * rng.uniform(*_GLYPH_JITTER.scale, size=(n, 2))
    degrees = rng.uniform(*_GLYPH_JITTER.rotation, size=n)
    shift = rng.uniform(*_GLYPH_JITTER.shift, size=(n, 2))
    width = rng.uniform(*_GLYPH_WIDTH, size=n)
    noise = rng.normal(0.0, _GLYPH_NOISE, size=(n, _GLYPH_SIZE, _GLYPH_SIZE))
    labels = np.tile(np.arange(10, dtype=np.uint8), per_class)
    strokes = _glyph_strokes()
    matrices = _scale_rotate_matrices(scale[:, 0], scale[:, 1], degrees)
    images = np.empty((n, _GLYPH_SIZE, _GLYPH_SIZE), dtype=np.uint8)
    for i in range(n):
        img = _render_glyph(strokes[labels[i]], matrices[i], shift[i], width[i])
        images[i] = np.rint(np.clip(img + noise[i], 0.0, 1.0) * 255.0)
    return images, labels


def ensure_builtin_glyphs(root: str) -> dict:
    """Write the built-in glyph set as IDX files under root/glyphs, if not
    already present. Returns the four file paths keyed by MNIST_FILES entries.

    Ten stroke digits (polylines and arcs), each sample under its own random
    per-axis scale, rotation and shift (the transformations the tangents
    model), stroke width and pixel noise: 2000 train / 500 test images,
    28x28, labels tiled 0-9. Needs only NumPy; the same bytes every time.
    """
    return _write_splits(
        os.path.join(root, GLYPHS_SUBDIR),
        lambda: (_glyph_split(_GLYPH_TRAIN_PER_CLASS, "glyphs/train")
                 + _glyph_split(_GLYPH_TEST_PER_CLASS, "glyphs/test")))


CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"

DATASETS = ("mnist", "digits", "glyphs", "cifar10")


def _require(paths, root):
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(
            f"missing dataset files under {root}: "
            + ", ".join(os.path.basename(m) for m in missing)
        )


def load_split_pair(root: str, dataset: str = "mnist") -> tuple:
    """(train, test) Datasets under root; 'digits' and 'glyphs' build their
    stand-in IDX files first ('glyphs' under root/glyphs). The training mean
    normalizes both splits."""
    if dataset == "cifar10":
        train_paths = [os.path.join(root, n) for n in CIFAR_TRAIN_FILES]
        test_path = os.path.join(root, CIFAR_TEST_FILE)
        _require(train_paths + [test_path], root)
        train = load_cifar10(train_paths)
        return train, load_cifar10(test_path, mean_pixel=train.mean_pixel)
    if dataset == "digits":
        ensure_builtin_digits(root)
    elif dataset == "glyphs":
        ensure_builtin_glyphs(root)
        root = os.path.join(root, GLYPHS_SUBDIR)
    elif dataset != "mnist":
        raise ConfigError(f"unknown dataset {dataset!r} (expected one of {DATASETS})")
    paths = [os.path.join(root, name) for name in MNIST_FILES]
    _require(paths, root)
    train = load_mnist(paths[0], paths[1])
    test = load_mnist(paths[2], paths[3], mean_pixel=train.mean_pixel)
    return train, test
