"""Dataset IO tests: IDX and CIFAR binary parsing, normalization, stratified
subsets, the affine augmentation, and the built-in digit and glyph files."""

import hashlib
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from ibpnet.datasets import (
    _RESAMPLE_BLOCK_BYTES,
    AugmentSpec,
    CIFAR_RECORD,
    GLYPHS_SUBDIR,
    MNIST_FILES,
    Dataset,
    _upsample,
    affine_sample,
    augment_batch,
    denormalize,
    ensure_builtin_digits,
    ensure_builtin_glyphs,
    load_cifar10,
    load_mnist,
    load_split_pair,
    normalize,
    one_hot,
    read_idx,
    subset,
    write_idx,
)
from ibpnet.errors import ConfigError, FormatError


def write_cifar_batch(path, labels, images):
    rec = np.zeros((len(labels), CIFAR_RECORD), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = np.asarray(images, dtype=np.uint8).reshape(len(labels), -1)
    path.write_bytes(rec.tobytes())


class TestIdx:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        path = tmp_path / "imgs"
        write_idx(path, imgs)
        assert path.read_bytes()[:16] == struct.pack(">iiii", 2051, 5, 4, 3)
        np.testing.assert_array_equal(read_idx(path, 3), imgs)

    def test_label_roundtrip(self, tmp_path):
        labels = np.array([0, 9, 3, 7], dtype=np.uint8)
        path = tmp_path / "labels"
        write_idx(path, labels)
        assert path.read_bytes()[:8] == struct.pack(">ii", 2049, 4)
        np.testing.assert_array_equal(read_idx(path, 1), labels)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(struct.pack(">iiii", 1234, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match=r"bad magic 1234 at offset 0 \(expected 2051\)"):
            read_idx(path, 3)
        with pytest.raises(FormatError, match=r"bad magic 1234 at offset 0 \(expected 2049\)"):
            read_idx(path, 1)

    def test_rank_mismatch_is_bad_magic(self, tmp_path):
        write_idx(tmp_path / "labels", np.zeros(8, dtype=np.uint8))
        with pytest.raises(FormatError, match="bad magic 2049"):
            read_idx(tmp_path / "labels", 3)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            read_idx(path, 3)
        with pytest.raises(FormatError, match="truncated"):
            read_idx(path, 1)

    def test_truncated_body(self, tmp_path):
        imgs = np.zeros((2, 3, 3), dtype=np.uint8)
        path = tmp_path / "imgs"
        write_idx(path, imgs)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="expected 18 data bytes, got 17"):
            read_idx(path, 3)

    def test_negative_extents_are_unsigned(self, tmp_path):
        # the extents -1, -2 as signed words: read unsigned, they ask for far
        # more bytes than the body holds
        path = tmp_path / "imgs"
        path.write_bytes(struct.pack(">iiii", 2051, 1, -1, -2) + bytes(2))
        want = (2 ** 32 - 1) * (2 ** 32 - 2)
        with pytest.raises(FormatError, match=f"expected {want} data bytes, got 2"):
            read_idx(path, 3)

    def test_load_mnist_count_mismatch(self, tmp_path):
        write_idx(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "l", np.zeros(2, dtype=np.uint8))
        with pytest.raises(FormatError, match="count mismatch") as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert str(exc.value).startswith(f"{tmp_path / 'l'}: ")

    def test_load_mnist_normalization(self, tmp_path):
        imgs = np.array([[[0, 255]], [[255, 0]]], dtype=np.uint8)
        write_idx(tmp_path / "i", imgs)
        write_idx(tmp_path / "l", np.array([3, 1], dtype=np.uint8))
        ds = load_mnist(tmp_path / "i", tmp_path / "l")
        assert ds.mean_pixel == 0.5
        assert ds.images.shape == (2, 1, 1, 2)
        np.testing.assert_allclose(ds.images[0, 0, 0], [-0.5, 0.5], rtol=1e-12)
        np.testing.assert_array_equal(ds.class_ids, [3, 1])
        # reusing another split's mean shifts instead of re-centering
        ds2 = load_mnist(tmp_path / "i", tmp_path / "l", mean_pixel=0.25)
        np.testing.assert_allclose(ds2.images[0, 0, 0], [-0.25, 0.75], rtol=1e-12)

    def test_load_mnist_label_out_of_range(self, tmp_path):
        write_idx(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "l", np.array([9, 12, 10], dtype=np.uint8))
        with pytest.raises(FormatError, match="label byte 12 out of range for 10 classes") as exc:
            load_mnist(tmp_path / "i", tmp_path / "l")
        assert str(exc.value).startswith(f"{tmp_path / 'l'}: ")


class TestCifar:
    def test_planar_channel_order(self, tmp_path):
        img = np.concatenate([np.full((1, 32, 32), v, dtype=np.uint8)
                              for v in (10, 20, 30)])
        write_cifar_batch(tmp_path / "b.bin", [7], img[None])
        ds = load_cifar10(tmp_path / "b.bin", mean_pixel=0.0)
        assert ds.images.dtype == np.float32
        for channel, k in enumerate((10, 20, 30)):
            np.testing.assert_array_equal(ds.images[0, channel], np.float32(k / 255.0))
        np.testing.assert_array_equal(ds.class_ids, [7])

    def test_multiple_batches_concatenate_in_order(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(4, 3, 32, 32), dtype=np.uint8)
        write_cifar_batch(tmp_path / "b1.bin", [0, 1], imgs[:2])
        write_cifar_batch(tmp_path / "b2.bin", [2, 3], imgs[2:])
        ds = load_cifar10([tmp_path / "b1.bin", tmp_path / "b2.bin"])
        assert len(ds) == 4
        np.testing.assert_array_equal(ds.class_ids, [0, 1, 2, 3])

    def test_bad_record_length(self, tmp_path):
        (tmp_path / "b.bin").write_bytes(bytes(CIFAR_RECORD + 1))
        with pytest.raises(FormatError, match="not a multiple"):
            load_cifar10(tmp_path / "b.bin")
        (tmp_path / "e.bin").write_bytes(b"")
        with pytest.raises(FormatError, match="not a multiple"):
            load_cifar10(tmp_path / "e.bin")

    def test_label_out_of_range(self, tmp_path):
        write_cifar_batch(tmp_path / "b.bin", [11],
                          np.zeros((1, 3, 32, 32), dtype=np.uint8))
        with pytest.raises(FormatError, match="out of range"):
            load_cifar10(tmp_path / "b.bin")


class TestNormalization:
    def test_one_hot(self):
        got = one_hot(np.array([1, 0, 2]), 4)
        np.testing.assert_array_equal(got, np.eye(4)[[1, 0, 2]])
        assert got.dtype == np.float64

    def test_normalize_denormalize_roundtrip(self):
        rng = np.random.default_rng(2)
        raw = rng.random((3, 1, 4, 4))
        back = denormalize(normalize(raw, 0.34), 0.34)
        np.testing.assert_allclose(back, raw, rtol=0, atol=1e-15)


def toy_dataset():
    # class counts 10 / 6 / 4, images keyed by their original index
    ids = np.array([0] * 10 + [1] * 6 + [2] * 4)
    images = np.arange(20, dtype=np.float64).reshape(20, 1, 1, 1)
    return Dataset(images, one_hot(ids, 3), 0.0)


class TestSubset:
    def test_stratified_counts_with_remainder(self):
        sub = subset(toy_dataset(), 7, seed=0)
        counts = np.bincount(sub.class_ids, minlength=3)
        np.testing.assert_array_equal(counts, [3, 2, 2])
        assert sub.mean_pixel == 0.0

    def test_preserves_original_order_and_is_deterministic(self):
        a = subset(toy_dataset(), 9, seed=3)
        b = subset(toy_dataset(), 9, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        flat = a.images.reshape(-1)
        assert (np.diff(flat) > 0).all()  # sorted original indices
        c = subset(toy_dataset(), 9, seed=4)
        assert not np.array_equal(a.images, c.images)

    def test_size_errors(self):
        for n in (21, 0, -5):
            with pytest.raises(ConfigError, match="subset size"):
                subset(toy_dataset(), n, seed=0)
        with pytest.raises(ConfigError, match="class 1 has 6 samples"):
            subset(toy_dataset(), 20, seed=0)


class TestAugment:
    def test_identity_transform_is_bitwise(self):
        rng = np.random.default_rng(3)
        img = rng.random((2, 9, 9))
        out = affine_sample(img, np.eye(2), (0.0, 0.0))
        np.testing.assert_array_equal(out, img)

    def test_integer_shift_moves_impulse(self):
        img = np.zeros((1, 9, 9))
        img[0, 4, 3] = 1.0
        out = affine_sample(img, np.eye(2), (2.0, 0.0))  # content +2 in x
        assert out[0, 4, 5] == 1.0
        assert out.sum() == 1.0

    def test_degenerate_ranges_reduce_to_fixed_shift(self):
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(5)
        spec = AugmentSpec(shift=(2.0, 2.0), scale=(1.0, 1.0), rotation=(0.0, 0.0))
        img = np.random.default_rng(6).random((1, 9, 9))
        got = augment_batch(img[None], spec, rng_a)[0]
        also = augment_batch(img[None], spec, rng_b)[0]  # no randomness left
        np.testing.assert_array_equal(got, also)
        np.testing.assert_allclose(got, affine_sample(img, np.eye(2), (2.0, 2.0)),
                                   rtol=0, atol=1e-12)

    def test_rotation_keeps_centered_mass(self):
        ys, xs = np.indices((15, 15), dtype=np.float64)
        blob = np.exp(-((xs - 7) ** 2 + (ys - 7) ** 2) / 8.0)[None]
        spec = AugmentSpec(shift=(0.0, 0.0), scale=(1.0, 1.0), rotation=(18.0, 18.0))
        out = augment_batch(blob[None], spec, np.random.default_rng(7))[0]
        assert 0.8 < out.sum() / blob.sum() < 1.2

    def test_batch_draws_independent_transforms(self):
        rng = np.random.default_rng(8)
        img = np.random.default_rng(9).random((1, 9, 9))
        batch = np.stack([img, img])
        out = augment_batch(batch, AugmentSpec(), rng)
        assert out.shape == batch.shape
        assert not np.array_equal(out[0], out[1])

    @pytest.mark.parametrize("kwargs, match", [
        (dict(shift=(2.0, -2.0)), "range inverted"),
        (dict(scale=(0.0, 0.0)), "scale must be positive"),
        (dict(scale=(-0.5, 1.0)), "scale must be positive"),
    ], ids=["inverted", "zero-scale", "negative-scale"])
    def test_inverted_range_rejected(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            AugmentSpec(**kwargs)


# Reference: augmentation one image at a time, each image drawing its five
# parameters in turn and resampled by its own bilinear gather. The batched
# augment_batch must reproduce it bit for bit, with the same generator state.

def ref_bilinear(img, rows, cols):
    c, h, w = img.shape
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    acc = np.zeros((c,) + rows.shape)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        ok = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        vals = img[:, np.clip(rr, 0, h - 1), np.clip(cc, 0, w - 1)]
        acc += weight * np.where(ok, vals, 0.0)
    return acc


def ref_augment(img, spec, rng):
    sx = rng.uniform(*spec.scale)
    sy = rng.uniform(*spec.scale)
    theta = math.radians(rng.uniform(*spec.rotation))
    dx = rng.uniform(*spec.shift)
    dy = rng.uniform(*spec.shift)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    inv = np.linalg.inv(rot @ np.diag([sx, sy]))
    c, h, w = img.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64) - cx,
                         np.arange(h, dtype=np.float64) - cy)
    src_x = inv[0, 0] * (gx - dx) + inv[0, 1] * (gy - dy)
    src_y = inv[1, 0] * (gx - dx) + inv[1, 1] * (gy - dy)
    return ref_bilinear(img, src_y + cy, src_x + cx)


# images of 3x32x32 per resampling block; three blocks less one image leave
# a ragged last block
RGB_BLOCK = max(1, _RESAMPLE_BLOCK_BYTES // (32 * 32 * 8))
# sha256 of the augmented bytes in test_bytes_are_pinned
AUGMENT_SHA256 = "967412cd3bd4f412f53e3a65c75ab0847671548027edde9cb5cb83d94340a611"


class TestAugmentBatchAgainstReference:
    @pytest.mark.parametrize("shape, spec", [
        ((1, 1, 28, 28), AugmentSpec()),
        ((32, 1, 28, 28), AugmentSpec()),
        ((33, 1, 28, 28), AugmentSpec()),
        ((4, 3, 32, 32), AugmentSpec()),
        ((3 * RGB_BLOCK - 1, 3, 32, 32), AugmentSpec()),
        ((5, 1, 28, 28), AugmentSpec(shift=(2.0, 2.0), scale=(1.0, 1.0),
                                     rotation=(0.0, 0.0))),
        # unrotated, any scale maps the shifted grid at least 5 px off the image
        ((6, 1, 28, 28), AugmentSpec(shift=(40.0, 40.0), rotation=(0.0, 0.0))),
    ], ids=["n1", "n32", "n33", "rgb32", "rgb-blocks", "degenerate", "off-image"])
    def test_bitwise_with_same_next_draw(self, shape, spec):
        x = np.random.default_rng(11).random(shape) - 0.25
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        got = augment_batch(x, spec, rng)
        want = np.stack([ref_augment(img, spec, ref_rng) for img in x])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()
        if spec.shift[0] == 40.0:  # every tap read the zero border
            assert not got.any()

    def test_bytes_are_pinned(self):
        # a change of augmented bytes fails here even if the reference above
        # changed with it
        h = hashlib.sha256()
        for seed, shape in ((21, (40, 1, 28, 28)), (23, (9, 3, 32, 32))):
            x = np.random.default_rng(seed).random(shape)
            h.update(augment_batch(x, AugmentSpec(), np.random.default_rng(seed + 1)).tobytes())
        assert h.hexdigest() == AUGMENT_SHA256

    def test_peak_memory_within_three_results(self):
        x = np.random.default_rng(14).random((256, 1, 28, 28))
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            out = augment_batch(x, AugmentSpec(), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes, f"{peak / out.nbytes:.1f}x the result"

    def test_upsample_bitwise(self):
        img8 = np.random.default_rng(13).random((8, 8))
        pos = np.linspace(0.0, 7.0, 28)
        rows, cols = np.meshgrid(pos, pos, indexing="ij")
        want = ref_bilinear(img8[None], rows, cols)[0]
        assert _upsample(img8).tobytes() == want.tobytes()


class TestBuiltinDigits:
    def test_counts_and_balance(self, digits_dir):
        train = read_idx(os.path.join(digits_dir, MNIST_FILES[1]), 1)
        test = read_idx(os.path.join(digits_dir, MNIST_FILES[3]), 1)
        assert train.shape[0] == 1500
        assert test.shape[0] == 297
        np.testing.assert_array_equal(np.bincount(train), [150] * 10)
        imgs = read_idx(os.path.join(digits_dir, MNIST_FILES[0]), 3)
        assert imgs.shape == (1500, 28, 28)

    def test_idempotent(self, digits_dir):
        def digest():
            h = hashlib.sha256()
            for name in MNIST_FILES:
                with open(os.path.join(digits_dir, name), "rb") as fh:
                    h.update(fh.read())
            return h.hexdigest()

        before = digest()
        paths = ensure_builtin_digits(digits_dir)
        assert digest() == before
        assert set(paths) == set(MNIST_FILES)


def file_digests(folder) -> dict:
    digests = {}
    for name in MNIST_FILES:
        with open(os.path.join(folder, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


GLYPH_DIGESTS = {
    "train-images-idx3-ubyte": "f4a564b8a9ba02cd161dcc90d04003f5253e251623e06bb0a61e840928ee9b1d",
    "train-labels-idx1-ubyte": "e026daf3d28b630d395bff264d45247706f43ecba7d4f48422cba6b6a30e22d3",
    "t10k-images-idx3-ubyte": "9fcbb05f68c862ac44fb2fdbd3c0ffb820e76d00227de241a020b9b6e5e1ab18",
    "t10k-labels-idx1-ubyte": "2bed0e3790b2dac87cb49ca6718054c88d630c4060f2671b4e1557c9e0ca6621",
}


class TestBuiltinGlyphs:
    def test_counts_balance_and_shape(self, glyphs_dir):
        folder = os.path.join(glyphs_dir, GLYPHS_SUBDIR)
        for (img_name, lbl_name), count in ((MNIST_FILES[:2], 2000),
                                            (MNIST_FILES[2:], 500)):
            labels = read_idx(os.path.join(folder, lbl_name), 1)
            imgs = read_idx(os.path.join(folder, img_name), 3)
            assert labels.shape == (count,)
            np.testing.assert_array_equal(np.bincount(labels), [count // 10] * 10)
            assert imgs.shape == (count, 28, 28) and imgs.dtype == np.uint8

    def test_bytes_are_pinned(self, glyphs_dir):
        # "the same bytes every time" across commits, not only within one
        assert file_digests(os.path.join(glyphs_dir, GLYPHS_SUBDIR)) == GLYPH_DIGESTS

    def test_fresh_directories_get_identical_bytes(self, glyphs_dir, tmp_path):
        ensure_builtin_glyphs(str(tmp_path))
        assert file_digests(tmp_path / GLYPHS_SUBDIR) == file_digests(
            os.path.join(glyphs_dir, GLYPHS_SUBDIR))

    def test_second_call_rewrites_nothing(self, glyphs_dir):
        folder = os.path.join(glyphs_dir, GLYPHS_SUBDIR)
        mtimes = {n: os.stat(os.path.join(folder, n)).st_mtime_ns for n in MNIST_FILES}
        before = file_digests(folder)
        paths = ensure_builtin_glyphs(glyphs_dir)
        assert set(paths) == set(MNIST_FILES)
        assert all(os.path.dirname(p) == folder for p in paths.values())
        assert file_digests(folder) == before
        assert mtimes == {n: os.stat(os.path.join(folder, n)).st_mtime_ns
                          for n in MNIST_FILES}

    def test_mnist_files_in_root_untouched(self, tmp_path):
        for k, name in enumerate(MNIST_FILES):
            (tmp_path / name).write_bytes(bytes([k]) * 5)
        ensure_builtin_glyphs(str(tmp_path))
        for k, name in enumerate(MNIST_FILES):
            assert (tmp_path / name).read_bytes() == bytes([k]) * 5
            assert (tmp_path / GLYPHS_SUBDIR / name).exists()


def assert_normalized_by_training_mean(folder, train, test):
    """The pair read from the IDX files in folder is, exactly, the float64
    mean of the training pixels / 255 and float32(pixels / 255 - that mean)
    for both splits."""
    raw = [read_idx(os.path.join(folder, name), 3).astype(np.float64) / 255.0
           for name in (MNIST_FILES[0], MNIST_FILES[2])]
    assert train.mean_pixel == test.mean_pixel == float(raw[0].mean())
    for ds, pixels in zip((train, test), raw):
        assert ds.images.dtype == np.float32
        np.testing.assert_array_equal(
            ds.images, (pixels - train.mean_pixel).astype(np.float32)[:, None])


class TestLoadSplitPair:
    def test_digits_pair_shares_training_mean(self, digits_dir, digits_pair):
        train, test = digits_pair
        assert len(train) == 1500 and len(test) == 297
        assert_normalized_by_training_mean(digits_dir, train, test)
        assert abs(test.images.mean()) > 0  # not re-centered

    def test_glyphs_pair_reads_its_subdirectory(self, glyphs_pair):
        train, test = glyphs_pair
        assert len(train) == 2000 and len(test) == 500
        assert test.mean_pixel == train.mean_pixel
        assert train.images.shape[1:] == (1, 28, 28)

    def test_glyphs_pair_shares_training_mean(self, glyphs_dir, glyphs_pair):
        # the digits test above needs scikit-learn; this one runs on NumPy alone
        train, test = glyphs_pair
        assert_normalized_by_training_mean(os.path.join(glyphs_dir, GLYPHS_SUBDIR),
                                           train, test)

    def test_peak_memory_within_two_float64_training_sets(self, glyphs_dir):
        # loading holds one float64 copy of the training split and its
        # float32 cast (1.5 copies, plus the file's bytes); a second float64
        # array, such as separate scaled and mean-subtracted copies, exceeds
        # the bound
        tracemalloc.start()
        try:
            train, _ = load_split_pair(glyphs_dir, "glyphs")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        copies = peak / (train.images.size * 8)
        assert copies <= 2.0, f"{copies:.2f} float64 copies of the training images"

    def test_missing_files(self, tmp_path):
        with pytest.raises(ConfigError, match="missing dataset files"):
            load_split_pair(str(tmp_path), "mnist")
        with pytest.raises(ConfigError, match="missing dataset files"):
            load_split_pair(str(tmp_path), "cifar10")

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown dataset"):
            load_split_pair(str(tmp_path), "svhn")
