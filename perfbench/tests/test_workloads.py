import hashlib
import os

import numpy as np

from workloads import MNIST_FILES, WORKLOADS, write_dataset


def _digest(root):
    h = hashlib.sha256()
    for name in MNIST_FILES:
        with open(os.path.join(root, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_same_seed_same_bytes_and_the_library_reads_them(tmp_path):
    from ibpnet.datasets import load_split_pair

    a, b, c = (str(tmp_path / d) for d in "abc")
    write_dataset(a, 3, 64, 20)
    write_dataset(b, 3, 64, 20)
    write_dataset(c, 4, 64, 20)
    assert _digest(a) == _digest(b) != _digest(c)
    train, test = load_split_pair(a, "mnist")
    assert train.images.shape == (64, 1, 28, 28) and test.images.shape == (20, 1, 28, 28)
    assert train.labels.shape == (64, 10)
    assert np.allclose(train.labels.sum(axis=1), 1.0)


def test_eval_sets_are_not_a_multiple_of_the_eval_batch():
    assert all(w.test_n % 256 for w in WORKLOADS.values())
