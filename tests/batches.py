"""Synthetic batches shared by the test modules (a plain module, so that
importing it does not depend on which conftest.py pytest loaded last)."""

import numpy as np


def make_batch(rng: np.random.Generator, n: int, in_shape, classes: int):
    """Synthetic (images, one-hot labels) batch."""
    x = rng.normal(0.0, 0.5, size=(n,) + tuple(in_shape))
    labels = np.zeros((n, classes))
    labels[np.arange(n), rng.integers(0, classes, size=n)] = 1.0
    return x, labels
