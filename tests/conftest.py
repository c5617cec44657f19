"""Helpers shared by the test modules."""

import numpy as np


def write_libsvm(path, X, y):
    """Write dense float rows X with labels y as LIBSVM text: the 1-based
    indices of the nonzero entries, each number as its shortest repr."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w") as fh:
        for label, row in zip(np.asarray(y, dtype=np.float64).tolist(), X):
            cols = np.flatnonzero(row)
            pairs = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), row[cols].tolist())]
            fh.write(" ".join([repr(label), *pairs]) + "\n")
