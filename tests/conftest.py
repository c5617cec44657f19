"""Helpers shared by the test modules, among them the central finite-difference
gradient oracle that the model tests and criterion 3 check gradients against."""

import numpy as np
from scipy.special import expit

from trish.core import as_vector, check_positive
from trish.models import MlpModel


def write_libsvm(path, X, y):
    """Write dense float rows X with labels y as LIBSVM text: the 1-based
    indices of the nonzero entries, each number as its shortest repr."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w") as fh:
        for label, row in zip(np.asarray(y, dtype=np.float64).tolist(), X):
            cols = np.flatnonzero(row)
            pairs = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), row[cols].tolist())]
            fh.write(" ".join([repr(label), *pairs]) + "\n")


def loss_stack(problem, i: int, xs: np.ndarray) -> np.ndarray:
    """Loss of component i at each row of a K x n stack of points."""
    if not isinstance(problem, MlpModel):
        return np.array([problem.component_losses([i], x)[0] for x in xs])
    # One batched forward pass of row i through K parameter vectors.
    if xs.shape[1] != problem.n:
        raise ValueError(f"parameter vectors have length {xs.shape[1]}, expected {problem.n}")
    a = problem.features[i][None, :, None]
    for (w, b, fan_out, fan_in), kind in zip(problem._slices, problem.activations):
        pre = xs[:, w].reshape(-1, fan_out, fan_in) @ a + xs[:, b, None]
        a = expit(pre) if kind == "sigmoid" else pre
    return problem._losses_from_h(a.ravel(), problem.targets[i])


FD_CHUNK = 256  # most perturbed points per `loss_stack` call


def finite_difference_gradient(problem, i: int, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of component i, each coordinate moved by
    +-h alone (h finite, > 0), the losses taken FD_CHUNK points at a time."""
    check_positive("h", h)
    x = as_vector(x)
    grad = np.empty(x.size)
    for lo in range(0, x.size, FD_CHUNK):
        js = np.arange(lo, min(lo + FD_CHUNK, x.size))
        up, down = np.tile(x, (2, js.size, 1))
        up[np.arange(js.size), js] += h
        down[np.arange(js.size), js] -= h
        grad[js] = (loss_stack(problem, i, up)
                    - loss_stack(problem, i, down)) / (2.0 * h)
    return grad
