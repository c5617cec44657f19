"""Concrete finite-sum objectives: binary logistic regression and small MLPs.

Both implement the batched FiniteSumProblem contract, per-component losses
and gradients over an index batch, plus a faster full-objective loss; the
full gradient is the base mean of the component gradients.

The MLP's full-data pass (`MlpModel._predict_unit_major`) runs on a contiguous
units x rows copy, except width-1 layers: numpy gives those a matrix-vector kernel
that rounds by memory layout, so they run on C-contiguous rows to stay bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .core import FiniteSumProblem, as_vector, check_count


def _dense(features) -> np.ndarray:
    """Features as a C-contiguous float64 array, copied only when needed."""
    return np.ascontiguousarray(
        features.toarray() if sp.issparse(features) else features,
        dtype=np.float64)


def _unit_major(features) -> np.ndarray:
    """Features as a C-contiguous float64 units x rows array."""
    return np.ascontiguousarray(_dense(features).T)


def _as_stack(xs) -> np.ndarray:
    """A K x n stack of points as a float64 array; anything but 2-D raises."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2:
        raise ValueError(f"expected a K x n stack of points, got shape {xs.shape}")
    return xs


def _margins(features, xs: np.ndarray) -> np.ndarray:
    """K x N margins, row k holding features @ xs[k].

    A sparse matrix times the whole stack sums every entry in the same order
    as one matrix-vector product per point, so the values are bit-identical.
    A dense BLAS matrix product is not, so dense features take one product
    per point.
    """
    if sp.issparse(features):
        return np.asarray(features @ xs.T).T
    return np.stack([np.asarray(features @ x).ravel() for x in xs])


class LogisticModel(FiniteSumProblem):
    """Binary logistic regression on +-1 labels.

    Component i has loss log(1 + exp(-y_i x.z_i)) and gradient
    -y_i z_i / (1 + exp(y_i x.z_i)), both computed overflow-safe.  Sparse
    features are stored as canonical CSR (sorted, duplicates summed), and
    also as dense rows, from which per-component gradients gather batches.
    """

    def __init__(self, features, labels):
        labels = np.asarray(labels, dtype=np.float64)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if features.shape[0] != labels.size:
            raise ValueError("feature rows and labels disagree in count")
        if sp.issparse(features):
            features = sp.csr_matrix(features, copy=True)
            features.sum_duplicates()
        else:
            features = np.asarray(features, dtype=np.float64)
        self.features = features
        self._dense_rows = _dense(features)
        self.labels = labels
        self.N = int(labels.size)
        self.n = int(features.shape[1])

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        Z = self._dense_rows[indices]  # fancy indexing copies, C-contiguous
        y = self.labels[indices]
        margins = y * (Z @ x)
        coef = -y * expit(-margins)
        Z *= coef[:, None]
        return Z

    def component_losses(self, indices, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        margins = self.labels[idx] * np.asarray(self.features[idx] @ x).ravel()
        return np.logaddexp(0.0, -margins)

    def loss(self, x: np.ndarray) -> float:
        return float(self.losses(as_vector(x)[None])[0])

    def losses(self, xs: np.ndarray) -> np.ndarray:
        # Contiguous rows keep each mean's pairwise sum that of one vector.
        margins = self.labels * np.ascontiguousarray(_margins(self.features, xs))
        return np.add.reduce(np.logaddexp(0.0, -margins), axis=1) / self.N


_ACTIVATIONS = ("sigmoid", "linear")
_CLAMP_EPS = 1e-12  # keeps cross-entropy logs finite at saturated outputs


class MlpModel(FiniteSumProblem):
    """Small feedforward network with a scalar output and cross-entropy loss.

    layer_sizes runs from the input dimension to the output size (last entry
    must be 1); activations name one of {sigmoid, linear} per non-input
    layer.  Parameters pack layer by layer, weights (row-major) then biases.
    Gradients come from reverse-mode accumulation, vectorized over a batch.
    Training features are stored dense, both row- and unit-major (for `loss`).
    """

    def __init__(self, features, targets, layer_sizes, activations):
        targets = np.asarray(targets, dtype=np.float64)
        if features.shape[0] != targets.size:
            raise ValueError("feature rows and targets disagree in count")
        for s in layer_sizes:
            check_count("layer size", s)
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2 or layer_sizes[-1] != 1:
            raise ValueError("layer_sizes must end with an output layer of size 1")
        if features.shape[1] != layer_sizes[0]:
            raise ValueError("input layer size must match the feature dimension")
        if len(activations) != len(layer_sizes) - 1:
            raise ValueError("need one activation per non-input layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if not np.all((targets >= 0.0) & (targets <= 1.0)):  # NaN fails
            raise ValueError("cross-entropy targets must lie in [0, 1]")

        self.features = _dense(features)
        self._units = _unit_major(self.features)
        self.targets = targets
        self.layer_sizes = layer_sizes
        self.activations = tuple(activations)
        self.N = int(targets.size)
        self.n = sum(o * (i + 1) for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))
        # Slices into the flat parameter vector, per layer: (W slice, b slice).
        self._slices = []
        pos = 0
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            w = slice(pos, pos + fan_out * fan_in)
            b = slice(w.stop, w.stop + fan_out)
            self._slices.append((w, b, fan_out, fan_in))
            pos = b.stop

    @classmethod
    def classifier(cls, features, labels, hidden: int = 5) -> "MlpModel":
        """One sigmoid hidden layer, sigmoid output, cross-entropy loss."""
        return cls(features, labels, [features.shape[1], hidden, 1],
                   ("sigmoid", "sigmoid"))

    @classmethod
    def regressor(cls, features, targets, hidden=(7, 5)) -> "MlpModel":
        """Linear hidden layers, sigmoid output; targets expected in [0, 1]."""
        sizes = [features.shape[1], *hidden, 1]
        acts = ("linear",) * len(hidden) + ("sigmoid",)
        return cls(features, targets, sizes, acts)

    def unpack(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        x = as_vector(x)
        if x.size != self.n:
            raise ValueError(f"parameter vector has length {x.size}, expected {self.n}")
        return [(x[w].reshape(fan_out, fan_in), x[b])
                for w, b, fan_out, fan_in in self._slices]

    def _forward(self, Z: np.ndarray, layers):
        """Activations per layer for a batch; returns list incl. the input."""
        acts = [Z]
        a = Z
        for (W, b), kind in zip(layers, self.activations):
            pre = a @ W.T + b
            a = expit(pre) if kind == "sigmoid" else pre
            acts.append(a)
        return acts

    def _predict_unit_major(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Network outputs h in (0,1] or R for every column of `a`, the
        `_unit_major` copy of the features.

        Activations are unit-major (units x rows); a width-1 layer multiplies
        C-contiguous rows, as its matrix-vector product rounds by layout.  So
        the outputs equal `_forward(features, unpack(x))[-1]` bit for bit.
        """
        for (W, b), kind in zip(self.unpack(x), self.activations):
            if W.shape[0] == 1:
                pre = (np.ascontiguousarray(a.T) @ W.T + b).T
            else:
                pre = W @ a
                pre += b[:, None]
            a = expit(pre) if kind == "sigmoid" else pre
        return a.ravel()

    def _losses_from_h(self, h: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Cross-entropy -(y*log(hc) + (1-y)*log1p(-hc)), hc = clip(h), in place."""
        hc = np.clip(h, _CLAMP_EPS, 1.0 - _CLAMP_EPS)
        out = np.log(hc)
        out *= y
        np.log1p(np.negative(hc, out=hc), out=hc)
        out += np.multiply(hc, 1.0 - y, out=hc)
        return np.negative(out, out=out)

    def component_losses(self, indices, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        Z = self.features[idx]
        h = self._forward(Z, self.unpack(x))[-1].ravel()
        return self._losses_from_h(h, self.targets[idx])

    def _backward_deltas(self, acts, layers, y):
        """Output-layer delta seeded from dL/dh, chained through activations."""
        hc = np.clip(acts[-1].ravel(), _CLAMP_EPS, 1.0 - _CLAMP_EPS)
        dh = -y / hc + (1.0 - y) / (1.0 - hc)
        deltas = [None] * len(layers)
        grad_out = dh[:, None]
        for l in range(len(layers) - 1, -1, -1):
            a = acts[l + 1]
            if self.activations[l] == "sigmoid":
                grad_out = grad_out * a * (1.0 - a)
            deltas[l] = grad_out
            if l > 0:
                grad_out = deltas[l] @ layers[l][0]
        return deltas

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        Z = self.features[idx]
        y = self.targets[idx]
        layers = self.unpack(x)
        acts = self._forward(Z, layers)
        deltas = self._backward_deltas(acts, layers, y)
        m = Z.shape[0]
        out = np.empty((m, self.n))
        for (w, b, fan_out, fan_in), delta, a_prev in zip(self._slices, deltas, acts):
            # A column slice reshapes to a view, so einsum fills `out` directly.
            np.einsum("mo,mi->moi", delta, a_prev, out=out[:, w].reshape(m, fan_out, fan_in))
            out[:, b] = delta
        return out

    def loss(self, x: np.ndarray) -> float:
        h = self._predict_unit_major(self._units, x)
        return float(np.mean(self._losses_from_h(h, self.targets)))


def default_x0(problem: FiniteSumProblem, rng: np.random.Generator) -> np.ndarray:
    """Run starting point: zeros for logistic, uniform [-0.5, 0.5] for MLPs."""
    if isinstance(problem, MlpModel):
        return rng.uniform(-0.5, 0.5, size=problem.n)
    return np.zeros(problem.n)


def _check_labels(labels: np.ndarray, allowed: tuple[float, float], kind: str):
    bad = labels[(labels != allowed[0]) & (labels != allowed[1])]
    if bad.size:
        raise ValueError(f"{kind} test labels must be {allowed[0]:g} or "
                         f"{allowed[1]:g}, got {float(bad[0])}")


def _held_out(features, labels) -> np.ndarray:
    """Held-out labels or targets as a float vector, one per feature row."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size == 0:
        raise ValueError("empty test set")
    if labels.shape != (features.shape[0],):
        raise ValueError(f"held-out set has {features.shape[0]} feature rows "
                         f"but {labels.size} labels (shape {labels.shape})")
    return labels


def testing_accuracy(model: FiniteSumProblem, xs, features, labels) -> np.ndarray:
    """Fraction of the held-out set classified correctly at each row of a
    K x n stack `xs`, as K values.

    Logistic predicts sign(features . x) with ties counted as +1 and needs
    -1/+1 labels; an MLP classifier predicts 1 iff its output is >= 0.5 and
    needs 0/1 labels.

    Logistic hits are counted by one product: with p_i = 1.0 where the margin
    is >= 0 and 0.0 elsewhere (NaN included), the hits are the -1 labels plus
    sum_i labels_i p_i.  Every term is 0 or +-1 and every partial sum an
    integer below 2**53, so the count is exact in any summation order.
    """
    labels = _held_out(features, labels)
    xs = _as_stack(xs)
    if isinstance(model, LogisticModel):
        _check_labels(labels, (-1.0, 1.0), "logistic")
        m = _margins(features, xs)  # fresh, so p overwrites it in place
        hits = np.greater_equal(m, 0.0, out=m) @ labels
        correct = np.count_nonzero(labels == -1.0) + hits
    elif isinstance(model, MlpModel):
        _check_labels(labels, (0.0, 1.0), "MLP classifier")
        units = _unit_major(features)  # once per stacked call, not per point
        correct = np.count_nonzero(
            np.stack([(model._predict_unit_major(units, x) >= 0.5)
                      == (labels == 1.0) for x in xs]), axis=1)
    else:
        raise TypeError(f"no accuracy rule for {type(model).__name__}")
    return correct / labels.size


def testing_loss(model: MlpModel, xs, features, targets) -> np.ndarray:
    """Mean squared prediction error over the held-out set at each row of a
    K x n stack `xs`, as K values."""
    targets = _held_out(features, targets)
    if not isinstance(model, MlpModel):
        raise TypeError(f"no testing loss rule for {type(model).__name__}")
    units = _unit_major(features)  # once per stacked call, not per point
    return np.array([np.mean((targets - model._predict_unit_major(units, x)) ** 2)
                     for x in _as_stack(xs)])
