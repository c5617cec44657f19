"""Shared numeric primitives: finite-sum problems, batch sampling, gradient estimates.

Vectors are plain 1-D ``numpy.float64`` arrays throughout.  Component indices
are 0-based.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np


class NumericError(RuntimeError):
    """A computed quantity came out NaN/Inf where a finite value is required."""

    def __init__(self, message: str, component: int | None = None):
        super().__init__(message)
        self.component = component


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array without copying when already one."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def check_count(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Reject all but an exact int (not a bool) or a numpy integer in [low, high or infinity]."""
    if (type(value) is not int and not isinstance(value, np.integer)  # cheap: runs once per draw
            or value < low or high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _check_real(name: str, value, finite: bool) -> None:
    """Reject a bool, a non-number (int or float, numpy's too) and, if `finite`, NaN or +-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_positive(name: str, value, finite: bool = True) -> None:
    """Reject anything but a number > 0; NaN, a bool and, if `finite`, +inf fail."""
    _check_real(name, value, finite)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_gammas(gamma1, gamma2) -> None:
    """Reject a step interval unless 0 < gamma2 < gamma1, both finite numbers."""
    _check_real("gamma1", gamma1, True)
    _check_real("gamma2", gamma2, True)
    if not 0 < gamma2 < gamma1:
        raise ValueError(f"need 0 < gamma2 < gamma1, got {gamma2!r}, {gamma1!r}")


class FiniteSumProblem(ABC):
    """Objective F(x) = (1/N) sum_i F_i(x) with per-component losses and gradients.

    Subclasses set `n` and `N` and implement the batched pair
    `component_losses` / `component_gradients`; the full objective derives
    from it.  Implementations are immutable after construction and safe to
    share across concurrent runs.
    """

    n: int  # parameter dimension
    N: int  # number of components

    @abstractmethod
    def component_losses(self, indices, x: np.ndarray) -> np.ndarray:
        """Losses of the components in `indices` at x, in index order."""

    @abstractmethod
    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        """Stacked per-component gradients, one row per index in order."""

    def loss(self, x: np.ndarray) -> float:
        """Full objective F(x)."""
        return float(np.mean(self.component_losses(np.arange(self.N), x)))

    def losses(self, xs: np.ndarray) -> np.ndarray:
        """Full objective at each row of a K x n stack of points.

        Subclasses may override with a stacked evaluation; each value must
        equal `loss` at that row exactly.
        """
        return np.array([self.loss(x) for x in xs])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Full gradient, the mean of all component gradients."""
        return self.component_gradients(np.arange(self.N), x).mean(axis=0)


class _Indices(NamedTuple):
    indices: np.ndarray


class SampleBatch(_Indices):
    """A without-replacement sample of component indices, in increasing order."""

    __slots__ = ()

    def __new__(cls, indices):
        idx = np.asarray(indices)  # a raw list has no .size
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("batch must hold at least one index")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"batch indices must be integers, got dtype {idx.dtype}")
        if idx[0] < 0 or np.any(idx[1:] <= idx[:-1]):
            raise ValueError("batch indices must be non-negative and strictly increasing")
        return tuple.__new__(cls, (idx,))

    @classmethod
    def _make(cls, iterable) -> SampleBatch:
        """Build through the checks; `_replace` calls this too."""
        return cls(*iterable)

    @classmethod
    def _drawn(cls, indices: np.ndarray) -> SampleBatch:
        """Wrap indices known to be valid, skipping the checks."""
        return tuple.__new__(cls, (indices,))

    @property
    def size(self) -> int:
        return int(self.indices.size)


class GradientEstimate(NamedTuple):
    """Mini-batch gradient: `aggregate` is the row mean of `per_component`,
    whose rows the adaptive-sampling variance tests need, and `sq_norm` is
    `aggregate.dot(aggregate)`."""

    aggregate: np.ndarray
    per_component: np.ndarray
    sq_norm: float


class _Size(int):
    """A batch size that answers `np.prod` itself, through numpy's
    `__array_function__` override protocol (NEP 18).  `Generator.choice`
    passes its `size` through `np.prod`; on a plain int that call runs
    numpy's Python reduction wrapper, about 1.8 us of a 5.2 us draw.  Every
    other numpy function is refused (`NotImplemented`, so numpy raises
    TypeError).  The draw and the generator state after it are the same."""

    __slots__ = ()

    def __array_function__(self, func, types, args, kwargs):
        return int(self) if func is np.prod else NotImplemented


def draw_batch(N: int, size: int, rng: np.random.Generator) -> SampleBatch:
    """Uniform without-replacement sample of `size` indices from {0..N-1}.

    Every size-subset is equally probable.  Sorted indices fix the downstream
    reduction order.  A sorted draw is already integer, non-empty, strictly
    increasing and in range, so the batch is built without re-validation.
    At size N the only subset is every index: nothing is drawn and `rng` is
    left untouched.  `size` must be an integer in [1, N] (`check_count`)."""
    check_count("size", size, high=N)
    if size == N:
        return SampleBatch._drawn(np.arange(N))
    idx = rng.choice(N, size=_Size(size), replace=False)
    idx.sort()  # in place: the draw is a fresh array
    return SampleBatch._drawn(idx)


def sampled_gradient(problem: FiniteSumProblem, x: np.ndarray,
                     batch: SampleBatch) -> GradientEstimate:
    """Mini-batch gradient estimate: mean of the batch's component gradients.

    Finiteness is checked on the mean, elementwise only if its squared norm
    is not finite; only a non-finite mean scans the rows, to name the first
    non-finite one; finite rows whose sum overflows pass."""
    x = as_vector(x)
    if x.size != problem.n:
        raise ValueError(f"x has length {x.size}, problem dimension is {problem.n}")
    if batch.indices[-1] >= problem.N:
        raise ValueError("batch index out of range for this problem")
    per = problem.component_gradients(batch.indices, x)
    # Row mean in index order: the same reduction and division as np.mean.
    aggregate = np.add.reduce(per, axis=0)
    aggregate /= float(per.shape[0])  # exact: a float divisor skips int conversion
    sq_norm = aggregate.dot(aggregate)
    if not math.isfinite(sq_norm) and not np.isfinite(aggregate).all():
        finite_rows = np.isfinite(per).all(axis=1)
        if not finite_rows.all():
            bad = int(batch.indices[np.flatnonzero(~finite_rows)[0]])
            raise NumericError(f"non-finite gradient for component {bad}", component=bad)
    return GradientEstimate(aggregate, per, sq_norm)
