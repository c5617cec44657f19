"""Fixed reference work that gauges how fast the host runs right now.

The host is shared: how fast one vCPU executes drifts by a quarter and more
over seconds to minutes as other tenants come and go.  So every timed step
of an untraced measurement is followed by one reference unit, and each
time is rescaled to a host on which that unit takes its nominal time:

    normalized time = measured time * nominal / reference time nearby

Neighbours slow memory-bound and interpreter-bound code by different
amounts, so each workload's unit mixes kernels shaped like its own hot
paths: a sparse matrix-vector product over a1a-sized test rows, a small
dense network's forward pass over air-sized training rows, and interpreter
work with tiny numpy updates like one optimizer iteration on a quadratic.
The kernels never call the library, so a change to the library moves the
normalized time just as it moves the measured one.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np
import scipy.sparse as sp

WINDOW = 4                     # units on each side that rescale one step

_rng = np.random.default_rng(12345)
_X = sp.random(31000, 124, density=14 / 124, format="csr", random_state=_rng)
_v = _rng.normal(size=124)
_D = _rng.normal(size=(6300, 7))
_LAYERS = [(_rng.normal(size=(o, i)), _rng.normal(size=o)) for i, o in ((7, 7), (7, 5), (5, 1))]
_y = _rng.random(6300)


def _sparse() -> None:
    float(np.mean(np.asarray(_X @ _v) > 0.0))


def _dense() -> None:
    a = _D
    for W, b in _LAYERS:
        a = a @ W.T + b
    float(np.mean((_y - 1.0 / (1.0 + np.exp(-a.ravel()))) ** 2))


def _interpreter() -> None:
    x = np.ones(2)
    acc, table = 0.0, {"a": 1.0}
    for _ in range(20):
        idx = np.sort(_rng.choice(8, size=2, replace=False))
        x = x - 0.01 * (0.5 * x + 0.1 * idx)
        for j in range(20):
            acc += table["a"] * j


# Per workload: the unit's nominal time, about its median on the host the
# bounds were fixed on (2-vCPU Intel Xeon, Python 3.11, numpy 2.4, one BLAS
# thread), and the kernel repetitions of one unit, roughly the workload's mix.
MIXES = {
    "a1a_grid": (1.25e-3, ((_sparse, 1), (_interpreter, 1))),
    "air_grid": (1.25e-3, ((_dense, 2), (_interpreter, 1))),
    "quad_theory": (0.85e-3, ((_interpreter, 2),)),
}


class Gauge:
    """Runs the reference unit of one workload."""

    def __init__(self, workload: str):
        self.nominal, self.mix = MIXES[workload]
        end = perf_counter() + 0.3
        while perf_counter() < end:
            self.unit()

    def _body(self) -> None:
        for kernel, reps in self.mix:
            for _ in range(reps):
                kernel()

    def unit(self) -> float:
        """Run one reference unit; return its wall time in seconds.

        An untimed copy runs first, so the timed one finds its data and code
        in cache whatever the step before it left there; otherwise a change
        to the library's memory traffic would move the reference too.
        """
        self._body()
        t0 = perf_counter()
        self._body()
        return perf_counter() - t0


    def factor(self, times) -> float:
        """Scale that takes times measured next to the units `times` to
        the nominal host."""
        return self.nominal / median(times)

    def rescale(self, seconds, refs) -> list[float]:
        """Normalize each step's time by the median of the units nearest
        it; `refs[i]` is the unit run right after step `i`."""
        return [s * self.factor(refs[max(0, i - WINDOW):i + WINDOW + 1])
                for i, s in enumerate(seconds)]
