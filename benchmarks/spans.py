"""In-memory span tracing by wrapping the library's entry points at runtime.

Nothing in the library is edited: `Tracer.install` replaces a function in a
module namespace (or a method on one object) by a wrapper that records a
span, and `Tracer.uninstall` puts every original back.  A span is a layer
name, a start and an end in nanoseconds, and the index of the span that was
open when it began (its parent).  Self time is a span's duration minus the
durations of its direct children.

Targets that do not exist are skipped and listed in `Tracer.missing`, so a
refactor that renames an entry point makes its layer metrics absent rather
than breaking the benchmark.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from time import perf_counter_ns


class Tracer:
    """Span recorder with per-layer call hooks.

    A hook is called as ``hook(tracer, args, result)`` after a wrapped call
    returns normally; hooks keep the counters that need the call's
    arguments or result (batch sizes, test outcomes, iteration counts).
    """

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object, bool]] = []
        self.missing: set[str] = set()
        self.counters: dict[str, float] = {}
        self.state: dict[str, object] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers stay."""
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters.clear()
        self.state.clear()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def open_layer(self) -> str | None:
        """Layer name of the innermost open span."""
        return self.layers[self.layer[self._stack[-1]]] if self._stack else None

    def inside(self, name: str) -> bool:
        """Whether a span of layer `name` is open."""
        lid = self._layer_ids.get(name)
        return lid is not None and any(self.layer[i] == lid for i in self._stack)

    def wrap(self, name: str, fn, hook=None):
        lid = self.layer_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stack
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(st[-1] if st else -1)
            self.start.append(0)
            self.end.append(0)
            st.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                st.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, owner, attr: str, name: str, hook=None) -> None:
        """Wrap `owner.attr` (a module function or an object's method)."""
        current = getattr(owner, attr, None)
        if not callable(current):
            self.missing.add(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        in_dict = attr in vars(owner)
        setattr(owner, attr, self.wrap(name, current, hook))
        self._installed.append((owner, attr, current, in_dict))

    def uninstall(self) -> None:
        for owner, attr, original, in_dict in reversed(self._installed):
            if in_dict:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total and self time in microseconds."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.layers[self.layer[i]],
                                 {"calls": 0, "total_us": 0.0, "self_us": 0.0})
            row["calls"] += 1
            row["total_us"] += dur / 1e3
            row["self_us"] += (dur - child[i]) / 1e3
        return out


# ---------------------------------------------------------------------------
# Which entry points are wrapped, and the counters their hooks keep.

DRIVERS = ("run_trish", "run_trish_as", "run_sg")
ADAPTIVE = "optimizer.run_trish_as"


def _on_driver(tr, args, result):
    tr.count("iters", len(result[1]))


def _on_rows(tr, args, result):
    tr.count("gradient_rows", len(args[0]))


def _on_parse(tr, args, result):
    tr.count("parsed_rows", result.N)


def _on_step(tr, args, result):
    tr.state["pending"] = False


def _on_draw(tr, args, result):
    """Classify adaptive-run draws: a draw right after a failed test or an
    engaged noisy-regime control that asked for a size is a redraw."""
    if not tr.inside(ADAPTIVE):
        return
    size = result.size
    tr.count("draws")
    tr.count("draw_units", size)
    if tr.state.get("pending"):
        tr.count("redraws")
        tr.count("redraw_units", size)
        if size == tr.state.get("last_size"):
            tr.count("same_size_redraws")
    tr.state["pending"] = False
    tr.state["last_size"] = size


def _on_report(tr, args, result):
    tr.count("reports")
    if not result.ok:
        tr.count("failed_reports")
    caller = tr.open_layer()
    if caller == "sampling.noisy_regime_step":
        tr.state["engaged"] = True
    elif caller == ADAPTIVE and not result.ok:
        tr.state["pending"] = True


def _on_noisy(tr, args, result):
    tr.count("noisy_calls")
    if tr.state.pop("engaged", False):
        tr.count("noisy_engaged")
    tr.state["pending"] = result is not None


def instrument(tracer: Tracer, trish, problems=()) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    h, o, th = trish.harness, trish.optimizer, trish.theory
    targets = [
        (o, "draw_batch", "core.draw_batch", _on_draw),
        (o, "sampled_gradient", "core.sampled_gradient", None),
        (o, "_step_vector", "optimizer.step", _on_step),
        (o, "variance_report", "sampling.variance_report", _on_report),
        (trish.sampling, "variance_report", "sampling.variance_report", _on_report),
        (o, "noisy_regime_step", "sampling.noisy_regime_step", _on_noisy),
        *[(mod, name, f"optimizer.{name}", _on_driver)
          for mod in (o, h) for name in DRIVERS],
        (th, "run_trish", "optimizer.run_trish", _on_driver),
        (h, "run_grid", "harness.run_grid", None),
        (h, "_run_once", "harness.run", None),
        (h, "_regrid_curves", "harness.regrid", None),
        (h, "write_grid_csv", "harness.write", None),
        (h, "write_curves", "harness.write", None),
        (h, "testing_accuracy", "models.test_metric", None),
        (h, "testing_loss", "models.test_metric", None),
        (h, "load_problem", "harness.load_problem", None),
        (h, "compute_G", "harness.compute_G", None),
        (h, "parse_libsvm", "data.parse_libsvm", _on_parse),
        (h, "minmax_normalize", "data.minmax_normalize", None),
        (trish.data, "csv_to_libsvm", "data.csv_to_libsvm", None),
        (th, "gradient_moments", "theory.gradient_moments", None),
        (th, "verify_theorem_gap", "theory.verify_theorem_gap", None),
    ]
    for problem in problems:
        targets.append((problem, "loss", "models.loss", None))
        targets.append((problem, "component_gradients", "models.component_gradients", _on_rows))
    for owner, attr, name, hook in targets:
        tracer.install(owner, attr, name, hook)


# ---------------------------------------------------------------------------
# Per-layer metrics from the aggregated spans and counters.

MODULES = ("core", "models", "sampling", "optimizer", "harness", "theory")


def _merge(aggs):
    out: dict[str, dict[str, float]] = {}
    for agg in aggs:
        for layer, row in agg.items():
            acc = out.setdefault(layer, {"calls": 0, "total_us": 0.0, "self_us": 0.0})
            for k in acc:
                acc[k] += row[k]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(passes, setups, untraced_walls, installed) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced passes and traced set-ups.

    `passes` holds (aggregate, counters, wall_s, bytes_written) per traced
    pass and `setups` (aggregate, counters) per traced set-up.

    Counts are per protocol pass and times are per call unless the name
    says otherwise.  A metric whose entry point was not found is left out.
    """
    P = len(passes)
    tot = _merge(p[0] for p in passes)
    cnt: dict[str, float] = {}
    for p in passes:
        for k, v in p[1].items():
            cnt[k] = cnt.get(k, 0) + v
    wall = sum(p[2] for p in passes)

    def us(layer, key="total_us"):
        row = tot.get(layer)
        return _ratio(row[key], row["calls"]) if row else 0.0

    def calls(layer):
        return tot[layer]["calls"] / P if layer in tot else 0.0

    def setup_s(layer):
        return _median([s[0][layer]["total_us"] / 1e6 if layer in s[0] else 0.0
                        for s in setups])

    drivers = [f"optimizer.{d}" for d in DRIVERS]
    driver_self = sum(tot[d]["self_us"] for d in drivers if d in tot)
    parse_rates = [_ratio(s[1].get("parsed_rows", 0), s[0]["data.parse_libsvm"]["total_us"] / 1e6)
                   for s in setups if "data.parse_libsvm" in s[0]]
    self_by_module: dict[str, float] = {}
    for layer, row in tot.items():
        module = layer.split(".")[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + row["self_us"]

    spec = {
        "models.test_metric.us": (("models.test_metric",), us("models.test_metric"), "us"),
        "models.test_metric.calls": (("models.test_metric",), calls("models.test_metric"), "count"),
        "models.loss.us": (("models.loss",), us("models.loss"), "us"),
        "models.loss.calls": (("models.loss",), calls("models.loss"), "count"),
        "models.component_gradients.us": (("models.component_gradients",),
                                          us("models.component_gradients"), "us"),
        "models.component_gradients.rows": (("models.component_gradients",),
                                            cnt.get("gradient_rows", 0) / P, "count"),
        "core.draw_batch.us": (("core.draw_batch",), us("core.draw_batch"), "us"),
        "core.draw_batch.calls": (("core.draw_batch",), calls("core.draw_batch"), "count"),
        "core.sampled_gradient.self_us": (("core.sampled_gradient",),
                                          us("core.sampled_gradient", "self_us"), "us"),
        "optimizer.step.us": (("optimizer.step",), us("optimizer.step"), "us"),
        "optimizer.driver_self_us": (("optimizer.driver",), _ratio(driver_self, cnt.get("iters", 0)), "us"),
        "optimizer.iters": (("optimizer.driver",), cnt.get("iters", 0) / P, "count"),
        "sampling.variance_report.us": (("sampling.variance_report",),
                                        us("sampling.variance_report"), "us"),
        "sampling.variance_report.calls": (("sampling.variance_report",),
                                           calls("sampling.variance_report"), "count"),
        "sampling.noisy_regime_step.us": (("sampling.noisy_regime_step",),
                                          us("sampling.noisy_regime_step"), "us"),
        "sampling.test_fail_frac": (("sampling.variance_report",),
                                    _ratio(cnt.get("failed_reports", 0), cnt.get("reports", 0)),
                                    "ratio"),
        "sampling.redraw_frac": (("core.draw_batch", "sampling.variance_report"),
                                 _ratio(cnt.get("redraws", 0), cnt.get("draws", 0)), "ratio"),
        "sampling.same_size_redraw_frac": (("core.draw_batch", "sampling.variance_report"),
                                           _ratio(cnt.get("same_size_redraws", 0),
                                                  cnt.get("draws", 0)), "ratio"),
        "sampling.redraw_ege_frac": (("core.draw_batch", "sampling.variance_report"),
                                     _ratio(cnt.get("redraw_units", 0), cnt.get("draw_units", 0)),
                                     "ratio"),
        "sampling.noisy_engaged_frac": (("sampling.noisy_regime_step",),
                                        _ratio(cnt.get("noisy_engaged", 0),
                                               cnt.get("noisy_calls", 0)), "ratio"),
        "data.parse_s": (("data.parse_libsvm",), setup_s("data.parse_libsvm"), "s"),
        "data.parse_rows_per_s": (("data.parse_libsvm",), _median(parse_rates), "rows/s"),
        "data.convert_s": (("data.csv_to_libsvm",), setup_s("data.csv_to_libsvm"), "s"),
        "data.normalize_ms": (("data.minmax_normalize",),
                              1e3 * setup_s("data.minmax_normalize"), "ms"),
        "harness.compute_G_ms": (("harness.compute_G",), 1e3 * setup_s("harness.compute_G"), "ms"),
        "theory.gradient_moments_ms": (("theory.gradient_moments",),
                                       1e3 * setup_s("theory.gradient_moments"), "ms"),
        "harness.regrid_ms": (("harness.regrid",), us("harness.regrid") / 1e3, "ms"),
        "harness.write_ms": (("harness.write",),
                             tot["harness.write"]["total_us"] / 1e3 / P
                             if "harness.write" in tot else 0.0, "ms"),
        "harness.bytes_written": ((), sum(p[3] for p in passes) / P, "bytes"),
        **{f"{m}.share": ((), _ratio(self_by_module.get(m, 0.0) / 1e6, wall), "ratio") for m in MODULES},
        "trace.overhead_frac": ((), _ratio(wall / P, _median(untraced_walls)) - 1.0, "ratio"),
    }
    have = set(installed)
    if have.intersection(drivers):
        have.add("optimizer.driver")
    return {name: (value, unit) for name, (needs, value, unit) in spec.items()
            if have.issuperset(needs)}
