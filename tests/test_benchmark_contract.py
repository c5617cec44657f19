"""The benchmark's traced pass still reports every per-layer metric.

`benchmarks/spans.py` wraps the library's entry points by name and leaves
out the metrics of any it cannot find, so a renamed or deleted entry point
silently drops a metric that `BENCHMARK.json` declares.  This test runs the
tracer around one short run of each driver and checks the metric set, that
every value is finite and JSON-safe, and that the wrapped calls are counted
once each.
"""

import importlib.util
import json
import math
import types
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import trish
from trish import data, harness, optimizer, sampling, theory
from trish.models import LogisticModel, MlpModel
from trish.optimizer import HyperParams
from trish.theory import SyntheticQuadratic

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingQuadratic(SyntheticQuadratic):
    """Counts its gradient evaluations: one per drawn batch."""

    evaluations = 0

    def component_gradients(self, indices, x):
        self.evaluations += 1
        return super().component_gradients(indices, x)


def test_traced_pass_reports_every_declared_layer_metric():
    spans = load_spans()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    rng = np.random.default_rng(0)
    problem = CountingQuadratic(diag=[0.5, 1.0], offsets=rng.normal(size=(8, 2)))
    params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
    lib = types.SimpleNamespace(np=np, data=data, harness=harness, optimizer=optimizer,
                                sampling=sampling, theory=theory)
    tracer = spans.Tracer()
    spans.instrument(tracer, lib, [problem])
    try:
        t0 = perf_counter()
        _, trish_records = optimizer.run_trish(problem, np.ones(2), params, 2, 10.0,
                                               np.random.default_rng(1))
        _, as_records = optimizer.run_trish_as(problem, np.ones(2), params, 2, 10.0,
                                               np.random.default_rng(2))
        _, sg_records = optimizer.run_sg(problem, np.ones(2), 0.1, 2, 10.0,
                                         np.random.default_rng(3))
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert optimizer.run_trish is trish.run_trish  # every original is back
    # The one target absent today; any other name here is a renamed entry point.
    assert sorted(tracer.missing) == ["trish.optimizer.variance_report"]

    agg = tracer.aggregate()
    metrics = spans.layer_metrics([(agg, dict(tracer.counters), wall, 0)], [], [wall],
                                  set(tracer.layers))
    assert sorted(set(declared) - set(metrics)) == []
    assert all(math.isfinite(metrics[name][0]) for name in declared)
    json.dumps({k: v for k, (v, _) in metrics.items()}, allow_nan=False)

    draws = problem.evaluations
    assert len(trish_records) + len(sg_records) + len(as_records) < draws  # redraws happened
    assert agg["core.draw_batch"]["calls"] == draws == agg["core.sampled_gradient"]["calls"]
    assert metrics["core.draw_batch.calls"][0] == draws
    assert agg["optimizer.step"]["calls"] == len(trish_records) + len(as_records)
    assert metrics["optimizer.iters"][0] == (len(trish_records) + len(as_records)
                                             + len(sg_records))


@pytest.mark.parametrize("model", ["logistic", "mlp_regressor"])
def test_traced_grid_counts_every_telemetry_block(model):
    """`run_grid` must reach the held-out metric through the harness's module
    attributes, which the tracer replaces: a metric bound at import time
    runs unwrapped and `models.test_metric.calls` reads 0."""
    spans = load_spans()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    if model == "logistic":
        y = np.where(X[:, 0] >= 0.0, 1.0, -1.0)
        problem = LogisticModel(X[:40], y[:40])
    else:
        y = rng.random(60)
        problem = MlpModel.regressor(X[:40], y[:40])
    config = harness.ExperimentConfig(model=model, algorithm="trish", alphas=(0.1,),
                                      gamma1_multipliers=(4.0,), gamma2_multipliers=(1.0,),
                                      reps=1, budget_epochs=40.0)
    lib = types.SimpleNamespace(np=np, data=data, harness=harness, optimizer=optimizer,
                                sampling=sampling, theory=theory)
    tracer = spans.Tracer()
    spans.instrument(tracer, lib, [problem])
    try:
        [cell] = harness.run_grid(config, problem=problem, test_features=X[40:],
                                  test_labels=y[40:], G=1.0)
    finally:
        tracer.uninstall()
    blocks = -(-cell.curve_ege.size // optimizer.TELEMETRY_BLOCK)  # one run: its records
    calls = tracer.aggregate().get("models.test_metric", {"calls": 0})["calls"]
    assert calls == blocks > 1


def test_traced_grid_counts_calibration_and_runs():
    """`run_grid` calibrates G once and calls `_run_once` once per (cell, rep);
    the tracer finds both by name, so a renamed or inlined one drops a layer."""
    spans = load_spans()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = np.where(X[:, 0] >= 0.0, 1.0, -1.0)
    config = harness.ExperimentConfig(model="logistic", algorithm="trish", alphas=(0.1, 1.0),
                                      gamma1_multipliers=(4.0,), gamma2_multipliers=(1.0,),
                                      reps=2)
    lib = types.SimpleNamespace(np=np, data=data, harness=harness, optimizer=optimizer,
                                sampling=sampling, theory=theory)
    tracer = spans.Tracer()
    spans.instrument(tracer, lib)
    try:
        cells = harness.run_grid(config, problem=LogisticModel(X[:40], y[:40]),
                                 test_features=X[40:], test_labels=y[40:], G=None)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert len(cells) == 2
    assert agg["harness.compute_G"]["calls"] == 1
    assert agg["harness.run"]["calls"] == 4
