#!/usr/bin/env python3
"""Benchmark of the grid protocol and the theory checks.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload a1a_grid --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all

`--trace 0` measures the end-to-end metrics with nothing wrapped but a
per-run timer, and rescales every time to a nominal host speed gauged by
a reference unit run after each run (see reference.py); `--trace 1` wraps
the layer entry points and reports the per-layer metrics instead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See benchmarks/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from statistics import median
import types
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a host of few shared vCPUs, a second BLAS thread mostly
# measures how busy the neighbours are.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_BLOCK_REPEATS = 3        # a set-up block repeats until both minimums are met
SETUP_BLOCK_SECONDS = 1.0
SETUP_REFS = 3                 # reference units after each untraced set-up
MIN_TRACED_PASSES = 2
FULL_PROTOCOL = (60, 50)       # cells x repetitions per algorithm
TAIL_BEYOND = 10               # runs a tail percentile must leave above it


def load_library():
    """Import trish from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "trish" / "__init__.py").is_file():
        sys.exit(f"benchmark: no library sources at {src / 'trish'}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import numpy as np
    import trish
    import trish.data
    import trish.harness
    import trish.optimizer
    import trish.sampling
    import trish.theory
    if Path(trish.__file__).resolve().parent != (src / "trish").resolve():
        sys.exit(f"benchmark: imported trish from {trish.__file__}, not {src}")
    return types.SimpleNamespace(np=np, data=trish.data,
                                 harness=trish.harness, optimizer=trish.optimizer,
                                 sampling=trish.sampling, theory=trish.theory)


class RunTimer:
    """Times every run: one (cell, repetition) pair or one theory repetition.

    Wrapping is the only instrumentation of the untraced measurement: two
    clock reads and one list append per run, and with `gauge` one reference
    unit after the run, outside its timing.
    """

    def __init__(self, gauge: reference.Gauge | None = None):
        self.algorithm: str | None = None
        self.gauge = gauge
        self.samples: list[tuple[str, float, object]] = []
        self.refs: list[float] = []    # refs[i]: reference unit after sample i
        self.ref_spent = 0.0           # wall time of the units, untimed copies too
        self._restore: list[tuple[object, str, object]] = []

    def timed(self, fn, algorithm: str | None = None):
        def run(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.samples.append((algorithm or self.algorithm, perf_counter() - t0, result))
            if self.gauge is not None:
                t1 = perf_counter()
                self.refs.append(self.gauge.unit())
                self.ref_spent += perf_counter() - t1
            return result
        return run

    def clear(self) -> None:
        self.samples.clear()
        self.refs.clear()
        self.ref_spent = 0.0

    def call(self, algorithm: str, fn, *args, **kwargs):
        return self.timed(fn, algorithm)(*args, **kwargs)

    def install(self, module, preferred: str) -> None:
        """Time `module.preferred`, or failing that every driver the module imports."""
        names = [preferred] if callable(getattr(module, preferred, None)) else [
            name for name, obj in vars(module).items()
            if name.startswith("run") and getattr(obj, "__module__", "") == "trish.optimizer"]
        if not names:
            sys.exit(f"benchmark: no run entry point found in {module.__name__}")
        for name in names:
            original = getattr(module, name)
            self._restore.append((module, name, original))
            setattr(module, name, self.timed(original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()


def machine_record(np) -> dict:
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(np), "commit": git_commit()}


def blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def tail(values, per_pass: int):
    """Nearest-rank percentile 1 - TAIL_BEYOND/per_pass, fixed per workload.

    `values` holds one time per distinct run of a pass (its median over the
    passes), so exactly TAIL_BEYOND runs lie beyond this percentile.
    """
    q = 1.0 - TAIL_BEYOND / per_pass
    values = sorted(values)
    return values[math.ceil(q * len(values)) - 1], 100.0 * q


def measure(lib, name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    np = lib.np
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](lib, seed, workdir)
        if trace:
            # Extra repetitions only steady the end-to-end means; a traced
            # run makes three passes, and one repetition per cell keeps the
            # slowest workload well inside the time a run may take.
            workload.reps = {}
        info = workload.generate(np.random.default_rng(np.random.SeedSequence(seed)))
        print(f"workload {name}, seed {seed}: inputs {info}")
        timer = RunTimer(gauge=None if trace else reference.Gauge(name))
        if name == "quad_theory":
            timer.install(lib.theory, "run_trish")
        else:
            timer.install(lib.harness, "_run_once")
        tracer = spans.Tracer() if trace else None
        try:
            return _measure(lib, workload, timer, tracer, seconds, workdir)
        finally:
            timer.uninstall()
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(lib, workload, timer, tracer, seconds, workdir) -> dict:
    import spans
    import workloads

    failures: list[str] = []
    setup_blocks, setup_traces, fingerprints = [], [], set()

    def setup_block():
        """Time a block of set-ups; the block mean smooths the host's fast and
        slow phases, which alternate faster than a block lasts.  Untraced,
        reference units between the set-ups rescale the block's mean."""
        times, refs = [], []
        while len(times) < SETUP_BLOCK_REPEATS or sum(times) < SETUP_BLOCK_SECONDS:
            if tracer is not None:
                tracer.reset()
                spans.instrument(tracer, lib)
            t0 = perf_counter()
            state = workload.setup()
            times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
                setup_traces.append((tracer.aggregate(), dict(tracer.counters)))
            else:
                # Up to SETUP_REFS units per set-up, but no more than a quarter
                # of the set-up time, so that fast set-ups stay most of a block.
                while (len(refs) < SETUP_REFS * len(times)
                       and sum(refs) < 0.25 * sum(times)):
                    refs.append(timer.gauge.unit())
            fingerprints.add(repr(state.get("G", state.get("bounds"))))
        scale = timer.gauge.factor(refs) if refs else 1.0
        setup_blocks.append(scale * sum(times) / len(times))
        return state

    state = setup_block()
    workload.warm_up(state)
    timer.clear()
    problems = [state[k] for k in ("problem", "plateau", "vanishing") if k in state]

    passes, traced, untraced_walls, raw_walls, raw_runs = [], [], [], [], []
    measured = 0.0
    while True:
        # Traced and untraced passes alternate, starting traced, so a slow
        # drift of the host cancels out of the tracing overhead.
        traced_pass = tracer is not None and len(passes) % 2 == 0
        out_dir = workdir / f"pass{len(passes)}"
        if traced_pass:
            tracer.reset()
            spans.instrument(tracer, lib, problems)
        t0 = perf_counter()
        results = workload.run_pass(state, timer, out_dir)
        wall = perf_counter() - t0
        measured += wall
        if traced_pass:
            tracer.uninstall()
            agg, counters = tracer.aggregate(), dict(tracer.counters)
            tracer.reset()
        if timer.gauge is not None:
            # The pass's wall time without its reference units, and every
            # time rescaled to the nominal host; the wall by the runs' own
            # local scales, weighted by their durations.
            raw_walls.append(wall - timer.ref_spent)
            raw_runs.append(sum(s[1] for s in timer.samples))
            times = timer.gauge.rescale([s[1] for s in timer.samples], timer.refs)
            wall = raw_walls[-1] * sum(times) / raw_runs[-1]
            timer.samples[:] = [(a, t, r) for (a, _, r), t in zip(timer.samples, times)]
        outcome = workload.check_pass(state, timer.samples, results, out_dir)
        timer.clear()
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced_pass:
            traced.append((agg, counters, wall, outcome.bytes_written))
        else:
            untraced_walls.append(wall)
        passes.append({"traced": traced_pass, "wall": wall, "outcome": outcome})
        setup_block()  # spreads set-up timing over the whole measurement
        enough = tracer is None or (len(traced) >= MIN_TRACED_PASSES and untraced_walls)
        if measured >= seconds and enough:
            break

    # Repeats at a fixed seed must agree exactly.
    if len(fingerprints) != 1:
        failures.append(f"set-up is not deterministic: {sorted(fingerprints)}")
    first = passes[0]["outcome"]
    for i, p in enumerate(passes[1:], start=1):
        o = p["outcome"]
        if o.digest != first.digest or o.quality != first.quality:
            o.failures.append(f"pass {i} outputs differ from pass 0")
    signatures = {json.dumps([{k: v["calls"] for k, v in sorted(t[0].items())},
                              sorted(t[1].items())]) for t in traced}
    if len(signatures) > 1:
        failures.append("traced passes counted different work at the same seed")

    attempted = failed = 0
    for p in passes:
        o = p["outcome"]
        bad_pass = bool(o.failures)
        attempted += len(o.runs)
        failed += sum(1 for r in o.runs if bad_pass or r[2])
        failures.extend(o.failures)
        failures.extend(f"{r[0]} run: {'; '.join(r[2])}" for r in o.runs if r[2])

    print(f"outputs digest of pass 0 (compared with all {len(passes)} passes): {first.digest}")
    for key, (value, unit) in sorted(first.quality.items()):
        print(f"quality {key} = {value!r} {unit} (exact at a fixed seed)")
    print(f"runs_failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for message in failures[:20]:
        print(f"CHECK FAILED: {message}")

    if tracer is None:
        print(f"measured before rescaling: median pass {median(raw_walls):.4g} s, "
              f"of which runs {median(raw_runs):.4g} s")
        metrics = end_to_end(passes, setup_blocks,
                             project=isinstance(workload, workloads.GridWorkload))
    else:
        metrics = spans.layer_metrics(traced, setup_traces, untraced_walls,
                                      set(tracer.layers))
        if tracer.missing:
            print(f"absent entry points (their layer metrics are left out): "
                  f"{', '.join(sorted(tracer.missing))}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return {"correct": not failures and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def end_to_end(passes, setup_blocks, project: bool) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; `project` prints the full-protocol projection (grids)."""
    from workloads import ALGORITHMS

    pass_runs = passes[0]["outcome"].runs
    per_pass = {a: sum(1 for r in pass_runs if r[0] == a) for a in ALGORITHMS}
    metrics = {"setup_s": (median(setup_blocks), "s"),
               "runs_per_s": (len(pass_runs) / median([p["wall"] for p in passes]), "1/s")}
    print(f"setup_s: median of {len(setup_blocks)} set-up block means; runs_per_s: {len(pass_runs)} runs "
          f"per pass over the median of {len(passes)} pass wall times")
    projected = 0.0
    for alg in ALGORITHMS:
        # Each run's median over passes damps a pass-local stall; the mean
        # over runs keeps every cell's weight when cells differ in cost.
        by_pass = [[r[1] for r in p["outcome"].runs if r[0] == alg] for p in passes]
        typical = [median(times) for times in zip(*by_pass)]
        metrics[f"run_ms.{alg}"] = (1e3 * sum(typical) / len(typical), "ms")
        projected += metrics[f"run_ms.{alg}"][0] * FULL_PROTOCOL[0] * FULL_PROTOCOL[1] / 1e3
        value, pct = tail([1e3 * t for t in typical], per_pass[alg])
        metrics[f"run_ms_tail.{alg}"] = (value, "ms")
        print(f"run_ms.{alg}: mean over {per_pass[alg]} runs of each run's median over "
              f"{len(passes)} passes; run_ms_tail.{alg}: p{pct:.1f} of those "
              f"{len(typical)} medians")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if project:
        print(f"projected full protocol ({FULL_PROTOCOL[0]} cells x {FULL_PROTOCOL[1]} reps "
              f"x {len(ALGORITHMS)} algorithms) from run_ms.*: {projected / 60:.2f} min "
              f"(information only)")
    return metrics


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited with code {proc.returncode}")
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = load_library()
    if args.workload == "all":
        return run_all(args)
    print("machine: " + json.dumps(machine_record(lib.np)))
    result = measure(lib, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
