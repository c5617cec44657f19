"""Benchmark harness: G calibration, parameter grids, repeated seeded runs.

A grid experiment measures the mean norm G of one epoch of SG gradients,
builds 60 parameter triplets from it, runs every triplet `reps` times with
per-cell deterministic seeds, and aggregates final metrics, final batch
sizes, step-case frequencies and EGE-indexed mean curves.  Results land in
``grid.csv`` plus one curve file per cell; identical config and seed give
byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import FiniteSumProblem, _check_real, check_count, check_positive
from .data import (check_train_fraction, chronological_split, minmax_normalize,
                   parse_libsvm)
from .models import (LogisticModel, MlpModel, _dense, default_x0,
                     testing_accuracy, testing_loss)
from .optimizer import (HyperParams, StepCase, run_sg, run_trish,
                        run_trish_as)

_ALGORITHMS = ("trish", "trish_as", "sg")
# Model name -> (training-problem constructor, classifies).  Classifiers score held-out
# accuracy (best cell: max); regressors held-out MSE (min), and `normalize` scales their targets.
_MODELS = {"logistic": (LogisticModel, True),
           "mlp_classifier": (MlpModel.classifier, True),
           "mlp_regressor": (MlpModel.regressor, False)}

DEFAULT_ALPHAS = (0.1, 10.0**-0.5, 1.0, 10.0**0.5, 10.0)
DEFAULT_GAMMA1_MULTIPLIERS = (4.0, 8.0, 16.0, 32.0)
DEFAULT_GAMMA2_MULTIPLIERS = (0.5, 1.0, 2.0)
FIXED_BATCH = 64  # batch of G calibration and of fixed-batch runs, capped at N

GRID_CSV_HEADER = ("alpha,gamma1,gamma2,algorithm,mean_metric,std_metric,"
                   "mean_final_batch,case1_frac,case2_frac,case3_frac")
CURVE_CSV_HEADER = "ege,train_loss,test_metric"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a grid experiment needs, JSON-loadable.  Adaptive runs take
    theta, nu and r from `HyperParams` and s0 from `initial_sample_size`;
    fixed-batch runs and G calibration take `FIXED_BATCH`."""

    model: str
    algorithm: str
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    data_path: Optional[str] = None          # single file, split chronologically
    train_fraction: Optional[float] = None   # data_path's training share; None is 0.7
    normalize: bool = False                  # joint min-max over all rows, regression targets too
    positive_label: Optional[float] = None   # mlp_classifier targets: 1 iff label equals this
    alphas: tuple = DEFAULT_ALPHAS
    gamma1_multipliers: tuple = DEFAULT_GAMMA1_MULTIPLIERS
    gamma2_multipliers: tuple = DEFAULT_GAMMA2_MULTIPLIERS
    reps: int = 50
    seed: int = 0
    budget_epochs: float = 1.0
    g_value: Optional[float] = None          # skip calibration, use this G
    output_dir: Optional[str] = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {tuple(_MODELS)}, got {self.model!r}")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}")
        for axis in ("alphas", "gamma1_multipliers", "gamma2_multipliers"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"{axis} must be non-empty")
            for v in values:  # range and finiteness: HyperParams at G = 1 below
                _check_real(axis, v, finite=False)
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be true or false, got {self.normalize!r}")
        has_train, has_test = self.train_path is not None, self.test_path is not None
        if has_train != has_test:
            raise ValueError("train_path and test_path must be given together")
        if has_train and self.data_path is not None:
            raise ValueError("data_path excludes train_path and test_path")
        if self.train_fraction is not None and self.data_path is None:
            raise ValueError("train_fraction applies only to data_path")
        if self.positive_label is not None and self.model != "mlp_classifier":
            raise ValueError(f"positive_label applies only to mlp_classifier, "
                             f"not {self.model}")
        check_count("reps", self.reps)
        check_count("seed", self.seed, low=0)
        check_positive("budget_epochs", self.budget_epochs)
        if self.train_fraction is not None:
            check_train_fraction(self.train_fraction)
        if self.g_value is not None:
            check_positive("g_value", self.g_value)
        # every cell at G = 1, before any data is read (run_grid rechecks at G)
        for cell in build_grid(1.0, self.alphas, self.gamma1_multipliers,
                               self.gamma2_multipliers):
            HyperParams(*cell)


def load_config(path) -> ExperimentConfig:
    """Read a config JSON, rejecting keys the schema does not define."""
    with open(path) as fh:
        raw = json.load(fh)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("alphas", "gamma1_multipliers", "gamma2_multipliers"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return ExperimentConfig(**raw)


def initial_sample_size(N: int) -> int:
    """Adaptive starting batch size: ceil(N / 100), clamped to [2, 32], for N >= 2."""
    check_count("N", N, low=2)
    return min(32, max(2, math.ceil(N / 100)))


def compute_G(problem: FiniteSumProblem, rng: np.random.Generator) -> float:
    """Average stochastic-gradient norm over one epoch of SG.

    SG runs with steplength 0.1 and the grid's fixed batch `FIXED_BATCH`
    (capped at N); the value calibrates the gamma grids to the gradient scale.
    """
    init_rng, batch_rng = rng.spawn(2)
    batch = min(FIXED_BATCH, problem.N)
    x0 = default_x0(problem, init_rng)
    _, records = run_sg(problem, x0, alpha=0.1, batch_size=batch,
                        budget_epochs=1.0, rng=batch_rng)
    return float(np.mean([rec.grad_norm for rec in records]))


def calibration_rng(seed: int) -> np.random.Generator:
    """The stream `run_grid` calibrates G with at `seed` (`trish calibrate-g` uses it too)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(999,)))


def build_grid(G: float, alphas=DEFAULT_ALPHAS,
               gamma1_multipliers=DEFAULT_GAMMA1_MULTIPLIERS,
               gamma2_multipliers=DEFAULT_GAMMA2_MULTIPLIERS) -> list[tuple[float, float, float]]:
    """Cartesian parameter grid, alpha-major then gamma1 then gamma2.

    The default multipliers give the canonical 5 x 4 x 3 = 60 triplets
    (alpha, m1/G, m2/G).  G must be a positive finite number.
    """
    check_positive("G", G)
    return [(float(a), float(m1 / G), float(m2 / G))
            for a in alphas
            for m1 in gamma1_multipliers
            for m2 in gamma2_multipliers]


@dataclass
class GridCellResult:
    """Aggregated outcome of `reps` runs at one parameter triplet."""

    alpha: float
    gamma1: float
    gamma2: float
    algorithm: str
    model: str                   # picks the metric's direction, see `_best`
    mean_metric: float
    std_metric: float
    mean_final_batch: float
    case_fracs: tuple[float, float, float]
    curve_ege: np.ndarray
    curve_train_loss: np.ndarray
    curve_test_metric: np.ndarray

    @property
    def triplet(self) -> tuple[float, float, float]:
        return (self.alpha, self.gamma1, self.gamma2)


def _case_fractions(records) -> tuple[float, float, float]:
    cased = [rec.case for rec in records if rec.case is not None]
    return tuple(cased.count(case) / len(cased) if cased else 0.0 for case in StepCase)


def load_problem(config: ExperimentConfig):
    """Build the training problem and held-out arrays from the config paths.
    `normalize` is one joint min-max over all rows of either source."""
    if config.data_path is not None:
        with open(config.data_path) as fh:
            full = parse_libsvm(fh)
        fraction = 0.7 if config.train_fraction is None else config.train_fraction
        (X_train, y_train), (X_test, y_test) = chronological_split(
            full.features, full.labels, fraction)
    elif config.train_path is not None:  # ExperimentConfig pairs it with test_path
        with open(config.train_path) as fh:
            train = parse_libsvm(fh)
        test = train  # one file on both sides (calibrate-g) is parsed once
        if config.test_path != config.train_path:
            with open(config.test_path) as fh:
                test = parse_libsvm(fh, n_features=train.n)
        X_train, y_train = train.features, train.labels
        X_test, y_test = test.features, test.labels
        X_train.resize(train.N, test.n)  # the test file may use more columns
    else:
        raise ValueError("config needs data_path or train_path+test_path")
    make, classifies = _MODELS[config.model]
    if config.normalize:  # regression targets are one more column; class labels stay
        k = y_train.size
        X = np.vstack([_dense(X_train), _dense(X_test)])
        if classifies:
            X = minmax_normalize(X)
        else:
            X = minmax_normalize(np.column_stack([X, np.concatenate([y_train, y_test])]))
            X, y_train, y_test = X[:, :-1], X[:k, -1], X[k:, -1]
        X_train, X_test = X[:k], X[k:]
    if config.positive_label is not None:  # set only for mlp_classifier
        y_train = (y_train == config.positive_label).astype(np.float64)
        y_test = (y_test == config.positive_label).astype(np.float64)
        if not y_train.any():  # NaN equals nothing
            raise ValueError(f"positive_label {config.positive_label!r} matches "
                             f"no training label")
    problem = make(X_train, y_train)
    return problem, (_dense(X_test) if isinstance(problem, MlpModel) else X_test), y_test


def _run_once(config, problem, params, seed_seq, metric_fn):
    init_rng, batch_rng = (np.random.default_rng(s) for s in seed_seq.spawn(2))
    x0 = default_x0(problem, init_rng)
    if config.algorithm == "trish_as":
        return run_trish_as(problem, x0, params, initial_sample_size(problem.N),
                            config.budget_epochs, batch_rng, metric_fn=metric_fn)
    batch = min(FIXED_BATCH, problem.N)
    if config.algorithm == "trish":
        return run_trish(problem, x0, params, batch, config.budget_epochs,
                         batch_rng, metric_fn=metric_fn)
    return run_sg(problem, x0, params.alpha, batch, config.budget_epochs,
                  batch_rng, metric_fn=metric_fn)


def _regrid_curves(rep_records):
    """Average per-rep curves on a shared EGE grid (linear interpolation)."""
    npoints = max(len(recs) for recs in rep_records)
    start = max(recs[0].ege for recs in rep_records)
    end = min(recs[-1].ege for recs in rep_records)
    grid = np.linspace(start, end, npoints)
    losses, metrics = [], []
    for recs in rep_records:
        ege = np.array([r.ege for r in recs])
        losses.append(np.interp(grid, ege, np.array([r.train_loss for r in recs])))
        metrics.append(np.interp(grid, ege, np.array([r.test_metric for r in recs])))
    return grid, np.mean(losses, axis=0), np.mean(metrics, axis=0)


def run_grid(config: ExperimentConfig, problem: FiniteSumProblem | None = None,
             test_features=None, test_labels=None,
             G: float | None = None) -> list[GridCellResult]:
    """Run the full parameter grid with `reps` seeded repetitions per cell.

    The problem and held-out data may be injected directly (bypassing file
    loading).  Per-run seeds derive from (algorithm, cell, rep), so results
    are reproducible and independent of execution order.  When
    `config.output_dir` is set, grid.csv and per-cell curve files are
    written there.
    """
    if problem is None:
        problem, test_features, test_labels = load_problem(config)
    # Looked up per call: benchmarks/spans.py wraps the module attributes.
    metric = testing_accuracy if _MODELS[config.model][1] else testing_loss
    metric_fn = lambda xs: metric(problem, xs, test_features, test_labels)

    if G is None:
        G = config.g_value
    if G is None:
        G = compute_G(problem, calibration_rng(config.seed))
    grid = build_grid(G, config.alphas, config.gamma1_multipliers,
                      config.gamma2_multipliers)

    alg_code = _ALGORITHMS.index(config.algorithm)
    results = []
    for ci, (alpha, gamma1, gamma2) in enumerate(grid):
        params = HyperParams(alpha, gamma1, gamma2)
        seqs = [np.random.SeedSequence(entropy=config.seed, spawn_key=(alg_code, ci, rep))
                for rep in range(config.reps)]
        rep_records = [_run_once(config, problem, params, seq, metric_fn)[1] for seq in seqs]
        curve_ege, curve_loss, curve_metric = _regrid_curves(rep_records)
        finals = np.array([recs[-1].test_metric for recs in rep_records])
        case_columns = zip(*(_case_fractions(recs) for recs in rep_records))
        results.append(GridCellResult(
            alpha=alpha, gamma1=gamma1, gamma2=gamma2,
            algorithm=config.algorithm, model=config.model,
            mean_metric=float(finals.mean()),
            std_metric=float(finals.std(ddof=1)) if config.reps > 1 else 0.0,
            mean_final_batch=float(np.mean([recs[-1].batch_size for recs in rep_records])),
            case_fracs=tuple(float(np.mean(column)) for column in case_columns),
            curve_ege=curve_ege, curve_train_loss=curve_loss,
            curve_test_metric=curve_metric))

    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_grid_csv(results, out / "grid.csv")
        write_curves(results, out / "curves")
    return results


def _fmt(value: float) -> str:
    return repr(float(value))


def write_grid_csv(results: list[GridCellResult], path) -> None:
    """One row per grid cell; floats in shortest round-trip form."""
    lines = [GRID_CSV_HEADER]
    for r in results:
        lines.append(",".join([
            _fmt(r.alpha), _fmt(r.gamma1), _fmt(r.gamma2), r.algorithm,
            _fmt(r.mean_metric), _fmt(r.std_metric), _fmt(r.mean_final_batch),
            _fmt(r.case_fracs[0]), _fmt(r.case_fracs[1]), _fmt(r.case_fracs[2])]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_curves(results: list[GridCellResult], directory) -> None:
    """EGE-indexed mean curves, one file per cell in grid order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for ci, r in enumerate(results):
        lines = [CURVE_CSV_HEADER]
        for e, l, m in zip(r.curve_ege, r.curve_train_loss, r.curve_test_metric):
            lines.append(f"{_fmt(e)},{_fmt(l)},{_fmt(m)}")
        (directory / f"{r.algorithm}_{ci:03d}.csv").write_text("\n".join(lines) + "\n")


def _best(cells: list[GridCellResult]) -> GridCellResult:
    """The cell with the highest held-out accuracy (classifiers) or lowest MSE (regressors),
    the earliest on ties.  Cells of more than one model (or none) raise ValueError."""
    models = {r.model for r in cells}
    if len(models) != 1:
        raise ValueError(f"cells must share one model, got {sorted(models)}")
    return (max if _MODELS[models.pop()][1] else min)(cells, key=lambda r: r.mean_metric)


def summarize_best(results: list[GridCellResult]
                   ) -> list[tuple[str, GridCellResult, GridCellResult]]:
    """Two-row comparison at each algorithm's best triplet (`_best`).

    Each row is (selected_by, trish_cell, trish_as_cell): row one holds the
    two algorithms' cells at the triplet where the fixed-batch algorithm
    scored best, row two at the triplet where the adaptive one did.  Results
    that mix models raise ValueError.
    """
    by_alg = {alg: [r for r in results if r.algorithm == alg] for alg in ("trish", "trish_as")}
    if not all(by_alg.values()):
        raise ValueError("need results for both trish and trish_as")
    lookup = {alg: {(r.model, r.triplet): r for r in cells} for alg, cells in by_alg.items()}
    rows = []
    for alg in by_alg:
        best = _best(by_alg[alg])
        cells = [best if a == alg else lookup[a].get((best.model, best.triplet)) for a in by_alg]
        if any(cell is None for cell in cells):
            raise ValueError("the two algorithms ran different grids or models")
        rows.append((alg, *cells))
    return rows
