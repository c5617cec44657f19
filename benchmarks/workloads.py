"""Seeded synthetic inputs shaped like the paper's datasets.

Every generator takes a ``numpy.random.Generator`` built from the benchmark's
``--seed`` and writes plain text files that the library then loads through
its public readers, so the program under test only ever sees generated
inputs.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np

# The population each workload samples from is fixed; `--seed` draws the
# rows and the noise.  So every seed gives a problem of the same difficulty,
# and run times differ between seeds by sampling noise, not by design.
_POPULATION = np.random.default_rng(20240421)

# a1a: 14 categorical attributes one-hot encoded into 123 binary features.
A1A_GROUP_SIZES = (5, 8, 5, 16, 5, 7, 14, 6, 5, 2, 5, 5, 5, 35)
A1A_GROUP_PROBS = [_POPULATION.dirichlet(np.full(k, 0.7)) for k in A1A_GROUP_SIZES]
A1A_WEIGHTS = _POPULATION.normal(size=sum(A1A_GROUP_SIZES) + 1)  # 1-based
A1A_TRAIN_ROWS = 1605
A1A_TEST_ROWS = 30956
A1A_MISSING_PROB = 0.005       # chance an attribute is absent from a row
A1A_MARGIN_STD = 2.5           # logit scale of the label model
A1A_POSITIVE_RATE = 0.24       # share of rows with a positive margin

# air: hourly sensor readings; label first, 7 features, -200 marks a
# missing label.  9357 rows of which 366 lack the label leaves 8991.
AIR_ROWS = 9357
AIR_MISSING_LABELS = 366
AIR_FEATURES = 7
AIR_MISSING_VALUE = -200.0
AIR_GAINS = np.array([1.2, 0.9, 1.1, 0.7, -0.8])  # sensor response to the level


def _one_hot_rows(rng: np.random.Generator, rows: int) -> list[list[int]]:
    """1-based active feature indices per row, one per present attribute."""
    columns = []
    offset = 0
    for probs in A1A_GROUP_PROBS:
        pick = rng.choice(probs.size, size=rows, p=probs) + offset + 1
        present = rng.random(rows) >= A1A_MISSING_PROB
        columns.append(np.where(present, pick, 0))
        offset += probs.size
    active = np.stack(columns, axis=1)
    return [[int(j) for j in row if j] for row in active]


def write_a1a_like(rng: np.random.Generator, train_path, test_path) -> dict:
    """Sparse binary logistic problem in LIBSVM text, +-1 labels.

    Labels follow a logistic model whose margins are rescaled to a fixed
    spread and shifted to a fixed positive rate.  Returns the shape and the
    error of the majority-class predictor on the test rows.
    """
    rows = _one_hot_rows(rng, A1A_TRAIN_ROWS + A1A_TEST_ROWS)
    raw = np.array([A1A_WEIGHTS[r].sum() for r in rows])
    raw = (raw - raw.mean()) / raw.std() * A1A_MARGIN_STD
    margin = raw - np.quantile(raw, 1.0 - A1A_POSITIVE_RATE)
    labels = np.where(rng.random(margin.size) < 1.0 / (1.0 + np.exp(-margin)), 1, -1)

    def dump(path, lo, hi):
        with open(path, "w") as fh:
            fh.writelines(f"{labels[i]:+d} " + " ".join(f"{j}:1" for j in rows[i]) + "\n"
                          for i in range(lo, hi))

    dump(train_path, 0, A1A_TRAIN_ROWS)
    dump(test_path, A1A_TRAIN_ROWS, A1A_TRAIN_ROWS + A1A_TEST_ROWS)
    nnz = sum(len(r) for r in rows)
    test_labels = labels[A1A_TRAIN_ROWS:]
    return {"n": len(A1A_WEIGHTS) - 1, "nnz_per_row": nnz / len(rows),
            "test_majority_error": float(min(np.mean(test_labels == 1),
                                             np.mean(test_labels == -1)))}


def write_air_like(rng: np.random.Generator, csv_path) -> dict:
    """Dense hourly sensor series as CSV: label (benzene) first, 7 features.

    A latent pollution level follows a short-memory AR(1) process plus a
    daily cycle, squashed by tanh so the column ranges that min-max
    normalization sees are the same for every seed.  Five sensors read the
    level linearly, temperature and humidity carry daily and seasonal
    cycles, and the label grows convexly in the level; all noise is bounded.
    Randomly chosen rows carry the missing-value marker instead of a label.
    """
    t = np.arange(AIR_ROWS)
    daily = np.sin(2 * np.pi * t / 24.0)
    seasonal = np.sin(2 * np.pi * t / (24.0 * 365.0))
    shocks = rng.uniform(-1.0, 1.0, size=AIR_ROWS)
    ar = np.empty(AIR_ROWS)
    ar[0] = shocks[0]
    for i in range(1, AIR_ROWS):
        ar[i] = 0.7 * ar[i - 1] + shocks[i]
    level = np.tanh(0.6 * ar + 0.8 * daily)

    def noise(scale, size):
        return rng.uniform(-scale, scale, size=size)

    sensors = 2.0 + level[:, None] * AIR_GAINS + noise(0.3, (AIR_ROWS, AIR_GAINS.size))
    temperature = 15.0 + 10.0 * seasonal + 4.0 * daily + noise(1.0, AIR_ROWS)
    humidity = 50.0 - 15.0 * seasonal - 8.0 * daily + noise(3.0, AIR_ROWS)
    features = np.column_stack([sensors, temperature, humidity])
    label = np.exp(1.5 * level) + noise(0.1, AIR_ROWS)
    missing = rng.choice(AIR_ROWS, size=AIR_MISSING_LABELS, replace=False)
    label[missing] = AIR_MISSING_VALUE
    with open(csv_path, "w") as fh:
        for y, row in zip(label, features):
            fh.write(",".join(f"{v:.6g}" for v in (y, *row)) + "\n")
    return {"rows": AIR_ROWS, "kept_rows": AIR_ROWS - AIR_MISSING_LABELS,
            "n_features": AIR_FEATURES}


def quadratic_inputs(rng: np.random.Generator) -> dict:
    """Components of the two criterion-6 quadratics (8 components, n = 2).

    ``offsets`` give the additive-noise problem of the plateau check;
    ``scales`` the multiplicative-noise problem of the vanishing-gap check.
    """
    return {"offsets": 0.1 * rng.normal(size=(8, 2)),
            "scales": 1.0 + 0.1 * np.sort(rng.uniform(-1.0, 1.0, size=8))}


# ---------------------------------------------------------------------------
# Workloads: generate inputs, set the program up, run one protocol pass, and
# check the pass's outputs.  The library is always reached through module
# attributes (``harness.run_grid``, ``optimizer.run_sg``, ...) looked up at
# call time, so wrappers installed by the tracer see every call.

ALGORITHMS = ("trish", "trish_as", "sg")
GRID_REPS = 1                  # repetitions per cell in one pass, unless
                               # a workload's `reps` says otherwise
QUAD_EXTRA_REPS = 100          # trish_as and sg runs per pass on quad_theory
QUAD_EXTRA_HORIZON = 500       # SG iterations of each of those runs
THM2_REPS = 50                 # as in `trish verify-theory --module thm2`
THEORY_HORIZON = 2000          # iterations of each fixed-batch theory run


def tree_digest(directory: Path) -> str:
    """SHA-256 over the relative names and bytes of every file below."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_records(records, N: int, budget: float, stepped: bool,
                  accuracy: bool) -> list[str]:
    """Output checks of one run's per-iteration records; returns failures."""
    problems = []
    if not records:
        return ["no iterations recorded"]
    values = [v for r in records for v in (r.grad_norm, r.ege, r.train_loss, r.test_metric)
              if v is not None]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite metric")
    if accuracy and not all(0.0 <= r.test_metric <= 1.0 for r in records):
        problems.append("accuracy outside [0, 1]")
    sizes = [r.batch_size for r in records]
    if any(b < a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1 or sizes[-1] > N:
        problems.append("batch size decreased or left [1, N]")
    if not records[-1].ege >= budget:
        problems.append("final EGE below the budget")
    if stepped and any(r.case is None for r in records):
        problems.append("iteration without a step case")
    return problems


@dataclasses.dataclass
class PassOutcome:
    """What one protocol pass produced, for checks and reporting."""

    runs: list            # per run: (algorithm, seconds, list of check failures)
    digest: str
    quality: dict         # name -> (value, unit)
    failures: list        # pass-level check failures
    bytes_written: int = 0


class GridWorkload:
    """A 60-cell grid for every algorithm on one generated dataset."""

    accuracy = False               # test metric is accuracy, else MSE
    unit = "mse"
    reps: dict[str, int] = {}      # repetitions per cell, by algorithm

    def __init__(self, trish, seed: int, workdir: Path):
        self.trish = trish
        self.seed = seed
        self.workdir = workdir

    def warm_up(self, state) -> None:
        """One cell per algorithm, so lazy imports and caches settle."""
        for alg in ALGORITHMS:
            cfg = dataclasses.replace(state["config"], algorithm=alg,
                                      alphas=state["config"].alphas[:1],
                                      gamma1_multipliers=(4.0,),
                                      gamma2_multipliers=(0.5,), output_dir=None)
            self.trish.harness.run_grid(cfg, problem=state["problem"],
                                        test_features=state["X_test"],
                                        test_labels=state["y_test"], G=state["G"])

    def _calibrate(self, config):
        problem, X_test, y_test = self.trish.harness.load_problem(config)
        g_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(999,)))
        G = self.trish.harness.compute_G(problem, g_rng)
        return {"config": config, "problem": problem, "X_test": X_test,
                "y_test": y_test, "G": G}

    def error(self, metric: float) -> float:
        return 1.0 - metric if self.accuracy else metric

    def trivial_error(self, y_test) -> float:
        if self.accuracy:
            return float(min(np.mean(y_test == 1.0), np.mean(y_test == -1.0)))
        return float(np.mean((y_test - y_test.mean()) ** 2))

    def run_pass(self, state, timer, out_dir: Path) -> dict:
        results = {}
        for alg in ALGORITHMS:
            timer.algorithm = alg
            cfg = dataclasses.replace(state["config"], algorithm=alg,
                                      reps=self.reps.get(alg, GRID_REPS),
                                      output_dir=str(out_dir / alg))
            results[alg] = self.trish.harness.run_grid(
                cfg, problem=state["problem"], test_features=state["X_test"],
                test_labels=state["y_test"], G=state["G"])
        return results

    def check_pass(self, state, samples, results, out_dir: Path) -> PassOutcome:
        N = state["problem"].N
        budget = state["config"].budget_epochs
        runs = []
        for alg, seconds, result in samples:
            fails = check_records(result[1], N, budget, alg != "sg", self.accuracy)
            runs.append([alg, seconds, fails])
        failures = []
        trivial = self.trivial_error(state["y_test"])
        quality = {"trivial_error": (trivial, self.unit)}
        for alg, cells in results.items():
            alg_runs = [r for r in runs if r[0] == alg]
            k = self.reps.get(alg, GRID_REPS)
            for ci, cell in enumerate(cells):
                bad = not math.isfinite(cell.mean_metric) or (
                    alg != "sg" and abs(sum(cell.case_fracs) - 1.0) > 1e-12)
                if bad:
                    for r in alg_runs[ci * k:(ci + 1) * k]:
                        r[2].append("cell aggregate failed its check")
            best = min(self.error(c.mean_metric) for c in cells)
            quality[f"best_test_error.{alg}"] = (best, self.unit)
            if not best < trivial:
                failures.append(f"{alg}: best cell error {best} does not beat "
                                f"the trivial predictor {trivial}")
        size = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        return PassOutcome(runs=runs, digest=tree_digest(out_dir), quality=quality,
                           failures=failures, bytes_written=size)


class A1aGrid(GridWorkload):
    """Sparse logistic regression shaped like a1a."""

    accuracy = True
    unit = "1-accuracy"

    def generate(self, rng) -> dict:
        self.train = self.workdir / "a1a"
        self.test = self.workdir / "a1a.t"
        return write_a1a_like(rng, self.train, self.test)

    def setup(self) -> dict:
        config = self.trish.harness.ExperimentConfig(
            model="logistic", algorithm="trish", train_path=str(self.train),
            test_path=str(self.test), reps=GRID_REPS, seed=self.seed)
        return self._calibrate(config)


class AirGrid(GridWorkload):
    """Dense MLP regression shaped like air: CSV -> LIBSVM -> normalize -> split.

    Adaptive runs either grow their batch early or keep `s0`, and which
    cells do moves with the seed; with one repetition per cell the mean
    adaptive run moved by a tenth between seeds, so `trish_as` runs two.
    """

    reps = {"trish_as": 2}

    def generate(self, rng) -> dict:
        self.csv = self.workdir / "air.csv"
        self.libsvm = self.workdir / "air.libsvm"
        return write_air_like(rng, self.csv)

    def setup(self) -> dict:
        with open(self.csv) as src, open(self.libsvm, "w") as dst:
            kept = self.trish.data.csv_to_libsvm(src, dst, label_col=0,
                                                 missing_value=AIR_MISSING_VALUE)
        if kept != AIR_ROWS - AIR_MISSING_LABELS:
            raise RuntimeError(f"conversion kept {kept} rows")
        config = self.trish.harness.ExperimentConfig(
            model="mlp_regressor", algorithm="trish", data_path=str(self.libsvm),
            normalize=True, train_fraction=0.7, reps=GRID_REPS, seed=self.seed)
        return self._calibrate(config)


class QuadTheory:
    """The plateau (thm2) and vanishing-gap (thm3) checks on the criterion-6
    quadratics, plus adaptive and SG runs on the plateau quadratic so every
    driver's per-iteration overhead is measured on a trivial model."""

    def __init__(self, trish, seed: int, workdir: Path):
        self.trish = trish
        self.seed = seed
        self.workdir = workdir

    def generate(self, rng) -> dict:
        self.inputs = quadratic_inputs(rng)
        return {"components": 8, "n": 2}

    def _rng(self, *key):
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=key))

    def setup(self) -> dict:
        t = self.trish
        plateau = t.theory.SyntheticQuadratic(diag=[0.5, 1.0], offsets=self.inputs["offsets"])
        vanishing = t.theory.SyntheticQuadratic(diag=[0.5, 1.0], scales=self.inputs["scales"])
        moments = t.theory.gradient_moments(vanishing, np.ones(2), batch_size=2)
        M2 = moments.e_g_sq / float(moments.grad @ moments.grad)
        bounds = t.theory.stepsize_bounds(1.1, 1.0, vanishing.lipschitz,
                                          mu=vanishing.pl_constant, M2=M2)
        return {"plateau": plateau, "vanishing": vanishing, "bounds": bounds,
                "thm2_params": t.optimizer.HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0),
                "thm3_params": t.optimizer.HyperParams(
                    alpha=0.9 * bounds.zero_noise_pl, gamma1=1.1, gamma2=1.0)}

    def warm_up(self, state) -> None:
        t = self.trish
        x0 = np.ones(2)
        p, params = state["plateau"], state["thm2_params"]
        t.optimizer.run_trish(p, x0, params, 2, 25.0, self._rng(9, 0))
        t.optimizer.run_trish_as(p, x0, params, 2, 25.0, self._rng(9, 1))
        t.optimizer.run_sg(p, x0, params.alpha, 2, 25.0, self._rng(9, 2))

    def run_pass(self, state, timer, out_dir: Path) -> dict:
        t = self.trish
        x0 = np.ones(2)
        budget = THEORY_HORIZON * 2 / 8
        p, params = state["plateau"], state["thm2_params"]
        timer.algorithm = "trish"
        plateau = t.theory.verify_theorem_gap(p, params, batch_size=2,
                                              horizon_iters=THEORY_HORIZON,
                                              reps=THM2_REPS, rng=self._rng(2))
        x3, _ = timer.call("trish", t.optimizer.run_trish, state["vanishing"], x0,
                           state["thm3_params"], 2, budget, self._rng(3))
        finals = []
        extra = QUAD_EXTRA_HORIZON * 2 / 8
        for rep in range(QUAD_EXTRA_REPS):
            xa, _ = timer.call("trish_as", t.optimizer.run_trish_as, p, x0, params,
                               2, extra, self._rng(4, rep))
            xs, _ = timer.call("sg", t.optimizer.run_sg, p, x0, params.alpha, 2,
                               extra, self._rng(5, rep))
            finals.extend((xa, xs))
        return {"plateau": plateau, "vanishing_gap": state["vanishing"].loss(x3),
                "finals": finals}

    def check_pass(self, state, samples, results, out_dir: Path) -> PassOutcome:
        runs = [[alg, seconds, check_records(
                    result[1], 8, (THEORY_HORIZON if alg == "trish" else QUAD_EXTRA_HORIZON) * 2 / 8,
                    alg != "sg", False)]
                for alg, seconds, result in samples]
        plateau, gap = results["plateau"], results["vanishing_gap"]
        failures = []
        if not plateau.satisfied:
            failures.append(f"plateau check failed: gap {plateau.mean_gap} "
                            f"+- {plateau.std_error} vs bound {plateau.bound}")
        if not (state["bounds"].ratio_ok and gap < 1e-8):
            failures.append(f"vanishing-gap check failed: final gap {gap}")
        h = hashlib.sha256(repr((plateau, gap)).encode())
        for x in results["finals"]:
            h.update(x.tobytes())
        quality = {"plateau_gap_ratio": (plateau.mean_gap / plateau.bound, "ratio"),
                   "vanishing_gap": (gap, "gap")}
        return PassOutcome(runs=runs, digest=h.hexdigest(), quality=quality,
                           failures=failures)


WORKLOADS = {"a1a_grid": A1aGrid, "air_grid": AirGrid, "quad_theory": QuadTheory}
