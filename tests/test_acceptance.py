"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7-9 reproduce reference benchmark results on the real a1a and air
datasets.  Those files cannot be redistributed here and are not downloaded
automatically; place them under ``data/`` (or point TRISH_DATA_DIR at them)
as described in the README to enable the gates.  Everything else runs
self-contained.
"""

import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_difference_gradient
from trish.core import SampleBatch, sampled_gradient
from trish.harness import (ExperimentConfig, build_grid, calibration_rng,
                           compute_G, initial_sample_size, load_problem,
                           run_grid, summarize_best, write_grid_csv)
from trish.models import LogisticModel, MlpModel, testing_accuracy
from trish.optimizer import HyperParams, classify_case, run_trish
from trish.sampling import VarianceReport, proposed_sample_size, variance_report
from trish.theory import (SyntheticQuadratic, gradient_moments,
                          stepsize_bounds, verify_lemma1, verify_theorem_gap,
                          verify_vanishing_gap)

DATA_DIR = Path(os.environ.get("TRISH_DATA_DIR", Path(__file__).parent.parent / "data"))


def data_file(name: str) -> Path:
    return DATA_DIR / name


def report(criterion: int, description: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {description}: PASS")


# ---------------------------------------------------------------------------
# 1. step-rule oracle
# ---------------------------------------------------------------------------

def oracle_step(g, alpha, gamma1, gamma2):
    """Brute-force re-implementation of the step rule in pure Python."""
    norm = math.sqrt(sum(v * v for v in g))
    if norm < 1.0 / gamma1:
        case = 1
        p = [-gamma1 * (alpha * v) for v in g]
    elif norm <= 1.0 / gamma2:
        case = 2
        p = [-(alpha * v) / norm for v in g]
    else:
        case = 3
        p = [-gamma2 * (alpha * v) for v in g]
    return case, p


def test_criterion_01_step_rule_oracle():
    from trish.optimizer import trish_step

    rng = np.random.default_rng(101)
    trials = 100_000
    case2_checked = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 6))
        g = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 2)
        alpha = 10.0 ** rng.uniform(-3, 1)
        gamma1 = 10.0 ** rng.uniform(-1, 2)
        gamma2 = gamma1 * rng.uniform(0.05, 0.95)
        params = HyperParams(alpha=alpha, gamma1=gamma1, gamma2=gamma2)

        case, p_ref = oracle_step(g.tolist(), alpha, gamma1, gamma2)
        gnorm = float(np.linalg.norm(g))
        assert classify_case(gnorm, gamma1, gamma2).value == case
        p = trish_step(g, params)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0)

        if case == 2 and case2_checked < 300:
            case2_checked += 1
            assert abs(np.linalg.norm(p) - alpha) < 1e-12 * max(1.0, alpha)
            for _ in range(50):
                q = rng.normal(size=dim)
                q *= alpha * rng.uniform(0, 1) / np.linalg.norm(q)
                assert g @ p <= g @ q + 1e-12 * max(1.0, abs(g @ p))
    assert case2_checked == 300
    report(1, "step rule matches brute-force oracle on 1e5 samples")


# ---------------------------------------------------------------------------
# 2. unbiasedness by enumeration
# ---------------------------------------------------------------------------

def test_criterion_02_unbiasedness_by_enumeration():
    rng = np.random.default_rng(202)
    problem = SyntheticQuadratic(diag=rng.uniform(0.5, 2.0, 3),
                                 offsets=rng.normal(size=(6, 3)),
                                 scales=rng.uniform(0.5, 1.5, 6))
    for _ in range(100):
        x = rng.normal(size=3)
        grad = problem.gradient(x)
        for b in range(1, 7):
            aggs = [sampled_gradient(problem, x,
                                     SampleBatch(indices=np.array(c))).aggregate
                    for c in itertools.combinations(range(6), b)]
            np.testing.assert_allclose(np.mean(aggs, axis=0), grad,
                                       rtol=1e-10, atol=1e-12)
    report(2, "enumerated batch means equal the full gradient")


# ---------------------------------------------------------------------------
# 3. gradient correctness
# ---------------------------------------------------------------------------

def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(303)

    X = rng.normal(size=(60, 123))
    X[rng.random(size=X.shape) < 0.7] = 0.0
    logistic = LogisticModel(X, rng.choice([-1.0, 1.0], size=60))
    for _ in range(100):
        i = int(rng.integers(logistic.N))
        x = 0.2 * rng.normal(size=logistic.n)
        fd = finite_difference_gradient(logistic, i, x, h=1e-5)
        assert relative_error(fd, logistic.component_gradients([i], x)[0]) < 1e-6

    classifier = MlpModel.classifier(rng.random(size=(30, 784)),
                                     rng.integers(0, 2, 30).astype(float))
    assert classifier.n == 3931
    for _ in range(50):
        i = int(rng.integers(classifier.N))
        x = rng.uniform(-0.5, 0.5, classifier.n)
        fd = finite_difference_gradient(classifier, i, x, h=1e-5)
        assert relative_error(fd, classifier.component_gradients([i], x)[0]) < 1e-5

    regressor = MlpModel.regressor(rng.random(size=(30, 7)), rng.random(30))
    for _ in range(50):
        i = int(rng.integers(regressor.N))
        x = rng.uniform(-0.5, 0.5, regressor.n)
        fd = finite_difference_gradient(regressor, i, x, h=1e-5)
        assert relative_error(fd, regressor.component_gradients([i], x)[0]) < 1e-5

    report(3, "analytic gradients match finite differences; 3931 parameters")


# ---------------------------------------------------------------------------
# 4. variance-test oracles
# ---------------------------------------------------------------------------

def test_criterion_04_variance_test_oracles():
    from trish.core import GradientEstimate

    def estimate(per):
        per = np.asarray(per, dtype=float)
        agg = per.mean(axis=0)
        return GradientEstimate(aggregate=agg, per_component=per, sq_norm=agg.dot(agg))

    est = estimate([[1.0, 0.0], [0.0, 1.0]])
    rep = variance_report(est, est.aggregate, 0.9, 5.84)
    assert rep.var_inner == 0.0 and rep.inner_ok

    est = estimate([[2.0, 0.0], [0.0, 0.0]])
    rep = variance_report(est, est.aggregate, 0.9, 5.84)
    assert rep.var_inner == 2.0 and not rep.inner_ok
    assert rep.var_orth == 0.0 and rep.orth_ok

    est = estimate([[0.3, -0.7]] * 4)
    rep = variance_report(est, est.aggregate, 0.9, 5.84)
    assert rep.var_inner == 0.0 and rep.var_orth == 0.0 and rep.ok

    fixed = VarianceReport(var_inner=4.0, var_orth=10.0,
                           inner_ok=False, orth_ok=True)
    assert proposed_sample_size(fixed, np.array([1.0, 0.0]), 0.9, 5.84, 100) == 5
    zero = VarianceReport(var_inner=0.0, var_orth=0.0, inner_ok=True, orth_ok=True)
    assert proposed_sample_size(zero, np.array([1.0]), 0.9, 5.84, 100) == 0
    huge = VarianceReport(var_inner=1e9, var_orth=0.0, inner_ok=False, orth_ok=True)
    assert proposed_sample_size(huge, np.array([1.0]), 0.9, 5.84, 100) == 100

    rng = np.random.default_rng(404)
    base = rng.normal(size=(6, 4))
    verdicts = set()
    for c in (1e-3, 1.0, 1e3):
        est = estimate(c * base)
        rep = variance_report(est, est.aggregate, 0.9, 1.0)
        verdicts.add((rep.inner_ok, rep.orth_ok))
    assert len(verdicts) == 1

    report(4, "variance tests and growth formula reproduce hand values")


# ---------------------------------------------------------------------------
# 5. expected-decrease verification
# ---------------------------------------------------------------------------

def test_criterion_05_expected_decrease_no_violations():
    rng = np.random.default_rng(505)
    problem = SyntheticQuadratic(diag=[0.5, 1.0, 2.0],
                                 offsets=rng.normal(size=(6, 3)))
    violations = 0
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=3)
        gamma1 = rng.uniform(1.0, 6.0)
        gamma2 = gamma1 * rng.uniform(0.15, 0.95)
        alpha = rng.uniform(0.05, 0.99) * stepsize_bounds(
            gamma1, gamma2, problem.lipschitz).base
        params = HyperParams(alpha=alpha, gamma1=gamma1, gamma2=gamma2)
        rep = verify_lemma1(problem, x, params, batch_size=2)
        if not rep.holds:
            violations += 1
    assert violations == 0
    report(5, "expected-decrease inequalities: 0 violations in 1000 trials")


# ---------------------------------------------------------------------------
# 6. plateau bound and vanishing-noise limit
# ---------------------------------------------------------------------------

def test_criterion_06_plateau_and_vanishing_gap():
    problem = SyntheticQuadratic(
        diag=[0.5, 1.0],
        offsets=0.1 * np.random.default_rng(7).normal(size=(8, 2)))
    params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
    rep = verify_theorem_gap(problem, params, batch_size=2,
                             horizon_iters=2000, reps=200,
                             rng=np.random.default_rng(606))
    assert rep.mean_gap <= rep.bound + 3.0 * rep.std_error

    scaled = SyntheticQuadratic(diag=[0.5, 1.0],
                                scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
    zero = verify_vanishing_gap(scaled, gamma1=1.1, gamma2=1.0,
                                batch_size=2, horizon_iters=2000,
                                rng=np.random.default_rng(607))
    assert zero.bounds.ratio_ok
    assert zero.gap < 1e-8
    assert zero.satisfied

    report(6, f"plateau {rep.mean_gap:.3e} <= bound {rep.bound:.3e}; "
              f"vanishing-noise gap {zero.gap:.1e} < 1e-8")


# ---------------------------------------------------------------------------
# 7-9. dataset reproductions (need the real files, see README)
# ---------------------------------------------------------------------------

a1a_available = data_file("a1a").exists() and data_file("a1a.t").exists()
air_available = data_file("air.libsvm").exists()


@pytest.fixture(scope="module")
def a1a_grids():
    config = ExperimentConfig(
        model="logistic", algorithm="trish",
        train_path=str(data_file("a1a")), test_path=str(data_file("a1a.t")),
        reps=50, seed=20240601, budget_epochs=1.0)
    problem, X_test, y_test = load_problem(config)
    G = compute_G(problem, calibration_rng(config.seed))
    grids = {}
    for algorithm in ("trish", "trish_as"):
        cfg = dataclasses.replace(config, algorithm=algorithm)
        grids[algorithm] = run_grid(cfg, problem=problem, test_features=X_test,
                                    test_labels=y_test, G=G)
    return G, grids, problem


@pytest.mark.skipif(not a1a_available,
                    reason="a1a/a1a.t not found under data/ (see README)")
def test_criterion_07_a1a_reproduction(a1a_grids):
    G, grids, problem = a1a_grids
    assert problem.N == 1605 and problem.n == 123
    assert abs(G - 0.3477) / 0.3477 < 0.15

    rows = summarize_best(grids["trish"] + grids["trish_as"])
    best_as = rows[1][2]  # the adaptive row's adaptive cell
    assert abs(best_as.mean_metric - 0.8332) <= 0.010
    assert 45 <= best_as.mean_final_batch <= 110

    best_trish = rows[0][1]  # the fixed-batch row's fixed-batch cell
    assert abs(best_trish.mean_metric - 0.8297) <= 0.010

    report(7, f"a1a: G={G:.4f}, best adaptive accuracy "
              f"{best_as.mean_metric:.4f}, final batch "
              f"{best_as.mean_final_batch:.0f}, best fixed accuracy "
              f"{best_trish.mean_metric:.4f} (rows: {len(rows)})")


@pytest.mark.skipif(not air_available,
                    reason="air.libsvm not found under data/ (see README)")
def test_criterion_08_air_reproduction():
    config = ExperimentConfig(
        model="mlp_regressor", algorithm="trish",
        data_path=str(data_file("air.libsvm")), train_fraction=0.7,
        normalize=True, reps=50, seed=20240602, budget_epochs=1.0)
    problem, X_test, y_test = load_problem(config)
    assert problem.N == 6294
    G = compute_G(problem, calibration_rng(config.seed))
    grids = {}
    for algorithm in ("trish", "trish_as"):
        cfg = dataclasses.replace(config, algorithm=algorithm)
        grids[algorithm] = run_grid(cfg, problem=problem, test_features=X_test,
                                    test_labels=y_test, G=G)
    best_as = summarize_best(grids["trish"] + grids["trish_as"])[1][2]
    assert abs(best_as.mean_metric - 0.01379) <= 0.003
    assert 32 <= best_as.mean_final_batch <= 130
    report(8, f"air: best adaptive testing loss {best_as.mean_metric:.5f}, "
              f"final batch {best_as.mean_final_batch:.0f}")


@pytest.mark.skipif(not a1a_available,
                    reason="a1a/a1a.t not found under data/ (see README)")
def test_criterion_09_a1a_case_frequencies(a1a_grids):
    _, grids, _ = a1a_grids
    best_as = summarize_best(grids["trish"] + grids["trish_as"])[1][2]
    case1, case2, case3 = best_as.case_fracs
    assert abs(case2 - 0.19) <= 0.10
    assert abs(case3 - 0.81) <= 0.10
    report(9, f"a1a best adaptive cell case mix: {case1:.0%}/{case2:.0%}/{case3:.0%}")


# ---------------------------------------------------------------------------
# 10. grid determinism
# ---------------------------------------------------------------------------

def test_criterion_10_grid_csv_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    w = rng.normal(size=8)
    X = rng.normal(size=(300, 8))
    y = np.where(X @ w + 0.5 * rng.normal(size=300) >= 0, 1.0, -1.0)
    problem = LogisticModel(X, y)
    X_test = rng.normal(size=(120, 8))
    y_test = np.where(X_test @ w >= 0, 1.0, -1.0)

    config = ExperimentConfig(model="logistic", algorithm="trish_as",
                              reps=2, seed=31337, budget_epochs=1.0)
    outputs = []
    for tag in ("first", "second"):
        results = run_grid(config, problem=problem, test_features=X_test,
                           test_labels=y_test)
        assert len(results) == 60
        path = tmp_path / f"grid_{tag}.csv"
        write_grid_csv(results, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report(10, "full 60-cell grid byte-identical across two executions")
