"""Tests for the step rule and the run drivers."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

import trish.optimizer as optimizer
import trish.sampling as sampling
from trish.core import FiniteSumProblem
from trish.models import (LogisticModel, MlpModel, testing_accuracy,
                          testing_loss)
from trish.optimizer import (TELEMETRY_BLOCK, HyperParams, StepCase,
                             classify_case, run_sg, run_trish, run_trish_as,
                             trish_step)
from trish.theory import SyntheticQuadratic

from reference_trish_as import reference_trish_as


def quadratic(N=8, n=2, noise=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return SyntheticQuadratic(diag=np.ones(n),
                              offsets=noise * rng.normal(size=(N, n)))


class TestHyperParams:
    def test_gamma_order_enforced(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, gamma1=1.0, gamma2=1.0)
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, gamma1=1.0, gamma2=2.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            HyperParams(alpha=0.0, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ValueError):
            HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0, r=0)

    @pytest.mark.parametrize("field, value", [
        ("alpha", math.nan), ("alpha", math.inf),
        ("gamma1", math.nan), ("gamma1", math.inf),
        ("gamma2", math.nan), ("gamma2", math.inf),
        ("theta", math.nan), ("nu", math.nan), ("theta", -math.inf),
        ("theta", -1.0), ("nu", 0.0),
        ("r", 2.5), ("r", 2.0), ("r", "3"), ("r", 0), ("r", True)])
    def test_rejects_nonfinite_and_nonintegral(self, field, value):
        """A NaN theta once ran an adaptive run as fixed-batch, a NaN alpha
        failed later as a non-finite component gradient, and r=True ran
        with a window of 1."""
        kwargs = {"alpha": 0.1, "gamma1": 2.0, "gamma2": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            HyperParams(**kwargs)

    def test_infinite_test_constants_and_numpy_window_accepted(self):
        """theta = nu = inf makes every variance test pass (tests below use it)."""
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0, theta=math.inf,
                             nu=math.inf, r=np.int64(3))
        assert params.r == 3


class TestClassifyCase:
    def test_zero_gradient_is_case1(self):
        assert classify_case(0.0, 4.0, 1.0) is StepCase.CASE1

    def test_left_endpoint_inclusive(self):
        assert classify_case(0.25, 4.0, 1.0) is StepCase.CASE2

    def test_right_endpoint_inclusive(self):
        assert classify_case(1.0, 4.0, 1.0) is StepCase.CASE2

    def test_above_interval_is_case3(self):
        assert classify_case(1.5, 4.0, 1.0) is StepCase.CASE3

    def test_partition_exhaustive_and_exclusive(self):
        """Each norm lands in exactly one predicate's region."""
        rng = np.random.default_rng(0)
        for norm in np.concatenate([rng.uniform(0, 3, 500),
                                    [0.0, 0.25, 1.0, 10.0]]):
            case = classify_case(float(norm), 4.0, 1.0)
            in1 = norm < 0.25
            in2 = 0.25 <= norm <= 1.0
            in3 = norm > 1.0
            assert [in1, in2, in3].count(True) == 1
            assert case is (StepCase.CASE1 if in1 else
                            StepCase.CASE2 if in2 else StepCase.CASE3)

    @pytest.mark.parametrize("grad_norm", (-1.0, -1e-300, -math.inf, math.nan))
    def test_rejects_negative_or_nan_norm(self, grad_norm):
        with pytest.raises(ValueError, match="^grad_norm must be >= 0"):
            classify_case(grad_norm, 4.0, 1.0)

    @pytest.mark.parametrize("gamma1, gamma2", [
        (math.inf, 1.0), (True, 0.5), (4.0, math.nan), (4.0, -1.0)])
    def test_rejects_bad_interval(self, gamma1, gamma2):
        """gamma1 = inf and gamma1 = True used to classify (inf as CASE2)."""
        with pytest.raises(ValueError, match="gamma"):
            classify_case(0.5, gamma1, gamma2)


class ConstantRows(FiniteSumProblem):
    """Component i has the gradient [values[i], 0] at every x."""

    def __init__(self, values):
        self.rows = np.column_stack([values, np.zeros(len(values))])
        self.N, self.n = self.rows.shape

    def component_losses(self, indices, x):
        return self.rows[indices] @ x

    def component_gradients(self, indices, x):
        return self.rows[indices]


@pytest.mark.parametrize("driver", (run_trish,))
@pytest.mark.parametrize("gamma1, gamma2", [(4.0, 1.0), (7.0, 3.0), (10.0, 3.0)])
def test_run_cases_match_classify_case(driver, gamma1, gamma2):
    """The run's step branch equals `classify_case` on each recorded norm,
    also for norms exactly at and one ulp around 1/gamma1 and 1/gamma2."""
    ends = [1.0 / gamma1, 1.0 / gamma2]
    values = [0.0, 10.0, *ends, *[math.nextafter(v, d) for v in ends
                                  for d in (0.0, math.inf)]]
    params = HyperParams(alpha=0.1, gamma1=gamma1, gamma2=gamma2)
    _, records = driver(ConstantRows(values), np.zeros(2), params, 1, 30.0,
                        np.random.default_rng(0))
    assert {r.grad_norm for r in records} == set(values)
    assert [r.case for r in records] == [classify_case(r.grad_norm, gamma1, gamma2)
                                         for r in records]


def test_adaptive_run_keeps_size_when_squared_norm_overflows():
    """Batch means near 1e200 are finite but their squared norms overflow:
    the variance tests are skipped, the size kept and the norm recorded as inf."""
    values = 1e200 * np.linspace(1.0, 2.0, 10)
    params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0, theta=0.5, nu=0.5, r=3)
    with np.errstate(over="ignore"):
        x, records = run_trish_as(ConstantRows(values), np.zeros(2), params, 2, 4.0,
                                  np.random.default_rng(0))
    assert len(records) == 20
    assert all(r.batch_size == 2 for r in records)
    assert all(r.grad_norm == math.inf and r.case is StepCase.CASE3 for r in records)
    assert np.isfinite(x).all()


@pytest.mark.parametrize("driver, params", [
    ("trish", HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0)),
    ("sg", HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0)),
    ("trish_as", HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0, theta=0.5, nu=0.5, r=3)),
    ("trish_as", HyperParams(alpha=1.0, gamma1=8.0, gamma2=0.5, theta=2.0, nu=3.0, r=2)),
], ids=["trish", "sg", "trish_as-tight", "trish_as-loose"])
def test_run_calls_each_layer_once(driver, params, monkeypatch):
    """A run draws each batch once, forms its gradient once from that batch,
    charges it to EGE once, and forms each step vector once."""
    calls = {name: [] for name in ("draw_batch", "sampled_gradient", "_step_vector")}
    for name, log in calls.items():
        def logged(*args, _original=getattr(optimizer, name), _log=log):
            _log.append((args, _original(*args)))
            return _log[-1][1]
        monkeypatch.setattr(optimizer, name, logged)
    problem = quadratic(N=20, noise=2.0)
    rng = np.random.default_rng(4)
    if driver == "sg":
        _, records = run_sg(problem, np.ones(2), params.alpha, 2, 6.0, rng)
    else:
        run = run_trish if driver == "trish" else run_trish_as
        _, records = run(problem, np.ones(2), params, 2, 6.0, rng)

    draws = [batch for _, batch in calls["draw_batch"]]
    grads = [args[2] for args, _ in calls["sampled_gradient"]]
    steps = [args[2] for args, _ in calls["_step_vector"]]
    assert len(grads) == len(draws) and all(g is d for g, d in zip(grads, draws))
    assert records[-1].ege == sum(batch.size for batch in draws) / problem.N
    assert steps == ([] if driver == "sg" else [r.case for r in records])
    if driver == "trish_as":
        assert len(draws) > len(records)  # redraws happened and were counted
    else:
        assert len(draws) == len(records)


class TestTrishStep:
    params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)

    def test_middle_interval_value(self):
        p = trish_step(np.array([0.6, 0.8]), self.params)  # norm 1, CASE2
        np.testing.assert_allclose(p, [-0.06, -0.08], rtol=1e-15)

    def test_zero_gradient_zero_step(self):
        np.testing.assert_array_equal(trish_step(np.zeros(3), self.params),
                                      np.zeros(3))

    def test_small_gradient_scaled_by_gamma1(self):
        p = trish_step(np.array([0.1, 0.0]), self.params)  # norm 0.1, CASE1
        np.testing.assert_allclose(p, [-0.04, 0.0], rtol=1e-15)

    def test_case2_step_length_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = rng.normal(size=3)
            g *= rng.uniform(0.25, 1.0) / np.linalg.norm(g)  # middle interval
            p = trish_step(g, self.params)
            assert abs(np.linalg.norm(p) - self.params.alpha) < 1e-12

    def test_step_length_bound(self):
        """||p|| <= alpha * max(1, gamma1 ||g||) in every case."""
        rng = np.random.default_rng(2)
        for _ in range(1000):
            g = rng.normal(size=4) * 10 ** rng.uniform(-3, 2)
            p = trish_step(g, self.params)
            bound = self.params.alpha * max(1.0, self.params.gamma1 * np.linalg.norm(g))
            assert np.linalg.norm(p) <= bound * (1 + 1e-12)

    def test_case2_minimizes_linear_model_on_ball(self):
        """g.p <= g.q for any feasible q: the normalized step solves the
        trust-region subproblem on the middle interval."""
        rng = np.random.default_rng(3)
        for _ in range(1000):
            g = rng.normal(size=3)
            g *= rng.uniform(0.25, 1.0) / np.linalg.norm(g)
            p = trish_step(g, self.params)
            Q = rng.normal(size=(20, 3))
            Q *= (self.params.alpha * rng.uniform(0, 1, size=(20, 1))
                  / np.linalg.norm(Q, axis=1, keepdims=True))
            assert np.all(g @ p <= Q @ g + 1e-12)

    def test_nonfinite_gradient_rejected(self):
        from trish.core import NumericError
        with pytest.raises(NumericError):
            trish_step(np.array([np.nan, 0.0]), self.params)


class TestRunTrish:
    def test_geometric_contraction_like_gradient_descent(self):
        """Tiny iterates stay in the small-gradient branch, so the run is
        plain gradient descent with factor 1 - alpha*gamma1 = 0.9."""
        problem = quadratic(N=2, noise=0.0)
        params = HyperParams(alpha=1e-7, gamma1=1e6, gamma2=1.0)
        x0 = np.array([6e-8, 8e-8])  # norm 1e-7 < 1/gamma1
        rng = np.random.default_rng(0)
        x, records = run_trish(problem, x0, params, 2, 5.0, rng)
        assert all(r.case is StepCase.CASE1 for r in records)
        k = len(records)
        np.testing.assert_allclose(np.linalg.norm(x), 0.9**k * 1e-7, rtol=1e-10)

    def test_iteration_count_from_budget(self):
        problem = SyntheticQuadratic(diag=[1.0], offsets=np.zeros((1605, 1)))
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        _, records = run_trish(problem, np.array([1.0]), params, 64, 1.0,
                               np.random.default_rng(0))
        assert len(records) == math.ceil(1605 / 64) == 26

    def test_stationary_point_never_moves(self):
        problem = quadratic(N=3, noise=0.0)
        params = HyperParams(alpha=0.5, gamma1=4.0, gamma2=1.0)
        x, records = run_trish(problem, np.zeros(2), params, 3, 2.0,
                               np.random.default_rng(0))
        np.testing.assert_array_equal(x, np.zeros(2))
        assert all(r.grad_norm == 0.0 for r in records)

    def test_ege_accounting_and_overshoot(self):
        problem = quadratic(N=10)
        params = HyperParams(alpha=0.01, gamma1=4.0, gamma2=1.0)
        _, records = run_trish(problem, np.ones(2), params, 3, 1.0,
                               np.random.default_rng(0))
        eges = [r.ege for r in records]
        assert all(b - a > 0 for a, b in zip(eges, eges[1:]))
        assert 1.0 <= eges[-1] <= 1.0 + 3 / 10
        assert eges[-1] == len(records) * 3 / 10

    @settings(max_examples=150, deadline=None)
    @given(N=st.integers(1, 60), b=st.integers(1, 60), h=st.integers(1, 200))
    @example(N=3, b=1, h=5)
    def test_budget_of_h_steps_takes_exactly_h(self, N, b, h):
        """EGE is an integer count over N, so the run's last EGE equals the
        budget h * b / N exactly.  The float sum of b / N used to fall short:
        6 steps at N = 3, b = 1, h = 5."""
        assume(b <= N)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        _, records = run_trish(quadratic(N=N), np.ones(2), params, b, h * b / N,
                               np.random.default_rng(0))
        assert len(records) == h


class TestRunSg:
    def test_full_batch_matches_gradient_descent(self):
        problem = quadratic(N=4, noise=0.0, n=2)
        x0 = np.array([1.0, -2.0])
        x, records = run_sg(problem, x0, 0.1, 4, 3.0, np.random.default_rng(0))
        expected = x0.copy()
        for _ in range(len(records)):
            expected = expected - 0.1 * problem.gradient(expected)
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_zero_steplength_freezes_iterates(self):
        problem = quadratic(N=4)
        x0 = np.array([1.0, -2.0])
        x, _ = run_sg(problem, x0, 0.0, 2, 2.0, np.random.default_rng(0))
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("alpha", (-0.1, math.nan, math.inf, True, False))
    def test_rejects_bad_steplength(self, alpha):
        """These used to run: -0.1 as gradient ascent, NaN and inf until a
        non-finite gradient raised NumericError, True and False as 1 and 0."""
        with pytest.raises(ValueError, match="alpha"):
            run_sg(quadratic(N=4), np.ones(2), alpha, 2, 1.0, np.random.default_rng(0))

    def test_one_epoch_iteration_count(self):
        problem = SyntheticQuadratic(diag=[1.0], offsets=np.zeros((1605, 1)))
        _, records = run_sg(problem, np.array([1.0]), 0.1, 64, 1.0,
                            np.random.default_rng(0))
        assert len(records) == 26


@pytest.mark.parametrize("driver", ("trish", "sg", "trish_as"))
@pytest.mark.parametrize("size, budget", [
    (0, 1.0), (9, 1.0), (2.7, 1.0), (8.4, 1.0),  # N = 8
    (2, 0.0), (2, -1.0), (2, float("nan")), (2, float("inf")),
    (True, 1.0), (2, True)])
def test_driver_arguments_validated(driver, size, budget):
    """Out-of-range or non-integral sizes and budgets that are not positive
    and finite are rejected, and so is a bool as either; a NaN budget would
    otherwise never stop an adaptive run, a size of 2.7 would run with
    batch 2, and a size of True with batch 1."""
    problem = quadratic()
    params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        if driver == "trish":
            run_trish(problem, np.ones(2), params, size, budget, rng)
        elif driver == "sg":
            run_sg(problem, np.ones(2), 0.1, size, budget, rng)
        else:
            run_trish_as(problem, np.ones(2), params, size, budget, rng)


@pytest.mark.parametrize("driver", ("trish", "sg", "trish_as"))
def test_numpy_integer_batch_size_accepted(driver):
    """A numpy integer size runs exactly as the Python int, and the records
    hold Python ints."""
    problem = quadratic()
    params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
    runs = []
    for size in (2, np.int64(2)):
        rng = np.random.default_rng(0)
        if driver == "trish":
            runs.append(run_trish(problem, np.ones(2), params, size, 2.0, rng))
        elif driver == "sg":
            runs.append(run_sg(problem, np.ones(2), 0.1, size, 2.0, rng))
        else:
            runs.append(run_trish_as(problem, np.ones(2), params, size, 2.0, rng))
    (x_int, rec_int), (x_np, rec_np) = runs
    np.testing.assert_array_equal(x_int, x_np)
    assert [r.batch_size for r in rec_int] == [r.batch_size for r in rec_np]
    assert all(type(r.batch_size) is int for r in rec_np)


@pytest.mark.parametrize("driver", ("trish", "sg", "trish_as"))
@pytest.mark.parametrize("size", (2.0, np.float64(2.0)), ids=("float", "np.float64"))
def test_float_batch_size_rejected(driver, size):
    """An integral float used to run as the integer: a size is a count, and
    `check_count` owns the rule for every driver (`s0` for the adaptive one)."""
    problem = quadratic()
    params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^(batch_size|s0) must be an integer in \[\d, 8\]"):
        if driver == "trish":
            run_trish(problem, np.ones(2), params, size, 1.0, rng)
        elif driver == "sg":
            run_sg(problem, np.ones(2), 0.1, size, 1.0, rng)
        else:
            run_trish_as(problem, np.ones(2), params, size, 1.0, rng)


class CountingProblem(FiniteSumProblem):
    """Wrapper that counts per-component gradient evaluations and keeps the
    points the batched gradients were taken at."""

    def __init__(self, inner):
        self.inner = inner
        self.n, self.N = inner.n, inner.N
        self.evaluations = 0
        self.points = []

    def component_gradients(self, indices, x):
        self.evaluations += len(indices)
        self.points.append(x.copy())
        return self.inner.component_gradients(indices, x)

    def component_losses(self, indices, x):
        return self.inner.component_losses(indices, x)

    def loss(self, x):
        return self.inner.loss(x)

    def losses(self, xs):
        return self.inner.losses(xs)

    def gradient(self, x):
        return self.inner.gradient(x)


# Variance-test constants from very tight to vacuous (+inf passes every test).
TEST_CONSTANT = st.one_of(st.floats(0.05, 8.0), st.just(math.inf))


class TestRunTrishAs:
    def test_vacuous_tests_keep_initial_size(self):
        problem = quadratic(N=20, noise=2.0)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0,
                             theta=float("inf"), nu=float("inf"))
        _, records = run_trish_as(problem, np.ones(2), params, 3, 2.0,
                                  np.random.default_rng(1))
        assert all(r.batch_size == 3 for r in records)

    @settings(max_examples=60, deadline=None)
    @given(theta=TEST_CONSTANT, nu=TEST_CONSTANT, r=st.integers(1, 12),
           s0=st.integers(2, 30))
    @example(theta=0.3, nu=0.5, r=3, s0=2)
    def test_batch_sizes_monotone_and_capped(self, theta, nu, r, s0):
        problem = quadratic(N=30, noise=5.0, seed=3)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0,
                             theta=theta, nu=nu, r=r)
        _, records = run_trish_as(problem, np.ones(2), params, s0, 4.0,
                                  np.random.default_rng(2))
        sizes = [r.batch_size for r in records]
        assert sizes[0] == s0
        assert all(b - a >= 0 for a, b in zip(sizes, sizes[1:]))
        assert max(sizes) <= 30
        if max(theta, nu) <= 0.5 and s0 < 30:
            assert sizes[-1] > s0  # tight tests on a noisy problem force growth

    def test_zero_gradient_guard_keeps_size(self):
        """Two components with opposite gradients at the start: the sampled
        gradient is exactly zero, the tests are skipped, nothing moves."""
        problem = SyntheticQuadratic(diag=[1.0], offsets=[[1.0], [-1.0]])
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        x, records = run_trish_as(problem, np.zeros(1), params, 2, 3.0,
                                  np.random.default_rng(0))
        assert all(r.batch_size == 2 for r in records)
        assert all(r.grad_norm == 0.0 for r in records)
        np.testing.assert_array_equal(x, np.zeros(1))

    @pytest.mark.parametrize("N", (1, 10))
    def test_singleton_batch_rejected(self, N):
        """A batch of one has no sample variance: s0 = 1 used to run as
        `run_trish` with batch 1, on any problem size."""
        problem = quadratic(N=N, noise=5.0)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        with pytest.raises(ValueError, match=r"^s0 must be an integer in \[2, "):
            run_trish_as(problem, np.ones(2), params, 1, 1.0,
                         np.random.default_rng(0))

    @pytest.mark.parametrize("s0", ["3", None, True])
    def test_non_number_s0_rejected(self, s0):
        """A string or None used to raise TypeError from the comparison."""
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        with pytest.raises(ValueError, match=r"^s0 must be"):
            run_trish_as(quadratic(), np.ones(2), params, s0, 1.0,
                         np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(theta=TEST_CONSTANT, nu=TEST_CONSTANT, r=st.integers(1, 12),
           s0=st.integers(2, 25))
    @example(theta=0.4, nu=0.8, r=3, s0=2)
    def test_ege_counts_every_evaluation(self, theta, nu, r, s0):
        inner = quadratic(N=25, noise=3.0, seed=5)
        problem = CountingProblem(inner)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0,
                             theta=theta, nu=nu, r=r)
        _, records = run_trish_as(problem, np.ones(2), params, s0, 2.0,
                                  np.random.default_rng(4))
        assert records[-1].ege == problem.evaluations / 25

    def test_budget_reached_with_bounded_overshoot(self):
        problem = quadratic(N=10)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        _, records = run_trish_as(problem, np.ones(2), params, 2, 1.5,
                                  np.random.default_rng(0))
        assert records[-1].ege >= 1.5
        # the last iteration may redraw twice, so at most three batch charges
        max_batch = max(r.batch_size for r in records)
        assert records[-1].ege <= 1.5 + 3 * max_batch / 10

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(8, 60), noise=st.floats(0.5, 5.0), theta=TEST_CONSTANT,
           nu=TEST_CONSTANT, r=st.integers(1, 6), s0=st.integers(2, 8),
           seed=st.integers(0, 2**16))
    @example(N=40, noise=1.0, theta=2.0, nu=3.0, r=2, s0=2, seed=1)
    def test_noisy_history_holds_the_current_streak(self, N, noise, theta, nu,
                                                    r, s0, seed):
        params = HyperParams(alpha=1.0, gamma1=8.0, gamma2=0.5,
                             theta=theta, nu=nu, r=r)
        noisy_history_run(quadratic(N=N, noise=noise, seed=seed), params,
                          min(s0, N - 1), seed)

    def test_noisy_history_meets_both_resets(self):
        """The example run grows the size both through the tests and through
        noisy-regime redraws, and redraws at an unchanged size too."""
        params = HyperParams(alpha=1.0, gamma1=8.0, gamma2=0.5,
                             theta=2.0, nu=3.0, r=2)
        redraws, same_size, changes = noisy_history_run(
            quadratic(N=40, noise=1.0, seed=1), params, 2, 1)
        assert redraws > same_size > 0 and changes > 0

    @settings(max_examples=80, deadline=None)
    @given(N=st.integers(4, 40), n=st.integers(1, 4),
           noise=st.sampled_from(["additive", "multiplicative", "both"]),
           spread=st.floats(0.1, 5.0), problem_seed=st.integers(0, 2**16),
           alpha=st.floats(0.01, 0.4), gamma2=st.floats(0.1, 1.0),
           widen=st.floats(1.5, 10.0), theta=st.floats(0.2, 3.0), nu=st.floats(0.5, 6.0),
           r=st.integers(1, 6), s0=st.integers(2, 8), budget=st.floats(1.0, 10.0),
           seed=st.integers(0, 2**16))
    # Same-size redraws and resets of the noisy-regime history, then a run
    # whose tests still fail once the size reaches N.
    @example(N=18, n=3, noise="additive", spread=4.9, problem_seed=53811, alpha=0.34,
             gamma2=0.48, widen=9.8, theta=2.9, nu=3.3, r=4, s0=7, budget=9.2, seed=12579)
    @example(N=4, n=1, noise="additive", spread=3.3, problem_seed=43950, alpha=0.25,
             gamma2=0.45, widen=10.0, theta=2.9, nu=4.3, r=6, s0=6, budget=7.2, seed=46137)
    def test_matches_the_reference(self, N, n, noise, spread, problem_seed, alpha,
                                   gamma2, widen, theta, nu, r, s0, budget, seed):
        """`run_trish_as` equals the executable spec in
        `tests/reference_trish_as.py`, toggles at today's values, bit for bit:
        every record, the final iterate and the generator state after it."""
        gen = np.random.default_rng(problem_seed)
        diag = gen.uniform(0.5, 2.0, n)
        offsets = spread * gen.normal(size=(N, n)) if noise != "multiplicative" else None
        scales = gen.uniform(0.5, 1.5, N) if noise != "additive" else None
        problem = SyntheticQuadratic(diag, offsets=offsets, scales=scales)
        x0 = gen.uniform(-3.0, 3.0, n)
        params = HyperParams(alpha=alpha, gamma1=gamma2 * widen, gamma2=gamma2,
                             theta=theta, nu=nu, r=r)
        s0 = min(s0, N)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        x, records = run_trish_as(problem, x0, params, s0, budget, rng)
        x_ref, ref_records = reference_trish_as(
            problem, x0, alpha, params.gamma1, gamma2, theta, nu, r, s0, budget, twin)
        assert [(rec.case.value, rec.grad_norm, rec.batch_size, rec.ege)
                for rec in records] == ref_records
        assert x.tobytes() == x_ref.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state


def noisy_history_run(problem, params, s0, seed):
    """Run `run_trish_as` and check what each noisy-regime control call is
    handed: the aggregates of the batches drawn at the current size since
    the last size change, newest last (the current one) and at most r + 1,
    without any that a redraw replaced.  Returns the control's redraws, those
    that kept the size, and the changes of size made by the inner-product and
    orthogonality tests."""
    draws, discarded = [], set()
    redraws = same_size = changes = 0
    sampled, tested, noisy = (optimizer.sampled_gradient, optimizer.required_size,
                              optimizer.noisy_regime_step)

    def spy_sampled(*args):
        draws.append(sampled(*args))
        return draws[-1]

    def spy_tested(est, *args):
        nonlocal changes
        proposed = tested(est, *args)
        if proposed is not None:
            discarded.add(id(est.aggregate))
            changes += proposed > est.per_component.shape[0]
        return proposed

    def spy_noisy(recent, r, current, *args):
        nonlocal redraws, same_size
        size = current.per_component.shape[0]
        older = [k for k, d in enumerate(draws) if d.per_component.shape[0] != size]
        streak = [d.aggregate for d in draws[older[-1] + 1 if older else 0:]
                  if id(d.aggregate) not in discarded]
        assert r == params.r and 1 <= len(recent) <= r + 1
        assert recent[-1] is current.aggregate
        assert [id(a) for a in recent] == [id(a) for a in streak[-(r + 1):]]
        proposed = noisy(recent, r, current, *args)
        if proposed is not None:
            discarded.add(id(current.aggregate))
            redraws += 1
            same_size += proposed <= size
        return proposed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "sampled_gradient", spy_sampled)
        mp.setattr(optimizer, "required_size", spy_tested)
        mp.setattr(optimizer, "noisy_regime_step", spy_noisy)
        run_trish_as(problem, np.ones(2), params, s0, 10.0,
                     np.random.default_rng(seed))
    return redraws, same_size, changes


# Tight variance tests on a noisy quadratic grow the batch to N early.
TIGHT = HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0, theta=0.5, nu=0.5, r=3)


def keep_iterates(kept):
    """A metric_fn that appends every iterate it is given to `kept`."""
    def metric_fn(xs):
        kept.extend(np.array(xs))
        return np.zeros(len(xs))
    return metric_fn


class TestFullBatch:
    """At |S| = N the batch gradient is the full gradient: no test runs and
    nothing is redrawn, so each later iteration is one full-batch step."""

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 12), theta=TEST_CONSTANT, nu=TEST_CONSTANT,
           r=st.integers(1, 6), s0=st.integers(2, 12), seed=st.integers(0, 2**16))
    @example(N=8, theta=0.5, nu=0.5, r=3, s0=2, seed=0)
    @example(N=2, theta=0.5, nu=0.5, r=1, s0=2, seed=0)
    def test_controls_never_see_a_full_batch(self, N, theta, nu, r, s0, seed):
        rows = []
        with pytest.MonkeyPatch.context() as mp:
            for module, name, arg in ((optimizer, "required_size", 0),
                                      (optimizer, "noisy_regime_step", 2),
                                      (sampling, "variance_report", 0)):
                def spy(*args, _original=getattr(module, name), _arg=arg):
                    rows.append(args[_arg].per_component.shape[0])
                    return _original(*args)
                mp.setattr(module, name, spy)
            params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0,
                                 theta=theta, nu=nu, r=r)
            run_trish_as(quadratic(N=N, noise=3.0, seed=seed), np.ones(2), params,
                         min(s0, N), 6.0, np.random.default_rng(seed))
        assert all(m < N for m in rows)

    @pytest.mark.parametrize("N, noise, seed", [(8, 3.0, 0), (20, 2.0, 1), (60, 1.0, 2)])
    def test_after_reaching_full_size_it_is_full_batch_trish(self, N, noise, seed):
        """From the first record at size N on, the run is `run_trish` with
        batch N from that record's iterate, bit for bit, at one epoch a step."""
        problem = quadratic(N=N, noise=noise, seed=seed)
        kept = []
        x, records = run_trish_as(problem, np.ones(2), TIGHT, 2, 12.0,
                                  np.random.default_rng(seed),
                                  metric_fn=keep_iterates(kept))
        first = next(k for k, rec in enumerate(records) if rec.batch_size == N)
        later = records[first + 1:]
        assert len(later) >= 3
        assert all(round(rec.ege * N) - round(prev.ege * N) == N
                   for prev, rec in zip(records[first:], later))

        tail = []
        x_full, full = run_trish(problem, kept[first], TIGHT, N, float(len(later)),
                                 np.random.default_rng(99), metric_fn=keep_iterates(tail))
        assert [(r.case, r.grad_norm, r.batch_size) for r in full] == \
            [(r.case, r.grad_norm, r.batch_size) for r in later]
        np.testing.assert_array_equal(np.array(tail), np.array(kept[first + 1:]))
        np.testing.assert_array_equal(x_full, x)


@settings(max_examples=80, deadline=None)
@given(driver=st.sampled_from(["trish", "sg", "trish_as"]), N=st.integers(2, 40),
       noise=st.floats(0.5, 5.0), theta=TEST_CONSTANT, nu=TEST_CONSTANT,
       r=st.integers(1, 6), size=st.integers(2, 40), budget=st.floats(0.1, 6.0),
       seed=st.integers(0, 2**16))
@example(driver="trish_as", N=40, noise=1.0, theta=2.0, nu=3.0, r=2, size=2,
         budget=4.0, seed=1)
def test_ege_is_drawn_sizes_over_N(driver, N, noise, theta, nu, r, size, budget, seed):
    """Every record's EGE is the sum of the batch sizes drawn before it,
    redraws included, over N, exactly; nothing is drawn after the last record."""
    sizes, drawn_at_record = [], []
    draw, record = optimizer.draw_batch, optimizer.IterationRecord

    def spy_draw(*args):  # (N, size, rng)
        sizes.append(args[1])
        return draw(*args)

    def spy_record(*fields):
        drawn_at_record.append(len(sizes))
        return record(*fields)

    params = HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0, theta=theta, nu=nu, r=r)
    problem, rng = quadratic(N=N, noise=noise, seed=seed), np.random.default_rng(seed)
    size = min(size, N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "draw_batch", spy_draw)
        mp.setattr(optimizer, "IterationRecord", spy_record)
        if driver == "sg":
            _, records = run_sg(problem, np.ones(2), params.alpha, size, budget, rng)
        else:
            run = run_trish if driver == "trish" else run_trish_as
            _, records = run(problem, np.ones(2), params, size, budget, rng)
    assert [rec.ege for rec in records] == [sum(sizes[:k]) / N for k in drawn_at_record]
    assert drawn_at_record[-1] == len(sizes)


TELEMETRY_KINDS = ("logistic_sparse", "logistic_dense", "mlp_classifier",
                   "mlp_regressor")


def telemetry_problem(kind, seed, N=64, N_test=40):
    """A training problem and its held-out metric over a stack of iterates."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N + N_test, 5))
    X[rng.random(size=X.shape) < 0.4] = 0.0
    score = X @ rng.normal(size=5) + 0.5 * rng.normal(size=N + N_test)
    if kind.startswith("logistic"):
        y = np.where(score >= 0.0, 1.0, -1.0)
        if kind == "logistic_sparse":
            X = sp.csr_matrix(X)
        model = LogisticModel(X[:N], y[:N])
        return model, lambda xs: testing_accuracy(model, xs, X[N:], y[N:])
    if kind == "mlp_classifier":
        y = (score >= 0.0).astype(np.float64)
        model = MlpModel.classifier(X[:N], y[:N], hidden=3)
        return model, lambda xs: testing_accuracy(model, xs, X[N:], y[N:])
    y = 1.0 / (1.0 + np.exp(-score))
    model = MlpModel.regressor(X[:N], y[:N], hidden=(3,))
    return model, lambda xs: testing_loss(model, xs, X[N:], y[N:])


def telemetry_driver(name, problem, budget, seed, vacuous=False, **telemetry):
    """8-component batches on 64 components, so 8 iterations per epoch
    (for trish_as while its tests keep the size)."""
    rng = np.random.default_rng(seed)
    x0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, size=problem.n)
    params = HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0, theta=0.5, nu=1.0, r=3)
    if name == "trish":
        return run_trish(problem, x0, params, 8, budget, rng, **telemetry)
    if name == "sg":
        return run_sg(problem, x0, 0.3, 8, budget, rng, **telemetry)
    if vacuous:
        params = HyperParams(alpha=0.3, gamma1=4.0, gamma2=1.0,
                             theta=float("inf"), nu=float("inf"))
    return run_trish_as(problem, x0, params, 8, budget, rng, **telemetry)


def _dedup(points):
    out = []
    for p in points:
        if not out or not np.array_equal(out[-1], p):
            out.append(p)
    return out


def check_deferred_telemetry(driver, kind, budget, seed, vacuous=False):
    """Telemetry on and off give one trajectory, and every record's train
    loss and held-out metric equal the one-row-stack values at its iterate.
    Returns the number of iterations."""
    model, metric = telemetry_problem(kind, seed)
    seen = []

    def metric_fn(xs):
        seen.extend(x.copy() for x in xs)
        return metric(xs)

    on, off = CountingProblem(model), CountingProblem(model)
    x_on, rec_on = telemetry_driver(driver, on, budget, seed, vacuous,
                                    metric_fn=metric_fn)
    x_off, rec_off = telemetry_driver(driver, off, budget, seed, vacuous)

    np.testing.assert_array_equal(x_on, x_off)
    assert len(on.points) == len(off.points)
    for a, b in zip(on.points, off.points):
        np.testing.assert_array_equal(a, b)
    fields = [[(r.case, r.grad_norm, r.batch_size, r.ege) for r in recs]
              for recs in (rec_on, rec_off)]
    assert fields[0] == fields[1]
    assert all(r.train_loss is None and r.test_metric is None for r in rec_off)

    # The k-th stacked row is the k-th iterate: the next gradient is taken
    # there, and the last one is the returned point.
    assert len(seen) == len(rec_on)
    np.testing.assert_array_equal(seen[-1], x_on)
    later = _dedup(on.points)[1:]
    assert len(later) == len(seen) - 1
    for a, b in zip(later, seen):
        np.testing.assert_array_equal(a, b)
    for rec, x in zip(rec_on, seen):
        assert rec.train_loss == model.loss(x)
        assert rec.test_metric == metric(x[None])[0]
    return len(rec_on)


class TestDeferredTelemetry:
    @settings(max_examples=40, deadline=None)
    @given(driver=st.sampled_from(("trish", "sg", "trish_as")),
           kind=st.sampled_from(TELEMETRY_KINDS),
           budget=st.sampled_from((0.5, 2.0, 4.5, 9.0)),
           seed=st.integers(0, 2**16))
    def test_records_equal_single_vector_values(self, driver, kind, budget, seed):
        check_deferred_telemetry(driver, kind, budget, seed)

    @pytest.mark.parametrize("driver", ("trish", "sg", "trish_as"))
    @pytest.mark.parametrize("iters", (5, TELEMETRY_BLOCK, TELEMETRY_BLOCK + 1,
                                       TELEMETRY_BLOCK + 6, 2 * TELEMETRY_BLOCK))
    def test_block_boundaries(self, driver, iters):
        for kind in TELEMETRY_KINDS:
            assert check_deferred_telemetry(driver, kind, iters / 8, seed=3,
                                            vacuous=True) == iters

    @pytest.mark.parametrize("iters, sizes", [
        (5, [5]), (TELEMETRY_BLOCK, [32]), (TELEMETRY_BLOCK + 1, [17, 16]),
        (38, [19, 19]), (64, [32, 32]), (65, [22, 22, 21])])
    def test_blocks_balanced(self, iters, sizes):
        """ceil(n / TELEMETRY_BLOCK) stacks, sizes within one of each other."""
        assert TELEMETRY_BLOCK == 32
        model, metric = telemetry_problem("logistic_sparse", 0)
        stacks, losses = [], []

        class StackCounting(CountingProblem):
            def losses(self, xs):
                losses.append(len(xs))
                return self.inner.losses(xs)

        def metric_fn(xs):
            stacks.append(len(xs))
            return metric(xs)

        _, records = telemetry_driver("trish", StackCounting(model), iters / 8, 0,
                                      metric_fn=metric_fn)
        assert len(records) == iters
        assert stacks == losses == sizes
        assert max(stacks) <= TELEMETRY_BLOCK

    def test_metric_must_return_one_value_per_iterate(self):
        model, _ = telemetry_problem("logistic_dense", 0)
        with pytest.raises(ValueError, match="shape"):
            telemetry_driver("trish", model, 1.0, 0, metric_fn=lambda xs: 0.5)

    @pytest.mark.parametrize("driver", ("trish", "sg", "trish_as"))
    def test_metric_fn_alone_fills_both_curves(self, driver):
        model, metric = telemetry_problem("logistic_dense", 0)
        _, records = telemetry_driver(driver, model, 2.0, 0, metric_fn=metric)
        assert all(r.train_loss is not None and r.test_metric is not None
                   for r in records)

    def test_off_evaluates_no_loss(self):
        model, _ = telemetry_problem("logistic_sparse", 0)

        class NoLoss(CountingProblem):
            def loss(self, x):
                raise AssertionError("loss evaluated with telemetry off")

            losses = loss

        _, records = telemetry_driver("trish_as", NoLoss(model), 2.0, 0)
        assert all(r.train_loss is None for r in records)
