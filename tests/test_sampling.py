"""Tests for the variance tests, growth formula, and noisy-regime control."""

import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trish.optimizer as optimizer
import trish.sampling as sampling
from trish.core import GradientEstimate, NumericError, as_vector
from trish.optimizer import HyperParams, run_trish, run_trish_as
from trish.sampling import (VarianceReport, ZeroReferenceError, noisy_regime_step,
                            proposed_sample_size, required_size, variance_report)
from trish.theory import SyntheticQuadratic, gradient_moments


def estimate(per_component) -> GradientEstimate:
    per = np.asarray(per_component, dtype=np.float64)
    agg = per.mean(axis=0)
    return GradientEstimate(aggregate=agg, per_component=per, sq_norm=agg.dot(agg))


class TestVarianceReport:
    def test_equal_inner_products_give_zero_variance(self):
        est = estimate([[1.0, 0.0], [0.0, 1.0]])  # aggregate (0.5, 0.5)
        rep = variance_report(est, est.aggregate, theta=1e-9, nu=100.0)
        assert rep.var_inner == 0.0
        assert rep.inner_ok

    def test_hand_computed_inner_variance(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        rep = variance_report(est, est.aggregate, theta=0.9, nu=5.84)
        assert rep.var_inner == 2.0  # ((2-1)^2 + (0-1)^2) / 1
        assert not rep.inner_ok  # 2/2 = 1 > 0.81

    def test_hand_computed_orthogonal_variance(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        rep = variance_report(est, est.aggregate, theta=0.9, nu=5.84)
        assert rep.var_orth == 0.0  # rows parallel to the aggregate
        assert rep.orth_ok

    def test_identical_gradients_pass_everything(self):
        est = estimate([[0.3, -0.7]] * 4)
        rep = variance_report(est, est.aggregate, theta=1e-9, nu=1e-9)
        assert rep.var_inner == 0.0 and rep.var_orth == 0.0
        assert rep.ok

    def test_degenerate_batch_rejected(self):
        est = estimate([[1.0, 0.0]])
        with pytest.raises(ValueError, match="has no sample variance"):
            variance_report(est, est.aggregate, 0.9, 5.84)

    def test_zero_reference_rejected(self):
        est = estimate([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ZeroReferenceError):
            variance_report(est, np.zeros(2), 0.9, 5.84)

    def test_scale_invariance_of_decisions(self):
        """Rescaling all gradients by c scales var_inner by c^4 and
        ||g||^4 by c^4 (c^2 for the orthogonality pair), so both verdicts
        are unchanged."""
        rng = np.random.default_rng(0)
        base = rng.normal(size=(6, 4))
        ref_rep = None
        for c in (1e-3, 1.0, 1e3):
            est = estimate(c * base)
            rep = variance_report(est, est.aggregate, theta=0.9, nu=1.0)
            if ref_rep is None:
                ref_rep = rep
            assert rep.inner_ok == ref_rep.inner_ok
            assert rep.orth_ok == ref_rep.orth_ok

    def test_scale_factors_exact(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 3))
        rep1 = variance_report(estimate(base), base.mean(axis=0), 0.9, 5.84)
        c = 2.0  # power of two keeps the scaling exact in floating point
        rep2 = variance_report(estimate(c * base), c * base.mean(axis=0), 0.9, 5.84)
        np.testing.assert_allclose(rep2.var_inner, c**4 * rep1.var_inner, rtol=1e-12)
        np.testing.assert_allclose(rep2.var_orth, c**2 * rep1.var_orth, rtol=1e-12)

    def test_pythagorean_decomposition(self):
        """||grad_i||^2 = (grad_i . unit_ref)^2 + ||orthogonal part||^2."""
        rng = np.random.default_rng(2)
        per = rng.normal(size=(8, 5))
        est = estimate(per)
        g = est.aggregate
        unit = g / np.linalg.norm(g)
        dots = per @ g
        orth = per - np.outer(dots / (g @ g), g)
        for i in range(per.shape[0]):
            lhs = per[i] @ per[i]
            rhs = (per[i] @ unit) ** 2 + orth[i] @ orth[i]
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)
        # and the report's var_orth equals the explicit decomposition
        rep = variance_report(est, g, 0.9, 5.84)
        np.testing.assert_allclose(
            rep.var_orth, np.sum(orth * orth) / (per.shape[0] - 1), rtol=1e-12)

    def test_noisy_reference_centering(self):
        """With an external reference the statistic is centered at the batch
        mean of the inner products, keeping it a true sample variance."""
        rng = np.random.default_rng(3)
        per = rng.normal(size=(6, 3))
        est = estimate(per)
        ref = rng.normal(size=3)
        rep = variance_report(est, ref, 0.9, 5.84)
        dots = per @ ref
        np.testing.assert_allclose(rep.var_inner, np.var(dots, ddof=1), rtol=1e-10)


class TestProposedSampleSize:
    def test_hand_computed_example(self):
        rep = VarianceReport(var_inner=4.0, var_orth=10.0,
                             inner_ok=False, orth_ok=True)
        size = proposed_sample_size(rep, np.array([1.0, 0.0]),
                                    theta=0.9, nu=5.84, N=100)
        assert size == 5  # max(ceil(4/0.81), ceil(10/34.1056)) = max(5, 1)

    def test_zero_variances_give_zero(self):
        rep = VarianceReport(var_inner=0.0, var_orth=0.0,
                             inner_ok=True, orth_ok=True)
        assert proposed_sample_size(rep, np.array([1.0]), 0.9, 5.84, 100) == 0

    def test_capped_at_population(self):
        rep = VarianceReport(var_inner=1e12, var_orth=0.0,
                             inner_ok=False, orth_ok=True)
        assert proposed_sample_size(rep, np.array([1.0]), 0.9, 5.84, 100) == 100

    def test_nonfinite_quotient_raises(self):
        rep = VarianceReport(var_inner=np.inf, var_orth=0.0,
                             inner_ok=False, orth_ok=True)
        with pytest.raises(NumericError):
            proposed_sample_size(rep, np.array([1.0]), 0.9, 5.84, 100)

    def test_tiny_reference_overflow_raises(self):
        # ||ref||^4 underflows to zero, so the quotient overflows to inf
        rep = VarianceReport(var_inner=1e300, var_orth=0.0,
                             inner_ok=False, orth_ok=True)
        with pytest.raises(NumericError):
            proposed_sample_size(rep, np.array([1e-100]), 0.9, 5.84, 100)

    def test_fully_vanished_reference_raises_zero_reference(self):
        rep = VarianceReport(var_inner=1e300, var_orth=0.0,
                             inner_ok=False, orth_ok=True)
        with pytest.raises(ZeroReferenceError):
            proposed_sample_size(rep, np.array([1e-200]), 0.9, 5.84, 100)

    def test_monotone_in_each_variance(self):
        ref = np.array([1.0, 0.0])
        prev = -1
        for v in np.linspace(0.0, 50.0, 40):
            rep = VarianceReport(var_inner=v, var_orth=0.0,
                                 inner_ok=False, orth_ok=True)
            size = proposed_sample_size(rep, ref, 0.9, 5.84, 1000)
            assert size >= prev
            prev = size
        prev = -1
        for v in np.linspace(0.0, 5000.0, 40):
            rep = VarianceReport(var_inner=0.0, var_orth=v,
                                 inner_ok=True, orth_ok=False)
            size = proposed_sample_size(rep, ref, 0.9, 5.84, 10**6)
            assert size >= prev
            prev = size


class TestRequiredSize:
    def test_outcomes(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        assert required_size(est, est.aggregate, 10.0, 10.0, 100) is None  # both pass
        assert required_size(est, est.aggregate, 0.9, 5.84, 100) == 3  # ceil(2 / 0.81)
        assert required_size(est, np.array([0.0, 0.01]), 0.9, 5.84, 2000) == 1173
        assert required_size(est, np.zeros(2), 0.9, 5.84, 100) is None
        assert required_size(est, np.array([1e-100, 0.0]), 0.9, 5.84, 100) is None

    def test_overflowing_threshold_skips_the_tests(self):
        """theta^2 ||ref||^4 overflows a Python float here (ref_sq > 1e154),
        which raises OverflowError; the tests are skipped like any other
        non-finite test quantity."""
        est = estimate([[1e78, 0.0], [1.1e78, 0.0], [0.9e78, 1.0]])
        with np.errstate(over="ignore"):
            assert required_size(est, est.aggregate, 0.9, 5.84, 100) is None

    def test_diverging_adaptive_run_fails_like_the_fixed_batch_run(self):
        """Both runs diverge and raise NumericError naming the first
        non-finite component; no OverflowError escapes the variance tests."""
        problem = SyntheticQuadratic(
            diag=[0.5, 1.0], offsets=np.random.default_rng(0).normal(size=(50, 2)))
        params = HyperParams(alpha=10.0, gamma1=100.0, gamma2=50.0)
        named = []
        for run in (run_trish, run_trish_as):
            with pytest.raises(NumericError) as err, np.errstate(over="ignore"):
                run(problem, np.ones(2), params, 2, 5.0, np.random.default_rng(1))
            named.append(err.value.component)
        assert named == [31, 31]


class TestExactMoments:
    """ROADMAP 1(d): with the full gradient as a fixed reference, the mean
    over every batch S of var / |S| * (N - |S|) / N is the exact moment of
    the without-replacement batch gradient that `gradient_moments` returns."""

    @staticmethod
    def mean_statistics(problem, x, size):
        N = problem.N
        moments = gradient_moments(problem, x, size)
        inner = orth = 0.0
        batches = list(itertools.combinations(range(N), size))
        for batch in batches:
            rep = variance_report(estimate(problem.component_gradients(batch, x)),
                                  moments.grad, 0.9, 5.84)
            inner += rep.var_inner / size * (N - size) / N
            orth += rep.var_orth / size * (N - size) / N
        return moments, inner / len(batches), orth / len(batches)

    CASES = [(seed, size) for seed in (0, 1, 2) for size in range(2, 10)]

    def problem(self, seed):
        rng = np.random.default_rng(seed)
        problem = SyntheticQuadratic(diag=[0.5, 1.0, 2.0],
                                     offsets=rng.normal(size=(10, 3)),
                                     scales=rng.uniform(0.5, 1.5, size=10))
        return problem, rng.normal(size=3)

    @pytest.mark.parametrize("seed, size", CASES)
    def test_inner_statistic(self, seed, size):
        moments, inner, _ = self.mean_statistics(*self.problem(seed), size)
        np.testing.assert_allclose(inner, moments.inner_moment, rtol=1e-12)

    @pytest.mark.xfail(strict=True, reason="ROADMAP 1(c): var_orth is not centered "
                       "at the batch mean, so it overestimates the orthogonal moment")
    def test_orthogonal_statistic(self):
        for seed, size in self.CASES:
            moments, _, orth = self.mean_statistics(*self.problem(seed), size)
            np.testing.assert_allclose(orth, moments.orth_moment, rtol=1e-12)


class TestSecondMomentLink:
    def test_passing_exact_tests_bounds_second_moment(self):
        """On an enumerable toy problem, measure the exact inner-product and
        orthogonality moments, back out the smallest (theta, nu) that pass,
        and confirm E||g||^2 <= (1 + theta^2 + nu^2) ||grad||^2."""
        rng = np.random.default_rng(7)
        problem = SyntheticQuadratic(diag=[1.0, 2.0],
                                     offsets=rng.normal(size=(6, 2)))
        for _ in range(25):
            x = rng.normal(size=2)
            moments = gradient_moments(problem, x, batch_size=2)
            grad_sq = float(moments.grad @ moments.grad)
            if grad_sq < 1e-12:
                continue
            theta_sq = moments.inner_moment / grad_sq**2
            nu_sq = moments.orth_moment / grad_sq
            bound = (1.0 + theta_sq + nu_sq) * grad_sq
            assert moments.e_g_sq <= bound * (1 + 1e-12)

    def test_error_second_moment_identity(self):
        """E||g||^2 = ||grad||^2 + E||g - grad||^2 for unbiased estimates."""
        rng = np.random.default_rng(8)
        problem = SyntheticQuadratic(diag=[0.5, 1.5],
                                     offsets=rng.normal(size=(5, 2)))
        x = rng.normal(size=2)
        m = gradient_moments(problem, x, batch_size=2)
        np.testing.assert_allclose(m.e_g_sq, m.grad @ m.grad + m.e_err_sq,
                                   rtol=1e-12)


def handed_reference(recent, r, current, theta=0.9, nu=5.84, N=100):
    """The reference `noisy_regime_step` passes to `required_size`, or None
    when it never calls it."""
    refs = []

    def spy(est, ref, *args):
        refs.append(ref)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "required_size", spy)
        noisy_regime_step(recent, r, current, theta, nu, N)
    return refs[0] if refs else None


def noisy_calls(r=2):
    """Run `run_trish_as` on a noisy quadratic whose batch grows both through
    the variance tests and through noisy-regime redraws, and record each
    noisy-regime control call as (size, aggregates handed, answer, index of
    the next batch drawn), with every batch the run draws."""
    draws, calls = [], []
    sampled, noisy = optimizer.sampled_gradient, optimizer.noisy_regime_step

    def spy_sampled(*args):
        draws.append(sampled(*args))
        return draws[-1]

    def spy_noisy(recent, r, current, *args):
        proposed = noisy(recent, r, current, *args)
        calls.append((current.per_component.shape[0], list(recent), proposed,
                      len(draws)))
        return proposed

    rng = np.random.default_rng(1)
    problem = SyntheticQuadratic(diag=np.ones(2),
                                 offsets=rng.normal(size=(40, 2)))
    params = HyperParams(alpha=1.0, gamma1=8.0, gamma2=0.5, theta=2.0, nu=3.0, r=r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "sampled_gradient", spy_sampled)
        mp.setattr(optimizer, "noisy_regime_step", spy_noisy)
        run_trish_as(problem, np.ones(2), params, 2, 10.0, np.random.default_rng(1))
    return calls, draws


def same_arrays(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class TestGradientHistory:
    """The noisy-regime history as `noisy_regime_step` reads it: the
    aggregates kept at the current size, newest last, which the run loop of
    `run_trish_as` resets at each new size and updates on each redraw."""

    def test_not_steady_until_window_plus_one(self):
        """With r = 3 the control needs r + 1 = 4 aggregates of one size;
        the first three and the last three both average (0, 0.01)."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        recent = [np.array([1.0, 0.0]), np.array([-2.0, 0.03]),
                  np.array([1.0, 0.0]), est.aggregate]
        for k in range(1, 4):
            assert noisy_regime_step(recent[:k], 3, est, 0.9, 5.84, 100) is None
        assert noisy_regime_step(recent, 3, est, 0.9, 5.84, 100) == 100

    def test_size_change_resets(self):
        """Every aggregate handed over was drawn at the current size, and the
        run leaves a full history of r + 1 for a larger size."""
        calls, draws = noisy_calls(r=2)
        size_of = {id(d.aggregate): d.per_component.shape[0] for d in draws}
        assert all(size_of[id(a)] == size for size, recent, _, _ in calls
                   for a in recent)
        assert any(len(prev[1]) == 3 and len(cur[1]) < 3 and cur[0] > prev[0]
                   for prev, cur in zip(calls, calls[1:]))

    def test_average_over_stored_entries(self):
        est = estimate([[8.0], [0.0]])  # aggregate (4,)
        recent = [np.array([v]) for v in (1.0, 2.0, 3.0)]
        np.testing.assert_array_equal(handed_reference(recent, 2, est), [2.5])  # newest two

    def test_replace_last_same_size(self):
        """A redraw that keeps the size replaces the last aggregate and
        keeps the older ones: the next call at that size is handed them, the
        redrawn batch's aggregate and its own, newest r + 1."""
        calls, draws = noisy_calls(r=2)
        kept = 0
        for (size, recent, proposed, drawn), nxt in zip(calls, calls[1:]):
            if proposed is not None and proposed <= size and nxt[0] == size:
                redrawn = draws[drawn].aggregate
                assert same_arrays(nxt[1], (recent[:-1] + [redrawn, nxt[1][-1]])[-3:])
                assert not any(a is recent[-1] for a in nxt[1])
                kept += 1
        assert kept > 0

    def test_replace_last_new_size_resets(self):
        """A redraw at a larger size drops the history: the next call at the
        new size is handed the redrawn batch's aggregate and its own."""
        calls, draws = noisy_calls(r=2)
        grown = 0
        for (size, _, proposed, drawn), nxt in zip(calls, calls[1:]):
            if proposed is not None and proposed > size and nxt[0] == proposed:
                assert same_arrays(nxt[1], [draws[drawn].aggregate, nxt[1][-1]])
                grown += 1
        assert grown > 0

    @pytest.mark.parametrize("window", [True, 2.5, 2.0, "3", 0])
    def test_rejects_bool_and_nonintegral_window(self, window):
        """A window of True would average one aggregate, and with r = 0 the
        slice [-0:] would divide the whole stack by zero."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="r must be"):
            noisy_regime_step([est.aggregate] * 4, window, est, 0.9, 5.84, 100)


class TestNoisyRegimeStep:
    def test_not_steady_returns_none(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        recent = [np.array([1.0, 0.0]), est.aggregate]  # r + 1 = 3 needed
        assert noisy_regime_step(recent, 2, est, 0.9, 5.84, 100) is None

    def test_average_equal_to_current_returns_none(self):
        """Threshold ||g_avg|| < ||g|| fails when all gradients coincide."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        recent = [np.array([1.0, 0.0])] * 2 + [est.aggregate]
        assert noisy_regime_step(recent, 2, est, 0.9, 5.84, 100) is None

    def test_cancelling_history_triggers_growth(self):
        """Stored gradients nearly cancel; the tiny average fails the
        orthogonality retest and the returned size matches hand arithmetic."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        recent = [np.array([1.0, 0.0]), np.array([-1.0, 0.02]), est.aggregate]
        np.testing.assert_allclose(handed_reference(recent, 2, est), [0.0, 0.01])
        # The retest residuals are the rows themselves, so var_orth = 4 against
        # threshold nu^2 ||g_avg||^2 = 34.1056e-4; proposal ceil(4 / 34.1056e-4).
        assert noisy_regime_step(recent, 2, est, 0.9, 5.84, 2000) == 1173

    def test_growth_capped_at_population(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        recent = [np.array([1.0, 0.0]), np.array([-1.0, 0.02]), est.aggregate]
        assert noisy_regime_step(recent, 2, est, 0.9, 5.84, 100) == 100

    def test_zero_average_returns_none(self):
        """An average that cancels exactly passes the gate but leaves the
        retest undefined; the control then keeps the size."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        recent = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), est.aggregate]
        g_avg = handed_reference(recent, 2, est)
        np.testing.assert_array_equal(g_avg, [0.0, 0.0])
        with pytest.raises(ZeroReferenceError):
            variance_report(est, g_avg, 0.9, 5.84)
        assert noisy_regime_step(recent, 2, est, 0.9, 5.84, 100) is None


# ---------------------------------------------------------------------------
# Bit-for-bit oracles: the numpy-wrapper forms of `variance_report`, the
# noisy-regime average and `proposed_sample_size`, kept verbatim.

def wrapper_variance_report(est, ref_vec, theta, nu):
    per = est.per_component
    m = per.shape[0]
    if m < 2:
        raise ValueError(f"batch of size {m} has no sample variance")
    ref = as_vector(ref_vec)
    ref_sq = float(ref @ ref)
    if ref_sq == 0.0:
        raise ZeroReferenceError("reference vector is zero")

    dots = per @ ref
    center = float(est.aggregate @ ref)  # batch mean of dots
    var_inner = float(np.sum((dots - center) ** 2) / (m - 1))

    orth = per - np.outer(dots / ref_sq, ref)
    var_orth = float(np.einsum("ij,ij->", orth, orth) / (m - 1))

    inner_ok = var_inner / m <= theta**2 * ref_sq**2
    orth_ok = var_orth <= nu**2 * ref_sq
    return VarianceReport(var_inner=var_inner, var_orth=var_orth,
                          inner_ok=bool(inner_ok), orth_ok=bool(orth_ok))


def wrapper_average(aggregates):
    return np.mean(np.stack(aggregates), axis=0)


def wrapper_proposed_sample_size(report, ref_vec, theta, nu, N):
    ref = as_vector(ref_vec)
    ref_sq = float(ref @ ref)
    if ref_sq == 0.0:
        raise ZeroReferenceError("reference vector is zero")
    denom_inner = theta**2 * ref_sq**2
    denom_orth = nu**2 * ref_sq
    if denom_inner == 0.0 or denom_orth == 0.0:
        raise NumericError("variance-test threshold underflowed to zero")
    q_inner = report.var_inner / denom_inner
    q_orth = report.var_orth / denom_orth
    if not (math.isfinite(q_inner) and math.isfinite(q_orth)):
        raise NumericError("sample-size quotient is not finite")
    return max(N if q > N else math.ceil(q) for q in (q_inner, q_orth))


def outcome(fn, *args):
    """The value `fn` returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, NumericError) as exc:
        return type(exc)


@st.composite
def sampler_cases(draw):
    """A batch of m x n component gradients, a reference (the batch mean or
    the average of the newest r of r + 1..2r + 1 aggregates), test
    constants and N."""
    m, n = draw(st.integers(2, 64)), draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["normal", "row_scales", "near_parallel",
                                  "repeated_rows"]))
    per = rng.normal(size=(m, n)) * 10.0 ** draw(st.integers(-6, 6))
    if shape == "row_scales":
        per *= 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    elif shape == "near_parallel":
        per = rng.normal(size=n) + 1e-3 * per
    elif shape == "repeated_rows":
        per[1:] = per[0]
    # Row mean in index order, as `sampled_gradient` forms it.
    agg = np.add.reduce(per, axis=0) / float(m)
    est = GradientEstimate(agg, per, agg.dot(agg))
    history = None
    if draw(st.booleans()):
        r = draw(st.integers(1, 12))
        pushed = [est.aggregate + rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
                  for _ in range(draw(st.integers(r + 1, 2 * r + 1)))]
        history = (r, pushed)
    constant = st.one_of(st.floats(-2, 2).map(lambda e: 10.0**e), st.just(math.inf))
    return (est, history, draw(constant), draw(constant),
            draw(st.integers(2, 10**5)))


def history_average(est, history):
    """The averaged gradient `noisy_regime_step` forms from the aggregates
    pushed at the batch's size, kept as the run loop keeps them.  A current
    gradient of infinite norm opens the control's norm gate."""
    r, pushed = history
    gate_open = GradientEstimate(np.full(est.aggregate.shape, np.inf), est.per_component,
                                 math.inf)
    return handed_reference(deque(pushed, maxlen=r + 1), r, gate_open)


class TestWrapperOracles:
    @settings(max_examples=300, deadline=None)
    @given(sampler_cases())
    def test_equal_bit_for_bit(self, case):
        est, history, theta, nu, N = case
        ref = est.aggregate
        if history is not None:
            ref = history_average(est, history)
            r, pushed = history
            assert np.array_equal(ref, wrapper_average(pushed[-r:]))

        new = outcome(variance_report, est, ref, theta, nu)
        old = outcome(wrapper_variance_report, est, ref, theta, nu)
        if isinstance(old, type):
            assert new is old
            return
        assert new.var_inner == old.var_inner
        assert new.var_orth == old.var_orth
        assert new.inner_ok is old.inner_ok and new.orth_ok is old.orth_ok
        assert (outcome(proposed_sample_size, new, ref, theta, nu, N)
                == outcome(wrapper_proposed_sample_size, old, ref, theta, nu, N))


# ---------------------------------------------------------------------------
# `required_size` against the test -> propose -> catch sequence it replaced,
# kept verbatim: the run loop's batch-gradient check, inside the catch the
# loop put around the noisy-regime control.

def sequence_required_size(est, ref, theta, nu, N):
    try:
        report = variance_report(est, ref, theta, nu)
        if not report.ok:
            try:
                proposed = proposed_sample_size(report, ref, theta, nu, N)
            except NumericError:
                pass  # finite-precision overflow/underflow: keep the size
            else:
                return proposed
        return None
    except (ZeroReferenceError, NumericError):
        return None


class TestRequiredSizeOracle:
    @settings(max_examples=300, deadline=None)
    @given(sampler_cases(), st.sampled_from(["drawn", "zero", "overflowing",
                                             "underflowing"]))
    def test_equal_bit_for_bit(self, case, kind):
        """Both reference kinds (batch mean, history average), and each
        rescaled so its squared norm is zero, overflows or underflows."""
        est, history, theta, nu, N = case
        ref = est.aggregate if history is None else history_average(est, history)
        if kind == "zero":
            ref = np.zeros_like(ref)
        elif kind != "drawn":
            ref = ref * ((1e200 if kind == "overflowing" else 1e-160) / np.abs(ref).max())
        with np.errstate(all="ignore"):
            new = required_size(est, ref, theta, nu, N)
            old = sequence_required_size(est, ref, theta, nu, N)
        assert new == old and type(new) is type(old)
