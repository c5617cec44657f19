"""Tests for the variance tests, growth formula, and noisy-regime control."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trish.core import GradientEstimate, NumericError, as_vector
from trish.sampling import (DegenerateBatchError, GradientHistory,
                            VarianceReport, ZeroReferenceError,
                            noisy_regime_step, proposed_sample_size,
                            required_size, variance_report)
from trish.theory import SyntheticQuadratic, gradient_moments


def estimate(per_component) -> GradientEstimate:
    per = np.asarray(per_component, dtype=np.float64)
    return GradientEstimate(aggregate=per.mean(axis=0), per_component=per)


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
        with pytest.raises(DegenerateBatchError):
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


class TestGradientHistory:
    def test_not_steady_until_window_plus_one(self):
        h = GradientHistory(window=3)
        for k in range(3):
            h.push(5, np.array([float(k)]))
            assert not h.steady
        h.push(5, np.array([3.0]))
        assert h.steady

    def test_size_change_resets(self):
        h = GradientHistory(window=2)
        for _ in range(3):
            h.push(4, np.zeros(1))
        assert h.steady
        h.push(5, np.zeros(1))
        assert not h.steady
        assert len(h) == 1

    def test_average_over_stored_entries(self):
        h = GradientHistory(window=2)
        for v in (1.0, 2.0, 3.0):
            h.push(7, np.array([v]))
        np.testing.assert_allclose(h.average(), [2.5])  # last two entries

    def test_replace_last_same_size(self):
        h = GradientHistory(window=2)
        for v in (1.0, 2.0, 3.0):
            h.push(7, np.array([v]))
        h.replace_last(7, np.array([10.0]))
        assert h.steady
        np.testing.assert_allclose(h.average(), [6.0])

    @pytest.mark.parametrize("window", [True, 2.5, 2.0, "3", 0])
    def test_rejects_bool_and_nonintegral_window(self, window):
        """GradientHistory(True) used to keep a window of 1, and 2.5 failed
        inside deque with an unrelated message."""
        with pytest.raises(ValueError, match="window"):
            GradientHistory(window)

    def test_replace_last_new_size_resets(self):
        h = GradientHistory(window=2)
        for v in (1.0, 2.0, 3.0):
            h.push(7, np.array([v]))
        h.replace_last(9, np.array([10.0]))
        assert not h.steady
        assert len(h) == 1


class TestNoisyRegimeStep:
    def fresh_history(self, aggregates, size=2, window=2):
        h = GradientHistory(window=window)
        for agg in aggregates:
            h.push(size, np.asarray(agg, dtype=np.float64))
        return h

    def test_not_steady_returns_none(self):
        h = self.fresh_history([[1.0, 0.0]] * 2)  # streak 2, window 2
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        assert noisy_regime_step(h, est, 0.9, 5.84, 100) is None

    def test_average_equal_to_current_returns_none(self):
        """Threshold ||g_avg|| < ||g|| fails when all gradients coincide."""
        agg = [1.0, 0.0]
        h = self.fresh_history([agg] * 3)
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        assert noisy_regime_step(h, est, 0.9, 5.84, 100) is None

    def test_cancelling_history_triggers_growth(self):
        """Stored gradients nearly cancel; the tiny average fails the
        orthogonality retest and the returned size matches hand arithmetic."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])  # aggregate (1, 0)
        h = GradientHistory(window=2)
        h.push(2, np.array([1.0, 0.0]))
        h.push(2, np.array([-1.0, 0.02]))
        h.push(2, est.aggregate)  # streak 3 > window; buffer: [(-1,0.02),(1,0)]
        np.testing.assert_allclose(h.average(), [0.0, 0.01])
        # The retest residuals are the rows themselves, so var_orth = 4 against
        # threshold nu^2 ||g_avg||^2 = 34.1056e-4; proposal ceil(4 / 34.1056e-4).
        size = noisy_regime_step(h, est, 0.9, 5.84, 2000)
        assert size == 1173

    def test_growth_capped_at_population(self):
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        h = GradientHistory(window=2)
        h.push(2, np.array([1.0, 0.0]))
        h.push(2, np.array([-1.0, 0.02]))
        h.push(2, est.aggregate)
        assert noisy_regime_step(h, est, 0.9, 5.84, 100) == 100

    def test_zero_average_returns_none(self):
        """An average that cancels exactly passes the gate but leaves the
        retest undefined; the control then keeps the size."""
        est = estimate([[2.0, 0.0], [0.0, 0.0]])
        h = GradientHistory(window=2)
        h.push(2, np.array([1.0, 0.0]))
        h.push(2, np.array([-1.0, 0.0]))
        h.push(2, est.aggregate)
        np.testing.assert_array_equal(h.average(), [0.0, 0.0])
        with pytest.raises(ZeroReferenceError):
            variance_report(est, h.average(), 0.9, 5.84)
        assert noisy_regime_step(h, est, 0.9, 5.84, 100) is None


# ---------------------------------------------------------------------------
# Bit-for-bit oracles: the numpy-wrapper forms of `variance_report`,
# `GradientHistory.average` and `proposed_sample_size`, kept verbatim.

def wrapper_variance_report(est, ref_vec, theta, nu):
    per = est.per_component
    m = per.shape[0]
    if m < 2:
        raise DegenerateBatchError(f"batch of size {m} has no sample variance")
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
    the average of a history of 1..r aggregates), test constants and N."""
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
    est = GradientEstimate(np.add.reduce(per, axis=0) / float(m), per)
    history = None
    if draw(st.booleans()):
        r = draw(st.integers(1, 12))
        pushed = [est.aggregate + rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
                  for _ in range(draw(st.integers(1, 2 * r)))]
        history = (r, pushed)
    constant = st.one_of(st.floats(-2, 2).map(lambda e: 10.0**e), st.just(math.inf))
    return (est, history, draw(constant), draw(constant),
            draw(st.integers(2, 10**5)))


def history_average(est, history):
    """The averaged gradient of a history pushed at the batch's size."""
    r, pushed = history
    h = GradientHistory(r)
    for agg in pushed:
        h.push(est.per_component.shape[0], agg)
    return h.average()


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
