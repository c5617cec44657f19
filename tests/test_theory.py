"""Tests for convergence constants, bounds, and the verification oracles."""

import numpy as np
import pytest

from trish.optimizer import HyperParams, run_trish
from trish.theory import (SyntheticQuadratic, asymptotic_gaps, beta_const,
                          gradient_moments, second_moment_coefficient,
                          stepsize_bounds, verify_lemma1, verify_theorem_gap)


class TestBetaConst:
    def test_hand_computed_value(self):
        # (16 - 1)/2 + 0.5 * 0.1 * 16 * 1 = 7.5 + 0.8
        assert np.isclose(beta_const(0.1, 4.0, 1.0, 1.0), 8.3, rtol=1e-14)

    def test_vanishes_in_the_degenerate_limit(self):
        assert beta_const(1e-12, 1.0 + 1e-9, 1.0, 1.0) < 1e-6

    def test_monotone_in_steplength(self):
        values = [beta_const(a, 4.0, 1.0, 2.0) for a in np.linspace(0.01, 1, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g1 = rng.uniform(0.1, 50)
            g2 = g1 * rng.uniform(0.01, 0.999)
            assert beta_const(rng.uniform(1e-4, 10), g1, g2,
                              rng.uniform(0.1, 10)) > 0

    @pytest.mark.parametrize("alpha, L", [
        (np.nan, 1.0), (0.1, np.nan), (0.0, 1.0), (0.1, 0.0), (0.1, -1.0)])
    def test_rejects_nan_and_nonpositive(self, alpha, L):
        """A NaN alpha or L used to return beta = NaN."""
        with pytest.raises(ValueError, match="alpha and L must be positive"):
            beta_const(alpha, 4.0, 1.0, L)


class TestStepsizeBounds:
    def test_base_bound_hand_value(self):
        assert np.isclose(stepsize_bounds(4.0, 1.0, 1.0).base, 1 / 32, rtol=1e-14)

    def test_second_moment_coefficient_and_ratio_condition(self):
        M2 = second_moment_coefficient(0.9, 5.84)
        assert np.isclose(M2, 35.9156, rtol=1e-12)
        b = stepsize_bounds(4.0, 1.0, 1.0, M2=M2)
        threshold = 1.0 - 1.0 / (4.0 * M2)
        assert np.isclose(threshold, 0.99304, atol=5e-6)
        assert b.ratio_ok is ((1.0 / 4.0) ** 2 > threshold) is False

    def test_ratio_condition_near_equal_gammas(self):
        M2 = second_moment_coefficient(0.9, 5.84)
        b = stepsize_bounds(1.0 + 1e-9, 1.0, 1.0, M2=M2)
        assert b.ratio_ok  # (gamma2/gamma1)^2 -> 1 > 1 - eps

    def test_pl_bound_takes_minimum(self):
        b = stepsize_bounds(4.0, 1.0, 1.0, mu=0.5)
        assert b.pl == min(1 / 32, 1 / 0.5)
        b2 = stepsize_bounds(1.1, 1.0, 0.01, mu=100.0)
        assert b2.pl == min(b2.base, 1.0 / (100.0 * 1.0))

    def test_zero_noise_bounds(self):
        b = stepsize_bounds(2.0, 1.0, 1.0, mu=0.5, M2=2.0)
        assert np.isclose(b.zero_noise, 1.0 / 8.0)
        assert np.isclose(b.zero_noise_pl, min(1 / 8, 2.0 / (0.5 * 4.0)))

    @pytest.mark.parametrize("name, value", [
        ("L", np.nan), ("L", 0.0), ("L", -1.0),
        ("mu", np.nan), ("mu", 0.0), ("mu", -1.0),
        ("M2", np.nan), ("M2", 0.0), ("M2", -2.0)])
    def test_rejects_nan_and_nonpositive_constants(self, name, value):
        """mu=-1 used to give pl=-1.0, M2=-2 zero_noise=-0.125 and L=nan
        base=nan; mu=0.0 and M2=0.0 were silently taken as absent."""
        kwargs = {"L": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            stepsize_bounds(2.0, 1.0, **kwargs)


class TestAsymptoticGaps:
    def test_hand_computed_values(self):
        gap_pl, gap_nc = asymptotic_gaps(8.3, 0.01, 0.5, 1.0)
        assert np.isclose(gap_pl, 0.332, rtol=1e-12)
        assert np.isclose(gap_nc, 0.332, rtol=1e-12)

    def test_noise_free_limit(self):
        assert asymptotic_gaps(8.3, 0.0, 0.5, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("args", [
        (np.nan, 0.01, 0.5, 1.0), (8.3, np.nan, 0.5, 1.0),
        (8.3, 0.01, np.nan, 1.0), (8.3, 0.01, 0.5, np.nan)])
    def test_rejects_nan(self, args):
        """Each of these used to return NaN gaps."""
        with pytest.raises(ValueError, match="constants must be positive"):
            asymptotic_gaps(*args)

    def test_linear_in_noise(self):
        g1 = asymptotic_gaps(2.0, 1.0, 0.5, 1.0)
        g3 = asymptotic_gaps(2.0, 3.0, 0.5, 1.0)
        assert np.isclose(g3[0], 3 * g1[0]) and np.isclose(g3[1], 3 * g1[1])


class TestSyntheticQuadratic:
    def test_noise_sums_to_zero(self):
        rng = np.random.default_rng(0)
        p = SyntheticQuadratic(diag=[1.0, 2.0], offsets=rng.normal(size=(6, 2)))
        np.testing.assert_allclose(p.offsets.sum(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(p.scales.mean(), 1.0, atol=1e-15)

    def test_closed_form_objective(self):
        rng = np.random.default_rng(1)
        p = SyntheticQuadratic(diag=[0.5, 2.0], offsets=rng.normal(size=(5, 2)),
                               scales=rng.uniform(0.5, 1.5, 5))
        x = rng.normal(size=2)
        mean_loss = np.mean([p.component_loss(i, x) for i in range(5)])
        assert np.isclose(p.loss(x), mean_loss, rtol=1e-12)
        mean_grad = np.mean([p.component_gradient(i, x) for i in range(5)], axis=0)
        np.testing.assert_allclose(p.gradient(x), mean_grad, rtol=1e-10,
                                   atol=1e-12)

    def test_gradient_dominance_holds_with_min_eigenvalue(self):
        rng = np.random.default_rng(2)
        p = SyntheticQuadratic(diag=[0.5, 1.0, 3.0], offsets=np.zeros((4, 3)))
        mu = p.pl_constant
        for _ in range(10_000):
            x = rng.normal(scale=3.0, size=3)
            g = p.gradient(x)
            assert g @ g >= 2.0 * mu * (p.loss(x) - p.F_star) - 1e-12

    def test_lipschitz_constant_is_max_eigenvalue(self):
        rng = np.random.default_rng(3)
        p = SyntheticQuadratic(diag=[0.5, 1.0, 3.0], offsets=np.zeros((4, 3)))
        L = p.lipschitz
        for _ in range(10_000):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            lhs = np.linalg.norm(p.gradient(x) - p.gradient(y))
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)


class TestVerifyLemma1:
    def problem(self, seed=0):
        rng = np.random.default_rng(seed)
        return SyntheticQuadratic(diag=[0.5, 1.0, 2.0],
                                  offsets=rng.normal(size=(6, 3)))

    def test_full_batch_deterministic_case(self):
        p = self.problem()
        params = HyperParams(alpha=0.05, gamma1=2.0, gamma2=1.0)
        report = verify_lemma1(p, np.array([1.0, -1.0, 0.5]), params,
                               batch_size=p.N, L=p.lipschitz)
        assert report.holds
        assert np.isclose(report.e_err_sq, 0.0, atol=1e-20)

    def test_minimizer_full_batch_equality(self):
        p = SyntheticQuadratic(diag=[1.0, 2.0], offsets=np.zeros((4, 2)))
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        report = verify_lemma1(p, np.zeros(2), params, batch_size=4,
                               L=p.lipschitz)
        assert report.holds
        assert np.isclose(report.expected_next, report.f_x, atol=1e-18)

    def test_randomized_sweep_no_violations(self):
        p = self.problem(1)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=3)
            g1 = rng.uniform(1.0, 5.0)
            g2 = g1 * rng.uniform(0.2, 0.9)
            alpha = rng.uniform(0.1, 0.99) * stepsize_bounds(g1, g2, p.lipschitz).base
            params = HyperParams(alpha=alpha, gamma1=g1, gamma2=g2)
            report = verify_lemma1(p, x, params, batch_size=2, L=p.lipschitz)
            assert report.holds


class TestVerifyTheoremGap:
    def test_noise_free_geometric_decay(self):
        """With the full batch there is no noise and the gap contracts at
        least as fast as the guaranteed factor per step."""
        p = SyntheticQuadratic(diag=[0.5, 1.0], offsets=np.zeros((4, 2)))
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        x0 = np.array([1.0, 1.0])
        K = 200
        x, records = run_trish(p, x0, params, 4, float(K),  # batch N: 1 epoch/iter
                               np.random.default_rng(0))
        assert len(records) == K
        xi = 1.0 - 0.5 * params.alpha * p.pl_constant * params.gamma2
        assert p.loss(x) <= xi**K * p.loss(x0) * (1 + 1e-9)

    def test_noisy_plateau_below_bound(self):
        rng = np.random.default_rng(5)
        p = SyntheticQuadratic(diag=[0.5, 1.0],
                               offsets=0.1 * np.random.default_rng(7).normal(size=(8, 2)))
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        report = verify_theorem_gap(p, params, batch_size=2, horizon_iters=500,
                                    reps=30, rng=rng)
        assert report.satisfied
        assert report.bound > 0

    def test_vanishing_noise_construction_reaches_tiny_gap(self):
        """Multiplicative noise only: the gap decays geometrically to zero."""
        p = SyntheticQuadratic(diag=[0.5, 1.0],
                               scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
        moments = gradient_moments(p, np.array([1.0, 1.0]), batch_size=2)
        grad_sq = float(moments.grad @ moments.grad)
        M2 = moments.e_g_sq / grad_sq
        bounds = stepsize_bounds(1.1, 1.0, p.lipschitz, mu=p.pl_constant, M2=M2)
        assert bounds.ratio_ok
        params = HyperParams(alpha=0.9 * bounds.zero_noise_pl,
                             gamma1=1.1, gamma2=1.0)
        x, _ = run_trish(p, np.ones(2), params, 2, 800 * 2 / 8,
                         np.random.default_rng(6))
        assert p.loss(x) < 1e-8


class TestGradientMoments:
    def test_full_batch_moments_are_degenerate(self):
        rng = np.random.default_rng(8)
        p = SyntheticQuadratic(diag=[1.0, 2.0], offsets=rng.normal(size=(5, 2)))
        x = rng.normal(size=2)
        m = gradient_moments(p, x, batch_size=5)
        assert np.isclose(m.e_err_sq, 0.0, atol=1e-24)
        assert np.isclose(m.e_g_sq, m.grad @ m.grad, rtol=1e-12)

    def test_additive_noise_is_position_independent(self):
        rng = np.random.default_rng(9)
        p = SyntheticQuadratic(diag=[1.0, 2.0], offsets=rng.normal(size=(6, 2)))
        m1 = gradient_moments(p, np.zeros(2), batch_size=2)
        m2 = gradient_moments(p, rng.normal(size=2), batch_size=2)
        assert np.isclose(m1.e_err_sq, m2.e_err_sq, rtol=1e-10)
