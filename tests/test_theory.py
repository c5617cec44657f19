"""Tests for convergence constants, bounds, and the verification oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trish import theory
from trish.harness import build_grid
from trish.optimizer import HyperParams, run_trish, trish_step
from trish.theory import (SyntheticQuadratic, asymptotic_gaps, beta_const,
                          gradient_moments, stepsize_bounds, verify_lemma1,
                          verify_theorem_gap, verify_vanishing_gap)


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
        with pytest.raises(ValueError, match=r"^(alpha|L) must be (positive|finite)"):
            beta_const(alpha, 4.0, 1.0, L)

    @pytest.mark.parametrize("alpha, L", [(np.inf, 1.0), (0.1, np.inf), (True, 1.0), (0.1, True)])
    def test_rejects_inf_and_bools(self, alpha, L):
        """beta_const(inf, 2, 1, 1) used to return inf, and bools ran as 1."""
        with pytest.raises(ValueError, match=r"^(alpha|L) must be"):
            beta_const(alpha, 4.0, 1.0, L)


class TestStepsizeBounds:
    def test_base_bound_hand_value(self):
        assert np.isclose(stepsize_bounds(4.0, 1.0, 1.0).base, 1 / 32, rtol=1e-14)

    def test_second_moment_coefficient_and_ratio_condition(self):
        M2 = 1 + 0.9**2 + 5.84**2
        assert np.isclose(M2, 35.9156, rtol=1e-12)
        b = stepsize_bounds(4.0, 1.0, 1.0, M2=M2)
        threshold = 1.0 - 1.0 / (4.0 * M2)
        assert np.isclose(threshold, 0.99304, atol=5e-6)
        assert b.ratio_ok is ((1.0 / 4.0) ** 2 > threshold) is False

    def test_default_grid_fails_the_ratio_condition_everywhere(self):
        """The largest (gamma2/gamma1)^2 of the default grid is (2/4)^2 =
        0.25 at any G, far below 1 - 1/(4 M2) = 0.993."""
        M2 = 1 + 0.9**2 + 5.84**2
        for G in (1e-2, 1.0, 1e2):
            cells = build_grid(G)
            assert len(cells) == 60
            assert not any(stepsize_bounds(g1, g2, 1.0, M2=M2).ratio_ok
                           for _, g1, g2 in cells)

    def test_ratio_condition_near_equal_gammas(self):
        M2 = 1 + 0.9**2 + 5.84**2
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
        with pytest.raises(ValueError, match=r"^(beta|M_g|mu|gamma2) must be (positive|finite)"):
            asymptotic_gaps(*args)

    @pytest.mark.parametrize("args", [
        (np.inf, 0.01, 0.5, 1.0), (8.3, np.inf, 0.5, 1.0), (8.3, 0.01, np.inf, 1.0),
        (8.3, 0.01, 0.5, np.inf), (True, 0.01, 0.5, 1.0), (8.3, False, 0.5, 1.0),
        (8.3, -0.01, 0.5, 1.0)])
    def test_rejects_inf_bools_and_negative_noise(self, args):
        """gamma2 = inf used to return (0.0, 0.0), and bools ran as 0 or 1."""
        with pytest.raises(ValueError, match=r"^(beta|M_g|mu|gamma2) must be"):
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
        mean_loss = np.mean([float(p.component_losses([i], x)[0]) for i in range(5)])
        assert np.isclose(p.loss(x), mean_loss, rtol=1e-12)
        mean_grad = np.mean([p.component_gradients([i], x)[0] for i in range(5)], axis=0)
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

    def test_rejects_scales_that_shift_to_a_concave_component(self):
        """Each scale used to be checked before the shift to mean one, so
        [0.1, 10.0] was stored as [-3.95, 5.95]."""
        with pytest.raises(ValueError, match="shifted to mean one must be positive"):
            SyntheticQuadratic(diag=[1.0, 2.0], scales=[0.1, 10.0])

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("field", ("diag", "offsets", "scales"))
    def test_rejects_nonfinite_inputs(self, field, bad):
        """`<= 0` is False for NaN, so diag=[nan, 1.0] used to give
        lipschitz = nan and a NaN scale made every scale NaN; an infinite
        offset was accepted."""
        inputs = {"diag": [1.0, 2.0], "offsets": np.ones((3, 2)),
                  "scales": [0.5, 1.0, 1.5]}
        values = np.array(inputs[field], dtype=np.float64)
        values.flat[1] = bad
        inputs[field] = values
        with pytest.raises(ValueError, match="finite"):
            SyntheticQuadratic(**inputs)

    def test_rejects_neither_offsets_nor_scales(self):
        with pytest.raises(ValueError, match="provide offsets and/or scales"):
            SyntheticQuadratic(diag=[1.0, 2.0])

    @pytest.mark.parametrize("offsets", (np.ones(3), np.ones((3, 3)), np.ones((3, 2, 1))))
    def test_rejects_mis_shaped_offsets(self, offsets):
        with pytest.raises(ValueError, match="^offsets must be N rows of dimension n$"):
            SyntheticQuadratic(diag=[1.0, 2.0], offsets=offsets)

    @pytest.mark.parametrize("scales", ([0.5, 0.5, 0.5, 0.5, 2.0], [0.5, 1.5]))
    def test_rejects_scales_of_another_length_than_the_offsets(self, scales):
        """N came from the offsets alone: five scales beside three offset rows
        gave a loss that was not the mean of the component losses, and two
        indexed out of range later."""
        with pytest.raises(ValueError, match="^scales must be a vector of length N$"):
            SyntheticQuadratic(diag=[1.0, 2.0], offsets=np.zeros((3, 2)),
                               scales=scales)

    def test_rejects_offsets_that_overflow_when_centered(self):
        """Finite offsets whose sum overflows were stored as [-inf, -inf, inf]
        with only a RuntimeWarning."""
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            SyntheticQuadratic(diag=[1.0], offsets=[[1e308], [1e308], [-1e308]])

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
        report = verify_lemma1(p, np.array([1.0, -1.0, 0.5]), params, batch_size=p.N)
        assert report.holds
        assert np.isclose(report.e_err_sq, 0.0, atol=1e-20)

    def test_minimizer_full_batch_equality(self):
        p = SyntheticQuadratic(diag=[1.0, 2.0], offsets=np.zeros((4, 2)))
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        report = verify_lemma1(p, np.zeros(2), params, batch_size=4)
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
            report = verify_lemma1(p, x, params, batch_size=2)
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
        rep = verify_vanishing_gap(p, 1.1, 1.0, batch_size=2,
                                   horizon_iters=800, rng=np.random.default_rng(6))
        assert (rep.M2, rep.bounds, rep.gap) == (M2, bounds, p.loss(x))
        assert rep.satisfied

    def test_vanishing_gap_rejects_a_stationary_start(self):
        """M2 divides by ||grad F(x0)||^2 = ||diag||^2 at x0 = minimizer + 1,
        which underflows to zero for a diagonal of 1e-200: the start is
        stationary in floating point, and the division would raise a bare
        ZeroDivisionError."""
        p = SyntheticQuadratic(diag=[1e-200, 1e-200],
                               scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
        with pytest.raises(ValueError, match="x0"):
            verify_vanishing_gap(p, 1.1, 1.0, batch_size=2,
                                 horizon_iters=10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("gamma1, horizon_iters", [(4.0, 800), (1.1, 1)])
    def test_vanishing_gap_fails_on_ratio_or_gap(self, gamma1, horizon_iters):
        """gamma1 = 4 breaks the gamma-ratio condition; one step leaves a
        gap far above 1e-8."""
        p = SyntheticQuadratic(diag=[0.5, 1.0],
                               scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
        rep = verify_vanishing_gap(p, gamma1, 1.0, batch_size=2,
                                   horizon_iters=horizon_iters,
                                   rng=np.random.default_rng(6))
        assert rep.bounds.ratio_ok is (gamma1 == 1.1)
        assert (rep.gap < 1e-8) is (horizon_iters == 800)
        assert not rep.satisfied

    @pytest.mark.parametrize("N, batch_size, horizon_iters", [(3, 1, 5), (7, 3, 10), (8, 2, 40)])
    def test_checks_take_exactly_horizon_steps(self, monkeypatch, N, batch_size, horizon_iters):
        """A budget of horizon_iters * batch_size / N epochs took one step more
        whenever the float EGE sum fell short of it: 6 steps at N = 3, batch 1
        and horizon 5."""
        steps = []

        def spy(*args, **kwargs):
            x, records = run_trish(*args, **kwargs)
            steps.append(len(records))
            return x, records

        monkeypatch.setattr(theory, "run_trish", spy)
        offsets = np.random.default_rng(7).normal(size=(N, 2))
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        verify_theorem_gap(SyntheticQuadratic(diag=[0.5, 1.0], offsets=offsets), params,
                           batch_size, horizon_iters, reps=2, rng=np.random.default_rng(0))
        scales = 1.0 + 0.1 * np.linspace(-1, 1, N)
        verify_vanishing_gap(SyntheticQuadratic(diag=[0.5, 1.0], scales=scales),
                             1.1, 1.0, batch_size, horizon_iters, rng=np.random.default_rng(0))
        assert steps == [horizon_iters] * 3


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

    def test_err_sq_matches_without_replacement_closed_form(self):
        """With c = (N-s)/(s(N-1)), E||g_S - grad||^2 = c * mean_i ||grad_i -
        grad||^2, E[(g_S.grad - ||grad||^2)^2] = c * mean_i (grad_i.grad -
        ||grad||^2)^2 and E||P g_S||^2 = c * mean_i ||P grad_i||^2, where P
        projects off grad: the identities, checked against the loop over
        every batch."""
        rng = np.random.default_rng(10)
        for N in range(2, 10):
            for _ in range(5):
                n = int(rng.integers(1, 6))
                raw = rng.uniform(0.2, 3.0, N)
                p = SyntheticQuadratic(diag=rng.uniform(0.1, 3.0, n),
                                       offsets=rng.normal(size=(N, n)),
                                       scales=raw / raw.mean())
                x = rng.normal(size=n)
                grad = p.gradient(x)
                grad_sq = float(grad @ grad)
                per = p.component_gradients(np.arange(N), x)
                dev = per - grad
                proj = np.eye(n) - np.outer(grad, grad) / grad_sq
                err_sq = float(np.mean(np.sum(dev * dev, axis=1)))
                inner = float(np.mean((per @ grad - grad_sq) ** 2))
                orth = float(np.mean(np.sum((per @ proj) ** 2, axis=1)))
                spread = float(np.mean(np.sum(per * per, axis=1)))
                for s in range(1, N):
                    c = (N - s) / (s * (N - 1))
                    loop = loop_gradient_moments(p, x, s)
                    np.testing.assert_allclose(loop.e_err_sq, c * err_sq,
                                               rtol=1e-12, atol=0)
                    np.testing.assert_allclose(loop.inner_moment, c * inner,
                                               rtol=1e-12, atol=1e-13 * spread * grad_sq)
                    # At n = 1 the orthogonal moment is 0 up to rounding.
                    np.testing.assert_allclose(loop.orth_moment, c * orth,
                                               rtol=1e-12, atol=1e-13 * spread)
                # At s = N every moment is 0; the batch mean and the
                # closed-form gradient differ by rounding only.
                assert loop_gradient_moments(p, x, N).e_err_sq <= 1e-28 * err_sq


class TestEnumerationInputChecks:
    """`gradient_moments(p, x, 0)` used to return NaN moments with only
    RuntimeWarnings, N + 1 raised a bare ZeroDivisionError and True ran as 1."""

    def problem(self):
        return SyntheticQuadratic(diag=[0.5, 1.0],
                                  offsets=np.random.default_rng(0).normal(size=(6, 2)))

    BAD_SIZES = [True, False, 0, -1, 2.0, 2.5, "2", None, 7]

    @pytest.mark.parametrize("batch_size", BAD_SIZES)
    def test_gradient_moments_rejects_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            gradient_moments(self.problem(), np.ones(2), batch_size)

    @pytest.mark.parametrize("batch_size", BAD_SIZES)
    def test_verify_lemma1_rejects_batch_size(self, batch_size):
        params = HyperParams(alpha=0.05, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ValueError, match="batch_size"):
            verify_lemma1(self.problem(), np.ones(2), params, batch_size)

    @pytest.mark.parametrize("batch_size", BAD_SIZES)
    def test_verify_theorem_gap_rejects_batch_size(self, batch_size):
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ValueError, match="batch_size"):
            verify_theorem_gap(self.problem(), params, batch_size, horizon_iters=10,
                               reps=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("reps", [0, -1])
    def test_verify_theorem_gap_rejects_reps(self, reps):
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ValueError, match="reps"):
            verify_theorem_gap(self.problem(), params, 2, horizon_iters=10,
                               reps=reps, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("horizon_iters", [10.5, 0, True])
    def test_verify_theorem_gap_rejects_horizon(self, horizon_iters):
        """10.5 and True used to run, as a budget of 10.5 and of 1 iterations."""
        params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
        with pytest.raises(ValueError, match="horizon_iters"):
            verify_theorem_gap(self.problem(), params, 2, horizon_iters=horizon_iters,
                               reps=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("horizon_iters", [10.5, 0, True])
    def test_verify_vanishing_gap_rejects_horizon(self, horizon_iters):
        with pytest.raises(ValueError, match="horizon_iters"):
            verify_vanishing_gap(self.problem(), 2.0, 1.0, 2,
                                 horizon_iters=horizon_iters, rng=np.random.default_rng(0))

    def test_bounds_are_accepted(self):
        p = self.problem()
        assert gradient_moments(p, np.ones(2), np.int64(1)).e_err_sq > 0
        assert gradient_moments(p, np.ones(2), p.N).e_err_sq < 1e-30


# ---------------------------------------------------------------------------
# The enumeration as a loop over the batches, kept verbatim as the reference
# for the closed-form moments and the enumeration in `trish.theory`.

def loop_batch_gradients(problem, x, batch_size):
    grad = problem.gradient(x)
    per = problem.component_gradients(np.arange(problem.N), x)
    gs = [per[list(batch)].mean(axis=0)
          for batch in itertools.combinations(range(problem.N), batch_size)]
    e_g_sq = e_err_sq = 0.0
    for g in gs:
        e_g_sq += float(g @ g)
        diff = g - grad
        e_err_sq += float(diff @ diff)
    return grad, gs, e_g_sq / len(gs), e_err_sq / len(gs)


def loop_gradient_moments(problem, x, batch_size):
    grad, gs, e_g_sq, e_err_sq = loop_batch_gradients(problem, x, batch_size)
    grad_sq = float(grad @ grad)
    inner = orth = float("nan")
    if grad_sq > 0:
        inner = orth = 0.0
        for g in gs:
            dot = float(g @ grad)
            inner += (dot - grad_sq) ** 2
            residual = g - (dot / grad_sq) * grad
            orth += float(residual @ residual)
        inner /= len(gs)
        orth /= len(gs)
    return theory.GradientMoments(grad=grad, e_g_sq=e_g_sq, e_err_sq=e_err_sq,
                                  inner_moment=inner, orth_moment=orth)


def loop_verify_lemma1(problem, x, params, batch_size, L):
    f_x = problem.loss(x)
    grad, gs, e_g_sq, e_err_sq = loop_batch_gradients(problem, x, batch_size)
    grad_sq = float(grad @ grad)
    e_next = 0.0
    for g in gs:
        e_next += problem.loss(x + trish_step(g, params))
    e_next /= len(gs)

    alpha, g1, g2 = params.alpha, params.gamma1, params.gamma2
    beta = beta_const(alpha, g1, g2, L)
    rhs_sm = f_x - alpha * g1**2 / (2.0 * g2) * grad_sq + alpha * beta * e_g_sq
    rhs_var = (f_x - 0.5 * alpha * (g2 - alpha * g1**2 * L) * grad_sq
               + alpha * beta * e_err_sq)
    slack = 1e-12 * max(1.0, abs(f_x))
    return theory.ExpectedDecreaseReport(
        f_x=f_x, expected_next=e_next, grad_sq=grad_sq,
        e_g_sq=e_g_sq, e_err_sq=e_err_sq,
        rhs_second_moment=rhs_sm, rhs_variance=rhs_var,
        holds_second_moment=bool(e_next <= rhs_sm + slack),
        holds_variance=bool(e_next <= rhs_var + slack))


def assert_within(new, old, scale):
    """new within 1e-13 * scale of old; both NaN passes.  A bound relative
    to the value itself fails where the moment is 0 but rounds to a tiny
    nonzero number (the orthogonal moment at n = 1)."""
    if np.isnan(old):
        assert np.isnan(new)
    else:
        assert abs(new - old) <= 1e-13 * scale, (new, old, scale)


def assert_moments_match(new, old, problem, x):
    """Each moment within 1e-13 of its scale, the full gradient bit for bit."""
    per = problem.component_gradients(np.arange(problem.N), x)
    spread = float(np.mean(np.sum(per * per, axis=1)))  # mean ||grad_i||^2
    grad_sq = float(old.grad @ old.grad)
    assert new.grad.tobytes() == old.grad.tobytes()
    assert_within(new.e_err_sq, old.e_err_sq, spread)
    assert_within(new.e_g_sq, old.e_g_sq, spread + grad_sq)
    assert_within(new.inner_moment, old.inner_moment, spread * grad_sq)
    assert_within(new.orth_moment, old.orth_moment, spread)


def assert_lemma1_matches(new, old, problem, x, params, L):
    """The enumerated fields bit for bit, the moment-derived ones within the
    moments' scaled bound, and the verdicts equal."""
    for name in ("f_x", "expected_next", "grad_sq", "holds_second_moment",
                 "holds_variance"):
        assert getattr(new, name) == getattr(old, name), name
    per = problem.component_gradients(np.arange(problem.N), x)
    spread = float(np.mean(np.sum(per * per, axis=1)))
    alpha, g1, g2 = params.alpha, params.gamma1, params.gamma2
    ab = alpha * beta_const(alpha, g1, g2, L)
    assert_within(new.e_err_sq, old.e_err_sq, spread)
    assert_within(new.e_g_sq, old.e_g_sq, spread + old.grad_sq)
    # A right-hand side rounds at the size of its largest term.
    assert_within(new.rhs_second_moment, old.rhs_second_moment,
                  abs(old.f_x) + alpha * g1**2 / (2.0 * g2) * old.grad_sq
                  + ab * (spread + old.grad_sq))
    assert_within(new.rhs_variance, old.rhs_variance,
                  abs(old.f_x) + abs(0.5 * alpha * (g2 - alpha * g1**2 * L)) * old.grad_sq
                  + ab * spread)


@st.composite
def enumeration_cases(draw):
    """A quadratic with N <= 9 components in n <= 5 dimensions, additive
    and/or multiplicative noise, and a point, magnitudes spanning 1e-3 to
    1e3; the scales spread over 1e-3 to 1e3 before division by their mean,
    so every component stays convex."""
    N, n = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = st.floats(-3, 3).map(lambda e: 10.0**e)
    noise = draw(st.sampled_from(["offsets", "scales", "both"]))
    offsets = (rng.normal(size=(N, n)) * draw(magnitude)
               if noise != "scales" else None)
    scales = None
    if noise != "offsets":
        raw = 10.0 ** rng.uniform(-3, 3, N)
        scales = raw / raw.mean()
    p = SyntheticQuadratic(diag=rng.uniform(0.1, 3.0, n) * draw(magnitude),
                           offsets=offsets, scales=scales)
    x = (np.zeros(n) if draw(st.booleans()) and noise == "scales"  # grad = 0
         else rng.normal(size=n) * draw(magnitude))
    return p, x


class TestLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(enumeration_cases())
    def test_matches_the_loop(self, case):
        p, x = case
        params = HyperParams(alpha=0.05, gamma1=2.0, gamma2=1.0)
        for size in range(1, p.N + 1):
            moments = gradient_moments(p, x, size)
            assert_moments_match(moments, loop_gradient_moments(p, x, size), p, x)
            assert_lemma1_matches(
                verify_lemma1(p, x, params, size),
                loop_verify_lemma1(p, x, params, size, p.lipschitz),
                p, x, params, p.lipschitz)
        # The last size is N, where a batch is the whole population.
        assert moments.e_err_sq == 0.0
        if moments.grad @ moments.grad > 0:
            assert moments.inner_moment == 0.0 and moments.orth_moment == 0.0
