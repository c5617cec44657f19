#!/usr/bin/env python3
"""Compute the convergence constants and check the bounds they promise.

On a diagonal quadratic every constant is known in closed form, and batch
expectations are exact (the batch-gradient moments from their closed forms,
the expected next loss by enumeration), so the expected-decrease
inequalities and the asymptotic plateau can be verified with no statistical
hedging.
"""

import numpy as np

from trish import HyperParams
from trish.theory import (SyntheticQuadratic, asymptotic_gaps, beta_const,
                          gradient_moments, stepsize_bounds, verify_lemma1,
                          verify_theorem_gap, verify_vanishing_gap)

rng = np.random.default_rng(0)
problem = SyntheticQuadratic(diag=[0.5, 1.0],
                             offsets=0.1 * rng.normal(size=(8, 2)))
L, mu = problem.lipschitz, problem.pl_constant
print(f"quadratic with L={L}, mu={mu}, minimum value {problem.F_star}")

params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
bounds = stepsize_bounds(params.gamma1, params.gamma2, L, mu=mu)
beta = beta_const(params.alpha, params.gamma1, params.gamma2, L)
print(f"steplength bound {bounds.base:.4f} (alpha={params.alpha} is admissible: "
      f"{params.alpha < bounds.pl})")
print(f"beta = {beta:.4f}")

# One-step expected decrease, exact over all C(8,2)=28 batches.
print("\nexpected-decrease inequalities at random points:")
for _ in range(3):
    x = rng.normal(scale=2.0, size=2)
    rep = verify_lemma1(problem, x, params, batch_size=2, L=L)
    print(f"  x={np.round(x, 2)}  E[F(x+p)]={rep.expected_next:.4f}  "
          f"bounds ({rep.rhs_second_moment:.4f}, {rep.rhs_variance:.4f})  "
          f"holds={rep.holds}")

# The long-run plateau of the optimality gap sits below its ceiling.
m = gradient_moments(problem, np.ones(2), batch_size=2)
gap_pl, gap_nc = asymptotic_gaps(beta, m.e_err_sq, mu, params.gamma2)
print(f"\nnoise second moment M_g = {m.e_err_sq:.5f}")
print(f"gap ceilings: {gap_pl:.4f} (gradient-dominated) / {gap_nc:.4f} (nonconvex)")

report = verify_theorem_gap(problem, params, batch_size=2, horizon_iters=1500,
                            reps=60, rng=np.random.default_rng(1))
print(f"measured plateau over {report.reps} runs: {report.mean_gap:.5f} "
      f"(+/- {report.std_error:.5f}) <= {report.bound:.4f}: {report.satisfied}")

# Multiplicative noise vanishes at the minimizer, so the gap goes to zero.
scaled = SyntheticQuadratic(diag=[0.5, 1.0],
                            scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
zero = verify_vanishing_gap(scaled, np.ones(2), gamma1=1.1, gamma2=1.0, batch_size=2,
                            horizon_iters=2000, rng=np.random.default_rng(2))
print(f"\nvanishing-noise construction: M2={zero.M2:.4f}, "
      f"gamma ratio ok={zero.bounds.ratio_ok}, final gap {zero.gap:.2e}")
