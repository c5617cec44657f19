#!/usr/bin/env python3
"""Watch the adaptive run grow its mini-batch on a noisy problem.

A small quadratic with strong additive gradient noise makes the sample
variance tests fail early, so the batch grows until the estimates are
reliable; a fixed-batch run of the same step rule is shown for contrast.
"""

import numpy as np

from trish import HyperParams, run_trish, run_trish_as
from trish.theory import SyntheticQuadratic

rng = np.random.default_rng(0)
problem = SyntheticQuadratic(diag=[0.5, 1.0, 2.0],
                             offsets=3.0 * rng.normal(size=(400, 3)))
x0 = np.full(3, 2.0)
params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0, theta=0.9, nu=5.84, r=10)

x_fix, rec_fix = run_trish(problem, x0, params, batch_size=8,
                           budget_epochs=2.0, rng=np.random.default_rng(1))
x_ad, rec_ad = run_trish_as(problem, x0, params, s0=8,
                            budget_epochs=2.0, rng=np.random.default_rng(1))

print("fixed batch of 8:")
print(f"  iterations={len(rec_fix)}  final loss={problem.loss(x_fix):.4f}")
print("adaptive, starting from 8:")
print(f"  iterations={len(rec_ad)}  final loss={problem.loss(x_ad):.4f}")

print("\nbatch-size trajectory of the adaptive run (every 5th iteration):")
for k, r in list(enumerate(rec_ad))[::5]:
    bar = "#" * (r.batch_size // 4)
    print(f"  k={k:3d}  ege={r.ege:5.2f}  |S|={r.batch_size:4d} {bar}")

sizes = [r.batch_size for r in rec_ad]
assert all(b >= a for a, b in zip(sizes, sizes[1:])), "sizes never decrease"
print(f"\nfinal batch size {sizes[-1]} of N={problem.N}; growth is monotone")

cases = [r.case.name for r in rec_ad]
for name in ("CASE1", "CASE2", "CASE3"):
    frac = cases.count(name) / len(cases)
    print(f"  {name}: {frac:5.1%} of iterations")
