#!/usr/bin/env python3
"""Run the full benchmark protocol on a synthetic logistic problem.

Calibrate the gradient scale G from one epoch of SG, build the 60-triplet
parameter grid from it, run both the fixed-batch and the adaptive algorithm
over the grid with seeded repetitions, and compare their best cells.  With a
real dataset in LIBSVM format the same flow reproduces published accuracy
tables; see the README for how to point it at one.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from trish import LogisticModel
from trish.harness import (ExperimentConfig, build_grid, compute_G,
                           initial_sample_size, run_grid, summarize_best)

rng = np.random.default_rng(7)
N, n = 800, 30
w_true = rng.normal(size=n)
X = sp.csr_matrix(np.where(rng.random(size=(N, n)) < 0.5, rng.normal(size=(N, n)), 0.0))
y = np.where(X @ w_true + 0.5 * rng.normal(size=N) >= 0, 1.0, -1.0)
problem = LogisticModel(X, y)

X_test = sp.csr_matrix(rng.normal(size=(400, n)))
y_test = np.where(X_test @ w_true >= 0, 1.0, -1.0)

G = compute_G(problem, np.random.default_rng(0))
grid = build_grid(G)
print(f"N={N}, n={n}; measured gradient scale G={G:.4f}")
print(f"grid of {len(grid)} triplets; adaptive runs start at "
      f"|S_0|={initial_sample_size(N)}\n")

config = ExperimentConfig(model="logistic", algorithm="trish", reps=5, seed=42,
                          budget_epochs=1.0)
results = []
for algorithm in ("trish", "trish_as"):
    cfg = dataclasses.replace(config, algorithm=algorithm)
    results.extend(run_grid(cfg, problem=problem, test_features=X_test,
                            test_labels=y_test, G=G))

rows = summarize_best(results)  # row k holds algorithm k's best cell at position k
for k, (algorithm, *cells) in enumerate(rows):
    best = cells[k]
    print(f"{algorithm:9s} best accuracy {best.mean_metric:.4f} at "
          f"(alpha={best.alpha:.4g}, gamma1={best.gamma1:.4g}, "
          f"gamma2={best.gamma2:.4g})")

print("\nbest-cell comparison (each algorithm's favorite triplet):")
for selected_by, fixed, adaptive in rows:
    print(f"  chosen by {selected_by:9s} "
          f"({fixed.alpha:.4g}, {fixed.gamma1:.4g}, {fixed.gamma2:.4g}): "
          f"fixed={fixed.mean_metric:.4f}  adaptive={adaptive.mean_metric:.4f}  "
          f"final |S|={adaptive.mean_final_batch:.0f}")

with tempfile.TemporaryDirectory() as td:
    cfg = dataclasses.replace(config, algorithm="trish_as", output_dir=td)
    run_grid(cfg, problem=problem, test_features=X_test, test_labels=y_test, G=G)
    files = sorted(Path(td).rglob("*.csv"))
    print(f"\nartifacts: grid.csv plus {len(files) - 1} curve files, e.g.")
    print("  " + "\n  ".join(str(f.relative_to(td)) for f in files[:4]))
