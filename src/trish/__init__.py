"""Step-normalized stochastic optimization for finite sums.

The step is SG-like outside a gradient-norm interval and normalized to a
fixed length inside it; an adaptive variant grows the mini-batch when
sample-variance tests fail.  Includes logistic-regression and small-MLP
objectives, dataset utilities, convergence-constant computations with
empirical verification, and a reproducible benchmark harness.
"""

from .core import (FiniteSumProblem, GradientEstimate, NumericError,
                   SampleBatch, draw_batch, sampled_gradient)
from .optimizer import (HyperParams, IterationRecord, StepCase, classify_case,
                        run_sg, run_trish, run_trish_as, trish_step)
from .sampling import (VarianceReport, ZeroReferenceError, noisy_regime_step,
                       proposed_sample_size, variance_report)
from .models import (LogisticModel, MlpModel, default_x0, testing_accuracy,
                     testing_loss)
from .data import (Dataset, LibsvmParseError, chronological_split,
                   csv_to_libsvm, minmax_normalize, parse_libsvm)
from .theory import (SyntheticQuadratic, asymptotic_gaps, beta_const,
                     gradient_moments, stepsize_bounds, verify_lemma1,
                     verify_theorem_gap, verify_vanishing_gap)
from .harness import (ExperimentConfig, GridCellResult, build_grid, compute_G,
                      initial_sample_size, load_config, run_grid,
                      summarize_best)

__all__ = [
    "FiniteSumProblem", "GradientEstimate", "NumericError", "SampleBatch",
    "draw_batch", "sampled_gradient",
    "HyperParams", "IterationRecord", "StepCase", "classify_case",
    "run_sg", "run_trish", "run_trish_as", "trish_step",
    "VarianceReport", "ZeroReferenceError",
    "noisy_regime_step", "proposed_sample_size", "variance_report",
    "LogisticModel", "MlpModel", "default_x0", "testing_accuracy",
    "testing_loss",
    "Dataset", "LibsvmParseError", "chronological_split", "csv_to_libsvm",
    "minmax_normalize", "parse_libsvm",
    "SyntheticQuadratic", "asymptotic_gaps", "beta_const", "gradient_moments",
    "stepsize_bounds", "verify_lemma1", "verify_theorem_gap", "verify_vanishing_gap",
    "ExperimentConfig", "GridCellResult", "build_grid", "compute_G",
    "initial_sample_size", "load_config", "run_grid", "summarize_best",
]

__version__ = "0.1.0"
