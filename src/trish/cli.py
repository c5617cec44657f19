"""Command-line entry points.

Subcommands: ``run`` (grid experiment from a JSON config), ``calibrate-g``
(gradient-scale measurement), ``verify-theory`` (constants and bound checks
on synthetic problems), ``convert`` (dense CSV to LIBSVM text).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import csv_to_libsvm
from .harness import (_best, calibration_rng, compute_G, load_config,
                      load_problem, run_grid)
from .optimizer import HyperParams
from .theory import (SyntheticQuadratic, stepsize_bounds, verify_lemma1,
                     verify_theorem_gap, verify_vanishing_gap)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    results = run_grid(config)
    best = _best(results)
    print(f"ran {len(results)} cells x {config.reps} reps ({config.algorithm})")
    print(f"best cell: alpha={best.alpha:.4g} gamma1={best.gamma1:.4g} "
          f"gamma2={best.gamma2:.4g} mean_metric={best.mean_metric:.6g} "
          f"mean_final_batch={best.mean_final_batch:.1f}")
    if config.output_dir:
        print(f"artifacts written under {config.output_dir}")
    return 0


def _cmd_calibrate_g(args) -> int:
    config = load_config(args.config)
    problem, _, _ = load_problem(config)
    G = compute_G(problem, calibration_rng(config.seed))
    print(f"G = {G!r}  (N={problem.N}, n={problem.n}, seed={config.seed})")
    return 0


def _verify_lemma1(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    problem = SyntheticQuadratic(diag=[0.5, 1.0, 2.0],
                                 offsets=rng.normal(size=(6, 3)))
    violations = 0
    trials = 200
    for _ in range(trials):
        x = rng.normal(scale=2.0, size=3)
        g1 = rng.uniform(1.0, 5.0)
        g2 = g1 * rng.uniform(0.2, 0.9)
        alpha = 0.9 * stepsize_bounds(g1, g2, problem.lipschitz).base
        params = HyperParams(alpha=alpha, gamma1=g1, gamma2=g2)
        report = verify_lemma1(problem, x, params, batch_size=2,
                               L=problem.lipschitz)
        if not report.holds:
            violations += 1
    ok = violations == 0
    print(f"expected-decrease check: {trials} random points/parameters, "
          f"{violations} violations -> {'PASS' if ok else 'FAIL'}")
    return ok


def _verify_thm2(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    problem = SyntheticQuadratic(
        diag=[0.5, 1.0],
        offsets=0.1 * np.random.default_rng(7).normal(size=(8, 2)))
    params = HyperParams(alpha=0.1, gamma1=2.0, gamma2=1.0)
    report = verify_theorem_gap(problem, params, batch_size=2,
                                horizon_iters=2000, reps=50, rng=rng)
    print(f"plateau check: mean gap {report.mean_gap:.3e} "
          f"(+/- {report.std_error:.1e}) vs bound {report.bound:.3e} "
          f"-> {'PASS' if report.satisfied else 'FAIL'}")
    return report.satisfied


def _verify_thm3(seed: int) -> bool:
    problem = SyntheticQuadratic(diag=[0.5, 1.0],
                                 scales=1.0 + 0.1 * np.linspace(-1, 1, 8))
    report = verify_vanishing_gap(problem, np.ones(2), gamma1=1.1, gamma2=1.0,
                                  batch_size=2, horizon_iters=2000,
                                  rng=np.random.default_rng(seed))
    print(f"vanishing-gap check: gamma ratio ok={report.bounds.ratio_ok}, "
          f"final gap {report.gap:.3e} -> {'PASS' if report.satisfied else 'FAIL'}")
    return report.satisfied


def _cmd_verify_theory(args) -> int:
    checks = {"lemma1": _verify_lemma1, "thm2": _verify_thm2, "thm3": _verify_thm3}
    selected = [args.module] if args.module else list(checks)
    ok = all(checks[name](args.seed) for name in selected)
    return 0 if ok else 1


def _cmd_convert(args) -> int:
    tmp = f"{args.libsvm}.{os.getpid()}.tmp"  # replaces the output only once complete
    try:
        with open(args.csv) as src, open(tmp, "w") as dst:
            rows = csv_to_libsvm(src, dst, label_col=args.label_col,
                                 missing_value=args.missing_value)
        os.replace(tmp, args.libsvm)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    print(f"wrote {rows} rows to {args.libsvm}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trish",
        description="Step-normalized stochastic optimization with adaptive batch sizing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a grid experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate-g", help="measure the G that run calibrates")
    p_cal.add_argument("--config", required=True)
    p_cal.set_defaults(func=_cmd_calibrate_g)

    p_ver = sub.add_parser("verify-theory", help="check constants and bounds empirically")
    p_ver.add_argument("--module", choices=("lemma1", "thm2", "thm3"), default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify_theory)

    p_conv = sub.add_parser("convert", help="convert dense CSV to LIBSVM text")
    p_conv.add_argument("--csv", required=True)
    p_conv.add_argument("--libsvm", required=True)
    p_conv.add_argument("--label-col", type=int, default=0)
    p_conv.add_argument("--missing-value", type=float, default=None)
    p_conv.set_defaults(func=_cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
