"""Tests for calibration, grid construction, the experiment driver, and CLI."""

import dataclasses
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from conftest import write_libsvm
from trish.core import FiniteSumProblem
from trish.harness import (DEFAULT_ALPHAS, ExperimentConfig, GridCellResult,
                           build_grid, compute_G, initial_sample_size,
                           load_config, load_problem, run_grid,
                           summarize_best, write_grid_csv, GRID_CSV_HEADER)
from trish.models import LogisticModel, MlpModel


def synthetic_logistic(N=200, n=6, seed=0, margin=1.0):
    """Separable-ish binary data with +-1 labels."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)
    X = rng.normal(size=(N, n))
    y = np.where(X @ w + margin * rng.normal(size=N) >= 0, 1.0, -1.0)
    return X, y


class ConstantGradientProblem(FiniteSumProblem):
    """Every component has the same constant gradient c."""

    def __init__(self, c, N):
        self.c = np.asarray(c, dtype=np.float64)
        self.n = self.c.size
        self.N = N

    def component_losses(self, indices, x):
        return np.full(len(indices), float(self.c @ x))

    def component_gradients(self, indices, x):
        return np.tile(self.c, (len(indices), 1))


class TestComputeG:
    def test_constant_gradient_recovered_exactly(self):
        problem = ConstantGradientProblem([3.0, 4.0], N=200)
        G = compute_G(problem, np.random.default_rng(0))
        assert G == 5.0

    def test_small_population_caps_batch(self):
        problem = ConstantGradientProblem([1.0], N=10)
        assert compute_G(problem, np.random.default_rng(0)) == 1.0


class TestInitialSampleSize:
    @pytest.mark.parametrize("N,expected", [
        (1605, 17), (2477, 25), (6294, 32), (60000, 32), (50, 2), (100, 2),
    ])
    def test_rule(self, N, expected):
        assert initial_sample_size(N) == expected

    @given(N=st.integers(2, 10**7))
    def test_floor_of_two(self, N):
        """The variance tests need two components: N <= 100 used to start at
        1, where the adaptive run never adapted.  Elsewhere the rule is
        min(32, ceil(N / 100)) as before."""
        size = initial_sample_size(N)
        assert 2 <= size <= min(32, N)
        if math.ceil(N / 100) >= 2:
            assert size == min(32, math.ceil(N / 100))

    @pytest.mark.parametrize("N", (0, -5, True, 1, 150.0))
    def test_rejects_bad_component_counts(self, N):
        """Each used to return 2, a batch that no N below 2 holds; N is a
        count, so True and 150.0 are refused as well."""
        with pytest.raises(ValueError, match=r"\bN\b"):
            initial_sample_size(N)


class TestBuildGrid:
    def test_sixty_cells_in_fixed_order(self):
        grid = build_grid(1.0)
        assert len(grid) == 60
        assert grid[0] == (0.1, 4.0, 0.5)
        assert grid[1] == (0.1, 4.0, 1.0)
        assert grid[3] == (0.1, 8.0, 0.5)
        assert grid[12] == (DEFAULT_ALPHAS[1], 4.0, 0.5)
        gamma1s = {g1 for _, g1, _ in grid}
        gamma2s = {g2 for _, _, g2 in grid}
        assert gamma1s == {4.0, 8.0, 16.0, 32.0}
        assert gamma2s == {0.5, 1.0, 2.0}

    def test_scaled_by_measured_gradient_norm(self):
        G = 0.3477
        grid = build_grid(G)
        assert (0.1, 8.0 / G, 2.0 / G) in grid
        # nearest grid entry to the published best triplet is within 5%
        assert abs(8.0 / G - 23.9593) / 23.9593 < 0.05
        assert abs(2.0 / G - 5.9898) / 5.9898 < 0.05

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            build_grid(0.0)

    @pytest.mark.parametrize("G", (math.nan, math.inf, True))
    def test_rejects_nonfinite_and_bool_scale(self, G):
        """NaN used to give a grid of NaN gammas, inf one of zeros, True
        the grid at G = 1."""
        with pytest.raises(ValueError, match=r"\bG\b"):
            build_grid(G)


def tiny_config(**overrides):
    base = dict(model="logistic", algorithm="trish_as",
                alphas=(0.1, 1.0), gamma1_multipliers=(4.0, 8.0),
                gamma2_multipliers=(1.0,), reps=2, seed=7,
                budget_epochs=1.0, g_value=None)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunGrid:
    def setup_method(self):
        X, y = synthetic_logistic()
        self.problem = LogisticModel(X, y)
        X_test, y_test = synthetic_logistic(N=100, seed=1)
        self.test = (X_test, y_test)

    def run(self, config):
        return run_grid(config, problem=self.problem,
                        test_features=self.test[0], test_labels=self.test[1])

    def test_single_cell_smoke(self):
        config = tiny_config(alphas=(0.1,), gamma1_multipliers=(4.0,), reps=1)
        results = self.run(config)
        assert len(results) == 1
        r = results[0]
        assert 0.0 <= r.mean_metric <= 1.0
        assert r.std_metric == 0.0
        assert abs(sum(r.case_fracs) - 1.0) < 1e-9

    def test_case_fractions_sum_to_one(self):
        results = self.run(tiny_config())
        for r in results:
            assert abs(sum(r.case_fracs) - 1.0) < 1e-9

    def test_curves_share_grid_across_reps(self):
        results = self.run(tiny_config())
        for r in results:
            assert r.curve_ege.shape == r.curve_train_loss.shape
            assert r.curve_ege.shape == r.curve_test_metric.shape
            assert np.all(np.diff(r.curve_ege) > 0)

    def test_csv_outputs_reproducible_byte_for_byte(self, tmp_path):
        from trish.harness import write_curves

        config = tiny_config()
        dirs = []
        for tag in ("a", "b"):
            results = self.run(config)
            out = tmp_path / tag
            out.mkdir()
            write_grid_csv(results, out / "grid.csv")
            write_curves(results, out / "curves")
            dirs.append(out)
        assert (dirs[0] / "grid.csv").read_bytes() == (dirs[1] / "grid.csv").read_bytes()
        first = sorted((dirs[0] / "curves").glob("*.csv"))
        second = sorted((dirs[1] / "curves").glob("*.csv"))
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_output_artifacts_written(self, tmp_path):
        config = tiny_config(alphas=(0.1,), gamma1_multipliers=(4.0,),
                             output_dir=str(tmp_path / "out"))
        self.run(config)
        grid_file = tmp_path / "out" / "grid.csv"
        assert grid_file.exists()
        lines = grid_file.read_text().splitlines()
        assert lines[0] == GRID_CSV_HEADER
        assert len(lines) == 2
        curves = list((tmp_path / "out" / "curves").glob("*.csv"))
        assert len(curves) == 1
        assert curves[0].read_text().splitlines()[0] == "ege,train_loss,test_metric"

    def test_sg_algorithm_supported(self):
        config = tiny_config(algorithm="sg", alphas=(0.1,),
                             gamma1_multipliers=(4.0,), reps=1)
        results = self.run(config)
        assert results[0].case_fracs == (0.0, 0.0, 0.0)

    def test_adaptive_grid_grows_batch_at_n_100(self):
        """At N = 100 the harness used to start trish_as at batch 1, where
        the variance tests never ran: mean_final_batch stayed 1.0."""
        X, y = synthetic_logistic(N=100)
        config = tiny_config(alphas=(0.1,), gamma1_multipliers=(4.0,))
        [cell] = run_grid(config, problem=LogisticModel(X, y),
                          test_features=self.test[0], test_labels=self.test[1])
        assert cell.mean_final_batch > initial_sample_size(100)

    def test_seeds_differ_across_cells_and_reps(self):
        config = tiny_config(reps=2)
        results = self.run(config)
        metrics = [r.mean_metric for r in results]
        assert len(set(metrics)) > 1  # distinct cells actually explored


class TestSummarizeBest:
    def fake_cell(self, alg, triplet, metric, batch=50.0, model="logistic"):
        return GridCellResult(alpha=triplet[0], gamma1=triplet[1],
                              gamma2=triplet[2], algorithm=alg, model=model,
                              mean_metric=metric, std_metric=0.0,
                              mean_final_batch=batch, case_fracs=(0, 1, 0),
                              curve_ege=np.zeros(1), curve_train_loss=np.zeros(1),
                              curve_test_metric=np.zeros(1))

    def test_single_cell_grids(self):
        t = (0.1, 4.0, 1.0)
        rows = summarize_best([self.fake_cell("trish", t, 0.8),
                               self.fake_cell("trish_as", t, 0.9, batch=75.0)])
        assert [selected for selected, _, _ in rows] == ["trish", "trish_as"]
        for _, trish_cell, as_cell in rows:
            assert (trish_cell.algorithm, as_cell.algorithm) == ("trish", "trish_as")
            assert trish_cell.triplet == as_cell.triplet == t
            assert trish_cell.mean_metric == 0.8
            assert as_cell.mean_metric == 0.9
            assert as_cell.mean_final_batch == 75.0

    def test_ties_break_to_first_grid_cell(self):
        t1, t2 = (0.1, 4.0, 1.0), (1.0, 8.0, 2.0)
        rows = summarize_best([
            self.fake_cell("trish", t1, 0.8), self.fake_cell("trish", t2, 0.8),
            self.fake_cell("trish_as", t1, 0.7), self.fake_cell("trish_as", t2, 0.7)])
        assert [cell.triplet for row in rows for cell in row[1:]] == [t1] * 4

    def test_min_direction_for_losses(self):
        t1, t2 = (0.1, 4.0, 1.0), (1.0, 8.0, 2.0)
        mse_cell = lambda alg, t, mse: self.fake_cell(alg, t, mse, model="mlp_regressor")
        rows = summarize_best([mse_cell("trish", t1, 0.5), mse_cell("trish", t2, 0.2),
                               mse_cell("trish_as", t1, 0.1), mse_cell("trish_as", t2, 0.3)])
        assert [cell.triplet for row in rows for cell in row[1:]] == [t2, t2, t1, t1]

    def test_regressor_grid_picks_lowest_mse(self):
        """summarize_best used to default to "max" and label a regressor's
        highest-MSE triplets best; the cells' model now picks the direction."""
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(60, 3)), rng.random(60)
        results = []
        for algorithm in ("trish", "trish_as"):
            config = ExperimentConfig(model="mlp_regressor", algorithm=algorithm,
                                      alphas=(0.01, 1.0, 10.0), gamma1_multipliers=(4.0,),
                                      gamma2_multipliers=(1.0,), reps=2, budget_epochs=3.0)
            results += run_grid(config, problem=MlpModel.regressor(X[:40], y[:40]),
                                test_features=X[40:], test_labels=y[40:], G=1.0)
        for selected_by, trish_cell, as_cell in summarize_best(results):
            grid = [r for r in results if r.algorithm == selected_by]
            lowest = min(grid, key=lambda r: r.mean_metric)
            assert lowest is not max(grid, key=lambda r: r.mean_metric)
            assert (trish_cell if selected_by == "trish" else as_cell) is lowest

    def test_mixed_models_rejected(self):
        """Cells of two models, within one algorithm's grid or across the two
        algorithms, are refused rather than ranked in one direction."""
        t1, t2 = (0.1, 4.0, 1.0), (1.0, 8.0, 2.0)
        within = [self.fake_cell("trish", t1, 0.5),
                  self.fake_cell("trish", t2, 0.2, model="mlp_classifier"),
                  self.fake_cell("trish_as", t1, 0.1), self.fake_cell("trish_as", t2, 0.3)]
        across = [self.fake_cell("trish", t1, 0.5), self.fake_cell("trish", t2, 0.2),
                  self.fake_cell("trish_as", t1, 0.1, model="mlp_regressor"),
                  self.fake_cell("trish_as", t2, 0.3, model="mlp_regressor")]
        for cells in (within, across):
            with pytest.raises(ValueError, match="model"):
                summarize_best(cells)

    def test_missing_algorithm_rejected(self):
        with pytest.raises(ValueError):
            summarize_best([self.fake_cell("trish", (0.1, 4, 1), 0.5)])


class TestLoadProblem:
    def test_config_without_a_data_source_rejected(self):
        with pytest.raises(ValueError, match="^config needs data_path or train_path"):
            load_problem(ExperimentConfig(model="logistic", algorithm="trish"))

    def test_classifier_path_maps_positive_label(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.random(size=(30, 6))
        y = rng.integers(0, 10, size=30).astype(float)
        write_libsvm(tmp_path / "train.libsvm", X, y)
        write_libsvm(tmp_path / "test.libsvm", X[:10], y[:10])
        config = ExperimentConfig(model="mlp_classifier", algorithm="trish",
                                  train_path=str(tmp_path / "train.libsvm"),
                                  test_path=str(tmp_path / "test.libsvm"),
                                  positive_label=2.0)
        problem, X_test, y_test = load_problem(config)
        assert set(np.unique(problem.targets)) <= {0.0, 1.0}
        assert set(np.unique(y_test)) <= {0.0, 1.0}
        assert problem.n == (6 + 2) * 5 + 1

    @pytest.mark.parametrize("label", [7.0, math.nan])
    def test_positive_label_matching_no_training_label_raises(self, tmp_path, label):
        """Both used to turn every train and test target into 0, and run_grid
        then reported a mean metric without a word."""
        X, y = synthetic_logistic(N=30)
        write_libsvm(tmp_path / "train.libsvm", X, y)
        config = ExperimentConfig(model="mlp_classifier", algorithm="trish",
                                  train_path=str(tmp_path / "train.libsvm"),
                                  test_path=str(tmp_path / "train.libsvm"),
                                  positive_label=label)
        with pytest.raises(ValueError, match="positive_label .* matches no training label"):
            load_problem(config)

    def test_normalize_keeps_logistic_labels(self, tmp_path):
        """On data_path, normalize used to rescale the +-1 labels to 0/1,
        which LogisticModel rejects."""
        X, y = synthetic_logistic(N=50)
        write_libsvm(tmp_path / "d.libsvm", 3.0 * X, y)
        config = ExperimentConfig(model="logistic", algorithm="trish", normalize=True,
                                  data_path=str(tmp_path / "d.libsvm"))
        problem, X_test, y_test = load_problem(config)
        features = np.vstack([problem.features, X_test])
        assert features.min() == 0.0 and features.max() == 1.0
        np.testing.assert_array_equal(np.concatenate([problem.labels, y_test]), y)

    def test_normalize_keeps_classifier_labels(self, tmp_path):
        """On data_path, positive_label used to be compared with labels
        rescaled into [0, 1]."""
        rng = np.random.default_rng(1)
        X = rng.random(size=(40, 4))
        y = np.arange(40) % 10.0
        write_libsvm(tmp_path / "d.libsvm", X, y)
        config = ExperimentConfig(model="mlp_classifier", algorithm="trish", normalize=True,
                                  data_path=str(tmp_path / "d.libsvm"), positive_label=2.0)
        problem, _, y_test = load_problem(config)
        np.testing.assert_array_equal(np.concatenate([problem.targets, y_test]), y == 2.0)

    def test_normalize_is_one_rule_on_both_sources(self, tmp_path):
        """A train/test pair used to leave regression targets unscaled, so
        targets outside [0, 1] failed the cross-entropy check there while the
        same rows loaded on data_path.  Both sources now give equal arrays."""
        rng = np.random.default_rng(2)
        X = 5.0 * rng.normal(size=(40, 3))
        y = 10.0 + X @ rng.normal(size=3)
        write_libsvm(tmp_path / "all.libsvm", X, y)
        write_libsvm(tmp_path / "train.libsvm", X[:28], y[:28])  # ceil(0.7 * 40) rows
        write_libsvm(tmp_path / "test.libsvm", X[28:], y[28:])
        common = dict(model="mlp_regressor", algorithm="trish", normalize=True)
        split = load_problem(ExperimentConfig(**common, data_path=str(tmp_path / "all.libsvm"),
                                              train_fraction=0.7))
        pair = load_problem(ExperimentConfig(**common, train_path=str(tmp_path / "train.libsvm"),
                                             test_path=str(tmp_path / "test.libsvm")))
        for (problem, X_test, y_test) in (split, pair):
            targets = np.concatenate([problem.targets, y_test])
            assert targets.min() == 0.0 and targets.max() == 1.0
        np.testing.assert_array_equal(pair[0].features, split[0].features)
        np.testing.assert_array_equal(pair[0].targets, split[0].targets)
        np.testing.assert_array_equal(pair[1], split[1])
        np.testing.assert_array_equal(pair[2], split[2])

    def test_data_path_keeps_logistic_features_sparse(self, tmp_path):
        """data_path used to hand the logistic model dense rows where the same
        rows as a train/test pair stayed CSR; both now keep the parser's CSR."""
        rng = np.random.default_rng(3)
        X = np.where(rng.random((20, 4)) < 0.5, rng.normal(size=(20, 4)), 0.0)
        X[:, -1] = 1.0  # both halves reach the last column
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        write_libsvm(tmp_path / "all.libsvm", X, y)
        write_libsvm(tmp_path / "train.libsvm", X[:14], y[:14])  # ceil(0.7 * 20) rows
        write_libsvm(tmp_path / "test.libsvm", X[14:], y[14:])
        split = load_problem(ExperimentConfig(model="logistic", algorithm="trish",
                                              data_path=str(tmp_path / "all.libsvm")))
        pair = load_problem(ExperimentConfig(model="logistic", algorithm="trish",
                                             train_path=str(tmp_path / "train.libsvm"),
                                             test_path=str(tmp_path / "test.libsvm")))
        for a, b in ((split[0].features, pair[0].features), (split[1], pair[1])):
            assert sp.issparse(a) and a.format == b.format == "csr"
            assert a.shape == b.shape and (a != b).nnz == 0
        np.testing.assert_array_equal(split[2], pair[2])

    def test_logistic_path_aligns_feature_dimensions(self, tmp_path):
        (tmp_path / "train.libsvm").write_text("1 2:1\n-1 1:1\n")
        (tmp_path / "test.libsvm").write_text("1 5:1\n")
        config = ExperimentConfig(model="logistic", algorithm="trish",
                                  train_path=str(tmp_path / "train.libsvm"),
                                  test_path=str(tmp_path / "test.libsvm"))
        problem, X_test, _ = load_problem(config)
        assert problem.n == 5 and X_test.shape[1] == 5
        np.testing.assert_array_equal(problem.features.toarray(),
                                      [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]])


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": "logistic", "algorithm": "trish",
                                    "bogus_key": 1}))
        with pytest.raises(ValueError, match="bogus_key"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        raw = {"model": "logistic", "algorithm": "trish_as",
               "train_path": "train.libsvm", "test_path": "test.libsvm",
               "alphas": [0.1], "reps": 3, "seed": 11}
        path.write_text(json.dumps(raw))
        config = load_config(path)
        assert config.algorithm == "trish_as"
        assert config.alphas == (0.1,)
        assert config.reps == 3
        # the sampler's constants live in HyperParams and initial_sample_size
        for key, value in (("theta", 0.9), ("nu", 5.84), ("r", 10), ("s0", None)):
            path.write_text(json.dumps({**raw, key: value}))
            with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
                load_config(path)

    @pytest.mark.parametrize("reps", (True, 2.0, 0))
    def test_rejects_bool_and_nonintegral_reps(self, reps):
        """reps=True used to run silently as one repetition."""
        with pytest.raises(ValueError, match="reps"):
            ExperimentConfig(model="logistic", algorithm="trish", reps=reps)

    @pytest.mark.parametrize("field, value", [
        ("theta", math.nan), ("theta", -1.0), ("nu", 0.0), ("r", True), ("r", 2.5),
        ("r", 0), ("s0", 0), ("s0", True), ("s0", 2.5),
        ("batch_size", 0), ("batch_size", True), ("batch_size", 64.0),
        ("budget_epochs", True), ("budget_epochs", -1.0), ("budget_epochs", 0.0),
        ("budget_epochs", math.inf), ("budget_epochs", math.nan),
        ("train_fraction", 0.0), ("train_fraction", 1.0),
        ("train_fraction", 2.0), ("train_fraction", math.nan), ("g_value", -3.0),
        ("g_value", 0.0), ("g_value", math.inf), ("g_value", math.nan),
        ("seed", True), ("seed", -1), ("seed", 1.5), ("seed", "7"),
        ("normalize", "false"), ("normalize", 1), ("normalize", None), ("g_value", True),
        ("alphas", [True]), ("gamma1_multipliers", [4.0, True]),
        ("gamma2_multipliers", [False, 1.0])])
    def test_rejects_bad_values_at_construction(self, field, value, tmp_path):
        """These used to construct and fail only inside run_grid, after the
        dataset was parsed and G calibrated (or not at all). theta, nu, r, s0
        and batch_size are no longer config keys: a config that sets one is
        refused as an unknown key, whatever its value, instead of being
        silently ignored.
        A seed of True ran as seed 1, a g_value or grid entry of true as 1,
        and normalize "false" normalized. Every row names a data_path, the one
        source that reads train_fraction, so each fails on its own value."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"model": "logistic", "algorithm": "trish", "data_path": "d", field: value}))
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            load_config(path)

    @pytest.mark.parametrize("grid, message", [
        ({"alphas": ()}, "alphas must be non-empty"),
        ({"gamma1_multipliers": ()}, "gamma1_multipliers must be non-empty"),
        ({"gamma2_multipliers": []}, "gamma2_multipliers must be non-empty"),
        ({"alphas": (-1.0,)}, "alpha must be positive"),
        ({"alphas": (0.1, math.nan)}, "alpha must be finite"),
        ({"gamma1_multipliers": (math.nan,)}, "gamma1 must be finite"),
        ({"gamma2_multipliers": (math.nan,)}, "gamma2 must be finite"),
        ({"gamma2_multipliers": (100.0,)}, "need 0 < gamma2 < gamma1"),
        ({"gamma1_multipliers": (4.0,), "gamma2_multipliers": (4.0,)},
         "need 0 < gamma2 < gamma1"),
        ({"gamma2_multipliers": (-0.5,)}, "need 0 < gamma2 < gamma1")])
    def test_rejects_bad_grid_at_construction(self, grid, message):
        """All but the empty alpha axis used to construct; an empty gamma
        axis then ran 0 cells and `trish run` failed at max([])."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(model="logistic", algorithm="trish_as", **grid)

    @pytest.mark.parametrize("axis", ("alphas", "gamma1_multipliers", "gamma2_multipliers"))
    def test_rejects_string_grid_entry(self, axis):
        """A string alpha used to be accepted (build_grid turned "0.1" into
        0.1) and a string multiplier raised TypeError in build_grid."""
        with pytest.raises(ValueError, match=f"^{axis} must be a number, got '0.5'"):
            ExperimentConfig(model="logistic", algorithm="trish", **{axis: (0.5, "0.5")})

    @pytest.mark.parametrize("fields, message", [
        ({"data_path": "d", "train_path": "a", "test_path": "b"},
         "data_path excludes train_path and test_path"),
        ({"data_path": "d", "train_path": "a"}, "must be given together"),
        ({"train_path": "a"}, "must be given together"),
        ({"test_path": "b"}, "must be given together"),
        ({"positive_label": 1.0}, "positive_label applies only to mlp_classifier"),
        ({"model": "mlp_regressor", "data_path": "d", "positive_label": 1.0},
         "positive_label applies only to mlp_classifier"),
        ({"train_path": "a", "test_path": "b", "train_fraction": 0.5},
         "train_fraction applies only to data_path"),
        ({"train_fraction": 0.7}, "train_fraction applies only to data_path")])
    def test_rejects_ignored_data_sources(self, fields, message):
        """These used to construct: data_path silently won over train_path
        and test_path, a lone train or test path failed only in
        load_problem, and positive_label was ignored outside mlp_classifier,
        as train_fraction was outside data_path."""
        kwargs = {"model": "logistic", "algorithm": "trish", **fields}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    def test_accepts_every_data_source_and_none(self):
        """No data source stays legal: run_grid accepts an injected problem."""
        ExperimentConfig(model="logistic", algorithm="trish")
        ExperimentConfig(model="logistic", algorithm="trish", data_path="d")
        ExperimentConfig(model="mlp_classifier", algorithm="trish",
                         train_path="a", test_path="b", positive_label=2.0)

    def test_accepts_edge_values(self):
        config = ExperimentConfig(model="logistic", algorithm="trish_as",
                                  reps=np.int64(1), g_value=1e-300,
                                  budget_epochs=1e-9, data_path="d",
                                  train_fraction=0.999, seed=np.int64(0))
        assert config.reps == 1 and config.g_value == 1e-300

    def test_readme_config_loads(self, tmp_path):
        """The README's config example, with its // comments removed, loads
        and names exactly the schema's keys, as the README says it does."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "config.json"
        path.write_text(re.sub(r"\s*//[^\n]*", "", block))
        config = load_config(path)
        assert config.algorithm == "trish_as"
        assert (sorted(json.loads(path.read_text()))
                == sorted(f.name for f in dataclasses.fields(ExperimentConfig)))

    def test_invalid_enum_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="nope", algorithm="trish")
        with pytest.raises(ValueError):
            ExperimentConfig(model="logistic", algorithm="nope")
