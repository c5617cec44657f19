"""Tests for the logistic and MLP objectives and the finite-difference oracle."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import conftest
from conftest import finite_difference_gradient, loss_stack
from trish.models import (_CLAMP_EPS, LogisticModel, MlpModel, _dense,
                          _unit_major, default_x0, testing_accuracy,
                          testing_loss)
from trish.core import FiniteSumProblem
from trish.theory import SyntheticQuadratic


def logistic_fixture(N=40, n=7, seed=0, sparse=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, n))
    if sparse:
        X[rng.random(size=X.shape) < 0.6] = 0.0
        X = sp.csr_matrix(X)
    y = rng.choice([-1.0, 1.0], size=N)
    return LogisticModel(X, y)


def relative_error(approx, exact):
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-300)


class TestLogisticModel:
    def test_loss_and_gradient_at_origin(self):
        model = logistic_fixture()
        x = np.zeros(model.n)
        for i in range(5):
            assert np.isclose(float(model.component_losses([i], x)[0]), np.log(2.0),
                              rtol=1e-15)
            z = np.asarray(model.features[i]).ravel()
            np.testing.assert_allclose(model.component_gradients([i], x)[0],
                                       -model.labels[i] * z / 2.0, rtol=1e-14)

    def test_large_margin_no_overflow(self):
        model = LogisticModel(np.array([[50.0]]), np.array([1.0]))
        loss = float(model.component_losses([0], np.array([1.0]))[0])  # margin +50
        assert np.isclose(loss, np.exp(-50.0), rtol=1e-10)
        loss_neg = float(model.component_losses([0], np.array([-20.0]))[0])  # margin -1000
        assert np.isfinite(loss_neg) and np.isclose(loss_neg, 1000.0, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        model = logistic_fixture(sparse=True)
        rng = np.random.default_rng(1)
        for _ in range(30):
            i = int(rng.integers(model.N))
            x = 0.3 * rng.normal(size=model.n)
            fd = finite_difference_gradient(model, i, x, h=1e-5)
            assert relative_error(fd, model.component_gradients([i], x)[0]) < 1e-6

    def test_full_loss_is_mean_of_components(self):
        model = logistic_fixture()
        rng = np.random.default_rng(2)
        x = rng.normal(size=model.n)
        mean = np.mean([float(model.component_losses([i], x)[0])
                        for i in range(model.N)])
        assert np.isclose(model.loss(x), mean, rtol=1e-12)

    def test_full_gradient_is_mean_of_components(self):
        model = logistic_fixture(sparse=True)
        rng = np.random.default_rng(3)
        x = rng.normal(size=model.n)
        mean = np.mean([model.component_gradients([i], x)[0] for i in range(model.N)],
                       axis=0)
        np.testing.assert_allclose(model.gradient(x), mean, rtol=1e-10)

    def test_convex_along_random_segments(self):
        model = logistic_fixture()
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a = rng.normal(size=model.n)
            b = rng.normal(size=model.n)
            mid = model.loss((a + b) / 2.0)
            assert mid <= (model.loss(a) + model.loss(b)) / 2.0 + 1e-12

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LogisticModel(np.ones((2, 2)), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_rejects_mismatched_row_count(self, sparse):
        X = sp.csr_matrix(np.ones((3, 2))) if sparse else np.ones((3, 2))
        with pytest.raises(ValueError, match="feature rows and labels disagree"):
            LogisticModel(X, np.ones(4))

    def test_sparse_features_made_canonical(self):
        """Unsorted column indices with a duplicate entry: the model stores
        the summed canonical matrix and leaves the caller's untouched."""
        X = sp.csr_matrix((np.array([2.0, 1.0, 0.5, 3.0]),
                           np.array([2, 0, 2, 1]), np.array([0, 3, 4])),
                          shape=(2, 3))
        dense = X.toarray()
        model = LogisticModel(X, np.array([1.0, -1.0]))
        assert model.features.has_canonical_format
        np.testing.assert_array_equal(model.features.toarray(), dense)
        np.testing.assert_array_equal(X.indices, [2, 0, 2, 1])
        x = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(
            model.component_gradients([0, 1], x),
            LogisticModel(dense, model.labels).component_gradients([0, 1], x))


@st.composite
def csr_and_rows(draw):
    """A random CSR matrix (empty rows likely), possibly non-canonical with
    unsorted duplicate entries, and a row sample that may be a single row and
    may include the last one."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 12))
    density = draw(st.sampled_from((0.0, 0.1, 0.4, 1.0)))
    seed = draw(st.integers(0, 2**16))
    X = sp.random(rows, cols, density=density, format="csr",
                  random_state=seed, data_rvs=lambda k: np.arange(1.0, k + 1))
    if draw(st.booleans()):
        # Every row's entries once more in reverse order: a duplicate per entry.
        spans = list(zip(X.indptr[:-1], X.indptr[1:]))
        data = np.concatenate([np.r_[X.data[a:b], X.data[a:b][::-1]] for a, b in spans])
        cols_of = np.concatenate([np.r_[X.indices[a:b], X.indices[a:b][::-1]]
                                  for a, b in spans])
        X = sp.csr_matrix((data, cols_of, 2 * X.indptr), shape=X.shape)
    size = draw(st.integers(1, rows))
    idx = np.sort(np.random.default_rng(seed).choice(rows, size, replace=False))
    if draw(st.booleans()):
        idx = np.union1d(idx, [rows - 1])
    return X, idx


class TestRows:
    """Batches gathered from the dense rows a model keeps of its features."""

    @settings(max_examples=200, deadline=None)
    @given(case=csr_and_rows())
    def test_csr_gather_equals_scipy_rows(self, case):
        X, idx = case
        y = np.where(np.arange(X.shape[0]) % 2 == 0, 1.0, -1.0)
        for rows in (LogisticModel(X, y)._dense_rows[idx],
                     MlpModel.classifier(X, (y + 1.0) / 2.0).features[idx]):
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, X[idx].toarray())

    def test_single_last_empty_row(self):
        X = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0]]))
        model = LogisticModel(X, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(model._dense_rows[[1]], [[0.0, 0.0]])
        np.testing.assert_array_equal(model._dense_rows[[0, 1]], X.toarray())
        np.testing.assert_array_equal(
            model.component_gradients([1], np.array([0.3, -0.7])), [[0.0, 0.0]])

    def test_non_canonical_csr_sums_duplicates(self):
        X = sp.csr_matrix((np.array([1.0, 2.0]), np.array([1, 1]),
                           np.array([0, 2])), shape=(1, 2))
        model = LogisticModel(X, np.array([1.0]))
        np.testing.assert_array_equal(model._dense_rows[[0]], [[0.0, 3.0]])
        x = np.array([0.5, -0.25])
        np.testing.assert_array_equal(
            model.component_gradients([0], x),
            LogisticModel(np.array([[0.0, 3.0]]), np.array([1.0]))
            .component_gradients([0], x))


class TestDenseGradientRows:
    @settings(max_examples=200, deadline=None)
    @given(case=csr_and_rows(), seed=st.integers(0, 2**16))
    def test_csr_model_gradients_equal_dense_model(self, case, seed):
        """Logistic batch gradients gathered from the model's dense copy of a
        CSR matrix equal those of a model built from the dense array."""
        X, idx = case
        rng = np.random.default_rng(seed)
        y = rng.choice([-1.0, 1.0], size=X.shape[0])
        x = rng.normal(size=X.shape[1])
        dense = X.toarray()
        sparse_model = LogisticModel(X, y)
        out = sparse_model.component_gradients(idx, x)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_array_equal(
            out, LogisticModel(dense, y).component_gradients(idx, x))
        np.testing.assert_array_equal(sparse_model.features.toarray(), dense)


@st.composite
def mlp_predict_cases(draw):
    """A random MLP, features in one of three layouts, and a parameter vector.

    A width-1 hidden layer after a wider one is drawn on purpose: numpy runs
    a width-1 product as a matrix-vector product, whose rounding depends on
    the memory layout."""
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    if draw(st.booleans()):
        hidden = [max(hidden[0], 2), 1, *hidden[1:]][:3]
    acts = draw(st.lists(st.sampled_from(("sigmoid", "linear")),
                         min_size=len(hidden) + 1, max_size=len(hidden) + 1))
    rows = draw(st.one_of(st.just(1), st.just(2), st.integers(3, 400)))
    n_in = draw(st.integers(1, 8))
    layout = draw(st.sampled_from(("contiguous", "column_sliced", "csr")))
    scale = draw(st.floats(0.1, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(rows, n_in + 1))[:, 1:]  # a column slice
    if layout == "contiguous":
        X = np.ascontiguousarray(X)
    elif layout == "csr":
        X = sp.csr_matrix(X * (rng.random(size=X.shape) < 0.5))
    model = MlpModel(X, rng.random(size=rows), [n_in, *hidden, 1], acts)
    return model, X, scale * rng.normal(size=model.n)


class TestMlpModel:
    def classifier_fixture(self, N=20, ell=9, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random(size=(N, ell))
        y = rng.integers(0, 2, size=N).astype(float)
        return MlpModel.classifier(X, y, hidden=4)

    def regressor_fixture(self, N=20, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random(size=(N, 7))
        y = rng.random(size=N)
        return MlpModel.regressor(X, y)

    def test_parameter_count_formula(self):
        """One hidden layer of n1 nodes on ell inputs: (ell+2)*n1 + 1."""
        X = np.zeros((3, 784))
        model = MlpModel.classifier(X, np.zeros(3), hidden=5)
        assert model.n == (784 + 2) * 5 + 1 == 3931

    def test_sparse_features_match_dense(self):
        """A CSR training matrix gives bit-identical values to its dense array."""
        rng = np.random.default_rng(3)
        X = rng.random(size=(20, 9)) * (rng.random(size=(20, 9)) < 0.3)
        y = rng.integers(0, 2, size=20).astype(float)
        dense = MlpModel.classifier(X, y, hidden=4)
        sparse = MlpModel.classifier(sp.csr_matrix(X), y, hidden=4)
        x = rng.uniform(-0.5, 0.5, size=dense.n)
        idx = np.array([0, 4, 7, 19])
        np.testing.assert_array_equal(sparse.component_gradients(idx, x),
                                      dense.component_gradients(idx, x))
        assert sparse.loss(x) == dense.loss(x)
        np.testing.assert_array_equal(sparse.gradient(x), dense.gradient(x))
        np.testing.assert_array_equal(
            sparse._predict_unit_major(_unit_major(sp.csr_matrix(X)), x),
            dense._predict_unit_major(_unit_major(X), x))

    @settings(max_examples=300, deadline=None)
    @given(case=mlp_predict_cases())
    def test_predict_equals_row_major_forward(self, case):
        """The unit-major full-data pass gives the batch pass's bits."""
        model, X, x = case
        expected = model._forward(_dense(X), model.unpack(x))[-1].ravel()
        np.testing.assert_array_equal(model._predict_unit_major(_unit_major(X), x), expected)

    @settings(max_examples=200, deadline=None)
    @given(h=st.lists(st.one_of(
               st.sampled_from((0.0, 1.0, _CLAMP_EPS, 1.0 - _CLAMP_EPS,
                                np.nextafter(_CLAMP_EPS, 0.0),
                                np.nextafter(1.0 - _CLAMP_EPS, 1.0))),
               st.floats(0.0, 1.0)), min_size=1, max_size=20),
           seed=st.integers(0, 2**16))
    def test_losses_from_h_equal_reference_expression(self, h, seed):
        """The in-place losses equal the textbook cross-entropy bit for bit,
        at the clamp edges and at saturated outputs too."""
        h = np.array(h)
        y = np.random.default_rng(seed).random(size=h.size)
        model = MlpModel.regressor(np.zeros((1, 2)), [0.5], hidden=(2,))
        hc = np.clip(h, _CLAMP_EPS, 1.0 - _CLAMP_EPS)
        expected = -(y * np.log(hc) + (1.0 - y) * np.log1p(-hc))
        h_before = h.copy()
        np.testing.assert_array_equal(model._losses_from_h(h, y), expected)
        np.testing.assert_array_equal(h, h_before)

    def test_regressor_parameter_count(self):
        model = self.regressor_fixture()
        assert model.n == 102  # 7*7+7 + 5*7+5 + 1*5+1

    @pytest.mark.parametrize("bad", (-0.5, 1.5, math.nan))
    def test_rejects_targets_outside_unit_interval(self, bad):
        """Cross-entropy is the only loss, so every target must lie in [0, 1].
        A NaN target used to pass and give a NaN loss."""
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MlpModel.regressor(np.zeros((2, 7)), [0.5, bad])

    @pytest.mark.parametrize("hidden", (2.5, True, 0, "5"))
    def test_classifier_rejects_bad_layer_size(self, hidden):
        """These used to build layers [3, 2, 1], [3, 1, 1], [3, 0, 1] and [3, 5, 1]."""
        X, y = np.zeros((5, 3)), np.zeros(5)
        with pytest.raises(ValueError, match="^layer size must be an integer"):
            MlpModel.classifier(X, y, hidden=hidden)

    def test_rejects_mismatched_row_count(self):
        with pytest.raises(ValueError, match="feature rows and targets disagree"):
            MlpModel(np.zeros((3, 2)), np.zeros(4), [2, 1], ("sigmoid",))

    @pytest.mark.parametrize("layer_sizes, activations, message", [
        ([2, 3, 2], ("sigmoid", "sigmoid"), "end with an output layer of size 1"),
        ([2], (), "end with an output layer of size 1"),
        ([3, 1], ("sigmoid",), "input layer size must match the feature dimension"),
        ([2, 3, 1], ("sigmoid",), "one activation per non-input layer"),
        ([2, 3, 1], ("linear", "sigmoid", "sigmoid"), "one activation per non-input layer"),
        ([2, 1], ("relu",), "unknown activation 'relu'")])
    def test_rejects_bad_architecture(self, layer_sizes, activations, message):
        with pytest.raises(ValueError, match=message):
            MlpModel(np.zeros((4, 2)), np.zeros(4), layer_sizes, activations)

    def test_regressor_rejects_bad_layer_size(self):
        with pytest.raises(ValueError, match=r"^layer size must be an integer .*2\.5"):
            MlpModel.regressor(np.zeros((5, 3)), np.zeros(5), hidden=(7, 2.5))

    def test_zero_parameters_give_half_output(self):
        model = self.classifier_fixture()
        x = np.zeros(model.n)
        h = model._predict_unit_major(_unit_major(model.features), x)
        np.testing.assert_allclose(h, 0.5)
        losses = model.component_losses(np.arange(model.N), x)
        np.testing.assert_allclose(losses, np.log(2.0), rtol=1e-12)

    def test_sigmoid_output_in_unit_interval(self):
        model = self.classifier_fixture()
        rng = np.random.default_rng(1)
        h = model._predict_unit_major(_unit_major(model.features),
                                      rng.uniform(-2, 2, model.n))
        assert np.all((h > 0) & (h < 1))

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(2)
        for fixture in (self.classifier_fixture(), self.regressor_fixture()):
            x = rng.uniform(-1, 1, fixture.n)
            assert np.all(fixture.component_losses(np.arange(fixture.N), x) >= 0)

    def test_classifier_gradient_matches_finite_differences(self):
        model = self.classifier_fixture()
        rng = np.random.default_rng(3)
        for _ in range(10):
            i = int(rng.integers(model.N))
            x = rng.uniform(-0.5, 0.5, model.n)
            fd = finite_difference_gradient(model, i, x, h=1e-5)
            assert relative_error(fd, model.component_gradients([i], x)[0]) < 1e-5

    def test_regressor_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.random(size=(15, 7))
        y = rng.random(size=15)
        model = MlpModel.regressor(X, y)
        for _ in range(10):
            i = int(rng.integers(model.N))
            x = rng.uniform(-0.5, 0.5, model.n)
            fd = finite_difference_gradient(model, i, x, h=1e-5)
            assert relative_error(fd, model.component_gradients([i], x)[0]) < 1e-5

    def test_per_component_rows_match_single_evaluations(self):
        model = self.classifier_fixture()
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, model.n)
        idx = np.array([0, 3, 7])
        rows = model.component_gradients(idx, x)
        for row, i in zip(rows, idx):
            np.testing.assert_allclose(row, model.component_gradients([int(i)], x)[0],
                                       rtol=1e-12)

    def test_linear_hidden_stack_collapses_to_affine(self):
        """With identity hidden activations the network equals a single
        affine map followed by the output sigmoid."""
        model = self.regressor_fixture()
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 0.5, model.n)
        (W1, b1), (W2, b2), (W3, b3) = model.unpack(x)
        W_eff = W3 @ W2 @ W1
        b_eff = W3 @ (W2 @ b1 + b2) + b3
        Z = model.features
        expected = 1.0 / (1.0 + np.exp(-(Z @ W_eff.T + b_eff).ravel()))
        np.testing.assert_allclose(model._predict_unit_major(_unit_major(Z), x),
                                   expected, rtol=1e-12)

    def test_parameter_length_mismatch_rejected(self):
        model = self.classifier_fixture()
        for x in (np.zeros(model.n - 1), np.zeros(model.n + 1)):
            with pytest.raises(ValueError):
                float(model.component_losses([0], x)[0])
            with pytest.raises(ValueError, match="parameter vectors have length"):
                finite_difference_gradient(model, 0, x)


class TestFiniteDifferenceOracle:
    def test_exact_on_quadratics(self):
        """Central differences are exact for quadratic losses."""
        class Quad(FiniteSumProblem):
            n, N = 3, 1

            def component_losses(self, indices, x):
                return np.full(len(indices), 0.5 * float(x @ x))

            def component_gradients(self, indices, x):
                return np.tile(x, (len(indices), 1))

        x = np.array([0.3, -1.0, 2.0])
        fd = finite_difference_gradient(Quad(), 0, x, h=0.1)
        np.testing.assert_allclose(fd, x, rtol=1e-12)

    def test_exact_on_linear(self):
        c = np.array([2.0, -3.0, 0.5])

        class Lin(FiniteSumProblem):
            n, N = 3, 1

            def component_losses(self, indices, x):
                return np.full(len(indices), float(c @ x))

            def component_gradients(self, indices, x):
                return np.tile(c, (len(indices), 1))

        fd = finite_difference_gradient(Lin(), 0, np.zeros(3), h=0.37)
        np.testing.assert_allclose(fd, c, rtol=1e-12)

    def test_rejects_nonpositive_step(self):
        model = logistic_fixture()
        with pytest.raises(ValueError):
            finite_difference_gradient(model, 0, np.zeros(model.n), h=0.0)

    @pytest.mark.parametrize("h", (math.nan, math.inf))
    def test_rejects_nonfinite_step(self, h):
        """Both used to return a NaN gradient."""
        model = logistic_fixture()
        with pytest.raises(ValueError, match=r"\bh\b"):
            finite_difference_gradient(model, 0, np.zeros(model.n), h=h)

    @pytest.mark.parametrize("K", [1, 5, 40])
    def test_mlp_loss_stack_equals_single_losses(self, K):
        """The batched forward pass through K parameter vectors at one row
        gives `component_losses` at each, up to rounding."""
        rng = np.random.default_rng(K)
        for model in (TestMlpModel().classifier_fixture(),
                      TestMlpModel().regressor_fixture()):
            xs = rng.uniform(-1, 1, (K, model.n))
            for i in (0, model.N - 1):
                np.testing.assert_allclose(
                    loss_stack(model, i, xs),
                    [float(model.component_losses([i], x)[0]) for x in xs],
                    rtol=1e-13, atol=0)

    def test_chunks_equal_one_coordinate_loop(self, monkeypatch):
        """Chunks of 7 coordinates, the last one short, against the loop that
        moved one coordinate at a time and took one loss per point."""
        def loop_fd(problem, i, x, h):
            x = x.copy()
            grad = np.empty(x.size)
            for j in range(x.size):
                old = x[j]
                x[j] = old + h
                up = float(problem.component_losses([i], x)[0])
                x[j] = old - h
                down = float(problem.component_losses([i], x)[0])
                x[j] = old
                grad[j] = (up - down) / (2.0 * h)
            return grad

        monkeypatch.setattr(conftest, "FD_CHUNK", 7)
        rng = np.random.default_rng(6)
        for model in (TestMlpModel().classifier_fixture(), logistic_fixture(n=9)):
            assert model.n % 7
            x = rng.uniform(-0.5, 0.5, model.n)
            # Loss rounding (~1e-16) over 2h bounds the difference.
            np.testing.assert_allclose(finite_difference_gradient(model, 1, x, 1e-5),
                                       loop_fd(model, 1, x, 1e-5),
                                       rtol=0, atol=1e-9)


class TestMetrics:
    def test_accuracy_perfect_and_tie_convention(self):
        model = logistic_fixture(N=4, n=2)
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        y = np.array([1.0, -1.0, 1.0])
        xs = np.array([[1.0, 0.0]])
        # margins 1, -1, 0: the zero margin counts as +1
        np.testing.assert_array_equal(testing_accuracy(model, xs, X, y), [1.0])

    def test_accuracy_constant_half_output_on_balanced_labels(self):
        X = np.zeros((10, 3))
        labels = np.array([1.0, 0.0] * 5)
        model = MlpModel.classifier(np.zeros((4, 3)), np.zeros(4), hidden=2)
        xs = np.zeros((1, model.n))  # h = 0.5 everywhere -> predicts 1
        np.testing.assert_array_equal(testing_accuracy(model, xs, X, labels), [0.5])

    def test_testing_loss_trivial_values(self):
        model = MlpModel.regressor(np.zeros((4, 7)), np.zeros(4))
        xs = np.zeros((1, model.n))  # h = 0.5
        X = np.zeros((6, 7))
        np.testing.assert_allclose(testing_loss(model, xs, X, np.full(6, 0.5)), [0.0])
        np.testing.assert_allclose(testing_loss(model, xs, X, np.ones(6)), [0.25])

    def test_logistic_rejects_zero_one_labels(self):
        model = logistic_fixture(N=4, n=2)
        with pytest.raises(ValueError, match="got 0.0"):
            testing_accuracy(model, np.zeros((1, 2)), np.eye(2), np.array([1.0, 0.0]))

    def test_mlp_classifier_rejects_signed_labels(self):
        model = MlpModel.classifier(np.zeros((4, 3)), np.zeros(4), hidden=2)
        with pytest.raises(ValueError, match="got -1.0"):
            testing_accuracy(model, np.zeros((1, model.n)), np.zeros((2, 3)),
                             np.array([1.0, -1.0]))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1, 1)])
    def test_metrics_take_only_a_stack(self, shape):
        """One vector, a scalar or a 3-D array is not a K x n stack."""
        X, labels = np.zeros((4, 3)), np.array([1.0, 0.0, 1.0, 0.0])
        cases = [(testing_accuracy, LogisticModel(X, 2.0 * labels - 1.0), 2.0 * labels - 1.0),
                 (testing_accuracy, MlpModel.classifier(X, labels, hidden=1), labels),
                 (testing_loss, MlpModel(X, labels, [3, 1], ("sigmoid",)), labels)]
        for metric, model, y in cases:
            xs = np.zeros(shape[:-1] + (model.n,)) if shape else np.float64(0.0)
            with pytest.raises(ValueError, match=r"^expected a K x n stack of points, got shape"):
                metric(model, xs, X, y)

    def test_metrics_reject_models_without_a_rule(self):
        X, y = np.zeros((4, 2)), np.array([1.0, -1.0, 1.0, -1.0])
        quadratic = SyntheticQuadratic(diag=[1.0, 2.0], offsets=np.ones((4, 2)))
        with pytest.raises(TypeError, match="^no accuracy rule for SyntheticQuadratic$"):
            testing_accuracy(quadratic, np.zeros((1, 2)), X, y)
        with pytest.raises(TypeError, match="^no testing loss rule for LogisticModel$"):
            testing_loss(LogisticModel(X, y), np.zeros((1, 2)), X, np.zeros(4))

    def test_empty_test_set_rejected(self):
        model = logistic_fixture()
        with pytest.raises(ValueError):
            testing_accuracy(model, np.zeros((1, model.n)),
                             np.zeros((0, model.n)), np.array([]))

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("shape", [(1,), (19,), (21,), (20, 1)])
    def test_held_out_size_mismatch_rejected(self, sparse, shape):
        """Labels must be one per held-out row, not broadcast against them."""
        rng = np.random.default_rng(5)
        X = rng.random(size=(20, 3))
        if sparse:
            X = sp.csr_matrix(X)
        y = np.ones(shape)
        cases = [(testing_accuracy, LogisticModel(X, np.ones(20))),
                 (testing_accuracy, MlpModel.classifier(X, np.zeros(20), hidden=2)),
                 (testing_loss, MlpModel.regressor(X, np.zeros(20)))]
        message = re.escape(f"20 feature rows but {y.size} labels (shape {shape})")
        for metric, model in cases:
            with pytest.raises(ValueError, match=message):
                metric(model, np.zeros((3, model.n)), X, y)

    def test_default_start_points(self):
        rng = np.random.default_rng(0)
        logistic = logistic_fixture()
        np.testing.assert_array_equal(default_x0(logistic, rng),
                                      np.zeros(logistic.n))
        mlp = MlpModel.classifier(np.zeros((3, 4)), np.zeros(3), hidden=2)
        x0 = default_x0(mlp, rng)
        assert x0.shape == (mlp.n,)
        assert np.all((x0 >= -0.5) & (x0 <= 0.5))


def _old_logistic_loss(model, x):
    margins = model.labels * np.asarray(model.features @ x).ravel()
    return float(np.mean(np.logaddexp(0.0, -margins)))


def _old_logistic_accuracy(x, features, labels):
    margins = np.asarray(features @ x).ravel()
    return float(np.mean(np.where(margins >= 0.0, 1.0, -1.0) == labels))


class TestStackedEvaluation:
    """Stacked losses and metrics equal one-point evaluations bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(sparse=st.booleans(), N=st.integers(1, 300), K=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    def test_logistic_losses_and_accuracy(self, sparse, N, K, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2 * N, 9))
        X[rng.random(size=X.shape) < 0.5] = 0.0
        X[0] = 0.0  # a zero margin: ties count as +1
        y = rng.choice([-1.0, 1.0], size=2 * N)
        if sparse:
            X = sp.csr_matrix(X)
        model = LogisticModel(X[:N], y[:N])
        xs = rng.normal(size=(K, 9))
        losses = model.losses(xs)
        accuracy = testing_accuracy(model, xs, X[N:], y[N:])
        assert losses.shape == accuracy.shape == (K,)
        for k, x in enumerate(xs):
            assert losses[k] == model.loss(x) == _old_logistic_loss(model, x)
            assert accuracy[k] == testing_accuracy(model, x[None], X[N:], y[N:])[0] \
                == _old_logistic_accuracy(x, X[N:], y[N:])

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 33])
    def test_logistic_accuracy_extreme_margins(self, sparse, K):
        """Iterates near 1e308 give zero, +-inf and NaN margins: zeros count
        as +1 and NaN as -1, as in one-point evaluation."""
        rng = np.random.default_rng(K)
        Z = rng.integers(-2, 3, size=(300, 4)).astype(np.float64)
        Z[:2] = 0.0
        y = rng.choice([-1.0, 1.0], size=300)
        y[:2] = (1.0, -1.0)
        X = sp.csr_matrix(Z) if sparse else Z
        model = LogisticModel(X[:10], y[:10])
        xs = rng.choice([-1.0, 1.0], size=(K, 4)) * 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            margins = np.asarray(X @ xs[0]).ravel()
            assert {0.0, np.inf, -np.inf} <= set(margins)
            assert np.isnan(margins).any()
            accuracy = testing_accuracy(model, xs, X, y)
            assert accuracy.shape == (K,)
            for k, x in enumerate(xs):
                assert accuracy[k] == testing_accuracy(model, x[None], X, y)[0] \
                    == _old_logistic_accuracy(x, X, y)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_logistic_losses_past_buffer_size(self, sparse):
        """Row means over more than numpy's 8192-element buffer still sum
        each row as one vector's mean does."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9001, 5))
        X[rng.random(size=X.shape) < 0.5] = 0.0
        if sparse:
            X = sp.csr_matrix(X)
        model = LogisticModel(X, rng.choice([-1.0, 1.0], size=9001))
        xs = rng.normal(scale=3.0, size=(3, 5))
        losses = model.losses(xs)
        for k, x in enumerate(xs):
            assert losses[k] == model.loss(x) == _old_logistic_loss(model, x)

    def test_mlp_metrics(self):
        rng = np.random.default_rng(0)
        X = rng.random(size=(50, 7))
        y = rng.random(size=50)
        model = MlpModel.regressor(X, y)
        xs = rng.uniform(-0.5, 0.5, size=(5, model.n))
        mse = testing_loss(model, xs, X, y)
        labels = (y > 0.5).astype(np.float64)
        accuracy = testing_accuracy(model, xs, X, labels)
        for k, x in enumerate(xs):
            h = model._predict_unit_major(_unit_major(X), x)
            assert mse[k] == float(np.mean((y - h) ** 2))
            pred = (h >= 0.5).astype(np.float64)
            assert accuracy[k] == float(np.mean(pred == labels))
        np.testing.assert_array_equal(model.losses(xs), [model.loss(x) for x in xs])

    def test_mlp_sparse_held_out_densified_once(self, monkeypatch):
        """A CSR held-out set gives the dense set's stacked values and is
        densified once per stacked call, not once per point."""
        rng = np.random.default_rng(1)
        X = rng.random(size=(60, 6)) * (rng.random(size=(60, 6)) < 0.4)
        labels = rng.integers(0, 2, size=60).astype(np.float64)
        X_csr = sp.csr_matrix(X)
        calls = []
        toarray = type(X_csr).toarray
        monkeypatch.setattr(type(X_csr), "toarray",
                            lambda self, *a, **k: calls.append(1) or toarray(self, *a, **k))
        for model in (MlpModel.classifier(X, labels, hidden=4),
                      MlpModel.regressor(X, rng.random(size=60))):
            xs = rng.uniform(-2.0, 2.0, size=(6, model.n))
            for metric in (testing_accuracy, testing_loss):
                calls.clear()
                sparse = metric(model, xs, X_csr, labels)
                assert len(calls) == 1
                np.testing.assert_array_equal(sparse, metric(model, xs, X, labels))
