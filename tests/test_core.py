"""Tests for sampling primitives and the finite-sum problem contract."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import trish
from trish.core import (FiniteSumProblem, NumericError, SampleBatch, _Size,
                        check_gammas, check_positive, draw_batch,
                        sampled_gradient)
from trish.optimizer import HyperParams, run_trish
from trish.theory import SyntheticQuadratic


def make_problem(N=6, n=3, seed=1):
    rng = np.random.default_rng(seed)
    return SyntheticQuadratic(diag=rng.uniform(0.5, 2.0, n),
                              offsets=rng.normal(size=(N, n)))


class RowsProblem(FiniteSumProblem):
    """Component i has the fixed gradient rows[i]."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.N, self.n = self.rows.shape

    def component_losses(self, indices, x):
        return np.zeros(len(indices))

    def component_gradients(self, indices, x):
        return self.rows[np.asarray(indices)]


# Batch gradient rows for the finiteness check: ordinary entries mixed with
# non-finite ones and finite ones whose squares (1e200) or sums (1e308) overflow.
GRADIENT_ROWS = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                       elements=st.sampled_from([np.nan, np.inf, -np.inf, 1e200,
                                                 -1e200, 1e308, -1e308, 0.0])
                       | st.floats(-1e3, 1e3))


@st.composite
def draw_args(draw):
    N = draw(st.integers(1, 500))
    return N, draw(st.integers(1, N)), draw(st.integers(0, 2**32 - 1))


class TestDrawBatch:
    def test_full_batch_is_every_index(self):
        rng = np.random.default_rng(0)
        batch = draw_batch(5, 5, rng)
        assert set(batch.indices.tolist()) == set(range(5))

    @settings(max_examples=100, deadline=None)
    @given(N=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    def test_full_size_draws_nothing(self, N, seed):
        """Size N has one subset, every index: no draw, the stream untouched."""
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        batch = draw_batch(N, N, rng)
        np.testing.assert_array_equal(batch.indices, np.arange(N))
        assert batch.indices.dtype.kind == "i"
        assert rng.bit_generator.state == state

    @settings(max_examples=200, deadline=None)
    @given(args=draw_args().filter(lambda a: a[1] < a[0]))
    def test_draw_below_full_size_is_sorted_choice(self, args):
        """Below N a draw is `rng.choice` without replacement, sorted, and it
        leaves the stream where that call leaves it."""
        N, size, seed = args
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = draw_batch(N, size, rng)
        np.testing.assert_array_equal(
            batch.indices, np.sort(twin.choice(N, size=size, replace=False)))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("N, size", [(8, 2), (8, 7), (1605, 17), (6294, 63),
                                         (20000, 500), (20000, 19000), (6294, 6294)])
    def test_draw_matches_choice_on_both_paths(self, N, size):
        """`rng.choice` takes Floyd's algorithm for small sizes and a partial
        shuffle for large ones; a draw equals its sorted result on both and
        leaves the same generator state.  At size N the state is untouched."""
        rng, twin = np.random.default_rng(N + size), np.random.default_rng(N + size)
        state = rng.bit_generator.state
        batch = draw_batch(N, size, rng)
        if size == N:
            np.testing.assert_array_equal(batch.indices, np.arange(N))
            assert rng.bit_generator.state == state
        else:
            np.testing.assert_array_equal(
                batch.indices, np.sort(twin.choice(N, size, replace=False)))
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.bit_generator.state != state

    @pytest.mark.parametrize("k", [1, 2, 17, 19000])
    def test_size_answers_prod_and_refuses_the_rest(self, k):
        """`_Size` answers `np.prod` (as `Generator.choice` calls it) with the
        plain int itself; any other numpy function raises TypeError."""
        total = np.prod(_Size(k), dtype=np.intp)
        assert type(total) is int and total == k
        with pytest.raises(TypeError):
            np.sum(_Size(k))

    def test_single_index_problem(self):
        rng = np.random.default_rng(0)
        assert draw_batch(1, 1, rng).indices.tolist() == [0]

    def test_size_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_batch(5, 0, rng)
        with pytest.raises(ValueError):
            draw_batch(5, 6, rng)

    @pytest.mark.parametrize("size", [2.5, True, 2.0, np.float64(2.0), "2"],
                             ids=["2.5", "True", "2.0", "np.float64", "str"])
    def test_non_integer_size_rejected(self, size):
        """2.5 and 2.0 used to draw 2 indices, True 1, and "2" raised TypeError."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^size must be an integer in \[1, 8\]"):
            draw_batch(8, size, rng)
        assert rng.bit_generator.state == state

    def test_indices_distinct_and_sorted(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            batch = draw_batch(20, 7, rng)
            idx = batch.indices
            assert np.unique(idx).size == 7
            assert np.all(np.diff(idx) > 0)

    @settings(max_examples=200, deadline=None)
    @given(args=draw_args())
    def test_draw_passes_public_validation(self, args):
        """A draw skips `__post_init__`; it must still pass every check there."""
        N, size, seed = args
        batch = draw_batch(N, size, np.random.default_rng(seed))
        assert batch.indices.dtype.kind == "i"
        checked = SampleBatch(indices=batch.indices)
        np.testing.assert_array_equal(checked.indices, batch.indices)
        assert batch.size == size

    def test_uniform_over_subsets(self):
        """Every 2-subset of 6 indices appears with frequency 1/15 +- 0.01."""
        rng = np.random.default_rng(42)
        draws = 60_000
        counts = {pair: 0 for pair in itertools.combinations(range(6), 2)}
        for _ in range(draws):
            batch = draw_batch(6, 2, rng)
            counts[tuple(batch.indices.tolist())] += 1
        for pair, count in counts.items():
            assert abs(count / draws - 1 / 15) < 0.01, pair


class TestSampleBatch:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SampleBatch(indices=np.array([1, 1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleBatch(indices=np.array([], dtype=int))

    @pytest.mark.parametrize("indices", [[-4, 0], [2, 0, 1], [0, 3, 3]],
                             ids=["negative", "unsorted", "duplicate"])
    def test_rejects_negative_or_unordered(self, indices):
        """A negative index would wrap around to another component."""
        with pytest.raises(ValueError):
            SampleBatch(indices=np.array(indices))

    def test_list_input_stored_as_array(self):
        batch = SampleBatch(indices=[0, 2])
        assert isinstance(batch.indices, np.ndarray)
        assert batch.size == 2 and batch.indices.tolist() == [0, 2]

    def test_rejects_float_indices(self):
        with pytest.raises(ValueError, match="integers"):
            SampleBatch(indices=np.array([0.0, 2.0]))

    def test_make_and_replace_check_like_the_constructor(self):
        """Both used to skip the checks in `__new__` and return an invalid batch."""
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleBatch._make([np.array([5, 1])])
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleBatch(indices=[0, 2])._replace(indices=np.array([3, 3]))
        assert SampleBatch(indices=[0, 2])._replace(indices=[1, 3]).indices.tolist() == [1, 3]

    def test_batch_and_estimate_are_immutable(self):
        problem = make_problem()
        batch = draw_batch(problem.N, 3, np.random.default_rng(0))
        est = sampled_gradient(problem, np.ones(3), batch)
        for obj, field in ((batch, "indices"), (est, "aggregate"), (est, "sq_norm")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        assert est.sq_norm == est.aggregate.dot(est.aggregate)


class TestSampledGradient:
    def test_full_batch_equals_full_gradient(self):
        problem = make_problem()
        x = np.array([0.3, -1.2, 0.7])
        batch = SampleBatch(indices=np.arange(problem.N))
        est = sampled_gradient(problem, x, batch)
        np.testing.assert_allclose(est.aggregate, problem.gradient(x), rtol=1e-12)

    def test_singleton_batch_is_component_gradient(self):
        problem = make_problem()
        x = np.array([0.3, -1.2, 0.7])
        for i in range(problem.N):
            est = sampled_gradient(problem, x, SampleBatch(indices=np.array([i])))
            np.testing.assert_allclose(est.aggregate, problem.component_gradients([i], x)[0],
                                       rtol=1e-14)

    def test_enumerated_mean_is_unbiased(self):
        """Average over all C(4,2) batches equals the full gradient."""
        problem = make_problem(N=4)
        x = np.array([1.0, 2.0, -0.5])
        aggs = [sampled_gradient(problem, x, SampleBatch(indices=np.array(c))).aggregate
                for c in itertools.combinations(range(4), 2)]
        np.testing.assert_allclose(np.mean(aggs, axis=0), problem.gradient(x),
                                   rtol=1e-12, atol=1e-14)

    def test_unbiased_for_every_batch_size(self):
        """Enumeration oracle over all sizes of an N=6 problem, random x."""
        problem = make_problem(N=6)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.normal(size=problem.n)
            grad = problem.gradient(x)
            for b in range(1, 7):
                aggs = [sampled_gradient(problem, x,
                                         SampleBatch(indices=np.array(c))).aggregate
                        for c in itertools.combinations(range(6), b)]
                np.testing.assert_allclose(np.mean(aggs, axis=0), grad,
                                           rtol=1e-10, atol=1e-12)

    def test_aggregate_matches_per_component_mean(self):
        problem = make_problem()
        rng = np.random.default_rng(5)
        x = rng.normal(size=problem.n)
        est = sampled_gradient(problem, x, draw_batch(problem.N, 4, rng))
        np.testing.assert_allclose(est.aggregate, est.per_component.mean(axis=0),
                                   rtol=1e-12)

    def test_nonfinite_component_raises_with_index(self):
        class BadProblem(FiniteSumProblem):
            n, N = 2, 3

            def component_losses(self, indices, x):
                return np.zeros(len(indices))

            def component_gradients(self, indices, x):
                return np.array([[np.inf, 0.0] if i == 2 else [0.0, 0.0]
                                 for i in indices])

        batch = SampleBatch(indices=np.array([0, 2]))
        with pytest.raises(NumericError) as err:
            sampled_gradient(BadProblem(), np.zeros(2), batch)
        assert err.value.component == 2

    @pytest.mark.parametrize("bad, indices, named", [
        ({5: np.nan}, [1, 3, 5, 6, 7], 5),
        ({2: np.inf, 4: -np.inf}, [0, 2, 3, 4], 2),  # they sum to NaN
    ], ids=["nan_mid_batch", "cancelling_infinities"])
    def test_first_nonfinite_component_named(self, bad, indices, named):
        rows = np.arange(16.0).reshape(8, 2)
        for i, value in bad.items():
            rows[i, 0] = value
        batch = SampleBatch(indices=np.array(indices))
        with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
            sampled_gradient(RowsProblem(rows), np.zeros(2), batch)
        assert err.value.component == named

    def test_finite_rows_whose_sum_overflows_pass(self):
        rows = np.array([[1e308, 1.0], [1e308, 2.0], [1e308, 3.0]])
        with np.errstate(over="ignore"):
            est = sampled_gradient(RowsProblem(rows), np.zeros(2),
                                   SampleBatch(indices=np.arange(3)))
            expected = rows.mean(axis=0)
        assert expected[0] == np.inf
        np.testing.assert_array_equal(est.aggregate, expected)

    @settings(max_examples=300, deadline=None)
    @given(rows=GRADIENT_ROWS)
    def test_finiteness_check_matches_elementwise_oracle(self, rows):
        """The squared-norm fast path accepts and rejects as the elementwise
        check did: raise exactly when a row is non-finite, naming the first."""
        bad_rows = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        problem = RowsProblem(rows)
        batch = SampleBatch(indices=np.arange(problem.N))
        with np.errstate(over="ignore", invalid="ignore"):
            if bad_rows.size:
                with pytest.raises(NumericError) as err:
                    sampled_gradient(problem, np.zeros(problem.n), batch)
                assert err.value.component == bad_rows[0]
            else:
                est = sampled_gradient(problem, np.zeros(problem.n), batch)
                np.testing.assert_array_equal(est.aggregate, rows.sum(axis=0) / problem.N)

    def test_out_of_range_index_rejected(self):
        problem = make_problem()
        with pytest.raises(ValueError, match="out of range"):
            sampled_gradient(problem, np.zeros(problem.n),
                             SampleBatch(indices=np.array([0, problem.N])))

    def test_dimension_mismatch(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            sampled_gradient(problem, np.zeros(2), SampleBatch(indices=np.array([0])))


class TestDeterminism:
    def test_equal_seeds_equal_trajectories(self):
        problem = make_problem(N=10)
        params = HyperParams(alpha=0.1, gamma1=4.0, gamma2=1.0)
        x0 = np.array([1.0, -1.0, 0.5])
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(1234)
            x, records = run_trish(problem, x0, params, 3, 2.0, rng)
            runs.append((x, [r.grad_norm for r in records]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class TestInputRules:
    @pytest.mark.parametrize("value", (
        0.0, -1.0, -0.0, math.nan, math.inf, -math.inf, True, "1", None,
        np.array(1.0), np.bool_(True)))
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError, match=r"^x must be (a number|finite|positive), got"):
            check_positive("x", value)

    @pytest.mark.parametrize("value", (1e-300, 3, np.int64(3), np.float32(0.5)))
    def test_check_positive_accepts(self, value):
        check_positive("x", value)
        check_positive("x", value, finite=False)

    def test_finite_switch_admits_only_plus_inf(self):
        check_positive("theta", math.inf, finite=False)
        for value in (math.nan, -math.inf, 0.0, True):
            with pytest.raises(ValueError, match="^theta must be"):
                check_positive("theta", value, finite=False)

    @pytest.mark.parametrize("gamma1, gamma2, message", [
        (math.inf, 1.0, "gamma1 must be finite"),
        (2.0, math.nan, "gamma2 must be finite"),
        (True, 0.5, "gamma1 must be a number"),
        (2.0, None, "gamma2 must be a number"),
        (1.0, 1.0, "need 0 < gamma2 < gamma1"),
        (1.0, 2.0, "need 0 < gamma2 < gamma1"),
        (2.0, 0.0, "need 0 < gamma2 < gamma1"),
        (-1.0, -2.0, "need 0 < gamma2 < gamma1")])
    def test_check_gammas_rejects(self, gamma1, gamma2, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            check_gammas(gamma1, gamma2)

    def test_check_gammas_accepts(self):
        check_gammas(2.0, 1.0)
        check_gammas(np.float64(1e300), 1e-300)


def test_every_export_resolves():
    """Each name in `trish.__all__` is listed once and bound on the package."""
    assert len(set(trish.__all__)) == len(trish.__all__)
    assert [name for name in trish.__all__ if not hasattr(trish, name)] == []


def test_every_export_is_read_outside_tests():
    """Each name in `trish.__all__` is read by code in src/ (apart from
    `__init__.py`), demos/ or benchmarks/; a def or class statement is not a read."""
    root = Path(__file__).resolve().parent.parent
    read = set()
    for path in itertools.chain(*(root.joinpath(d).rglob("*.py")
                                  for d in ("src", "demos", "benchmarks"))):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert sorted(set(trish.__all__) - read) == []
