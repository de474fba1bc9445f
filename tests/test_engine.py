"""Tests for the stateless query engines and the build/serve split."""

import dataclasses

import numpy as np
import pytest

from repro import BePI, BearSolver, InvalidParameterError, LUSolver
from repro.core.engine import (
    BearQueryEngine,
    BePIQueryEngine,
    validate_seed,
    validate_seeds,
)

from .conftest import exact_rwr


class TestEngineExtraction:
    def test_solver_queries_delegate_to_engine(self, small_graph):
        solver = BePI(tol=1e-11).preprocess(small_graph)
        engine = solver.engine
        q = np.zeros(small_graph.n_nodes)
        q[3] = 1.0
        scores, _, _ = engine.query_block(q[:, None])
        assert np.array_equal(scores[:, 0], solver.query(3))

    def test_engine_query_many_matches_solver(self, small_graph):
        solver = BePI(tol=1e-11).preprocess(small_graph)
        seeds = [0, 4, 9]
        assert np.array_equal(
            solver.engine.query_many(seeds), solver.query_many(seeds)
        )

    def test_engine_is_exact(self, small_graph):
        engine = BePI(tol=1e-12).preprocess(small_graph).engine
        scores = engine.query_many([1])[0]
        assert np.allclose(scores, exact_rwr(small_graph, 0.05, 1), atol=1e-8)

    def test_bear_engine_matches_solver(self, small_graph):
        solver = BearSolver(tol=1e-10).preprocess(small_graph)
        assert np.array_equal(
            solver.engine.query_many([0, 2]), solver.query_many([0, 2])
        )

    def test_lu_engine_matches_solver(self, small_graph):
        solver = LUSolver().preprocess(small_graph)
        assert np.array_equal(
            solver.engine.query_many([0, 2]), solver.query_many([0, 2])
        )

    def test_engine_requires_matching_kind(self, small_graph):
        bepi = BePI().preprocess(small_graph)
        with pytest.raises(InvalidParameterError):
            BearQueryEngine(bepi.solver_artifacts)
        bear = BearSolver().preprocess(small_graph)
        with pytest.raises(InvalidParameterError):
            BePIQueryEngine(bear.engine.artifacts)

    def test_bundle_is_frozen(self, small_graph):
        bundle = BePI().preprocess(small_graph).solver_artifacts
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.kind = "other"

    def test_engine_unavailable_before_preprocess(self):
        from repro import NotPreprocessedError

        with pytest.raises(NotPreprocessedError):
            BePI().engine

    def test_engine_keeps_no_statistics(self, small_graph):
        solver = BePI(tol=1e-10).preprocess(small_graph)
        engine = solver.engine
        before = dict(solver.stats)
        engine.query_many([0, 1])
        assert solver.stats == before


class TestSeedValidation:
    """The vectorized validator must behave exactly like the old per-seed loop."""

    N = 50

    def test_accepts_plain_list(self):
        assert validate_seeds([0, 3, 7], self.N).tolist() == [0, 3, 7]

    def test_accepts_integer_arrays_of_any_dtype(self):
        for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint64):
            out = validate_seeds(np.array([1, 2], dtype=dtype), self.N)
            assert out.dtype == np.int64
            assert out.tolist() == [1, 2]

    def test_accepts_integral_floats(self):
        # The historical loop accepted 2.0 because int(2.0) == 2.0.
        assert validate_seeds([2.0, 5.0], self.N).tolist() == [2, 5]

    def test_accepts_bools(self):
        assert validate_seeds(np.array([True, False]), self.N).tolist() == [1, 0]

    def test_empty_batch(self):
        assert validate_seeds([], self.N).shape == (0,)

    def test_out_of_range_message_matches_scalar_path(self):
        with pytest.raises(InvalidParameterError) as vec_info:
            validate_seeds(np.array([1, self.N + 3]), self.N)
        with pytest.raises(InvalidParameterError) as scalar_info:
            validate_seed(self.N + 3, self.N)
        assert str(vec_info.value) == str(scalar_info.value)

    def test_negative_seed_message_matches_scalar_path(self):
        with pytest.raises(InvalidParameterError) as vec_info:
            validate_seeds([-4], self.N)
        with pytest.raises(InvalidParameterError) as scalar_info:
            validate_seed(-4, self.N)
        assert str(vec_info.value) == str(scalar_info.value)

    def test_fractional_seed_message_matches_scalar_path(self):
        with pytest.raises(InvalidParameterError) as vec_info:
            validate_seeds([0, 2.5], self.N)
        with pytest.raises(InvalidParameterError) as scalar_info:
            validate_seed(2.5, self.N)
        assert str(vec_info.value) == str(scalar_info.value)

    def test_non_numeric_seed_message_matches_scalar_path(self):
        with pytest.raises(InvalidParameterError) as vec_info:
            validate_seeds(["nope"], self.N)
        with pytest.raises(InvalidParameterError) as scalar_info:
            validate_seed("nope", self.N)
        assert str(vec_info.value) == str(scalar_info.value)

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_seeds([float("nan")], self.N)

    def test_large_batch_is_vectorized(self):
        # A million seeds must not take a Python-loop amount of time; this
        # is a smoke check that the fast path handles the realistic shape.
        seeds = np.arange(self.N).repeat(20_000)
        out = validate_seeds(seeds, self.N)
        assert out.shape == seeds.shape

    def test_solver_batch_query_uses_validator(self, small_graph):
        solver = BePI().preprocess(small_graph)
        with pytest.raises(InvalidParameterError, match="out of range"):
            solver.query_many([0, small_graph.n_nodes])
