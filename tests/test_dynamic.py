"""Tests for the batch-update dynamic-graph wrapper."""

import numpy as np
import pytest

from repro import BePI, Graph, InvalidParameterError, PowerSolver, generate_rmat
from repro import telemetry
from repro.core.dynamic import DynamicRWR

from .conftest import exact_rwr


@pytest.fixture()
def dynamic():
    graph = generate_rmat(7, 600, seed=2)
    return DynamicRWR(graph, solver_factory=lambda: BePI(tol=1e-11))


class TestBuffering:
    def test_initial_state(self, dynamic):
        assert dynamic.pending_updates == 0
        assert dynamic.n_rebuilds == 1

    def test_updates_buffer(self, dynamic):
        dynamic.add_edges([(0, 1), (1, 2)])
        dynamic.remove_edges([(2, 3)])
        assert dynamic.pending_updates == 3

    def test_queries_are_stale_until_rebuild(self, dynamic):
        before = dynamic.query(0)
        dynamic.add_edges([(0, 99)])
        assert np.array_equal(dynamic.query(0), before)
        dynamic.rebuild()
        assert not np.array_equal(dynamic.query(0), before)

    def test_rebuild_clears_buffer(self, dynamic):
        dynamic.add_edges([(0, 99)])
        dynamic.rebuild()
        assert dynamic.pending_updates == 0
        assert dynamic.n_rebuilds == 2

    def test_rebuild_without_updates_is_noop(self, dynamic):
        dynamic.rebuild()
        assert dynamic.n_rebuilds == 1

    def test_out_of_range_node_rejected(self, dynamic):
        with pytest.raises(InvalidParameterError):
            dynamic.add_edges([(0, 10_000)])


class TestCorrectness:
    def test_rebuild_matches_fresh_solver(self):
        graph = generate_rmat(6, 250, seed=3)
        dynamic = DynamicRWR(graph, solver_factory=lambda: BePI(tol=1e-12))
        additions = [(0, 10), (10, 0), (5, 20)]
        removals = [tuple(graph.edges()[0])]
        dynamic.add_edges(additions)
        dynamic.remove_edges(removals)
        dynamic.rebuild()

        edge_set = set(map(tuple, graph.edges().tolist()))
        edge_set.update(additions)
        edge_set.difference_update(removals)
        expected_graph = Graph.from_edges(
            np.asarray(sorted(edge_set)), n_nodes=graph.n_nodes
        )
        assert np.allclose(
            dynamic.query(0), exact_rwr(expected_graph, 0.05, 0), atol=1e-8
        )

    def test_removing_missing_edge_is_noop(self, dynamic):
        before_edges = dynamic.graph.n_edges
        dynamic.remove_edges([(0, 0)])  # self loop that does not exist
        dynamic.rebuild()
        assert dynamic.graph.n_edges == before_edges

    def test_remove_all_edges(self):
        graph = Graph.from_edges([(0, 1), (1, 0)], n_nodes=3)
        dynamic = DynamicRWR(graph)
        dynamic.remove_edges([(0, 1), (1, 0)])
        dynamic.rebuild()
        scores = dynamic.query(0)
        expected = np.zeros(3)
        expected[0] = 0.05
        assert np.allclose(scores, expected)


class TestWeighted:
    def test_rebuild_preserves_edge_weights(self):
        """A weighted snapshot survives a rebuild round-trip unchanged."""
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
        weights = [2.0, 0.5, 1.0, 3.0, 1.5]
        graph = Graph.from_edges(edges, n_nodes=5, weights=weights)
        dynamic = DynamicRWR(graph, solver_factory=lambda: BePI(tol=1e-12))
        dynamic.add_edges([(3, 4)])
        dynamic.rebuild()

        combined = sorted(zip(edges + [(3, 4)], weights + [1.0]))
        expected = Graph.from_edges(
            [edge for edge, _ in combined],
            n_nodes=5,
            weights=[w for _, w in combined],
        )
        assert np.allclose(
            dynamic.query(0), exact_rwr(expected, 0.05, 0), atol=1e-8
        )

    def test_explicit_weights_overwrite(self):
        graph = Graph.from_edges([(0, 1), (1, 0)], n_nodes=3, weights=[2.0, 1.0])
        dynamic = DynamicRWR(graph, solver_factory=lambda: BePI(tol=1e-12))
        dynamic.add_edges([(0, 1), (0, 2)], weights=[5.0, 1.0])
        dynamic.rebuild()
        expected = Graph.from_edges(
            [(0, 1), (0, 2), (1, 0)], n_nodes=3, weights=[5.0, 1.0, 1.0]
        )
        assert np.allclose(
            dynamic.query(0), exact_rwr(expected, 0.05, 0), atol=1e-8
        )

    def test_unweighted_insert_keeps_existing_weight(self):
        """Re-inserting an existing edge without a weight is idempotent."""
        graph = Graph.from_edges([(0, 1), (1, 0)], n_nodes=2, weights=[3.0, 1.0])
        dynamic = DynamicRWR(graph)
        before = dynamic.query(0)
        dynamic.add_edges([(0, 1)])
        dynamic.rebuild()
        # The edge already existed, so the graph is unchanged and the
        # re-preprocess is skipped entirely.
        assert dynamic.n_skipped_rebuilds == 1
        assert np.array_equal(dynamic.query(0), before)

    def test_weight_validation(self, dynamic):
        with pytest.raises(InvalidParameterError):
            dynamic.add_edges([(0, 1), (1, 2)], weights=[1.0])
        with pytest.raises(InvalidParameterError):
            dynamic.add_edges([(0, 1)], weights=[-2.0])
        with pytest.raises(InvalidParameterError):
            dynamic.add_edges([(0, 1)], weights=[0.0])
        for weight in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError):
                dynamic.add_edges([(0, 5)], weights=[weight])
        assert dynamic.pending_updates == 0


class TestNoOpSkip:
    def test_cancelling_updates_skip_repreprocess(self, dynamic):
        rebuilds_before = dynamic.n_rebuilds
        solver_before = dynamic.solver
        dynamic.add_edges([(0, 99)])
        dynamic.remove_edges([(0, 99)])
        dynamic.rebuild()
        assert dynamic.pending_updates == 0
        assert dynamic.n_rebuilds == rebuilds_before
        assert dynamic.n_skipped_rebuilds == 1
        assert dynamic.solver is solver_before

    def test_removing_absent_edges_skips(self, dynamic):
        rebuilds_before = dynamic.n_rebuilds
        dynamic.remove_edges([(0, 0)])
        dynamic.rebuild()
        assert dynamic.n_rebuilds == rebuilds_before
        assert dynamic.n_skipped_rebuilds == 1

    def test_real_change_still_rebuilds(self, dynamic):
        dynamic.add_edges([(0, 99)])
        dynamic.remove_edges([(0, 99)])
        dynamic.add_edges([(0, 98)])
        dynamic.rebuild()
        assert dynamic.n_rebuilds == 2
        assert dynamic.n_skipped_rebuilds == 0


class TestAutoRebuild:
    def test_threshold_triggers_rebuild(self):
        graph = generate_rmat(6, 250, seed=4)
        dynamic = DynamicRWR(graph, auto_rebuild_threshold=3)
        dynamic.add_edges([(0, 1), (1, 2)])
        assert dynamic.n_rebuilds == 1
        dynamic.add_edges([(2, 3)])
        assert dynamic.n_rebuilds == 2
        assert dynamic.pending_updates == 0

    def test_invalid_threshold(self):
        graph = generate_rmat(5, 100, seed=5)
        with pytest.raises(InvalidParameterError):
            DynamicRWR(graph, auto_rebuild_threshold=0)

    def test_custom_solver_factory(self):
        graph = generate_rmat(5, 100, seed=6)
        dynamic = DynamicRWR(graph, solver_factory=lambda: PowerSolver(tol=1e-11))
        assert isinstance(dynamic.solver, PowerSolver)
        assert np.allclose(dynamic.query(0), exact_rwr(graph, 0.05, 0), atol=1e-7)


class TestDynamicTelemetry:
    def test_rebuild_counters_and_durations(self, dynamic):
        registry = dynamic.telemetry
        assert registry.get(telemetry.DYNAMIC_REBUILDS).value == 1.0  # initial
        assert registry.get(telemetry.DYNAMIC_REBUILD_SECONDS).count == 1

        dynamic.add_edges([(0, 99)])
        assert registry.get(telemetry.DYNAMIC_PENDING_UPDATES).value == 1.0
        dynamic.rebuild()
        assert registry.get(telemetry.DYNAMIC_REBUILDS).value == 2.0
        assert registry.get(telemetry.DYNAMIC_REBUILD_SECONDS).count == 2
        assert registry.get(telemetry.DYNAMIC_PENDING_UPDATES).value == 0.0

    def test_skipped_rebuild_ratio(self, dynamic):
        dynamic.add_edges([(0, 99)])
        dynamic.remove_edges([(0, 99)])  # cancels out -> skipped rebuild
        dynamic.rebuild()
        registry = dynamic.telemetry
        assert registry.get(telemetry.DYNAMIC_REBUILDS_SKIPPED).value == 1.0
        # 1 skipped of 2 decisions (initial build + this skip).
        assert registry.get(
            telemetry.DYNAMIC_SKIPPED_REBUILD_RATIO
        ).value == pytest.approx(0.5)

    def test_mode_counters_and_error_bound_gauge(self, dynamic):
        dynamic.add_edges([(0, 99)])
        dynamic.rebuild()
        registry = dynamic.telemetry
        corrections = registry.get(telemetry.DYNAMIC_CORRECTIONS)
        full = registry.get(telemetry.DYNAMIC_FULL_REBUILDS)
        total = (corrections.value if corrections else 0.0) + (
            full.value if full else 0.0
        )
        assert total == 1.0
        assert dynamic.last_rebuild_mode in ("incremental", "full")
        assert registry.get(telemetry.DYNAMIC_ERROR_BOUND).value == pytest.approx(
            dynamic.last_error_bound
        )
        if dynamic.last_rebuild_mode == "incremental":
            # The default error_bound=0.0 admits only exact corrections.
            assert dynamic.last_error_bound == 0.0

    def test_gauges_follow_ambient_registry_swap(self, dynamic):
        """Metrics land on a registry activated *after* construction —
        the registry captured at init time must not pin the destination."""
        fresh = telemetry.MetricsRegistry()
        with fresh.activate():
            dynamic.add_edges([(0, 99)])
            dynamic.remove_edges([(0, 99)])
            dynamic.rebuild()
        assert fresh.get(telemetry.DYNAMIC_REBUILDS_SKIPPED).value == 1.0
        assert fresh.get(telemetry.DYNAMIC_PENDING_UPDATES).value == 0.0
        # Outside the activation, writes fall back to the instance registry.
        dynamic.add_edges([(0, 98)])
        assert (
            dynamic.telemetry.get(telemetry.DYNAMIC_PENDING_UPDATES).value == 1.0
        )


class TestQueryPassthroughs:
    def test_query_many_matches_looped_query(self, dynamic):
        seeds = [0, 3, 7]
        rows = dynamic.query_many(seeds)
        assert rows.shape == (3, dynamic.graph.n_nodes)
        for row, seed in zip(rows, seeds):
            assert np.allclose(row, dynamic.query(seed), atol=1e-9)

    def test_query_many_detailed(self, dynamic):
        result = dynamic.query_many_detailed([1, 2], batch_size=1)
        assert result.scores.shape == (2, dynamic.graph.n_nodes)
        assert result.iterations.shape == (2,)

    def test_query_topk_matches_dense(self, dynamic):
        result = dynamic.query_topk(0, 5)
        scores = dynamic.query(0)
        order = np.lexsort((result.ids, -scores[result.ids]))
        assert np.array_equal(order, np.arange(len(result.ids)))
        dense_top = sorted(
            ((i, s) for i, s in enumerate(scores) if i != 0),
            key=lambda pair: (-pair[1], pair[0]),
        )[:5]
        assert [i for i, _ in dense_top] == result.ids.tolist()

    def test_query_topk_many(self, dynamic):
        results = dynamic.query_topk_many([0, 1], 4)
        assert len(results) == 2
        assert all(len(r.ids) == 4 for r in results)

    def test_passthroughs_follow_rebuild(self, dynamic):
        before = dynamic.query_many([0])[0]
        dynamic.add_edges([(0, 99)])
        dynamic.rebuild()
        after = dynamic.query_many([0])[0]
        assert not np.array_equal(before, after)


class TestIncrementalPolicy:
    def test_incremental_rebuild_matches_fresh_solver(self):
        graph = generate_rmat(7, 600, seed=9)
        dynamic = DynamicRWR(graph, solver_factory=lambda: BePI(tol=1e-11))
        # Reweighting an existing edge stays inside the served block
        # structure, so the correction must be exact (bound 0).
        u, v = map(int, graph.edges()[0])
        dynamic.add_edges([(u, v)], weights=[4.0])
        dynamic.rebuild()
        assert dynamic.last_rebuild_mode == "incremental"
        assert dynamic.last_error_bound == 0.0
        assert dynamic.n_corrections == 1
        fresh = BePI(tol=1e-11).preprocess(dynamic._graph)
        assert np.allclose(dynamic.query(0), fresh.query(0), atol=1e-8)

    def test_error_bound_never_exceeded(self):
        """Tolerance drill: with a positive error_bound, the served scores
        stay within the tracked bound of the exact new graph's scores."""
        graph = generate_rmat(7, 600, seed=11)
        dynamic = DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), error_bound=0.5
        )
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, graph.n_nodes, size=(6, 2))
        dynamic.add_edges([(int(u), int(v)) for u, v in pairs])
        dynamic.rebuild()
        fresh = BePI(tol=1e-11).preprocess(dynamic._graph)
        for seed in (0, 5, 9):
            observed = np.abs(dynamic.query(seed) - fresh.query(seed)).sum()
            assert observed <= dynamic.last_error_bound + 1e-7
        assert dynamic.last_error_bound <= 0.5

    def test_incremental_disabled_forces_full(self):
        graph = generate_rmat(6, 250, seed=12)
        dynamic = DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), incremental=False
        )
        u, v = map(int, graph.edges()[0])
        dynamic.add_edges([(u, v)], weights=[4.0])
        dynamic.rebuild()
        assert dynamic.last_rebuild_mode == "full"
        assert dynamic.n_corrections == 0
        assert dynamic.n_full_rebuilds == 1

    def test_baseline_solver_always_full(self):
        graph = generate_rmat(5, 100, seed=13)
        dynamic = DynamicRWR(graph, solver_factory=lambda: PowerSolver(tol=1e-11))
        dynamic.remove_edges([tuple(graph.edges()[0])])
        dynamic.rebuild()
        assert dynamic.last_rebuild_mode == "full"
        assert isinstance(dynamic.solver, PowerSolver)

    def test_negative_error_bound_rejected(self):
        graph = generate_rmat(5, 100, seed=13)
        with pytest.raises(InvalidParameterError):
            DynamicRWR(graph, error_bound=-0.1)

    def test_background_requires_store(self):
        graph = generate_rmat(5, 100, seed=13)
        with pytest.raises(InvalidParameterError):
            DynamicRWR(graph, background=True)
