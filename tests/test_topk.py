"""Tests for the top-k query path: selection kernel, engine/solver parity,
k-pair wire replies, and the generation-keyed hot-seed cache."""

import numpy as np
import pytest

from repro import (
    BePI,
    BearSolver,
    InvalidParameterError,
    LUSolver,
    MetricsRegistry,
)
from repro.applications import ranking
from repro.core.topk import (
    PAIR_DTYPE,
    TopKResult,
    from_pairs,
    resolve_candidates,
    select_topk,
    to_pairs,
    topk_from_scores,
)
from repro.serve import TopKCache, WorkerPool
from repro.store import ArtifactStore
from repro.telemetry import TOPK_PRUNED_FRAC


def dense_topk(scores, seed, k, exclude_seed=True, candidates=None):
    """Oracle: full lexicographic sort of the dense score vector."""
    if candidates is None:
        pool = np.arange(scores.shape[0], dtype=np.int64)
    else:
        pool = np.unique(np.asarray(candidates, dtype=np.int64))
    if exclude_seed:
        pool = pool[pool != seed]
    order = np.lexsort((pool, -scores[pool]))[:k]
    return pool[order], scores[pool[order]]


class TestSelectionKernel:
    def test_matches_full_sort_on_random_scores(self):
        rng = np.random.default_rng(7)
        scores = rng.random(200)
        for k in (1, 5, 37, 199, 200, 500):
            result = topk_from_scores(scores, seed=3, k=k)
            ids, want = dense_topk(scores, 3, k)
            assert np.array_equal(result.ids, ids)
            assert np.array_equal(result.scores, want)

    def test_tie_break_toward_smaller_id(self):
        # Heavy ties: only 4 distinct values across 64 entries.
        rng = np.random.default_rng(11)
        scores = rng.choice([0.1, 0.2, 0.3, 0.4], size=64)
        for k in (1, 3, 10, 63):
            result = topk_from_scores(scores, seed=0, k=k)
            ids, want = dense_topk(scores, 0, k)
            assert np.array_equal(result.ids, ids)
            assert np.array_equal(result.scores, want)

    def test_k_larger_than_pool_returns_whole_pool(self):
        scores = np.array([0.3, 0.1, 0.4, 0.2])
        result = topk_from_scores(scores, seed=1, k=100)
        assert len(result) == 3  # seed excluded
        assert np.array_equal(result.ids, [2, 0, 3])

    def test_exclude_seed_toggle(self):
        scores = np.array([0.9, 0.1, 0.2])
        kept = topk_from_scores(scores, seed=0, k=3, exclude_seed=False)
        assert kept.ids[0] == 0
        dropped = topk_from_scores(scores, seed=0, k=3)
        assert 0 not in dropped.ids

    def test_invalid_k_message_is_shared(self):
        scores = np.zeros(4)
        for bad in (0, -2, 1.5, "three"):
            with pytest.raises(InvalidParameterError, match="k must be >= 1"):
                topk_from_scores(scores, seed=0, k=bad)

    def test_candidate_out_of_range_named_in_error(self):
        scores = np.zeros(8)
        with pytest.raises(InvalidParameterError, match=r"candidate id 11 out of range \[0, 8\)"):
            topk_from_scores(scores, seed=0, k=2, candidates=np.array([1, 11, 2]))
        with pytest.raises(InvalidParameterError, match="candidate id -1"):
            topk_from_scores(scores, seed=0, k=2, candidates=np.array([-1, 2]))

    def test_candidate_dedup_and_float_rejection(self):
        scores = np.array([0.1, 0.9, 0.5, 0.3])
        result = topk_from_scores(
            scores, seed=0, k=4, candidates=np.array([2, 1, 2, 1, 3])
        )
        assert np.array_equal(result.ids, [1, 2, 3])  # no duplicate entries
        with pytest.raises(InvalidParameterError, match="integer node ids"):
            resolve_candidates(4, 0, True, np.array([1.0, 2.0]))

    def test_pruning_bound_is_observed(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(3)
        scores = rng.random(1000)
        with registry.activate():
            select_topk(scores, np.arange(1000, dtype=np.int64), 10)
        histogram = registry.get(TOPK_PRUNED_FRAC)
        assert histogram is not None and histogram.count == 1
        assert histogram.sum > 0.9  # ~99% of a uniform pool prunes

    def test_wire_pairs_roundtrip(self):
        result = TopKResult(
            ids=np.array([5, 2], dtype=np.int64),
            scores=np.array([0.7, 0.3]),
        )
        packed = to_pairs(result)
        assert packed.dtype == PAIR_DTYPE
        assert packed.nbytes == result.nbytes == 2 * 16
        back = from_pairs(packed)
        assert np.array_equal(back.ids, result.ids)
        assert np.array_equal(back.scores, result.scores)
        assert result.pairs() == [(5, 0.7), (2, 0.3)]


@pytest.fixture(
    scope="module",
    params=["bepi", "bear", "lu"],
)
def any_solver(request, small_graph):
    factory = {
        "bepi": lambda: BePI(tol=1e-11, hub_ratio=0.2),
        "bear": lambda: BearSolver(tol=1e-10),
        "lu": lambda: LUSolver(),
    }[request.param]
    return factory().preprocess(small_graph)


class TestSolverEngineParity:
    """query_topk must be bit-identical — ids AND scores — to the dense
    query followed by the deterministic lexicographic sort, on every
    solver and its extracted engine."""

    def test_solver_matches_dense_oracle(self, any_solver):
        for seed in (0, 7, 42):
            dense = any_solver.query(seed)
            for k in (1, 5, 1000):
                result = any_solver.query_topk(seed, k)
                ids, scores = dense_topk(dense, seed, k)
                assert np.array_equal(result.ids, ids)
                assert np.array_equal(result.scores, scores)

    def test_engine_matches_solver(self, any_solver):
        seeds = [0, 3, 9]
        via_engine = any_solver.engine.query_topk_many(seeds, 4)
        via_solver = any_solver.query_topk_many(seeds, 4)
        for got, want in zip(via_engine, via_solver):
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.scores, want.scores)

    def test_candidate_subset(self, any_solver):
        candidates = np.array([1, 4, 9, 16, 25, 36])
        dense = any_solver.query(4)
        result = any_solver.query_topk(4, 3, candidates=candidates)
        ids, scores = dense_topk(dense, 4, 3, candidates=candidates)
        assert np.array_equal(result.ids, ids)
        assert np.array_equal(result.scores, scores)

    def test_invalid_k_consistent_across_paths(self, any_solver):
        for call in (
            lambda: any_solver.query_topk(0, 0),
            lambda: any_solver.engine.query_topk(0, 0),
            lambda: ranking.top_k(any_solver, 0, 0),
        ):
            with pytest.raises(InvalidParameterError, match="k must be >= 1, got 0"):
                call()


class TestRankingBugfixes:
    def test_top_k_matches_query_topk(self, any_solver):
        assert ranking.top_k(any_solver, 2, 5) == any_solver.query_topk(2, 5).pairs()

    def test_bad_candidate_raises_named_error_not_indexerror(self, any_solver):
        n = any_solver.graph.n_nodes
        with pytest.raises(
            InvalidParameterError, match=f"candidate id {n + 3} out of range"
        ):
            ranking.top_k(any_solver, 0, 2, candidates=np.array([1, n + 3]))

    def test_duplicate_candidates_deduped(self, any_solver):
        pairs = ranking.top_k(
            any_solver, 0, 10, candidates=np.array([5, 5, 6, 6, 7])
        )
        ids = [node for node, _ in pairs]
        assert len(ids) == len(set(ids)) == 3

    def test_top_k_many_matches_batched_dense(self, any_solver):
        # Oracle on the same batched solve: a batch's floating-point bits
        # can differ from three single-seed solves at the last ulp, so the
        # parity contract is against the dense rows of the same batch.
        seeds = [1, 2, 3]
        many = ranking.top_k_many(any_solver, seeds, 4)
        dense = any_solver.query_many(seeds)
        for row, seed, pairs in zip(dense, seeds, many):
            ids, scores = dense_topk(row, seed, 4)
            assert [node for node, _ in pairs] == list(ids)
            assert [score for _, score in pairs] == list(scores)


class TestTopKCacheUnit:
    def test_lru_eviction_and_counters(self):
        registry = MetricsRegistry()
        cache = TopKCache(max_entries=2, registry=registry)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_zero_entries_disables_caching(self):
        cache = TopKCache(max_entries=0, registry=MetricsRegistry())
        cache.put("a", 1)
        assert cache.get("a") is None


@pytest.fixture(scope="module")
def topk_store(small_graph, tmp_path_factory):
    solver = BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)
    store = ArtifactStore(tmp_path_factory.mktemp("topk") / "store")
    store.publish(solver)
    return solver, store


class TestPoolTopK:
    def test_pool_matches_solver_through_wire(self, topk_store):
        solver, store = topk_store
        with WorkerPool(store.root, n_workers=2) as pool:
            for seed in (0, 9, 31):
                got = pool.query_topk(seed, 6)
                want = solver.query_topk(seed, 6)
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.scores, want.scores)

    def test_scatter_matches_dense_scatter(self, topk_store):
        _, store = topk_store
        seeds = list(range(8))
        with WorkerPool(store.root, n_workers=2) as pool:
            # Dense scatter first: same np.array_split chunking as the
            # top-k scatter on a cold cache, so each worker solves the
            # identical batch and the bits must agree exactly.
            dense = pool.scatter(seeds)
            results = pool.scatter_topk(seeds, 5)
            for row, seed, got in zip(dense, seeds, results):
                ids, scores = dense_topk(row, seed, 5)
                assert np.array_equal(got.ids, ids)
                assert np.array_equal(got.scores, scores)
            # The scatter spread work across both workers.
            submitted = [
                w["queries_submitted"] for w in pool.pool_stats()["workers"]
            ]
            assert all(count > 0 for count in submitted)

    def test_cache_hit_answers_without_engine_solve(self, topk_store):
        solver, store = topk_store
        with WorkerPool(store.root, n_workers=1) as pool:
            first = pool.query_topk(5, 4)
            submitted_after_miss = pool.pool_stats()["queries_submitted"]
            second = pool.query_topk(5, 4)
            # No new work reached any worker: answered from the cache.
            assert pool.pool_stats()["queries_submitted"] == submitted_after_miss
            assert pool.topk_cache_stats()["hits"] == 1
            assert np.array_equal(first.ids, second.ids)
            assert np.array_equal(first.scores, second.scores)
            # Different k or exclude_seed is a different cache key.
            pool.query_topk(5, 3)
            assert pool.pool_stats()["queries_submitted"] > submitted_after_miss

    def test_generation_swap_invalidates_cache(self, small_graph, tmp_path):
        solver_one = BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)
        from repro import generate_rmat

        other_graph = generate_rmat(7, 760, seed=23)
        solver_two = BePI(tol=1e-11, hub_ratio=0.2).preprocess(other_graph)
        store = ArtifactStore(tmp_path / "store")
        store.publish(solver_one)
        with WorkerPool(store.root, n_workers=2) as pool:
            before = pool.query_topk(3, 5)
            assert np.array_equal(before.ids, solver_one.query_topk(3, 5).ids)
            store.publish(solver_two)
            after = pool.query_topk(3, 5)
            want = solver_two.query_topk(3, 5)
            # The old generation's cached answer must not leak through.
            assert np.array_equal(after.ids, want.ids)
            assert np.array_equal(after.scores, want.scores)
            assert pool.pool_stats()["generation"].endswith("gen-000002")

    def test_k_clamp_through_pool(self, topk_store):
        solver, store = topk_store
        n = solver.graph.n_nodes
        with WorkerPool(store.root, n_workers=1) as pool:
            result = pool.query_topk(2, n + 50)
            assert len(result) == n - 1  # whole pool minus the seed
            want = solver.query_topk(2, n + 50)
            assert np.array_equal(result.ids, want.ids)
            assert np.array_equal(result.scores, want.scores)

    def test_invalid_k_rejected_before_dispatch(self, topk_store):
        _, store = topk_store
        with WorkerPool(store.root, n_workers=1) as pool:
            with pytest.raises(InvalidParameterError, match="k must be >= 1"):
                pool.query_topk(0, 0)


class TestWorkerRouting:
    def test_query_many_spreads_over_workers(self, topk_store):
        _, store = topk_store
        with WorkerPool(store.root, n_workers=2) as pool:
            for seed in range(6):
                pool.query_many([seed])
            submitted = [
                w["queries_submitted"] for w in pool.pool_stats()["workers"]
            ]
            # The old behavior sent every un-pinned batch to worker 0;
            # least-loaded routing must involve both workers.
            assert all(count > 0 for count in submitted), submitted

    def test_explicit_worker_pin_still_respected(self, topk_store):
        _, store = topk_store
        with WorkerPool(store.root, n_workers=2) as pool:
            for _ in range(3):
                pool.query_many([1], worker=1)
            submitted = [
                w["queries_submitted"] for w in pool.pool_stats()["workers"]
            ]
            assert submitted == [0, 3]

    def test_out_of_range_worker_rejected(self, topk_store):
        _, store = topk_store
        with WorkerPool(store.root, n_workers=2) as pool:
            with pytest.raises(InvalidParameterError, match="worker"):
                pool.query_many([0], worker=5)
