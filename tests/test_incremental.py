"""Tests for the incremental correction engine (repro.core.incremental)."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BePI, Graph, generate_rmat
from repro.core.dynamic import DynamicRWR
from repro.core.incremental import (
    UpdateBatch,
    apply_batch,
    build_updated_bundle,
    incremental_update,
)
from repro.exceptions import GraphFormatError, InvalidParameterError
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(8, 900, seed=3)


@pytest.fixture(scope="module")
def solver(graph):
    return BePI(tol=1e-11).preprocess(graph)


def _spoke_edge(solver, graph):
    """An existing edge whose source sits in the spoke band (n1)."""
    pre = solver.solver_artifacts.preprocess
    coo = graph.adjacency.tocoo()
    for u, v in zip(coo.row, coo.col):
        if pre.permutation.positions[int(u)] < pre.n1:
            return int(u), int(v)
    pytest.skip("no spoke-sourced edge in this graph")


class TestUpdateBatch:
    def test_digest_is_canonical(self):
        a = UpdateBatch(added=((1, 2, None),), removed=((3, 4),))
        b = UpdateBatch.from_dict(a.to_dict())
        assert a.digest() == b.digest()
        assert a == b

    def test_digest_distinguishes_batches(self):
        a = UpdateBatch(added=((1, 2, None),))
        b = UpdateBatch(added=((1, 2, 2.0),))
        assert a.digest() != b.digest()

    def test_sources(self):
        batch = UpdateBatch(added=((5, 1, None), (2, 9, 1.5)), removed=((5, 3),))
        assert batch.sources() == [2, 5]

    def test_n_updates(self):
        batch = UpdateBatch(added=((1, 2, None),), removed=((3, 4), (5, 6)))
        assert batch.n_updates == 3


class TestApplyBatch:
    def test_noop_returns_none(self, graph):
        u, v = map(int, graph.edges()[0])
        assert apply_batch(graph, UpdateBatch(added=((u, v, None),))) is None
        assert apply_batch(graph, UpdateBatch(removed=((0, 0),))) is None

    def test_add_remove_cancel(self, graph):
        batch = UpdateBatch(added=((1, 200, None),), removed=((1, 200),))
        assert apply_batch(graph, batch) is None

    def test_weights_carried(self):
        g = Graph.from_edges([(0, 1), (1, 0)], n_nodes=3, weights=[2.0, 1.0])
        out = apply_batch(g, UpdateBatch(added=((0, 2, 3.0),)))
        coo = out.adjacency.tocoo()
        weights = {
            (int(u), int(v)): w for u, v, w in zip(coo.row, coo.col, coo.data)
        }
        assert weights == {(0, 1): 2.0, (1, 0): 1.0, (0, 2): 3.0}

    def test_remove_all(self):
        g = Graph.from_edges([(0, 1)], n_nodes=2)
        out = apply_batch(g, UpdateBatch(removed=((0, 1),)))
        assert out.n_edges == 0


def reference_apply_batch(graph, batch):
    """The dict implementation ``apply_batch`` replaced: the whole graph as
    an edge -> weight map, the batch replayed on it, the graph rebuilt from
    the sorted map.  Kept as the oracle for the CSR splice."""
    coo = graph.adjacency.tocoo()
    edge_weights = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(coo.row, coo.col, coo.data)
    }
    baseline = dict(edge_weights)
    for u, v, w in batch.added:
        if w is None:
            edge_weights.setdefault((u, v), 1.0)
        else:
            edge_weights[(u, v)] = w
    for edge in batch.removed:
        edge_weights.pop(edge, None)
    if edge_weights == baseline:
        return None
    if edge_weights:
        items = sorted(edge_weights.items())
        edges = np.asarray([edge for edge, _ in items], dtype=np.int64)
        weights = np.asarray([w for _, w in items], dtype=np.float64)
        return Graph.from_edges(edges, n_nodes=graph.n_nodes, weights=weights)
    return Graph.empty(graph.n_nodes)


def _read_only(graph, index_dtype=None):
    """``graph`` behind read-only CSR buffers, like a store's memory map."""
    adj = graph.adjacency
    arrays = [adj.data.copy(), adj.indices.copy(), adj.indptr.copy()]
    if index_dtype is not None:
        arrays[1:] = [a.astype(index_dtype) for a in arrays[1:]]
    for array in arrays:
        array.setflags(write=False)
    csr = sp.csr_matrix(adj.shape)
    csr.data, csr.indices, csr.indptr = arrays
    return Graph.from_canonical_csr(csr)


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.adjacency, name), getattr(want.adjacency, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.adjacency.shape == want.adjacency.shape


#: Weights the property draws: repeats of a few values (so re-setting an
#: edge to its current weight is a no-op) and zero (dropped); in some
#: cases also the negative and non-finite values both must reject.
VALID_WEIGHTS = [None, None, 0.5, 1.0, 2.5, 0.0]
INVALID_WEIGHTS = [-1.0, math.nan, math.inf]


@st.composite
def graphs_and_batches(draw):
    """Small graphs (empty, with deadends, int32 or int64 indices) and
    batches over their existing edges and fresh or out-of-range keys, with
    repeats, re-inserts, insert-then-remove and remove-everything."""
    n = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    dense = (rng.random((n, n)) < density) * rng.choice([0.5, 1.0, 2.5], size=(n, n))
    dense[rng.random(n) < 0.3] = 0.0  # deadends
    graph = _read_only(Graph(dense), draw(st.sampled_from([None, np.int64])))
    existing = [tuple(map(int, e)) for e in graph.edges()]
    node = st.integers(min_value=-1, max_value=n) if draw(st.booleans()) else (
        st.integers(min_value=0, max_value=n - 1))
    key = st.one_of(st.tuples(node, node), *(
        [st.sampled_from(existing)] if existing else []))
    weights = VALID_WEIGHTS + (INVALID_WEIGHTS if draw(st.booleans()) else [])
    added = draw(st.lists(st.tuples(key, st.sampled_from(weights)), max_size=8))
    removed = draw(st.lists(key, max_size=6))
    if draw(st.booleans()):  # remove some of what was just added
        removed += [k for k, _ in added if rng.random() < 0.5]
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        removed += existing + [k for k, _ in added]
    batch = UpdateBatch(added=tuple((u, v, w) for (u, v), w in added),
                        removed=tuple(removed))
    return graph, batch


class TestApplyBatchProperty:
    @given(graphs_and_batches())
    @settings(max_examples=400, deadline=None)
    def test_matches_dict_reference(self, case):
        graph, batch = case
        try:
            want = reference_apply_batch(graph, batch)
        except GraphFormatError:
            with pytest.raises(GraphFormatError):
                apply_batch(graph, batch)
            return
        got = apply_batch(graph, batch)
        if want is None:
            assert got is None
        else:
            assert got is not None
            _assert_same_csr(got, want)

    def test_chained_rmat_batches_match_reference(self):
        graph = generate_rmat(10, 8 * 2**10, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(4):
            edges = graph.edges()
            picks = rng.choice(len(edges), 24, replace=False)
            batch = UpdateBatch(
                added=tuple(
                    (int(edges[i][0]), int(edges[i][1]), float(w))
                    for i, w in zip(picks[:16], rng.uniform(0.5, 2.5, 16))
                ) + tuple(
                    (int(u), int(v), None)
                    for u, v in rng.integers(0, graph.n_nodes, (8, 2))
                ),
                removed=tuple(tuple(map(int, edges[i])) for i in picks[16:]),
            )
            got = apply_batch(graph, batch)
            _assert_same_csr(got, reference_apply_batch(graph, batch))
            graph = got


class TestIncrementalUpdate:
    def test_reweight_is_exact(self, solver, graph):
        u, v = _spoke_edge(solver, graph)
        new_graph = apply_batch(graph, UpdateBatch(added=((u, v, 4.0),)))
        result = incremental_update(solver.solver_artifacts, new_graph)
        assert result is not None
        assert result.exact
        assert result.n_affected_blocks >= 1
        fresh = BePI(tol=1e-11).preprocess(new_graph)
        served = BePI(tol=1e-11)
        served._graph = new_graph
        served._install_artifacts(result.bundle)
        for seed in (0, 7, 40):
            assert np.allclose(
                served.query(seed), fresh.query(seed), atol=1e-8
            ), f"seed {seed}"

    def test_partition_reused(self, solver, graph):
        u, v = _spoke_edge(solver, graph)
        new_graph = apply_batch(graph, UpdateBatch(added=((u, v, 4.0),)))
        result = incremental_update(solver.solver_artifacts, new_graph)
        old_pre = solver.solver_artifacts.preprocess
        new_pre = result.bundle.preprocess
        assert new_pre.permutation is old_pre.permutation
        assert (new_pre.n1, new_pre.n2, new_pre.n3) == (
            old_pre.n1, old_pre.n2, old_pre.n3,
        )
        # The preconditioner is not reused: it is rebuilt from the new S.
        assert (result.bundle.preconditioner.matrix != new_pre.schur).nnz == 0

    def test_untouched_factors_bit_identical(self, solver, graph):
        """Blocks whose columns did not change keep their inverted factors
        bit for bit (per-block LU is independent)."""
        u, v = _spoke_edge(solver, graph)
        new_graph = apply_batch(graph, UpdateBatch(added=((u, v, 4.0),)))
        result = incremental_update(solver.solver_artifacts, new_graph)
        pre = solver.solver_artifacts.preprocess
        new_factors = result.bundle.preprocess.h11_factors
        import scipy.sparse as sp

        block_sizes = np.asarray(pre.block_sizes)
        starts = np.concatenate([[0], np.cumsum(block_sizes)])
        pos = pre.permutation.positions[u]
        touched = int(np.searchsorted(starts, pos, side="right") - 1)
        for b in range(block_sizes.size):
            if b == touched:
                continue
            sl = slice(starts[b], starts[b + 1])
            old_l = sp.csr_matrix(pre.h11_factors.l_inv)[sl, sl]
            new_l = sp.csr_matrix(new_factors.l_inv)[sl, sl]
            assert (old_l != new_l).nnz == 0

    def test_error_bound_guarantee(self, solver, graph):
        """Random structural updates: the observed L1 error never exceeds
        the tracked bound."""
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, graph.n_nodes, size=(8, 2))
        batch = UpdateBatch(added=tuple((int(a), int(b), None) for a, b in pairs))
        new_graph = apply_batch(graph, batch)
        result = incremental_update(solver.solver_artifacts, new_graph)
        assert result is not None
        fresh = BePI(tol=1e-11).preprocess(new_graph)
        served = BePI(tol=1e-11)
        served._graph = new_graph
        served._install_artifacts(result.bundle)
        for seed in (0, 13, 77):
            observed = np.abs(served.query(seed) - fresh.query(seed)).sum()
            assert observed <= result.error_bound + 1e-7

    def test_threshold_fallback_returns_none(self, solver, graph):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, graph.n_nodes, size=(8, 2))
        batch = UpdateBatch(added=tuple((int(a), int(b), None) for a, b in pairs))
        new_graph = apply_batch(graph, batch)
        unbounded = incremental_update(solver.solver_artifacts, new_graph)
        if unbounded.error_bound == 0.0:
            pytest.skip("random batch happened to be exactly representable")
        below = incremental_update(
            solver.solver_artifacts, new_graph,
            bound_threshold=unbounded.error_bound / 2,
        )
        assert below is None

    def test_successive_updates_compose(self, graph):
        """Two corrections in a row stay within the bound of the second."""
        dyn = DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), error_bound=1.0
        )
        rng = np.random.default_rng(7)
        for _ in range(2):
            pairs = rng.integers(0, graph.n_nodes, size=(3, 2))
            dyn.add_edges([(int(a), int(b)) for a, b in pairs])
            dyn.rebuild()
        fresh = BePI(tol=1e-11).preprocess(dyn._graph)
        observed = np.abs(dyn.query(0) - fresh.query(0)).sum()
        assert observed <= dyn.last_error_bound + 1e-7

    def test_node_count_mismatch_rejected(self, solver):
        with pytest.raises(InvalidParameterError):
            incremental_update(solver.solver_artifacts, Graph.empty(3))

    def test_non_bepi_bundle_rejected(self, solver, graph):
        from dataclasses import replace

        bundle = replace(solver.solver_artifacts, kind="lu")
        with pytest.raises(InvalidParameterError):
            incremental_update(bundle, graph)


class TestBuildUpdatedBundle:
    def test_incremental_mode(self, solver, graph):
        u, v = _spoke_edge(solver, graph)
        new_graph = apply_batch(graph, UpdateBatch(added=((u, v, 4.0),)))
        result = build_updated_bundle(solver.solver_artifacts, new_graph)
        assert result.mode == "incremental"
        assert result.error_bound == 0.0
        assert result.incremental is not None

    def test_force_full(self, solver, graph):
        u, v = _spoke_edge(solver, graph)
        new_graph = apply_batch(graph, UpdateBatch(added=((u, v, 4.0),)))
        result = build_updated_bundle(
            solver.solver_artifacts, new_graph, force_full=True
        )
        assert result.mode == "full"
        assert result.incremental is None
        fresh = BePI(tol=1e-11).preprocess(new_graph)
        served = BePI(tol=1e-11)
        served._graph = new_graph
        served._install_artifacts(result.bundle)
        assert np.allclose(served.query(0), fresh.query(0), atol=1e-9)

    def test_bound_fallback_to_full(self, solver, graph):
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, graph.n_nodes, size=(8, 2))
        batch = UpdateBatch(added=tuple((int(a), int(b), None) for a, b in pairs))
        new_graph = apply_batch(graph, batch)
        unbounded = incremental_update(solver.solver_artifacts, new_graph)
        if unbounded.error_bound == 0.0:
            pytest.skip("random batch happened to be exactly representable")
        result = build_updated_bundle(
            solver.solver_artifacts, new_graph, bound_threshold=0.0
        )
        assert result.mode == "full"
        assert result.error_bound == 0.0


class TestStoreLineage:
    def test_publish_records_lineage(self, graph, tmp_path):
        store = ArtifactStore(tmp_path)
        dyn = DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), artifact_store=store
        )
        assert store.lineage() is None  # initial publish has no parent batch
        u, v = map(int, graph.edges()[0])
        dyn.add_edges([(u, v)], weights=[2.5])
        dyn.rebuild()
        lineage = store.lineage()
        assert lineage["parent"] == "gen-000001"
        assert lineage["mode"] in ("incremental", "full")
        assert lineage["n_updates"] == 1
        assert lineage["error_bound"] == dyn.last_error_bound
        expected = UpdateBatch(added=((u, v, 2.5),)).digest()
        assert lineage["batch_digest"] == expected

    def test_store_roundtrip_serves_corrected_bundle(self, graph, tmp_path):
        store = ArtifactStore(tmp_path)
        dyn = DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), artifact_store=store
        )
        u, v = map(int, graph.edges()[0])
        dyn.add_edges([(u, v)], weights=[2.5])
        dyn.rebuild()
        adopted = DynamicRWR.from_store(store)
        assert adopted.n_rebuilds == 0
        assert np.allclose(adopted.query(0), dyn.query(0), atol=1e-10)

    def test_lineage_unknown_generation(self, graph, tmp_path):
        from repro.exceptions import GraphFormatError

        store = ArtifactStore(tmp_path)
        with pytest.raises(GraphFormatError):
            store.lineage("gen-999999")


class TestReadOnlyAdjacency:
    def test_apply_batch_reads_store_mmap(self, graph, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(BePI(tol=1e-11).preprocess(graph))
        mapped = store.open_current().graph
        adj = mapped.adjacency
        assert not any(a.flags.writeable for a in (adj.data, adj.indices, adj.indptr))
        before = [a.copy() for a in (adj.data, adj.indices, adj.indptr)]
        u, v = map(int, graph.edges()[0])
        batch = UpdateBatch(added=((u, v, 2.5), (1, 200, None)), removed=((u, v),))
        out = apply_batch(mapped, batch)
        _assert_same_csr(out, reference_apply_batch(graph, batch))
        assert mapped.adjacency is adj
        for got, want in zip((adj.data, adj.indices, adj.indptr), before):
            assert not got.flags.writeable
            assert np.array_equal(got, want)

    def test_sync_and_background_publish_same_generation(self, graph, tmp_path):
        u, v = map(int, graph.edges()[0])
        x, y = map(int, graph.edges()[1])
        published = []
        for name, background in (("sync", False), ("background", True)):
            store = ArtifactStore(tmp_path / name)
            DynamicRWR(
                graph, solver_factory=lambda: BePI(tol=1e-11), artifact_store=store
            )
            dyn = DynamicRWR.from_store(store, background=background)
            dyn.add_edges([(u, v)], weights=[3.0])
            dyn.add_edges([(1, 200)])
            dyn.remove_edges([(x, y)])
            dyn.rebuild()
            assert dyn.wait_for_rebuild(timeout=180)
            assert store.current_path().name == "gen-000002"
            published.append((store.open_current(mmap=False).graph, store.lineage()))
        (sync_graph, sync_lineage), (bg_graph, bg_lineage) = published
        _assert_same_csr(sync_graph, bg_graph)
        assert sync_lineage["batch_digest"] == bg_lineage["batch_digest"]
        assert sync_lineage["parent"] == bg_lineage["parent"] == "gen-000001"


class TestBackgroundRebuild:
    def test_background_publish_and_swap(self, graph, tmp_path):
        store = ArtifactStore(tmp_path)
        DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), artifact_store=store
        )
        dyn = DynamicRWR.from_store(store, background=True)
        u, v = map(int, graph.edges()[0])
        dyn.add_edges([(u, v)], weights=[3.0])
        dyn.rebuild()
        assert dyn.rebuild_in_progress
        # Queries keep answering while the child builds.
        dyn.query(0)
        assert dyn.wait_for_rebuild(timeout=180)
        assert not dyn.rebuild_in_progress
        assert dyn.n_background_swaps == 1
        lineage = store.lineage()
        assert lineage["parent"] == "gen-000001"
        fresh = BePI(tol=1e-11).preprocess(dyn._graph)
        observed = np.abs(dyn.query(0) - fresh.query(0)).sum()
        assert observed <= dyn.last_error_bound + 1e-7

    def test_background_noop_skips(self, graph, tmp_path):
        store = ArtifactStore(tmp_path)
        DynamicRWR(
            graph, solver_factory=lambda: BePI(tol=1e-11), artifact_store=store
        )
        dyn = DynamicRWR.from_store(store, background=True)
        u, v = map(int, graph.edges()[0])
        dyn.add_edges([(u, v)])  # exists, unweighted re-insert -> no-op
        dyn.rebuild()
        assert dyn.wait_for_rebuild(timeout=180)
        assert dyn.n_skipped_rebuilds == 1
        assert dyn.n_background_swaps == 0


class TestFreshPreconditioner:
    """Every generation is preconditioned by the SGS factors of its own S."""

    @staticmethod
    def _assert_same_factors(got, want):
        d, lower, upper = got._parts
        assert np.array_equal(d, want._parts[0])
        for a, b in zip((lower, upper), want._parts[1:]):
            assert a.shape == b.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_pool_matches_in_process_after_random_updates(self, graph, tmp_path):
        from repro.linalg.ilu import sgs_factors
        from repro.persistence import load_artifacts
        from repro.serve import WorkerPool

        store = ArtifactStore(tmp_path)
        store.publish(BePI(tol=1e-11).preprocess(graph))
        dyn = DynamicRWR.from_store(store)
        rng = np.random.default_rng(11)
        seeds = [0, 7, 40, 99, 200]
        with WorkerPool(store.root, n_workers=1, timeout=120) as pool:
            for _ in range(3):
                edges = dyn.graph.edges()
                picked = edges[rng.choice(len(edges), size=6, replace=False)]
                reweighted = [tuple(map(int, e)) for e in picked[:4]]
                dyn.add_edges(reweighted, weights=rng.uniform(0.5, 3.0, size=4).tolist())
                dyn.remove_edges([tuple(map(int, e)) for e in picked[4:]])
                new = rng.integers(0, graph.n_nodes, size=(3, 2))
                dyn.add_edges([tuple(map(int, e)) for e in new if e[0] != e[1]])
                dyn.rebuild()
                assert pool.refresh_generation() == store.current_path().name
                assert np.array_equal(dyn.query_many(seeds), pool.query_many(seeds))

                served = load_artifacts(store.current_path())
                own = sgs_factors(served.preprocess.schur)
                self._assert_same_factors(served.preconditioner, own)
                in_process = dyn.solver.solver_artifacts
                self._assert_same_factors(in_process.preconditioner, own)
        assert store.current_path().name == "gen-000004"
