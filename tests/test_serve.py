"""Tests for the artifact store and the multi-process serving layer."""

import json

import numpy as np
import pytest

from repro import (
    ArtifactIntegrityError,
    BePI,
    DynamicRWR,
    GraphFormatError,
    InvalidParameterError,
    LUSolver,
    MetricsRegistry,
    telemetry,
)
from repro.persistence import save_artifacts
from repro.serve import WorkerPool, open_query_engine, resolve_artifact_path
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


class TestArtifactStore:
    def test_publish_creates_generation_and_current(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        generation = store.publish(served_solver)
        assert store.generations() == ["gen-000001"]
        assert store.current_path() == generation.resolve()
        assert (generation / "manifest.json").is_file()

    def test_second_publish_swaps_current(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        second = store.publish(served_solver)
        assert store.generations() == ["gen-000001", "gen-000002"]
        assert store.current_path() == second.resolve()

    def test_partial_generation_never_visible(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = store.publish(served_solver)
        # Simulate a crashed publish: a staging directory with arrays but
        # no manifest must be invisible to readers.
        staging = store.generations_dir / ".incoming-dead-gen-000002"
        (staging / "arrays").mkdir(parents=True)
        np.save(staging / "arrays" / "junk.npy", np.arange(3))
        assert store.generations() == ["gen-000001"]
        assert store.current_path() == first.resolve()
        bundle = store.open_current()
        assert bundle.kind == "bepi"

    def test_open_current_before_publish_raises(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.current_path() is None
        with pytest.raises(GraphFormatError):
            store.open_current()

    def test_prune_never_deletes_current(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(3):
            store.publish(served_solver)
        removed = store.prune(keep=1)
        assert removed == ["gen-000001", "gen-000002"]
        assert store.generations() == ["gen-000003"]
        assert store.current_path() is not None

    def test_open_current_scores_match_fresh_solver(
        self, served_solver, small_graph, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        engine = open_query_engine(store.root)
        assert np.array_equal(
            engine.query_many([0, 5]), served_solver.query_many([0, 5])
        )

    def test_open_current_quarantines_corrupt_generation(
        self, served_solver, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        first = store.publish(served_solver)
        second = store.publish(served_solver)
        target = second / "arrays" / "S.data.npy"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        bundle = store.open_current()
        assert bundle.kind == "bepi"
        assert store.current_path() == first
        assert store.generations() == [first.name]
        assert (store.root / "quarantine" / second.name).is_dir()

    def test_open_current_recovers_when_generation_raced_away(
        self, served_solver, tmp_path, monkeypatch
    ):
        """A concurrent worker can quarantine the newest generation between
        this process resolving ``current`` and loading it; the open must
        re-resolve to the survivor instead of surfacing the vanished
        directory as a load error."""
        import repro.store as store_module

        store = ArtifactStore(tmp_path / "store")
        first = store.publish(served_solver)
        second = store.publish(served_solver)
        real_load = store_module.load_artifacts
        raced = []

        def racing_load(directory, **kwargs):
            if not raced and directory.name == second.name:
                raced.append(directory)
                # The "other worker" wins: quarantine + rollback happen
                # after this process resolved ``current`` to gen-000002.
                ArtifactStore(store.root).quarantine(second.name)
            return real_load(directory, **kwargs)

        monkeypatch.setattr(store_module, "load_artifacts", racing_load)
        bundle = store.open_current()
        assert raced, "the simulated race never fired"
        assert bundle.kind == "bepi"
        assert store.current_path() == first
        assert second.name not in store.generations()

    def test_open_current_without_recovery_surfaces_corruption(
        self, served_solver, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        generation = store.publish(served_solver)
        target = generation / "arrays" / "S.data.npy"
        data = bytearray(target.read_bytes())
        data[0] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(ArtifactIntegrityError):
            store.open_current(recover=False)
        # The generation is untouched: operators can inspect it in place.
        assert store.generations() == [generation.name]

    def test_all_generations_corrupt_leaves_store_empty(
        self, served_solver, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):
            generation = store.publish(served_solver)
            target = generation / "arrays" / "S.data.npy"
            data = bytearray(target.read_bytes())
            data[-1] ^= 0xFF
            target.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError, match="no published generation"):
            store.open_current()
        assert store.generations() == []
        assert store.current_path() is None

    def test_publish_after_quarantine_keeps_indices_monotonic(
        self, served_solver, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        second = store.publish(served_solver)
        store.quarantine(second.name)
        third = store.publish(served_solver)
        # gen-000002 sits in quarantine; its index must not be reissued.
        assert third.name == "gen-000003"


class TestGenerationLeases:
    def test_lease_protects_generation_from_prune(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(3):
            store.publish(served_solver)
        with store.acquire_lease("gen-000001"):
            result = store.prune(keep=1)
            assert result == ["gen-000002"]
            assert result.skipped == ["gen-000001"]
            assert "gen-000001" in store.generations()
        # Released: the next prune can take it.
        result = store.prune(keep=1)
        assert result == ["gen-000001"]
        assert result.skipped == []

    def test_lease_defaults_to_current(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        generation = store.publish(served_solver)
        lease = store.acquire_lease()
        assert lease.generation == generation.name
        assert store.leased_generations() == {generation.name}
        lease.release()
        assert store.leased_generations() == set()

    def test_release_is_idempotent(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        lease = store.acquire_lease()
        lease.release()
        lease.release()

    def test_lease_requires_existing_generation(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(GraphFormatError):
            store.acquire_lease()  # nothing published yet
        store.publish(served_solver)
        with pytest.raises(GraphFormatError):
            store.acquire_lease("gen-999999")

    def test_dead_holder_lease_is_garbage_collected(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):
            store.publish(served_solver)
        # Forge a lease held by a pid that cannot exist.
        leases = store.root / "leases"
        leases.mkdir(exist_ok=True)
        stale = leases / "gen-000001.999999999-deadbeef.lease"
        stale.write_text("999999999\n")
        assert store.leased_generations() == set()
        assert not stale.exists()
        result = store.prune(keep=1)
        assert result == ["gen-000001"]

    def test_pool_leases_generation_it_serves(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for _ in range(2):
            store.publish(served_solver)
        with WorkerPool(store.root, n_workers=1) as pool:
            # The pool pins the generation its workers have open.
            assert store.leased_generations() == {"gen-000002"}
            store.publish(served_solver)  # gen-000003 becomes current
            result = store.prune(keep=1)
            # gen-000002 is expired but leased; gen-000001 goes.
            assert result == ["gen-000001"]
            assert result.skipped == ["gen-000002"]
            # The lease follows the hot swap onto the new generation.
            assert pool.refresh_generation() == "gen-000003"
            assert store.leased_generations() == {"gen-000003"}
        assert store.leased_generations() == set()

    def test_refresh_generation_on_bare_directory(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=1) as pool:
            assert pool.refresh_generation() == artifact_dir.name


class TestResolve:
    def test_resolves_artifact_dir(self, artifact_dir):
        assert resolve_artifact_path(artifact_dir) == artifact_dir

    def test_resolves_store_root_through_current(self, served_solver, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        generation = store.publish(served_solver)
        assert resolve_artifact_path(store.root) == generation.resolve()

    def test_garbage_path_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            resolve_artifact_path(tmp_path)

    def test_store_without_generation_rejected(self, tmp_path):
        ArtifactStore(tmp_path / "store")
        with pytest.raises(GraphFormatError):
            resolve_artifact_path(tmp_path / "store")


class TestWorkerPool:
    def test_workers_serve_bit_identical_scores(self, served_solver, artifact_dir):
        """Acceptance: two separate processes over the same mmap'd artifact
        directory return scores bit-identical to a fresh in-process solver."""
        seeds = [0, 5, 11]
        expected = served_solver.query_many(seeds)
        with WorkerPool(artifact_dir, n_workers=2, timeout=120) as pool:
            per_worker = pool.query_many_each(seeds)
            assert len(per_worker) == 2
            for scores in per_worker:
                assert np.array_equal(scores, expected)

            # Scatter answers in seed order, matching per-chunk evaluation.
            scatter_seeds = list(range(8))
            scattered = pool.scatter(scatter_seeds)
            chunks = np.array_split(np.arange(len(scatter_seeds)), pool.n_workers)
            chunked = np.vstack(
                [served_solver.query_many([scatter_seeds[i] for i in chunk])
                 for chunk in chunks if chunk.size]
            )
            assert np.array_equal(scattered, chunked)

            stats = pool.worker_stats()
            assert [s["worker_id"] for s in stats] == [0, 1]
            assert all(s["n_nodes"] == served_solver.graph.n_nodes for s in stats)
            assert all(s["load_seconds"] >= 0 for s in stats)
            rss = pool.rss_bytes()
            assert len(rss) == 2 and all(r > 0 for r in rss)

    def test_worker_error_is_reported(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            from repro.serve import WorkerError

            with pytest.raises(WorkerError, match="out of range"):
                pool.query_many([10**9])
            # The worker survives a failed request.
            assert pool.query_many([0]).shape[0] == 1

    def test_rejects_bad_worker_count(self, artifact_dir):
        with pytest.raises(InvalidParameterError):
            WorkerPool(artifact_dir, n_workers=0)


class TestPoolTelemetry:
    def test_merged_counts_match_single_process_run(self, artifact_dir):
        """Acceptance: pool-merged query/unconverged totals exactly equal a
        single-process run of the same seed batch."""
        seeds = list(range(12))
        single = MetricsRegistry()
        with single.activate():
            open_query_engine(artifact_dir).query_many(seeds)
        with WorkerPool(artifact_dir, n_workers=2, timeout=120) as pool:
            pool.scatter(seeds)
            merged = pool.metrics()

        def totals(registry):
            queries = registry.get(telemetry.QUERIES_TOTAL)
            unconverged = registry.get(telemetry.QUERIES_UNCONVERGED)
            return (
                queries.value if queries else 0.0,
                unconverged.value if unconverged else 0.0,
            )

        assert totals(merged) == totals(single) == (float(len(seeds)), 0.0)
        # The inner GMRES work merges too: one solve per seed either way.
        assert merged.get("gmres.solves").value == single.get("gmres.solves").value
        assert (
            merged.get("gmres.iterations").bucket_counts
            == single.get("gmres.iterations").bucket_counts
        )

    def test_pool_stats_reports_depth_and_throughput(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=2, timeout=120) as pool:
            pool.query_many([0, 1, 2], worker=1)
            stats = pool.pool_stats()
        assert stats["n_workers"] == 2
        assert stats["queries_submitted"] == 3
        assert stats["uptime_seconds"] > 0
        per_worker = {w["worker_id"]: w for w in stats["workers"]}
        assert per_worker[1]["queries_submitted"] == 3
        assert per_worker[1]["queries_per_second"] > 0
        assert per_worker[0]["queries_submitted"] == 0
        # Queue depth is 0 (all work drained) or None where unsupported.
        assert stats["queue_depth"] in (0, None)

    def test_metrics_path_keeps_snapshot_fresh(self, artifact_dir, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        with WorkerPool(
            artifact_dir, n_workers=2, timeout=120, metrics_path=metrics_path
        ) as pool:
            pool.scatter(range(4))
            snapshot = json.loads(metrics_path.read_text())
            assert snapshot["schema"] == telemetry.SNAPSHOT_SCHEMA
            assert snapshot["counters"][telemetry.QUERIES_TOTAL]["value"] == 4
        # stop() flushes a final snapshot; it must still parse and round-trip
        # through the Prometheus exporter.
        final = MetricsRegistry.from_json(metrics_path.read_text())
        assert "repro_rwr_queries_total 4" in final.to_prometheus()

    def test_write_metrics_requires_a_path(self, artifact_dir, tmp_path):
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            with pytest.raises(InvalidParameterError):
                pool.write_metrics()
            target = pool.write_metrics(tmp_path / "snap.json")
            assert json.loads(target.read_text())["schema"] == telemetry.SNAPSHOT_SCHEMA

    def test_worker_serve_spans_recorded(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=1, timeout=120) as pool:
            pool.query_many([0, 1])
            merged = pool.metrics()
        assert merged.get("serve.requests").value == 1.0
        assert merged.get("serve.batch.seconds").count == 1
        assert merged.get("serve.batch.size").count == 1
        assert merged.get("serve.uptime.seconds").value > 0


class TestGenerationSwap:
    """After an ArtifactStore publish, *every* query mode must follow the
    ``current`` pointer — the dense paths used to keep serving the
    generation the workers opened at spawn time while top-k re-opened."""

    @pytest.fixture()
    def swapped_store(self, served_solver, small_graph, tmp_path):
        from repro import generate_rmat

        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        # Same node count, different edges: scores differ measurably.
        replacement = BePI(tol=1e-11, hub_ratio=0.2).preprocess(
            generate_rmat(7, 760, seed=9)
        )
        return store, replacement

    def test_dense_paths_follow_publish(self, swapped_store):
        store, replacement = swapped_store
        seeds = [0, 3, 5]
        with WorkerPool(store.root, n_workers=2, timeout=120) as pool:
            pool.query_many(seeds)  # workers now hold gen-000001
            store.publish(replacement)
            expected = replacement.query_many(seeds)
            assert np.array_equal(pool.query_many(seeds), expected)
            assert all(
                np.array_equal(per_worker, expected)
                for per_worker in pool.query_many_each(seeds)
            )
            # Scatter splits the batch across workers, so compare against
            # the same per-chunk evaluation (batch composition affects
            # bits; see test_workers_serve_bit_identical_scores).
            chunks = np.array_split(np.arange(len(seeds)), pool.n_workers)
            chunked = np.vstack(
                [replacement.query_many([seeds[i] for i in chunk])
                 for chunk in chunks if chunk.size]
            )
            assert np.array_equal(pool.scatter(seeds), chunked)
            assert pool.pool_stats()["generation"].endswith("gen-000002")

    def test_dense_and_topk_agree_after_publish(self, swapped_store):
        """Acceptance: post-publish, dense and top-k answers come from the
        same generation — the top-k pairs are exactly the dense row's
        ranking, not a mix of old and new artifacts."""
        store, replacement = swapped_store
        with WorkerPool(store.root, n_workers=2, timeout=120) as pool:
            pool.query_topk(0, 5, exclude_seed=False)  # warm gen-000001
            store.publish(replacement)
            dense_row = pool.query_many([0])[0]
            result = pool.query_topk(0, 5, exclude_seed=False)
            assert np.array_equal(dense_row, replacement.query_many([0])[0])
            assert np.array_equal(dense_row[result.ids], result.scores)
            # The pre-publish cache entry is unreachable under the new
            # generation key: this answer required a fresh solve.
            assert np.array_equal(
                result.scores, np.sort(dense_row)[::-1][:5]
            )


class TestResidentBundle:
    """Each worker reports how much of the served bundle is resident, next
    to its whole-process RSS."""

    def test_resident_share_is_positive_and_within_the_bundle(
        self, served_solver, tmp_path
    ):
        from repro import artifact_nbytes, generate_rmat

        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        with WorkerPool(store.root, n_workers=1, timeout=120) as pool:
            for seed in range(50):
                pool.query_topk(seed, 16)
            bundle = artifact_nbytes(store.current_path())
            (resident,) = pool.bundle_rss_bytes()
            (rss,) = pool.rss_bytes()
            assert 0 < resident <= bundle
            assert resident < rss
            gauge = pool.metrics().snapshot()["gauges"]["serve.bundle_rss.bytes"]
            assert 0 < gauge["value"] <= bundle

            # After a swap the figure is the new generation's.
            store.publish(BePI(tol=1e-11, hub_ratio=0.2).preprocess(
                generate_rmat(7, 760, seed=9)))
            pool.refresh_generation()
            pool.query_topk(0, 16)
            (resident,) = pool.bundle_rss_bytes()
            assert 0 < resident <= artifact_nbytes(store.current_path())

    def test_two_workers_merged_gauge_stays_within_the_bundle(
        self, served_solver, tmp_path
    ):
        """Both workers map the same pages: the merged gauge is the larger
        worker's figure, not the sum, so it never exceeds the bundle."""
        from repro import artifact_nbytes

        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        with WorkerPool(store.root, n_workers=2, timeout=120) as pool:
            pool.query_many_each(list(range(20)))
            bundle = artifact_nbytes(store.current_path())
            per_worker = pool.bundle_rss_bytes()
            assert sum(per_worker) > bundle  # a sum would overstate it
            gauge = pool.metrics().snapshot()["gauges"]["serve.bundle_rss.bytes"]
            assert 0 < gauge["value"] <= bundle

    def test_mapped_rss_counts_touched_pages_up_to_file_size(self, tmp_path):
        from repro.bench.memory import mapped_rss_bytes

        np.save(tmp_path / "a.npy", np.arange(300_000, dtype=np.float64))
        np.save(tmp_path / "b.npy", np.arange(3, dtype=np.int64))
        assert mapped_rss_bytes(tmp_path) == 0
        a = np.load(tmp_path / "a.npy", mmap_mode="r")
        b = np.load(tmp_path / "b.npy", mmap_mode="r")
        assert mapped_rss_bytes(tmp_path) == 0  # mapped, nothing touched
        float(a[:1000].sum())
        assert 0 < mapped_rss_bytes(tmp_path) < a.nbytes
        float(a.sum() + b.sum())
        total = sum(f.stat().st_size for f in tmp_path.glob("*.npy"))
        assert mapped_rss_bytes(tmp_path) == total
        assert mapped_rss_bytes(tmp_path / "elsewhere") == 0

    def test_no_proc_reads_none(self, tmp_path, monkeypatch):
        from repro.bench import memory

        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/smaps")

        monkeypatch.setattr(memory, "open", no_proc, raising=False)
        assert memory.mapped_rss_bytes(tmp_path) is None


class TestSupervisionRouting:
    def test_pinned_disabled_worker_reroutes_to_least_loaded(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=3, timeout=120) as pool:
            # Take slot 0 out of rotation and make slot 1 look busy: the
            # orphaned pin must land on slot 2, not hot-spot the first
            # healthy slot.
            pool._disabled[0] = True
            with pool._queries_lock:
                pool._worker_queries[1] = 100
            pool.query_many([0], worker=0)
            per_worker = {
                w["worker_id"]: w["queries_submitted"]
                for w in pool.pool_stats()["workers"]
            }
            assert per_worker[0] == 0
            assert per_worker[2] == 1
            merged = pool.metrics()
        assert merged.get(telemetry.WORKER_REROUTES).value == 1

    def test_unpinned_requests_never_count_as_reroutes(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=2, timeout=120) as pool:
            pool.query_many([0])
            pool.query_many([1], worker=1)
            merged = pool.metrics()
        assert merged.get(telemetry.WORKER_REROUTES).value == 0


class TestTopKCacheThreadSafety:
    def test_concurrent_get_put_stats_stay_consistent(self):
        import threading

        from repro.core.topk import TopKResult
        from repro.serve import TopKCache

        cache = TopKCache(max_entries=32)
        value = TopKResult(
            ids=np.array([1, 2], dtype=np.int64),
            scores=np.array([0.5, 0.25]),
        )
        errors = []

        def hammer(worker_id):
            try:
                for i in range(500):
                    key = ("gen", (worker_id * 500 + i) % 64, 2, True)
                    cache.put(key, value)
                    cache.get(key)
                    cache.get(("gen", "missing", worker_id, i))
                    cache.stats()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = cache.stats()
        # Capacity respected and the counters add up: every get was
        # either a hit or a miss, nothing lost to a race.
        assert len(cache) <= 32
        assert stats["hits"] + stats["misses"] == 8 * 500 * 2


class TestDynamicPublishing:
    def test_rebuilds_publish_generations(self, tiny_graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        dyn = DynamicRWR(
            tiny_graph,
            solver_factory=lambda: BePI(hub_ratio=0.3),
            artifact_store=store,
        )
        assert store.generations() == ["gen-000001"]
        assert dyn.n_published == 1

        dyn.add_edges([(6, 0)])
        dyn.rebuild()
        assert store.generations() == ["gen-000001", "gen-000002"]
        assert store.current_path().name == "gen-000002"

        # A rebuild that cancels to a no-op must not publish.
        dyn.add_edges([(6, 0)])  # already present
        dyn.rebuild()
        assert dyn.n_skipped_rebuilds == 1
        assert store.generations() == ["gen-000001", "gen-000002"]

    def test_published_generation_reflects_update(self, tiny_graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        dyn = DynamicRWR(
            tiny_graph,
            solver_factory=lambda: BePI(hub_ratio=0.3, tol=1e-11),
            artifact_store=store,
        )
        dyn.add_edges([(7, 0)])  # the deadend gains an outgoing edge
        dyn.rebuild()
        engine = open_query_engine(store.root)
        assert np.array_equal(engine.query_many([0])[0], dyn.query(0))

    def test_non_bepi_factory_rejected(self, tiny_graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(InvalidParameterError):
            DynamicRWR(tiny_graph, solver_factory=LUSolver, artifact_store=store)
