"""Chaos tests: worker crashes, artifact corruption, wedged shutdowns.

Every fault here is a deterministic :class:`repro.faults.FaultPlan`
directive, so the recovery paths (supervisor respawn + re-dispatch, store
quarantine + rollback, terminate → kill escalation) are exercised
reproducibly instead of by random process roulette.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import BePI, telemetry
from repro.faults import (
    ArtifactByteFlip,
    FaultPlan,
    QueueDelay,
    WorkerCrash,
    WorkerHang,
    apply_byte_flips,
)
from repro.persistence import save_artifacts
from repro.serve import WorkerError, WorkerPool
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def served_solver(small_graph):
    return BePI(tol=1e-11, hub_ratio=0.2).preprocess(small_graph)


@pytest.fixture(scope="module")
def artifact_dir(served_solver, tmp_path_factory):
    path = tmp_path_factory.mktemp("recovery-artifacts") / "solver"
    save_artifacts(served_solver, path)
    return path


@pytest.fixture(scope="module")
def scatter_seeds(served_solver):
    return list(range(min(12, served_solver.graph.n_nodes)))


class TestBootSupervision:
    def test_worker_killed_before_ready_fails_the_boot_at_once(
        self, artifact_dir, monkeypatch
    ):
        """The pool watches its workers while they open the bundle: one
        killed before it reports ready fails the boot within a second or
        two, not after the boot timeout, and takes the others down."""
        started = []
        spawn = WorkerPool._spawn_process

        def spawn_then_kill(self, worker_id, task_queue, fault_plan):
            process = spawn(self, worker_id, task_queue, fault_plan)
            started.append(process)
            if worker_id == 1:
                process.kill()
            return process

        monkeypatch.setattr(WorkerPool, "_spawn_process", spawn_then_kill)
        began = time.monotonic()
        with pytest.raises(WorkerError, match="worker 1 died before it was ready"):
            WorkerPool(artifact_dir, n_workers=2, timeout=60)
        assert time.monotonic() - began < 5.0
        assert len(started) == 2
        assert not any(process.is_alive() for process in started)


class TestCrashRecovery:
    def test_sigkill_mid_scatter_returns_bit_identical_scores(
        self, served_solver, artifact_dir, scatter_seeds
    ):
        """A worker killed after computing (before replying) loses its whole
        share of the scatter; the supervisor respawns it and re-dispatches,
        and the caller sees exactly the scores a healthy pool returns."""
        plan = FaultPlan(worker_crashes=(WorkerCrash(worker=0, at_batch=0),))
        with WorkerPool(
            artifact_dir, n_workers=2, fault_plan=plan, respawn_backoff=0.01
        ) as pool:
            scores = pool.scatter(scatter_seeds)
            stats = pool.pool_stats()
        expected = served_solver.query_many(scatter_seeds)
        np.testing.assert_array_equal(scores, expected)
        assert stats["worker_restarts"] == 1
        assert stats["requests_retried"] >= 1
        events = [event["event"] for event in stats["restarts"]]
        assert "died" in events and "respawned" in events

    def test_supervision_counters_exported_to_prometheus(
        self, artifact_dir, scatter_seeds
    ):
        plan = FaultPlan(worker_crashes=(WorkerCrash(worker=1, at_batch=0),))
        with WorkerPool(
            artifact_dir, n_workers=2, fault_plan=plan, respawn_backoff=0.01
        ) as pool:
            pool.scatter(scatter_seeds)
            merged = pool.metrics()
        snapshot = merged.snapshot()["counters"]
        assert snapshot[telemetry.WORKER_RESTARTS]["value"] == 1.0
        assert snapshot[telemetry.REQUEST_RETRIES]["value"] >= 1.0
        text = merged.to_prometheus()
        assert "rwr_serve_worker_restarts" in text
        assert "rwr_serve_request_retries" in text

    def test_healthy_pool_exports_zero_counters(self, artifact_dir):
        with WorkerPool(artifact_dir, n_workers=1) as pool:
            pool.query_many([0])
            snapshot = pool.metrics().snapshot()["counters"]
        assert snapshot[telemetry.WORKER_RESTARTS]["value"] == 0.0
        assert snapshot[telemetry.REQUEST_RETRIES]["value"] == 0.0

    def test_respawn_exhaustion_disables_the_slot(
        self, served_solver, artifact_dir, scatter_seeds
    ):
        """With no respawn budget the dead slot leaves rotation; the other
        worker absorbs its work and later batches route around the hole."""
        plan = FaultPlan(worker_crashes=(WorkerCrash(worker=0, at_batch=0),))
        with WorkerPool(
            artifact_dir, n_workers=2, fault_plan=plan, max_respawns=0
        ) as pool:
            scores = pool.scatter(scatter_seeds)
            again = pool.query_many([scatter_seeds[0]], worker=0)  # rerouted
            stats = pool.pool_stats()
        np.testing.assert_array_equal(
            scores, served_solver.query_many(scatter_seeds)
        )
        np.testing.assert_array_equal(
            again, served_solver.query_many([scatter_seeds[0]])
        )
        assert stats["workers"][0]["disabled"]
        assert stats["worker_restarts"] == 0

    def test_exhausted_retries_raise_worker_error(self, artifact_dir):
        """Both workers crash on their first batch with a one-attempt cap:
        the orphaned requests cannot be retried and the caller is told."""
        plan = FaultPlan(
            worker_crashes=(
                WorkerCrash(worker=0, at_batch=0),
                WorkerCrash(worker=1, at_batch=0),
            )
        )
        with WorkerPool(
            artifact_dir,
            n_workers=2,
            fault_plan=plan,
            max_retries=1,
            respawn_backoff=0.01,
        ) as pool:
            with pytest.raises(WorkerError, match="died"):
                pool.scatter([0, 1, 2, 3])
            # The pool recovers: the respawned workers serve new batches.
            scores = pool.query_many([0])
        assert scores.shape[0] == 1


class TestCorruptionRecovery:
    def test_corrupt_generation_quarantined_and_rolled_back(
        self, served_solver, scatter_seeds, tmp_path
    ):
        """Flip one artifact byte in the newest generation: every worker
        detects the checksum mismatch on open, the store quarantines the
        generation and serves the previous one — bit-identically."""
        store = ArtifactStore(tmp_path / "store")
        first = store.publish(served_solver)
        second = store.publish(served_solver)
        assert store.current_path() == second
        plan = FaultPlan(byte_flips=(ArtifactByteFlip(array="S.data", offset=-1),))
        apply_byte_flips(second, plan)

        with WorkerPool(store.root, n_workers=2) as pool:
            scores = pool.scatter(scatter_seeds)
        np.testing.assert_array_equal(
            scores, served_solver.query_many(scatter_seeds)
        )
        assert store.current_path() == first
        assert second.name not in store.generations()
        quarantined = list((store.root / "quarantine").iterdir())
        assert any(entry.name.startswith(second.name) for entry in quarantined)

    def test_chaos_corruption_plus_crash(
        self, served_solver, scatter_seeds, tmp_path
    ):
        """The acceptance drill: newest generation corrupt AND a worker
        SIGKILL'd mid-scatter.  Scores still match a healthy run, and both
        recovery paths show up in the pool's own accounting."""
        store = ArtifactStore(tmp_path / "store")
        store.publish(served_solver)
        second = store.publish(served_solver)
        apply_byte_flips(
            second,
            FaultPlan(byte_flips=(ArtifactByteFlip(array="S.data", offset=-1),)),
        )
        plan = FaultPlan(worker_crashes=(WorkerCrash(worker=0, at_batch=0),))
        with WorkerPool(
            store.root, n_workers=2, fault_plan=plan, respawn_backoff=0.01
        ) as pool:
            scores = pool.scatter(scatter_seeds)
            stats = pool.pool_stats()
            counters = pool.metrics().snapshot()["counters"]
        np.testing.assert_array_equal(
            scores, served_solver.query_many(scatter_seeds)
        )
        assert stats["worker_restarts"] == 1
        assert counters[telemetry.WORKER_RESTARTS]["value"] == 1.0
        assert counters[telemetry.REQUEST_RETRIES]["value"] >= 1.0


class TestStopEscalation:
    def test_wedged_worker_is_force_killed(self, artifact_dir):
        """A worker that ignores SIGTERM and sleeps through the cooperative
        stop is reaped by the kill escalation instead of leaking."""
        plan = FaultPlan(
            worker_hangs=(WorkerHang(worker=0),),
            queue_delays=(QueueDelay(worker=0, seconds=60.0),),
        )
        pool = WorkerPool(
            artifact_dir, n_workers=1, fault_plan=plan, stop_timeout=0.5
        )
        try:
            pool._submit(0, [0])  # parks the worker in its injected sleep
            time.sleep(0.3)  # let it pick the batch up
            pid = pool._processes[0].pid
            start = time.monotonic()
            force_killed = pool.stop()
            elapsed = time.monotonic() - start
        finally:
            pool.stop()
        assert force_killed == [0]
        assert elapsed < 30.0
        assert pool.pool_stats()["force_killed"] == [0]
        with pytest.raises(OSError):
            os.kill(pid, 0)  # the process must actually be gone

    def test_clean_pool_force_kills_nothing(self, artifact_dir):
        pool = WorkerPool(artifact_dir, n_workers=2)
        pool.query_many([0])
        assert pool.stop() == []
        assert pool.stop() == []  # idempotent


class TestMetricsHygiene:
    def test_orphan_tmp_files_cleaned_on_start(self, artifact_dir, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        orphan = tmp_path / "metrics.json.12345.tmp"
        orphan.write_text("{}")
        with WorkerPool(artifact_dir, n_workers=1, metrics_path=metrics_path) as pool:
            assert not orphan.exists()
            pool.query_many([0])
        assert metrics_path.is_file()
        leftovers = list(tmp_path.glob("metrics.json.*tmp"))
        assert leftovers == []


class TestCLIGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, artifact_dir, tmp_path):
        metrics_path = tmp_path / "serve-metrics.json"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(artifact_dir),
                "--seeds",
                "0,1",
                "--linger",
                "60",
                "--metrics-out",
                str(metrics_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        try:
            lines = []
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                lines.append(line)
                if line.startswith("seed 1:"):
                    break
            assert any(line.startswith("seed 0:") for line in lines), lines
            proc.send_signal(signal.SIGTERM)
            remainder, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        output = "".join(lines) + remainder
        assert proc.returncode == 0, output
        assert "received SIGTERM" in output
        assert "served" in output
        assert metrics_path.is_file()
