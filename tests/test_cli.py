"""Tests for the command-line interface."""

import pytest

from repro import generate_rmat, save_edge_list
from repro.cli import main
from repro.persistence import load_solver


@pytest.fixture()
def graph_file(tmp_path):
    graph = generate_rmat(7, 700, seed=9)
    path = tmp_path / "graph.tsv"
    save_edge_list(graph, path)
    return str(path)


class TestStats:
    def test_prints_counts(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "deadends" in out


class TestPreprocessAndQuery:
    """``repro build`` preprocesses once; ``repro query`` serves from it."""

    def test_roundtrip(self, graph_file, tmp_path, capsys):
        solver_path = str(tmp_path / "artifacts")
        assert main(["build", graph_file, "-o", solver_path]) == 0
        out = capsys.readouterr().out
        assert "preprocessed" in out

        assert main(["query", solver_path, "--seed", "0", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 nodes" in out
        assert out.count(". node") == 3

    def test_query_direct_from_edge_list(self, graph_file, capsys):
        assert main(["query", graph_file, "--seed", "1", "--top", "5",
                     "--method", "power"]) == 0
        out = capsys.readouterr().out
        assert "top 5 nodes" in out

    def test_query_matches_between_paths(self, graph_file, tmp_path, capsys):
        solver_path = str(tmp_path / "artifacts")
        main(["build", graph_file, "-o", solver_path])
        capsys.readouterr()
        main(["query", graph_file, "--seed", "2"])
        direct = capsys.readouterr().out.splitlines()[-10:]
        main(["query", solver_path, "--seed", "2"])
        loaded = capsys.readouterr().out.splitlines()[-10:]
        assert direct == loaded

    def test_query_opens_store_root(self, graph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["build", graph_file, "-o", store, "--store"]) == 0
        capsys.readouterr()
        main(["query", graph_file, "--seed", "1"])
        direct = capsys.readouterr().out.splitlines()[-10:]
        assert main(["query", store, "--seed", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[-10:] == direct

    def test_preprocess_rejects_non_bepi(self, graph_file, tmp_path, capsys):
        code = main(["build", graph_file, "-o", str(tmp_path / "x"),
                     "--method", "power"])
        assert code == 2

    def test_hub_ratio_option(self, graph_file, tmp_path, capsys):
        solver_path = str(tmp_path / "artifacts")
        assert main(["build", graph_file, "-o", solver_path,
                     "--hub-ratio", "0.3"]) == 0
        assert load_solver(solver_path).stats["hub_ratio"] == 0.3


class TestCompare:
    def test_runs_selected_methods(self, graph_file, capsys):
        assert main(["compare", graph_file, "--methods", "bepi,power",
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "Bepi" in out or "bepi" in out.lower()
        assert "Power" in out


class TestDatasets:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "slashdot_sim" in out
        assert "Friendster" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDatasetExport:
    def test_export_writes_edge_lists(self, tmp_path, capsys):
        # Export only happens after the listing; use the small registry as-is.
        assert main(["datasets", "--export", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "exported physicians_sim" in out
        exported = list((tmp_path / "out").glob("*.tsv"))
        assert len(exported) == 13

    def test_query_with_approximate_method(self, graph_file, capsys):
        assert main(["query", graph_file, "--seed", "0", "--top", "3",
                     "--method", "montecarlo"]) == 0
        assert "top 3 nodes" in capsys.readouterr().out


class TestMetrics:
    def test_query_metrics_out_then_render(self, graph_file, tmp_path, capsys):
        import json

        from repro.telemetry import SNAPSHOT_SCHEMA

        snapshot_path = str(tmp_path / "metrics.json")
        assert main(["query", graph_file, "--seed", "0",
                     "--metrics-out", snapshot_path]) == 0
        capsys.readouterr()
        with open(snapshot_path) as handle:
            snapshot = json.load(handle)
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["counters"]["rwr.queries"]["value"] >= 1

        assert main(["metrics", snapshot_path]) == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "rwr.queries" in out
        assert "histograms" in out

    def test_metrics_prometheus_format(self, graph_file, tmp_path, capsys):
        snapshot_path = str(tmp_path / "metrics.json")
        main(["query", graph_file, "--seed", "0", "--metrics-out", snapshot_path])
        capsys.readouterr()
        assert main(["metrics", snapshot_path, "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rwr_queries_total counter" in out

    def test_metrics_accepts_directory_with_default_name(
        self, graph_file, tmp_path, capsys
    ):
        main(["query", graph_file, "--seed", "0",
              "--metrics-out", str(tmp_path / "metrics.json")])
        capsys.readouterr()
        assert main(["metrics", str(tmp_path)]) == 0

    def test_metrics_missing_snapshot_errors(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 2

    def test_failed_refresh_leaves_previous_snapshot_whole(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        """Every ``--metrics-out`` write (the gateway rewrites its snapshot
        every 2 s) replaces the target atomically: a write that fails part
        way leaves the previous snapshot whole, never a truncated file."""
        import json

        from repro.telemetry import MetricsRegistry

        snapshot_path = tmp_path / "snapshots" / "metrics.json"
        argv = ["query", graph_file, "--seed", "0", "--metrics-out", str(snapshot_path)]
        assert main(argv) == 0
        before = snapshot_path.read_text()
        # A lone surrogate cannot be encoded, so the write fails once begun.
        monkeypatch.setattr(
            MetricsRegistry, "to_json", lambda self, indent=2: '{"x": "\ud800"}'
        )
        with pytest.raises(UnicodeEncodeError):
            main(argv)
        assert snapshot_path.read_text() == before
        assert json.loads(before)["counters"]["rwr.queries"]["value"] >= 1
        assert [p.name for p in snapshot_path.parent.iterdir()] == ["metrics.json"]

    def test_build_metrics_out(self, graph_file, tmp_path, capsys):
        import json

        out_dir = str(tmp_path / "artifacts")
        snapshot_path = str(tmp_path / "build-metrics.json")
        assert main(["build", graph_file, "-o", out_dir,
                     "--metrics-out", snapshot_path]) == 0
        with open(snapshot_path) as fh:
            snapshot = json.load(fh)
        assert "preprocess.seconds" in snapshot["gauges"]
        assert "memory.bytes" in snapshot["gauges"]

    def test_serve_metrics_out(self, graph_file, tmp_path, capsys):
        import json

        out_dir = str(tmp_path / "artifacts")
        main(["build", graph_file, "-o", out_dir])
        capsys.readouterr()
        snapshot_path = str(tmp_path / "serve-metrics.json")
        assert main(["serve", out_dir, "--workers", "2", "--seeds", "0,1,2",
                     "--metrics-out", snapshot_path]) == 0
        out = capsys.readouterr().out
        assert "served 3 queries across 2 workers" in out
        assert out.count("of which the bundle's mapped arrays") == 2
        with open(snapshot_path) as fh:
            snapshot = json.load(fh)
        assert snapshot["counters"]["rwr.queries"]["value"] == 3

    def test_serve_fault_plan_worker_crash_is_recovered(
        self, graph_file, tmp_path, capsys
    ):
        """A fault plan that kills worker 0 at its first batch: the pool
        respawns it, re-dispatches the lost request and still answers."""
        import json

        out_dir = str(tmp_path / "artifacts")
        main(["build", graph_file, "-o", out_dir])
        capsys.readouterr()
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"worker_crashes": [{"worker": 0, "at_batch": 0, "exitcode": 137}]}
        ))
        snapshot_path = str(tmp_path / "chaos-metrics.json")
        assert main(["serve", out_dir, "--workers", "2", "--random", "8",
                     "--fault-plan", str(plan_path),
                     "--metrics-out", snapshot_path]) == 0
        assert "1 worker restarts" in capsys.readouterr().out
        with open(snapshot_path) as fh:
            counters = json.load(fh)["counters"]
        assert counters["rwr.serve.worker_restarts"]["value"] == 1
        assert counters["rwr.serve.request_retries"]["value"] >= 1


class TestTopReconnect:
    """``repro top`` must survive an unreachable gateway (satellite: no
    raw tracebacks, a reconnecting banner plus bounded backoff)."""

    def test_once_fails_fast_on_unreachable_target(self, capsys):
        # Port 1 refuses connections; --once keeps the scripting contract.
        assert main(["top", "127.0.0.1:1", "--once"]) == 2
        err = capsys.readouterr().err
        assert "cannot fetch fleet snapshot" in err

    def test_bad_endpoint_is_a_usage_error_not_a_retry(self, capsys):
        assert main(["top", "not-an-endpoint"]) == 2
        err = capsys.readouterr().err
        assert "HOST:PORT" in err
        assert "reconnecting" not in err

    def test_reconnect_banner_then_recovery(self, tmp_path, capsys,
                                            monkeypatch):
        """First fetch fails, second succeeds: one banner, then a page."""
        import repro.cli as cli_mod

        calls = {"n": 0}
        real_fetch = cli_mod._fetch_fleet

        def flaky_fetch(target):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConnectionRefusedError("injected outage")
            return {"counters": {}, "gauges": {}, "histograms": {}}

        monkeypatch.setattr(cli_mod, "_fetch_fleet", flaky_fetch)
        monkeypatch.setattr("time.sleep", lambda s: None)
        code = main(["top", "127.0.0.1:59999", "--frames", "1",
                     "--interval", "0.01", "--no-clear"])
        assert code == 0
        captured = capsys.readouterr()
        assert "reconnecting to 127.0.0.1:59999" in captured.err
        assert "attempt 1" in captured.err
        assert calls["n"] == 2


def _wait_for(log_path, prefix, timeout=30.0):
    """The first log line starting with ``prefix``, or ``None`` if none
    arrives in time."""
    import time

    deadline = time.monotonic() + timeout
    while True:
        lines = log_path.read_text().splitlines()
        found = next((line for line in lines if line.startswith(prefix)), None)
        if found is not None or time.monotonic() >= deadline:
            return found
        time.sleep(0.2)


def _start(args, log_path, env):
    """Start ``python -m repro ARGS`` in its own process group, output to
    ``log_path``."""
    import subprocess
    import sys

    with open(log_path, "w") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )


def _repro_env():
    import os
    from pathlib import Path

    return {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}


class TestZeroDowntimeUpdateDrill:
    """``repro update`` publishes generations into a store while a
    ``repro serve --follow-store`` process keeps answering and swaps onto
    each one."""

    def test_updates_publish_while_serving_follows(self, tmp_path, capsys):
        import json
        import os
        import signal

        main(["datasets", "--export", str(tmp_path / "datasets")])
        store = str(tmp_path / "dyn-store")
        main(["build", str(tmp_path / "datasets" / "physicians_sim.tsv"),
              "-o", store, "--store"])
        capsys.readouterr()
        log_path = tmp_path / "dyn-serve.log"
        proc = _start(
            ["serve", store, "--workers", "2", "--random", "4",
             "--linger", "120", "--follow-store", "0.2"],
            log_path, _repro_env(),
        )
        try:
            assert _wait_for(log_path, "seed "), log_path.read_text()
            update_metrics = tmp_path / "update-metrics.json"
            assert main(["update", store, "--random-batch", "4", "--batches", "3",
                         "--error-bound", "0.05",
                         "--metrics-out", str(update_metrics)]) == 0
            assert capsys.readouterr().out.count("rebuild -> gen-") >= 3
            assert main(["update", store, "--add", "1:2", "--add", "2:1"]) == 0
            skip_metrics = tmp_path / "skip-metrics.json"
            assert main(["update", store, "--add", "1:2", "--add", "2:1",
                         "--metrics-out", str(skip_metrics)]) == 0
            assert "no-op" in capsys.readouterr().out
            assert _wait_for(log_path, "now serving gen-000005"), (
                log_path.read_text()
            )
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the server and its workers
                proc.wait()

        with open(update_metrics) as fh:
            update = json.load(fh)
        counters, gauges = update["counters"], update["gauges"]
        rebuilds = counters["rwr.dynamic.rebuilds"]["value"]
        corrections = counters["rwr.dynamic.corrections"]["value"]
        full = counters["rwr.dynamic.full_rebuilds"]["value"]
        assert rebuilds >= 3, counters
        assert corrections + full == rebuilds, counters
        assert counters["rwr.dynamic.publishes"]["value"] == rebuilds, counters
        bound = gauges["rwr.dynamic.error_bound"]["value"]
        assert 0.0 <= bound <= 0.05, gauges
        with open(skip_metrics) as fh:
            skip = json.load(fh)
        skipped = skip["counters"]["rwr.dynamic.rebuilds.skipped"]["value"]
        ratio = skip["gauges"]["rwr.dynamic.skipped_rebuild_ratio"]["value"]
        assert skipped >= 1, skip["counters"]
        assert ratio == 1.0, skip["gauges"]


class TestNetworkChaosDrill:
    """Two ``repro serve --listen`` backends behind ``repro gateway
    --degrade``: a fault plan drops and slows one of them mid-load."""

    def test_breaker_failover_and_degraded_bounds_over_the_wire(
        self, tmp_path, capsys
    ):
        import asyncio
        import json
        import os
        import signal
        import time

        import numpy as np

        from repro import wire
        from repro.gateway import HashRing

        main(["datasets", "--export", str(tmp_path / "datasets")])
        artifacts = str(tmp_path / "net-artifacts")
        main(["build", str(tmp_path / "datasets" / "physicians_sim.tsv"),
              "-o", artifacts])
        capsys.readouterr()
        env = _repro_env()
        procs = []
        try:
            logs = [tmp_path / "nb1.log", tmp_path / "nb2.log"]
            for log_path in logs:
                procs.append(_start(
                    ["serve", artifacts, "--workers", "1",
                     "--listen", "127.0.0.1:0"], log_path, env,
                ))
            b1, b2 = (_wait_for(log_path, "pool listening on ") for log_path in logs)
            assert b1 and b2, [log_path.read_text() for log_path in logs]
            b1, b2 = (line.split()[3] for line in (b1, b2))
            plan = tmp_path / "net-plan.json"
            plan.write_text(json.dumps({
                "connection_drops": [{"endpoint": b2, "count": 4}],
                "slow_links": [{"endpoint": b2, "seconds": 0.05}],
            }))
            metrics = tmp_path / "net-metrics.json"
            gw_log = tmp_path / "ngw.log"
            gw = _start(
                ["gateway", "--listen", "127.0.0.1:0",
                 "--backend", b1, "--backend", b2,
                 "--fault-plan", str(plan),
                 "--breaker-threshold", "2", "--breaker-reset", "0.4",
                 "--health-interval", "0", "--degrade", artifacts,
                 "--metrics-out", str(metrics)], gw_log, env,
            )
            procs.append(gw)
            listening = _wait_for(gw_log, "gateway listening on ")
            assert listening, gw_log.read_text()
            gw_host, gw_port = listening.split()[3].rsplit(":", 1)

            DEADLINE_MS = 2000.0
            WINDOW = 0.01
            ring = HashRing([b1, b2])
            chaotic = [s for s in range(200) if ring.route(s) == b2]
            loop = asyncio.new_event_loop()
            reader, writer = loop.run_until_complete(
                asyncio.open_connection(gw_host, int(gw_port)))

            async def round_trip(request):
                await wire.write_message(writer, request)
                return await wire.read_message(reader, timeout=30)

            def query(seed, deadline_ms=DEADLINE_MS):
                started = time.monotonic()
                reply = loop.run_until_complete(round_trip(wire.QueryRequest(
                    seeds=np.array([seed], dtype=np.int64),
                    deadline_ms=deadline_ms)))
                elapsed = time.monotonic() - started
                assert isinstance(reply, wire.DenseReply), reply
                # Acceptance: never more than ~one coalesce window past the
                # budget (generous scheduler slack for a loaded CI box).
                assert elapsed <= deadline_ms / 1000.0 + WINDOW + 0.5, (
                    f"seed {seed} took {elapsed:.3f}s against "
                    f"{deadline_ms}ms + one window")
                return reply, elapsed

            try:
                # Outage phase: chaotic-routed seeds fail over while the drop
                # budget lasts; the breaker opens after 2 failures.  (Hedging
                # would mask the drops before they record a failure, so the
                # drill leaves it off; test_chaos.py covers hedge wins.)
                for seed in chaotic[:8]:
                    reply, _ = query(seed)
                    assert not reply.degraded  # the survivor serves exactly
                # Tight budgets under a slowed fleet: the watchdog answers
                # degraded inside the budget, with a stated bound.
                degraded = {}
                for seed in chaotic[8:11]:
                    reply, _ = query(seed, deadline_ms=1.0)
                    assert reply.degraded, f"seed {seed} should have degraded"
                    assert reply.error_bound > 0
                    degraded[seed] = (reply.scores[0].copy(), reply.error_bound)
                # Recovery phase: half-open probes spend the remaining drop
                # budget, then one succeeds and closes the breaker.
                for _ in range(8):
                    time.sleep(0.45)  # > --breaker-reset
                    query(chaotic[0])
                # Post-recovery exact answers must satisfy every degraded
                # reply's stated bound.
                for seed, (approx, bound) in degraded.items():
                    reply, _ = query(seed)
                    assert not reply.degraded
                    gap = float(np.max(np.abs(approx - reply.scores[0])))
                    assert gap <= bound, (
                        f"seed {seed}: degraded reply missed its bound "
                        f"({gap:.5f} > {bound:.5f})")
            finally:
                writer.close()
                loop.run_until_complete(writer.wait_closed())
                loop.close()

            gw.send_signal(signal.SIGTERM)
            gw.wait(timeout=60)
            assert "draining and shutting down" in gw_log.read_text()
            for proc in procs[:2]:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=60)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)  # the server and its workers
                    proc.wait()

        with open(metrics) as fh:
            snapshot = json.load(fh)
        counters = snapshot["counters"]

        def count(name):
            return counters.get(name, {}).get("value", 0.0)

        assert count("rwr.gateway.breaker.opened") >= 1, counters
        assert count("rwr.gateway.breaker.closed") >= 1, counters
        assert count("rwr.gateway.backend.errors") >= 1, counters
        assert count("rwr.gateway.failovers") >= 1, counters
        assert count("rwr.gateway.degraded") >= 3, counters
        assert count("rwr.gateway.deadline.exceeded") >= 3, counters
        state = snapshot["gauges"][
            f"rwr.gateway.backend.{b2}.breaker_state"]["value"]
        assert state == 0.0, f"breaker must end closed, got {state}"


class TestObservabilityDrill:
    """Two traced ``repro serve --listen`` backends behind a traced ``repro
    gateway``: one request's spans join up across processes, and the
    fleet snapshot's exemplars point at logged traces."""

    def test_traced_multi_host_drill(self, tmp_path, capsys):
        import asyncio
        import json
        import os
        import signal

        import numpy as np

        from repro import wire

        main(["datasets", "--export", str(tmp_path / "datasets")])
        artifacts = str(tmp_path / "obs-artifacts")
        main(["build", str(tmp_path / "datasets" / "physicians_sim.tsv"),
              "-o", artifacts])
        capsys.readouterr()
        env = _repro_env()
        logs = [tmp_path / "b1.log", tmp_path / "b2.log"]
        gw_log = tmp_path / "gw.log"
        gw_trace = tmp_path / "gw-trace.jsonl"
        fleet_path = tmp_path / "gateway-fleet.json"
        procs = []
        try:
            for index, log_path in enumerate(logs, start=1):
                procs.append(_start(
                    ["serve", artifacts, "--workers", "1",
                     "--listen", "127.0.0.1:0", "--trace-sample", "1.0",
                     "--trace-log", str(tmp_path / f"b{index}-trace.jsonl")],
                    log_path, env,
                ))
            b1, b2 = (_wait_for(log_path, "pool listening on ") for log_path in logs)
            assert b1 and b2, [log_path.read_text() for log_path in logs]
            b1, b2 = (line.split()[3] for line in (b1, b2))
            gw = _start(
                ["gateway", "--listen", "127.0.0.1:0",
                 "--backend", b1, "--backend", b2,
                 "--trace-sample", "1.0", "--trace-log", str(gw_trace),
                 "--slow-query", "0.0001",
                 "--metrics-out", str(fleet_path)], gw_log, env,
            )
            procs.append(gw)
            listening = _wait_for(gw_log, "gateway listening on ")
            assert listening, gw_log.read_text()
            address = listening.split()[3]
            gw_host, gw_port = address.rsplit(":", 1)

            async def client():
                reader, writer = await asyncio.open_connection(gw_host, int(gw_port))
                try:
                    for seed in range(6):
                        await wire.write_message(
                            writer, wire.QueryRequest(seeds=np.array([seed])))
                        reply = await wire.read_message(reader, timeout=30)
                        assert isinstance(reply, wire.DenseReply), reply
                    for seed in range(4):
                        await wire.write_message(
                            writer, wire.TopKRequest(seeds=np.array([seed]), k=5))
                        reply = await wire.read_message(reader, timeout=30)
                        assert isinstance(reply, wire.TopKReply), reply
                finally:
                    writer.close()
                    await writer.wait_closed()

            asyncio.run(client())
            assert main(["top", address, "--once", "--no-clear"]) == 0
            assert "repro fleet — 2 backend(s)" in capsys.readouterr().out

            gw.send_signal(signal.SIGTERM)
            gw.wait(timeout=60)
            assert "draining and shutting down" in gw_log.read_text()
            for proc, log_path in zip(procs[:2], logs):
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=60)
                assert "draining and shutting down" in log_path.read_text()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)  # the server and its workers
                    proc.wait()

        lines = [json.loads(line) for line in gw_trace.read_text().splitlines()]
        records = [r for r in lines if "trace_id" in r]
        slow = [r for r in lines if "slow_query" in r]
        assert records, "gateway trace log has no span records"
        assert slow, "no slow-query entries despite --slow-query 0.0001"
        by_trace = {}
        for record in records:
            by_trace.setdefault(record["trace_id"], []).append(record)
        complete = None
        for spans in by_trace.values():
            names = {s["name"] for s in spans}
            pids = {s["pid"] for s in spans}
            if ("gateway.request" in names and "serve.queue_wait" in names
                    and any(n.startswith("query.") for n in names)
                    and len(spans) >= 5 and len(pids) >= 2):
                complete = spans
                break
        assert complete, {t: sorted({s["name"] for s in v}) for t, v in by_trace.items()}
        roots = [s for s in complete if s["parent_id"] is None]
        assert len(roots) == 1, roots

        fleet = json.loads(fleet_path.read_text())
        exemplars = {
            name: hist["exemplars"]
            for name, hist in fleet["histograms"].items()
            if hist.get("exemplars")
        }
        assert exemplars, sorted(fleet["histograms"])
        linked = {
            trace for mapping in exemplars.values() for trace in mapping.values()
        } & set(by_trace)
        assert linked, (sorted(exemplars), sorted(by_trace)[:5])
