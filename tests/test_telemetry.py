"""Tests for the unified telemetry layer (:mod:`repro.telemetry`)."""

import json
import math
import re

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import ConvergenceWarning, InvalidParameterError
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    RegistryStats,
    current_span,
    merge_snapshots,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = MetricsRegistry().counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(InvalidParameterError):
            counter.inc(-1)

    def test_reset_sets_outright(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(7)
        counter.reset(2)
        assert counter.value == 2.0
        with pytest.raises(InvalidParameterError):
            counter.reset(-1)


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(3.5)
        gauge.inc(-1.5)
        assert gauge.value == 2.0


class TestHistogramBuckets:
    def test_observations_land_in_inclusive_upper_bounds(self):
        h = Histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.0, 1.5, 3.0, 10.0):
            h.observe(value)
        # le=1 gets {0.5, 1.0}; le=2 gets {1.5}; le=3 gets {3.0}; +Inf {10}.
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(16.0)

    def test_rejects_empty_or_unsorted_buckets(self):
        with pytest.raises(InvalidParameterError):
            Histogram("h", buckets=())
        with pytest.raises(InvalidParameterError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_percentile_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 3.0))
        h.observe_many([0.5, 1.5, 2.5, 10.0])
        # rank(50) = 2 -> cumulative hits 2 inside bucket (1, 2]: fraction 1.
        assert h.percentile(50) == pytest.approx(2.0)
        # rank(25) = 1 -> first bucket, interpolated from 0.
        assert h.percentile(25) == pytest.approx(1.0)

    def test_percentile_overflow_clamps_to_last_finite_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.percentile(50) == pytest.approx(2.0)
        assert h.percentile(99) == pytest.approx(2.0)

    def test_percentile_empty_is_nan_and_range_checked(self):
        h = Histogram("h", buckets=(1.0,))
        assert math.isnan(h.percentile(50))
        with pytest.raises(InvalidParameterError):
            h.percentile(101)

    def test_summary_keys(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe_many([0.5, 1.5])
        summary = h.summary()
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(1.0)


class TestHistogramMerge:
    def test_merge_sums_bucket_wise(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe_many([0.5, 1.5])
        b.observe_many([1.5, 5.0])
        a.merge(b)
        assert a.bucket_counts == [1, 2, 1]
        assert a.count == 4
        assert a.sum == pytest.approx(8.5)

    def test_merge_rejects_mismatched_buckets(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    def test_gauges_merge_by_max_not_sum(self):
        """A gauge is one process's level: merged, it keeps the largest, so
        a page every worker shares is not counted once per worker."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("serve.rss.bytes").set(300.0)
        b.gauge("serve.rss.bytes").set(500.0)
        a.gauge("level").set(-2.0)
        b.gauge("level").set(-5.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.get("serve.rss.bytes").value == 500.0
        assert merged.get("level").value == -2.0
        assert MetricsRegistry.from_snapshot(b.snapshot()).get("level").value == -5.0

    def test_merge_is_associative_across_simulated_workers(self):
        rng = np.random.default_rng(11)
        worker_values = [rng.exponential(0.01, size=40) for _ in range(3)]

        def snapshot_for(values):
            registry = MetricsRegistry()
            registry.counter(telemetry.QUERIES_TOTAL).inc(len(values))
            registry.histogram(telemetry.QUERY_SECONDS).observe_many(values)
            return registry.snapshot()

        snaps = [snapshot_for(v) for v in worker_values]
        left = merge_snapshots([snaps[0], snaps[1]])
        left.merge_snapshot(snaps[2])
        right_tail = merge_snapshots([snaps[1], snaps[2]])
        right = merge_snapshots([snaps[0], right_tail.snapshot()])

        h_left = left.get(telemetry.QUERY_SECONDS)
        h_right = right.get(telemetry.QUERY_SECONDS)
        assert h_left.bucket_counts == h_right.bucket_counts
        assert h_left.count == h_right.count == 120
        assert h_left.sum == pytest.approx(h_right.sum)
        for q in (50, 95, 99):
            assert h_left.percentile(q) == pytest.approx(h_right.percentile(q))
        assert (
            left.get(telemetry.QUERIES_TOTAL).value
            == right.get(telemetry.QUERIES_TOTAL).value
            == 120
        )


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(InvalidParameterError):
            registry.gauge("x")
        with pytest.raises(InvalidParameterError):
            registry.histogram("x")

    def test_reset_drops_metrics(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.names() == []

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc(3)
        registry.gauge("g").set(1.25)
        registry.histogram("h", buckets=(1.0, 2.0)).observe_many([0.5, 5.0])
        restored = MetricsRegistry.from_json(registry.to_json())
        assert restored.get("c").value == 3.0
        assert restored.get("c").help == "a counter"
        assert restored.get("g").value == 1.25
        assert restored.get("h").bucket_counts == [1, 0, 1]
        assert restored.get("h").sum == pytest.approx(5.5)

    def test_from_json_rejects_unknown_schema(self):
        bad = json.dumps({"schema": "other/v9", "counters": {}})
        with pytest.raises(InvalidParameterError):
            MetricsRegistry.from_json(bad)


class TestSpans:
    def test_span_records_seconds_histogram(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        h = registry.get("work.seconds")
        assert h is not None and h.count == 1
        assert h.sum >= 0.0

    def test_spans_nest_and_expose_paths(self):
        registry = MetricsRegistry()
        with registry.span("outer") as outer:
            assert current_span() is outer
            with registry.span("inner") as inner:
                assert inner.parent is outer
                assert inner.path == "outer/inner"
            assert current_span() is outer
        assert current_span() is None
        assert outer.seconds is not None and inner.seconds is not None
        assert outer.seconds >= inner.seconds

    def test_span_is_exception_safe(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.span("boom"):
                raise ValueError("nope")
        assert current_span() is None
        assert registry.get("boom.seconds").count == 1
        assert registry.get("boom.errors").value == 1.0

    def test_module_level_span_uses_ambient_registry(self):
        registry = MetricsRegistry()
        with registry.activate():
            with telemetry.span("ambient"):
                pass
        assert registry.get("ambient.seconds").count == 1
        assert telemetry.global_registry().get("ambient.seconds") is None

    def test_activate_nests_and_restores(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        with a.activate():
            with b.activate():
                assert telemetry.get_registry() is b
            assert telemetry.get_registry() is a
        assert telemetry.get_registry() is telemetry.global_registry()


# One metric line: name, optional {labels}, then a number (Prometheus text
# exposition 0.0.4).  Label values may contain escaped quotes, escaped
# backslashes and \n sequences — but never raw ones.
_PROM_LABEL = r"[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\[\"\\n])*\""
_PROM_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{" + _PROM_LABEL + r"(," + _PROM_LABEL + r")*\})?"
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$"
)
_PROM_COMMENT_LINE = re.compile(
    r"^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$"
)


def _assert_valid_prometheus(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        assert _PROM_METRIC_LINE.match(line) or _PROM_COMMENT_LINE.match(line), (
            f"invalid exposition line: {line!r}"
        )


class TestPrometheusExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("rwr.queries", help="queries answered").inc(12)
        registry.gauge("memory.bytes").set(4096)
        registry.histogram("rwr.query.seconds", buckets=(0.001, 0.01)).observe_many(
            [0.0005, 0.005, 0.5]
        )
        return registry

    def test_every_line_matches_the_format(self):
        _assert_valid_prometheus(self._populated().to_prometheus())

    def test_counter_total_suffix_and_prefix(self):
        text = self._populated().to_prometheus()
        assert "repro_rwr_queries_total 12" in text
        assert "# TYPE repro_rwr_queries_total counter" in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = self._populated().to_prometheus()
        buckets = [
            line for line in text.splitlines()
            if line.startswith("repro_rwr_query_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative => non-decreasing
        assert buckets[-1].startswith('repro_rwr_query_seconds_bucket{le="+Inf"}')
        assert counts[-1] == 3
        assert "repro_rwr_query_seconds_count 3" in text

    def test_round_trips_through_validity_check_after_merge(self):
        merged = merge_snapshots(
            [self._populated().snapshot(), self._populated().snapshot()]
        )
        text = merged.to_prometheus()
        _assert_valid_prometheus(text)
        assert "repro_rwr_queries_total 24" in text


class TestRegistryStatsView:
    def _view(self):
        registry = MetricsRegistry()
        return registry, RegistryStats(
            registry,
            {"queries": telemetry.QUERIES_TOTAL,
             "unconverged_queries": telemetry.QUERIES_UNCONVERGED},
        )

    def test_counter_keys_read_through_as_ints(self):
        registry, stats = self._view()
        stats["queries"] = 0
        registry.counter(telemetry.QUERIES_TOTAL).inc(5)
        assert stats["queries"] == 5
        assert isinstance(stats["queries"], int)

    def test_setting_counter_key_resets_the_counter(self):
        registry, stats = self._view()
        registry.counter(telemetry.QUERIES_TOTAL).inc(5)
        stats["queries"] = 0
        assert registry.counter(telemetry.QUERIES_TOTAL).value == 0.0

    def test_plain_keys_behave_like_dict_entries(self):
        _, stats = self._view()
        stats["preprocess_seconds"] = 1.5
        stats["queries"] = 0
        assert stats["preprocess_seconds"] == 1.5
        assert list(stats) == ["preprocess_seconds", "queries"]
        assert len(stats) == 2
        assert "queries" in stats
        assert dict(stats) == {"preprocess_seconds": 1.5, "queries": 0}

    def test_get_with_default_and_touch(self):
        registry, stats = self._view()
        assert stats.get("queries", 0) == 0
        registry.counter(telemetry.QUERIES_UNCONVERGED).inc(2)
        stats.touch("unconverged_queries")
        assert stats["unconverged_queries"] == 2
        with pytest.raises(InvalidParameterError):
            stats.touch("not_counter_backed")


class TestSolverStatsBackCompat:
    """Existing ``stats`` keys keep their exact names and semantics."""

    def test_preprocess_seeds_the_legacy_keys(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        for key in ("preprocess_seconds", "memory_bytes", "queries",
                    "unconverged_queries"):
            assert key in solver.stats
        assert solver.stats["queries"] == 0
        assert solver.stats["unconverged_queries"] == 0

    def test_query_counts_accumulate_in_stats_and_registry(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        solver.query(0)
        solver.query_many([1, 2, 3])
        assert solver.stats["queries"] == 4
        assert solver.telemetry.get(telemetry.QUERIES_TOTAL).value == 4.0

    def test_unconverged_queries_count_and_warn(self, small_graph):
        from repro.baselines import GMRESSolver

        solver = GMRESSolver(c=0.05, tol=1e-9, max_iterations=1, restart=2)
        solver.preprocess(small_graph)
        with pytest.warns(ConvergenceWarning):
            solver.query(0)
        assert solver.stats["unconverged_queries"] == 1
        assert solver.telemetry.get(telemetry.QUERIES_UNCONVERGED).value == 1.0

    def test_preprocess_resets_counters(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        solver.query(0)
        solver.preprocess(small_graph)
        assert solver.stats["queries"] == 0
        assert solver.telemetry.get(telemetry.QUERIES_TOTAL).value == 0.0


class TestSolverTelemetry:
    def test_gmres_metrics_land_in_solver_registry(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        solver.query_many([0, 1, 2])
        iterations = solver.telemetry.get("gmres.iterations")
        assert iterations is not None and iterations.count == 3
        residuals = solver.telemetry.get("gmres.final_residual")
        assert residuals is not None and residuals.count == 3
        assert solver.telemetry.get("gmres.solves").value == 3.0

    def test_algorithm4_spans_recorded(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        solver.query(0)
        for name in ("query.partition", "query.h11_solves", "query.schur",
                     "query.backsub"):
            histogram = solver.telemetry.get(f"{name}.seconds")
            assert histogram is not None and histogram.count >= 1

    def test_residual_trajectory_only_under_sampling(self, small_graph):
        from repro import BePI

        solver = BePI(c=0.05).preprocess(small_graph)
        solver.query(0)
        assert solver.telemetry.get("gmres.residual_trajectory") is None

        sampled = BePI(c=0.05)
        sampled.telemetry.sampling = True
        sampled.preprocess(small_graph)
        sampled.query(0)
        trajectory = sampled.telemetry.get("gmres.residual_trajectory")
        assert trajectory is not None and trajectory.count >= 1

    def test_engine_reports_convergence_failures(self, small_graph, tmp_path):
        # Satellite fix: the stateless serve path must not drop the
        # unconverged signal the solver-side stats used to carry.
        from repro import BePI, open_query_engine, save_artifacts

        # tol below machine precision: every exported GMRES solve falls short.
        solver = BePI(c=0.05, tol=1e-30, max_iterations=8).preprocess(small_graph)
        save_artifacts(solver, tmp_path / "art")
        engine = open_query_engine(tmp_path / "art")
        registry = MetricsRegistry()
        with registry.activate():
            engine.query_many([0, 1, 2])
        assert registry.get(telemetry.QUERIES_TOTAL).value == 3.0
        unconverged = registry.get(telemetry.QUERIES_UNCONVERGED)
        assert unconverged is not None and unconverged.value == 3.0


class TestSpanClocks:
    """Satellite fix: span durations come from the monotonic clock."""

    def test_duration_never_negative_when_wall_clock_steps_back(
        self, monkeypatch
    ):
        import time as time_module

        registry = MetricsRegistry()
        # Wall clock jumping backwards (NTP step) must not produce a
        # negative duration: the duration comes from perf_counter and is
        # clamped at zero.
        wall = iter([1000.0, 900.0])
        real_wall = time_module.time
        monkeypatch.setattr(
            telemetry.time, "time",
            lambda: next(wall, None) or real_wall(),
        )
        with registry.span("clock.step") as span:
            pass
        assert span.seconds >= 0.0
        assert registry.get("clock.step.seconds").sum >= 0.0

    def test_clamps_perf_counter_anomaly_to_zero(self, monkeypatch):
        import time as time_module

        registry = MetricsRegistry()
        ticks = [100.0, 99.5]  # a broken perf_counter running backwards
        real = time_module.perf_counter
        monkeypatch.setattr(
            telemetry.time, "perf_counter",
            lambda: ticks.pop(0) if ticks else real(),
        )
        with registry.span("clock.anomaly") as span:
            pass
        assert span.seconds == 0.0

    def test_span_keeps_wall_clock_start_and_end(self):
        import time as time_module

        registry = MetricsRegistry()
        before = time_module.time()
        with registry.span("walled") as span:
            assert span.start_time >= before
            assert span.end_time is None
        assert span.end_time is not None
        assert span.end_time >= span.start_time
        assert span.end_time <= time_module.time()

    def test_untraced_span_mints_no_ids(self):
        registry = MetricsRegistry()
        with registry.span("plain") as span:
            pass
        assert span.span_id is None
        assert span.contexts == ()
        assert span.trace_id is None


class TestHistogramExemplars:
    def test_observe_records_last_exemplar_per_bucket(self):
        h = Histogram("lat", buckets=(0.01, 0.1))
        h.observe(0.005, exemplar="aaaa")
        h.observe(0.004, exemplar="bbbb")
        h.observe(0.05, exemplar="cccc")
        h.observe(5.0, exemplar="dddd")
        h.observe(0.06)  # no exemplar: keeps the previous one
        assert h.exemplars() == {"0.01": "bbbb", "0.1": "cccc", "+Inf": "dddd"}

    def test_exemplars_survive_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.01, 0.1)).observe(
            0.005, exemplar="00ab"
        )
        snapshot = registry.snapshot()
        entry = snapshot["histograms"]["lat"]
        assert entry["exemplars"] == {"0": "00ab"}
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.get("lat").exemplars() == {"0.01": "00ab"}

    def test_snapshot_omits_key_when_no_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.01,)).observe(0.005)
        assert "exemplars" not in registry.snapshot()["histograms"]["lat"]

    def test_merge_keeps_latest_exemplar(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("lat", buckets=(0.01,)).observe(0.005, exemplar="old")
        b.histogram("lat", buckets=(0.01,)).observe(0.004, exemplar="new")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.get("lat").exemplars() == {"0.01": "new"}

    def test_exemplars_stay_out_of_prometheus_text(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.01,)).observe(
            0.005, exemplar="00ab"
        )
        text = registry.to_prometheus()
        _assert_valid_prometheus(text)
        assert "00ab" not in text


class TestPrometheusLabels:
    """Satellite hardening: per-backend fleet labels and escaping."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("rwr.queries", help="queries answered").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(0.01,)).observe(0.005)
        return registry

    def test_constant_labels_on_every_sample(self):
        text = self._registry().to_prometheus(labels={"backend": "shard-1"})
        _assert_valid_prometheus(text)
        assert 'repro_rwr_queries_total{backend="shard-1"} 3' in text
        assert 'repro_depth{backend="shard-1"} 2' in text
        # Histogram bucket labels merge with the constant labels.
        assert 'repro_lat_bucket{le="0.01",backend="shard-1"} 1' in text

    def test_malicious_label_values_are_escaped(self):
        evil = 'sh"ard\n\\one\r\ntwo'
        text = self._registry().to_prometheus(labels={"backend": evil})
        _assert_valid_prometheus(text)
        assert '\\"' in text  # quotes escaped
        assert "\\\\" in text  # backslashes escaped

    def test_malicious_label_names_are_sanitized(self):
        text = self._registry().to_prometheus(
            labels={"back end:1!": "x", "0lead": "y"}
        )
        _assert_valid_prometheus(text)

    def test_help_text_newlines_and_backslashes_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "tricky", help="line one\nline two\r\nwith \\ backslash"
        ).inc()
        text = registry.to_prometheus()
        _assert_valid_prometheus(text)
        assert "line one\\nline two\\nwith \\\\ backslash" in text
