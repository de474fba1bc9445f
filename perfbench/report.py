"""One run of one workload: set up, drive, check, and print the metrics."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np
import scipy

from repro import tracing
from repro.telemetry import MetricsRegistry

from perfbench import calibrate, layers, oracle, system, workloads
from perfbench.workloads import Workload

#: ``BENCHMARK.json``: the one declaration of the workloads and of every
#: metric's name, unit and direction.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: The load generator may run at most this late (p99) for a valid run;
#: later than that, the open loop was not held and the run fails.
LATE_LIMIT_MS = 20.0


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 work_dir: Path) -> int:
    root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir))
    tracer = tracing.set_tracer(tracing.Tracer(sample_rate=0.0, ring_capacity=1 << 18))
    probe = layers.Probe()
    layers.install_program_wrappers(probe)
    setups = None
    meter = calibrate.Meter()
    try:
        graph = workloads.make_graph()
        inputs = workloads.make_inputs(workload, graph, seconds, seed,
                                       system.CHECKS_PER_UPDATE)
        setups = system.SetUps(graph, root, meter)
        setups.round()
        registry = MetricsRegistry()
        if workload.rate:
            run = system.run_online(workload, setups, graph, inputs, seconds,
                                    probe, traced, registry, tracer)
        else:
            run = system.run_batch(workload, setups, graph, inputs, seconds,
                                   probe, traced, registry)
        artifact = layers.directory_mb(setups.serving.published)
        meter.sample()
    finally:
        probe.uninstall()
        if setups is not None and setups.rounds:
            setups.serving.pool.stop()
        meter.close()
        shutil.rmtree(root, ignore_errors=True)

    settings = run_settings(workload, seed, seconds, traced, setups, run)
    if traced:
        declared = SPEC["per_layer"]
        metrics = traced_metrics(setups, run, probe, registry)
    else:
        declared = SPEC["end_to_end"]
        metrics = end_to_end(setups, run, artifact, meter.factor_at)
        settings["machine"] = {
            "reference_s": calibrate.REFERENCE_S,
            "samples_s": meter.samples,
            "sample_offsets_s": [t - meter.times[0] for t in meter.times],
            "unscaled": end_to_end(setups, run, artifact, lambda when: 1.0),
        }
    print("settings: " + json.dumps(settings, sort_keys=True))
    if traced:
        print(f"{'per-layer metric':28s} {'value':>12s} {'unit':6s} moves / on")
        for entry in declared:
            name = entry["name"]
            moves, on = layers.MOVES[name]
            print(f"{name:28s} {metrics[name]:12.4g} {entry['unit']:6s} {moves} / {on}")
    else:
        for entry in declared:
            print(f"{entry['name']:18s} {metrics[entry['name']]:12.4f} {entry['unit']}")
    if set(metrics) != {entry["name"] for entry in declared}:
        raise KeyError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    late = late_p99_ms(run)
    valid = late is None or late <= LATE_LIMIT_MS
    if not valid:
        print(f"perfbench: load generator p99 lateness {late:.1f} ms exceeds "
              f"{LATE_LIMIT_MS} ms; the open loop was not held", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and valid,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(result))
    return 0


def late_p99_ms(run) -> Optional[float]:
    """p99 lateness of an open-loop generator; ``None`` for a closed loop."""
    return float(np.percentile(run.late_ms, 99)) if run.late_ms else None


def end_to_end(setups, run, artifact_mb: float,
               factor_at: Callable[[float], float]) -> Dict[str, float]:
    """The end-to-end metrics, each time first scaled by ``factor_at`` of
    the moment it was measured (see ``calibrate.py``)."""
    if not any(np.isfinite(t) for t in run.latencies_ms):
        raise RuntimeError("no operation succeeded")

    def scaled(values, moments):
        return [v * factor_at(t) for v, t in zip(values, moments)]

    return {
        "setup_s": float(np.median(scaled(setups.seconds(),
                                          [r.at for r in setups.rounds]))),
        "p50_ms": system.percentile(scaled(run.latencies_ms, run.latency_at), 50),
        "update_p50_ms": float(np.median(scaled(run.update_ms, run.update_at))),
        "artifact_mb": artifact_mb,
        "build_peak_rss_mb": setups.build_peak_rss_mb,
        "serve_rss_mb": float(np.median(run.serve_rss_mb)),
    }


def traced_metrics(setups, run, probe, registry) -> Dict[str, float]:
    untraced = np.median(run.untraced_ms) if run.untraced_ms else 0.0
    overhead = (
        100.0 * (np.median(run.traced_ms) - untraced) / untraced
        if run.traced_ms and untraced else 0.0
    )
    return layers.per_layer(probe, setups, run.info, registry.snapshot(), overhead)


def run_settings(workload: Workload, seed: int, seconds: float, traced: bool,
                 setups, run) -> Dict[str, Any]:
    # Tail percentiles are reported, not gated: see README "Not done here".
    info = {
        "operations": len(run.latencies_ms),
        "updates": len(run.update_ms),
        "full_rebuilds": run.info.get("full_rebuilds", 0),
        "setup_s_rounds": setups.seconds(),
        "update_ms": run.update_ms,
    }
    for q in (75, 90, 95, 98, 99):
        info[f"p{q}_ms"] = system.percentile(run.latencies_ms, q)

    if run.late_ms:
        info["loadgen.late_p99_ms"] = late_p99_ms(run)
    for key in ("seeds_per_s", "repeat_share"):
        if key in run.info:
            info[key] = run.info[key]
    return {
        "workload": workload.settings(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "scale": workloads.SCALE,
        "edge_factor": workloads.EDGE_FACTOR,
        "graph_seed": workloads.GRAPH_SEED,
        "restart": workloads.RESTART,
        "tolerance": workloads.TOLERANCE,
        "top_k": workloads.TOP_K,
        "block_size": workloads.BLOCK_SIZE,
        "setup_rounds": system.SETUP_ROUNDS,
        "late_limit_ms": LATE_LIMIT_MS,
        "residual_l1": oracle.RESIDUAL_L1,
        "score_tol": oracle.SCORE_TOL,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "observed": info,
    }
