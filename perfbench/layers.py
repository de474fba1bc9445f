"""Per-layer measurement: timed wrappers, program instruments, the budget.

The traced run measures each layer from outside, by wrapping public
functions in this process (``Probe``), and reads the instruments the
program already exports: span histograms (``query.*``, ``serve.*``),
gateway counters, ``solver.stats``, ``WorkerPool.metrics()`` and
``topk_cache_stats()``.  Nothing in the program is changed.

``MOVES`` gives, for every per-layer metric, the end-to-end metric it
should move and the workloads it applies to; names, units and directions
are declared once, in ``BENCHMARK.json``.  A layer a workload bypasses
reports 0 there (no calls were made).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: per-layer metric -> (end-to-end metric it should move, on workloads)
MOVES: Dict[str, Tuple[str, str]] = {
    "build.deadend_reorder_s": ("setup_s, build_peak_rss_mb", "all"),
    "build.hubspoke_s": ("setup_s, build_peak_rss_mb", "all"),
    "build.factorize_h11_s": ("setup_s, build_peak_rss_mb", "all"),
    "build.schur_s": ("setup_s, build_peak_rss_mb", "all"),
    "build.ilu_s": ("setup_s, build_peak_rss_mb", "all"),
    "build.nnz_schur": ("setup_s, build_peak_rss_mb", "all"),
    "store.publish_ms": ("setup_s, update_p50_ms", "all"),
    "store.publish_mb": ("setup_s, update_p50_ms", "all"),
    "pool.boot_s": ("setup_s", "all"),
    "pool.queue_wait_ms": ("p50_ms", "online"),
    "pool.batch_ms": ("p50_ms", "online"),
    "pool.cache_hit_ratio": ("p50_ms", "online"),
    "pool.swap_ms": ("update_p50_ms", "all"),
    "query.partition_ms": ("p50_ms", "batch; online"),
    "query.h11_solves_ms": ("p50_ms", "batch; online"),
    "query.schur_ms": ("p50_ms", "batch; online"),
    "query.backsub_ms": ("p50_ms", "batch; online"),
    "gmres.iterations_per_seed": ("p50_ms", "batch; online"),
    "gmres.orth_share": ("p50_ms", "batch; online"),
    "precond.applies": ("p50_ms", "batch; online"),
    "precond.ms_per_apply": ("p50_ms", "batch; online"),
    "precond.share_of_schur": ("p50_ms", "batch; online"),
    "topk.select_ms": ("p50_ms", "online"),
    "topk.pruned_frac": ("p50_ms", "online"),
    "wire.encode_us": ("p50_ms", "online"),
    "wire.decode_us": ("p50_ms", "online"),
    "wire.reply_bytes": ("p50_ms", "online"),
    "gateway.coalesce_wait_ms": ("p50_ms", "online"),
    "gateway.batch_size": ("p50_ms", "online"),
    "gateway.shed": ("p50_ms", "online"),
    "gateway.degraded": ("p50_ms", "online"),
    "update.correction_ms": ("update_p50_ms", "all"),
    "update.affected_blocks": ("update_p50_ms", "all"),
    "update.full_rebuilds": ("update_p50_ms", "all"),
    "trace.overhead_pct": ("none (checks the traced run)", "all"),
}


class Probe:
    """Timed wrappers around public functions of the program.

    ``install`` replaces an attribute with a wrapper that, while
    :attr:`enabled`, appends ``(seconds, detail)`` per call to
    ``calls[name]``; ``detail`` is ``extract(result, args)`` when given.
    ``uninstall`` restores the originals.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.calls: Dict[str, List[Tuple[float, Any]]] = defaultdict(list)
        self._originals: List[Tuple[Any, str, Any]] = []

    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        extract: Optional[Callable[[Any, tuple], Any]] = None,
    ) -> None:
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not probe.enabled:
                return original(*args, **kwargs)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            seconds = time.perf_counter() - start
            detail = extract(result, args) if extract is not None else None
            probe.calls[name].append((seconds, detail))
            return result

        setattr(owner, attr, timed)
        self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def seconds(self, name: str) -> List[float]:
        return [s for s, _ in self.calls.get(name, [])]

    def details(self, name: str) -> List[Any]:
        return [d for _, d in self.calls.get(name, [])]


def install_program_wrappers(probe: Probe) -> None:
    """Wrap the public functions the per-layer budget times."""
    from repro import wire
    from repro.core import dynamic, engine, topk
    from repro.linalg.ilu import ILUFactors
    from repro.serve import WorkerPool
    from repro.store import ArtifactStore

    probe.install(
        engine, "gmres_multi", "gmres",
        lambda result, args: (np.asarray(args[1]).shape[1],
                              int(np.sum(result.n_iterations))),
    )
    probe.install(ILUFactors, "solve", "precond")
    probe.install(topk, "topk_from_scores", "topk")
    probe.install(wire, "encode_message", "encode",
                  lambda result, args: (type(args[0]).__name__, len(result)))
    probe.install(wire, "decode_message", "decode")
    probe.install(ArtifactStore, "publish", "publish",
                  lambda result, args: directory_mb(result))
    probe.install(dynamic, "incremental_update", "correction",
                  lambda result, args: (result.n_affected_blocks, result.error_bound)
                  if result is not None else None)
    probe.install(WorkerPool, "refresh_generation", "swap")


def directory_mb(path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def histogram_mean(snapshot: Dict[str, Any], name: str, scale: float = 1.0) -> float:
    entry = snapshot.get("histograms", {}).get(name)
    if not entry or not entry["count"]:
        return 0.0
    return scale * entry["sum"] / entry["count"]


def counter(snapshot: Dict[str, Any], name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, {}).get("value", 0.0))


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def per_layer(
    probe: Probe,
    setups: Any,
    info: Dict[str, Any],
    engine_snapshot: Dict[str, Any],
    overhead_pct: float,
) -> Dict[str, float]:
    """Assemble every per-layer metric of ``MOVES`` from one traced run.

    ``engine_snapshot`` is the in-process registry the engine recorded its
    ``query.*`` spans in; ``info`` holds what the run collected from the
    pool (merged worker registry, cache counters), the gateway registry
    and the tracer's coalesce-wait spans.  The query phases come from the
    worker when it saw engine work (``online``), else from the in-process
    engine (``batch``).
    """
    worker = info.get("worker", {})
    gateway = info.get("gateway", {})
    cache = info.get("cache", {})
    spans = worker if _has(worker, "query.schur.seconds") else engine_snapshot
    gmres = probe.details("gmres")
    columns = sum(c for c, _ in gmres)
    gmres_s = sum(probe.seconds("gmres"))
    precond_s = sum(probe.seconds("precond"))
    applies = len(probe.calls.get("precond", []))
    schur_s = engine_snapshot.get("histograms", {}).get("query.schur.seconds", {}).get("sum", 0.0)
    replies = [n for kind, n in probe.details("encode") if kind == "TopKReply"]
    publish_ms = [r.publish_ms for r in setups.rounds] + [
        1e3 * s for s in probe.seconds("publish")
    ]
    publish_mb = [r.publish_mb for r in setups.rounds] + probe.details("publish")
    corrections = [d for d in probe.details("correction") if d is not None]
    lookups = cache.get("hits", 0.0) + cache.get("misses", 0.0)
    metrics = {
        **setups.build(),
        "store.publish_ms": _median(publish_ms),
        "store.publish_mb": _median(publish_mb),
        "pool.queue_wait_ms": histogram_mean(worker, "serve.queue_wait.seconds", 1e3),
        "pool.batch_ms": histogram_mean(worker, "serve.batch.seconds", 1e3),
        "pool.cache_hit_ratio": cache.get("hits", 0.0) / lookups if lookups else 0.0,
        "pool.swap_ms": 1e3 * _median(probe.seconds("swap")),
        "query.partition_ms": histogram_mean(spans, "query.partition.seconds", 1e3),
        "query.h11_solves_ms": histogram_mean(spans, "query.h11_solves.seconds", 1e3),
        "query.schur_ms": histogram_mean(spans, "query.schur.seconds", 1e3),
        "query.backsub_ms": histogram_mean(spans, "query.backsub.seconds", 1e3),
        "gmres.iterations_per_seed": sum(i for _, i in gmres) / columns if columns else 0.0,
        "gmres.orth_share": (gmres_s - precond_s) / gmres_s if gmres_s else 0.0,
        "precond.applies": applies / len(gmres) if gmres else 0.0,
        "precond.ms_per_apply": 1e3 * precond_s / applies if applies else 0.0,
        "precond.share_of_schur": precond_s / schur_s if schur_s else 0.0,
        "topk.select_ms": 1e3 * _mean(probe.seconds("topk")),
        "topk.pruned_frac": histogram_mean(worker, "rwr.topk.pruned_frac"),
        "wire.encode_us": 1e6 * _mean(probe.seconds("encode")),
        "wire.decode_us": 1e6 * _mean(probe.seconds("decode")),
        "wire.reply_bytes": _mean(replies),
        "gateway.coalesce_wait_ms": 1e3 * _mean(info.get("coalesce_waits", [])),
        "gateway.batch_size": histogram_mean(gateway, "rwr.gateway.coalesce.batch_size"),
        "gateway.shed": counter(gateway, "rwr.gateway.shed"),
        "gateway.degraded": counter(gateway, "rwr.gateway.degraded"),
        "update.correction_ms": 1e3 * _median(probe.seconds("correction")),
        "update.affected_blocks": _mean(n for n, _ in corrections),
        "update.full_rebuilds": float(info.get("full_rebuilds", 0)),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(value) for name, value in metrics.items()}


def _has(snapshot: Dict[str, Any], name: str) -> bool:
    return bool(snapshot.get("histograms", {}).get(name, {}).get("count"))


def build_metrics(stats: Dict[str, Any]) -> Dict[str, float]:
    """The ``build.*`` metrics from one preprocess's ``solver.stats``."""
    stages = stats["stage_timings"]
    return {
        "build.deadend_reorder_s": stages["deadend_reorder"],
        "build.hubspoke_s": stages["hub_and_spoke_reorder"],
        "build.factorize_h11_s": stages["factorize_h11"],
        "build.schur_s": stages["schur_complement"],
        "build.ilu_s": stats["ilu_seconds"],
        "build.nnz_schur": float(stats["nnz_schur"]),
    }
