"""Workload definitions and the deterministic input generators behind them.

Everything a run feeds the program is drawn here from the workload seed:
the 64-seed blocks of ``batch``, the Poisson arrival schedule and the
Zipf-popular seed sequence of ``online``, and the edge-update batches and
check seeds of the update probe every workload runs.  Each kind of input
has its own random stream (``stream(seed, name)``), so adding a draw to
one generator never shifts another.  The graph itself is part of the workload definition: a fixed
R-MAT instance, so that set-up cost and artifact size compare like for
like across seeds while the traffic changes with the seed.

This module imports only numpy and the program's public graph API; it
must stay cheap to import because the test suite exercises it alone.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

#: R-MAT scale: 2**14 = 16,384 nodes.  Build work outweighs worker-spawn
#: jitter inside ``setup_s`` at this size (see README "Lessons").
SCALE = 14
#: Edge placements per node; duplicates collapse to ~120k edges.
EDGE_FACTOR = 8
GRAPH_SEED = 14
#: Restart probability and solver tolerance: the library defaults.
RESTART = 0.05
TOLERANCE = 1e-9
TOP_K = 16
BLOCK_SIZE = 64


@dataclass(frozen=True)
class Workload:
    """Fixed settings of one named workload (recorded with every result)."""

    name: str
    #: ``batch``: distinct 64-seed blocks the closed loop cycles through.
    n_blocks: int = 0
    #: ``online``: open-loop Poisson arrival rate (requests/s).
    rate: float = 0.0
    #: Zipf exponent of seed popularity over the degree-biased catalog.
    zipf: float = 0.0
    #: Client connections to the gateway (the open loop's concurrency cap).
    connections: int = 2
    #: Update batches, shared out evenly among the run's probe rounds,
    #: and edge changes per batch.
    updates: int = 16
    update_size: int = 32
    warmup_s: float = 2.0

    def settings(self) -> Dict[str, object]:
        return asdict(self)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="batch",
            n_blocks=96,
            warmup_s=0.0,
        ),
        Workload(
            name="online",
            rate=16.0,
            zipf=0.7,
        ),
    )
}


def stream(seed: int, name: str) -> np.random.Generator:
    """An independent random stream per (workload seed, input kind)."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def make_graph():
    """The fixed R-MAT graph every workload runs on."""
    from repro import generate_rmat

    return generate_rmat(SCALE, EDGE_FACTOR * 2**SCALE, seed=GRAPH_SEED)


def degree_weights(out_degrees: np.ndarray) -> np.ndarray:
    """Query probability proportional to out-degree (active users query
    more); deadends are never drawn."""
    degrees = np.asarray(out_degrees, dtype=np.float64)
    return degrees / degrees.sum()


def seed_blocks(
    out_degrees: np.ndarray, n_blocks: int, seed: int
) -> np.ndarray:
    """``(n_blocks, BLOCK_SIZE)`` distinct seeds, drawn by out-degree."""
    weights = degree_weights(out_degrees)
    picks = stream(seed, "blocks").choice(
        weights.size, size=n_blocks * BLOCK_SIZE, replace=False, p=weights
    )
    return picks.reshape(n_blocks, BLOCK_SIZE).astype(np.int64)


def popularity_catalog(out_degrees: np.ndarray, seed: int) -> np.ndarray:
    """Non-deadend nodes ranked most-popular first.

    Weighted sampling without replacement (Efraimidis-Spirakis keys
    ``u ** (1 / degree)``), so high out-degree nodes tend to rank high but
    the order still changes with the seed.
    """
    degrees = np.asarray(out_degrees, dtype=np.float64)
    nodes = np.flatnonzero(degrees > 0)
    keys = stream(seed, "catalog").random(nodes.size) ** (1.0 / degrees[nodes])
    return nodes[np.argsort(-keys, kind="stable")].astype(np.int64)


def zipf_seeds(
    catalog: np.ndarray, count: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """``count`` seeds with Zipf(``exponent``) popularity over ``catalog``."""
    ranks = np.arange(1, catalog.size + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return catalog[rng.choice(catalog.size, size=count, p=weights / weights.sum())]


def poisson_schedule(
    rate: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Send offsets (seconds) of ``count`` Poisson arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def request_plan(
    workload: Workload, out_degrees: np.ndarray, seconds: float, seed: int
) -> Dict[str, np.ndarray]:
    """Warm-up and timed request sequences of an open-loop workload.

    The timed window holds ``rate * seconds`` arrivals, a fixed count so
    every run has the same sample size; the warm-up draws from the same
    popularity on its own streams.
    """
    catalog = popularity_catalog(out_degrees, seed)
    count = int(round(workload.rate * seconds))
    warm = int(round(workload.rate * workload.warmup_s))
    return {
        "seeds": zipf_seeds(catalog, count, workload.zipf, stream(seed, "seeds")),
        "times": poisson_schedule(workload.rate, count, stream(seed, "arrivals")),
        "warm_seeds": zipf_seeds(
            catalog, warm, workload.zipf, stream(seed, "warm-seeds")
        ),
        "warm_times": poisson_schedule(
            workload.rate, warm, stream(seed, "warm-arrivals")
        ),
    }


def update_batches(
    edges: np.ndarray, count: int, size: int, seed: int
) -> List[Tuple[List[Tuple[int, int]], List[float], List[Tuple[int, int]]]]:
    """``count`` edge-update batches of ``size`` changes each.

    Each batch reweights three quarters of its edges and removes the rest,
    all drawn from the original edge list; reweighting an edge an earlier
    batch removed inserts it again.  Every change keeps the sparsity
    pattern of the original graph, so the program can apply each batch as
    an exact incremental correction.  Returns ``(reweighted, weights,
    removed)`` per batch.
    """
    rng = stream(seed, "updates")
    n_reweight = size - size // 4
    batches = []
    for _ in range(count):
        picks = rng.choice(len(edges), size=size, replace=False)
        chosen = [(int(edges[i][0]), int(edges[i][1])) for i in picks]
        weights = [float(w) for w in rng.uniform(0.5, 2.5, size=n_reweight)]
        batches.append((chosen[:n_reweight], weights, chosen[n_reweight:]))
    return batches


def check_seeds(out_degrees: np.ndarray, shape: Tuple[int, int], seed: int) -> np.ndarray:
    """Seeds asked of the pool after each update batch (one row per batch)."""
    weights = degree_weights(out_degrees)
    return stream(seed, "check").choice(weights.size, size=shape, p=weights)


def make_inputs(
    workload: Workload, graph, seconds: float, seed: int, checks_per_update: int
) -> Dict[str, object]:
    """Every input one run of ``workload`` feeds the program."""
    degrees = graph.out_degrees()
    inputs: Dict[str, object] = {
        "updates": update_batches(graph.edges(), workload.updates, workload.update_size, seed),
        "check_seeds": check_seeds(degrees, (workload.updates, checks_per_update), seed),
    }
    if workload.n_blocks:
        inputs["blocks"] = seed_blocks(degrees, workload.n_blocks, seed)
    if workload.rate:
        inputs["plan"] = request_plan(workload, degrees, seconds, seed)
    return inputs


def repeat_share(seeds: np.ndarray) -> float:
    """Fraction of requests whose seed was already requested earlier."""
    return 1.0 - np.unique(seeds).size / max(len(seeds), 1)
