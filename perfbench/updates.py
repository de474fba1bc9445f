"""Update batches through ``DynamicRWR`` and the oracle's copy of them.

Every workload runs the same update probe: in each probe round, batches
applied back to back through ``DynamicRWR`` over the round's store, each
acknowledged by the round's pool with ``refresh_generation``, and a few
pool answers checked against the new generation after each
acknowledgement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional

import scipy.sparse as sp


@dataclass
class Generation:
    """A published generation and the graph the oracle expects it to serve
    (``adjacency`` is filled in by ``replay``)."""

    name: str
    path: Path
    error_bound: float
    batch: Any = None
    adjacency: Optional[sp.csr_matrix] = None
    handoff: float = float("-inf")
    ack: float = float("-inf")


def apply_update(dyn, pool, batch) -> Generation:
    """Hand one batch to ``DynamicRWR`` and wait for the pool's ack."""
    reweighted, weights, removed = batch
    handoff = time.perf_counter()
    dyn.add_edges(reweighted, weights=weights)
    dyn.remove_edges(removed)
    dyn.rebuild()
    acked = pool.refresh_generation()
    ack = time.perf_counter()
    path = dyn.artifact_store.current_path()
    if acked != path.name:
        raise RuntimeError(f"pool acknowledged {acked}, store serves {path.name}")
    return Generation(path.name, path, dyn.last_error_bound, batch, None, handoff, ack)


def apply_to(adjacency: sp.csr_matrix, batch) -> sp.csr_matrix:
    """The oracle's own copy of a batch: set reweighted edges, drop removed."""
    reweighted, weights, removed = batch
    changed = list(reweighted) + list(removed)

    def entries(values, keys):
        return sp.csr_matrix(
            (values, ([u for u, _ in keys], [v for _, v in keys])),
            shape=adjacency.shape,
        )

    mask = entries([1.0] * len(changed), changed)
    result = (adjacency - adjacency.multiply(mask) + entries(weights, reweighted)).tocsr()
    result.eliminate_zeros()
    return result


def replay(generations: List[Generation], adjacency: sp.csr_matrix) -> None:
    """Fill in each generation's expected adjacency, from the first."""
    generations[0].adjacency = adjacency
    for previous, generation in zip(generations, generations[1:]):
        generation.adjacency = apply_to(previous.adjacency, generation.batch)
