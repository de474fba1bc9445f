"""Incremental updates: re-run the factorization stages on the kept ordering.

BePI's own answer to evolving graphs is "buffer updates, re-preprocess in
batches" (Section 5).  Of a full re-preprocess, the two reordering stages
of Algorithm 1 — deadend reorder and SlashBurn — are the ones a small
update batch has no reason to repeat.  :func:`incremental_update` keeps the
parent bundle's node ordering and hub/spoke/deadend partition and runs the
rest of the build on the new graph:

- ``H`` is rebuilt from the new graph in the old order and partitioned
  with the old ``n1``/``n2``/``n3``;
- entries the kept partition cannot serve are dropped (see below);
- the same three stage functions a build runs then produce the new
  artifacts from the served blocks: the batched LU inversion of all of
  ``H11`` (:func:`~repro.linalg.block_lu.factorize_block_diagonal`), the
  Schur complement
  (:func:`~repro.core.schur.compute_schur_complement_parts`) and its SGS
  preconditioner (:func:`~repro.linalg.ilu.sgs_factors`).

Nothing of the parent's factors, Schur complement or ``H`` blocks is read,
so a bundle need not store any array only an update would use.

Error bound
-----------
The reused partition cannot represent every new edge.  Two kinds of
entries of the new ``H`` fall outside the served block structure:

- spoke→spoke edges *between different diagonal blocks* of ``H11`` (the
  old SlashBurn partition guarantees none existed at build time), and
- out-edges gained by a node sitting in the deadend band (the engine
  serves ``H13 = H23 = 0`` and ``H33 = I`` by construction).

Those entries are dropped; collected into a residual ``R``, the served
system is ``H̃ = H − R``.  With ``r = c H^{-1} q`` the exact scores and
``r̃ = c H̃^{-1} q`` the served ones,

    ``r − r̃ = −c H^{-1} R H̃^{-1} q``  so  ``‖r − r̃‖₁ ≤ ‖R‖₁ / c``

because ``‖H^{-1}‖₁ ≤ 1/c`` (the Neumann series of a column-substochastic
``(1−c) Ã^T``), the same holds for ``H̃`` (dropping entries keeps the
columns substochastic), and ``‖q‖₁ = 1``.  ``‖R‖₁`` — the largest
column-wise absolute sum of dropped entries — is computed exactly during
the update, so every update carries a *tracked, guaranteed* L1 error
bound; a batch whose edges all land inside the old structure has
``R = 0`` and the update is **exact** (up to solver tolerance).  When the
bound crosses the caller's threshold, :func:`incremental_update` returns
``None`` and :func:`repro.core.dynamic.rebuild_solver` re-preprocesses in
full, which re-partitions and resets the bound to zero.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.engine import SolverArtifacts
from repro.core.pipeline import PreprocessArtifacts
from repro.core.schur import compute_schur_complement_parts
from repro.exceptions import GraphFormatError, InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.block_lu import factorize_block_diagonal
from repro.linalg.ilu import sgs_factors
from repro.linalg.rwr_matrix import build_h_matrix, partition_h

Edge = Tuple[int, int]


# ----------------------------------------------------------------------
# Update batches
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateBatch:
    """An immutable batch of edge updates, in application order.

    Attributes
    ----------
    added:
        ``(u, v, weight-or-None)`` insertions; ``None`` means "unit weight
        unless the edge already exists" (idempotent unweighted insertion),
        a float *sets* the weight.
    removed:
        ``(u, v)`` deletions; deleting an absent edge is a no-op.
    """

    added: Tuple[Tuple[int, int, Optional[float]], ...] = ()
    removed: Tuple[Edge, ...] = ()

    @property
    def n_updates(self) -> int:
        return len(self.added) + len(self.removed)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form — the generation-lineage
        identifier of this batch."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (crosses the process boundary of the
        background rebuilder)."""
        return {
            "added": [[int(u), int(v), None if w is None else float(w)]
                      for u, v, w in self.added],
            "removed": [[int(u), int(v)] for u, v in self.removed],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "UpdateBatch":
        return cls(
            added=tuple(
                (int(u), int(v), None if w is None else float(w))
                for u, v, w in payload.get("added", ())
            ),
            removed=tuple(
                (int(u), int(v)) for u, v in payload.get("removed", ())
            ),
        )

    def sources(self) -> List[int]:
        """Nodes whose out-edge set the batch touches (affected columns
        of ``H`` after row renormalization)."""
        return sorted(
            {int(u) for u, _, _ in self.added} | {int(u) for u, _ in self.removed}
        )


def apply_batch(graph: Graph, batch: UpdateBatch) -> Optional[Graph]:
    """Apply ``batch`` to ``graph``; ``None`` when it cancels to a no-op.

    Edge weights are carried through.  Only the batch's own ``(u, v)``
    keys are resolved: each is looked up in its CSR row with a binary
    search, insertions and then deletions are replayed on a map of those
    keys alone, and the result is spliced into the old arrays in one
    vectorized pass, so the Python work is proportional to the batch and
    the graph is touched only by O(nnz) numpy copies.  The old adjacency
    is only read (it may be a read-only memory map).  If the touched keys
    come out as they were — an insertion later removed, deletions of
    absent edges, re-inserting an existing edge unweighted — the caller
    can skip the rebuild entirely.
    """
    adj = graph.adjacency
    n = graph.n_nodes
    indptr, indices, data = adj.indptr, adj.indices, adj.data

    added = [(int(u), int(v), w) for u, v, w in batch.added]
    removed = [(int(u), int(v)) for u, v in batch.removed]

    # Where each touched key sits in (or would enter) the old CSR arrays.
    slot: Dict[Edge, int] = {}
    before: Dict[Edge, float] = {}
    for key in [(u, v) for u, v, _ in added] + removed:
        u, v = key
        if key in slot or not (0 <= u < n and 0 <= v < n):
            continue
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        pos = lo + int(np.searchsorted(indices[lo:hi], v))
        slot[key] = pos
        if pos < hi and indices[pos] == v:
            before[key] = float(data[pos])

    after = dict(before)
    for u, v, w in added:
        if w is None:
            after.setdefault((u, v), 1.0)
        else:
            after[(u, v)] = float(w)
    for key in removed:
        after.pop(key, None)
    if after == before:
        return None
    for u, v in after:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"edge ({u}, {v}) is outside the node range 0..{n - 1}"
            )

    # Drop every old entry of a touched key, then insert the live touched
    # entries at their sorted positions among the kept ones.
    dropped = np.sort(np.array([slot[key] for key in before], dtype=np.int64))
    live = sorted(after)
    live_rows = np.array([u for u, _ in live], dtype=np.int64)
    live_slots = np.array([slot[key] for key in live], dtype=np.int64)
    inserts = live_slots - np.searchsorted(dropped, live_slots)
    keep = np.ones(indices.size, dtype=bool)
    keep[dropped] = False
    new_indices = np.insert(
        indices[keep], inserts, np.array([v for _, v in live], dtype=indices.dtype)
    )
    new_data = np.insert(
        data[keep], inserts, np.array([after[key] for key in live], dtype=np.float64)
    )
    # Entry p lives in row r where indptr[r] <= p < indptr[r + 1].
    dropped_rows = np.searchsorted(indptr, dropped, side="right") - 1
    row_delta = (np.bincount(live_rows + 1, minlength=n + 1)
                 - np.bincount(dropped_rows + 1, minlength=n + 1))
    new_indptr = indptr + np.cumsum(row_delta)
    return Graph(sp.csr_matrix((new_data, new_indices, new_indptr), shape=(n, n)))


# ----------------------------------------------------------------------
# The update: stages 3-6 on the kept ordering
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """An update applied to an existing bundle.

    Attributes
    ----------
    bundle:
        The updated, query-ready artifact bundle (same permutation and
        partition as the parent; serve or publish it directly).
    error_bound:
        Guaranteed L1 bound ``‖R‖₁ / c`` on per-query score error versus
        the exact new graph; ``0.0`` means the update is exact.
    n_affected_blocks, n_blocks:
        Diagonal ``H11`` blocks refactorized vs. total.  The update
        refactorizes all of ``H11``, so the two are equal.
    seconds:
        Wall-clock cost of the update.
    timings:
        Per-stage breakdown (``build_h``, ``classify``, ``factorize_h11``,
        ``schur_complement``, ``preconditioner``).
    """

    bundle: SolverArtifacts
    error_bound: float
    n_affected_blocks: int
    n_blocks: int
    seconds: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.error_bound == 0.0


def incremental_update(
    bundle: SolverArtifacts,
    new_graph: Graph,
    bound_threshold: Optional[float] = None,
) -> Optional[IncrementalResult]:
    """Serve ``new_graph`` through ``bundle``'s ordering and partition.

    Returns ``None`` when ``bound_threshold`` is set and the tracked error
    bound would exceed it — the signal to fall back to a full
    re-preprocess.  Only BePI bundles can be updated.  Nothing of the
    parent is read but its ordering, partition and configuration; see the
    module docstring for the bound derivation.
    """
    if bundle.kind != "bepi":
        raise InvalidParameterError(
            f"incremental updates require a BePI bundle, got {bundle.kind!r}"
        )
    pre = bundle.preprocess
    n = new_graph.n_nodes
    if n != len(pre.permutation):
        raise InvalidParameterError(
            f"updated graph has {n} nodes but the bundle was built for "
            f"{len(pre.permutation)} (the update pipeline does not grow the "
            "node set)"
        )
    c = float(bundle.config["c"])
    n1, n2, n3 = pre.n1, pre.n2, pre.n3
    perm = pre.permutation
    block_sizes = np.asarray(pre.block_sizes, dtype=np.int64)
    timings: Dict[str, float] = {}
    started = time.perf_counter()

    # --- H in the old order (the two reordering stages are skipped).
    t0 = time.perf_counter()
    reordered = new_graph.permute(perm.order)
    h = build_h_matrix(reordered.adjacency, c)
    timings["build_h"] = time.perf_counter() - t0

    # --- Residual, error bound and the served blocks.
    t0 = time.perf_counter()
    block_id = np.repeat(np.arange(block_sizes.size, dtype=np.int64), block_sizes)
    h11_coo = h[:n1, :n1].tocoo()
    off_block = block_id[h11_coo.row] != block_id[h11_coo.col]
    dropped_spoke = (
        np.bincount(
            h11_coo.col[off_block],
            weights=np.abs(h11_coo.data[off_block]),
            minlength=n1,
        )
        if n1
        else np.zeros(0)
    )
    if n3:
        # Column sums straight off the CSR arrays; no CSC copy of H.
        col_abs = np.bincount(
            h.indices, weights=np.abs(h.data), minlength=n
        )[n1 + n2:]
        dead_diag = h.diagonal()[n1 + n2:]
        # Served as H13 = H23 = 0, H33 = I: everything in these columns is
        # dropped except the unit diagonal the engine assumes.
        dropped_dead = col_abs - np.abs(dead_diag) + np.abs(dead_diag - 1.0)
    else:
        dropped_dead = np.zeros(0)
    residual_norm = max(
        float(dropped_spoke.max()) if dropped_spoke.size else 0.0,
        float(dropped_dead.max()) if dropped_dead.size else 0.0,
        0.0,
    )
    error_bound = residual_norm / c
    if bound_threshold is not None and error_bound > bound_threshold:
        return None

    blocks = partition_h(h, n1, n2, n3)
    if off_block.any():
        keep = ~off_block
        h11_served = sp.csr_matrix(
            (h11_coo.data[keep], (h11_coo.row[keep], h11_coo.col[keep])),
            shape=(n1, n1),
        )
        h11_served.sort_indices()
        blocks["H11"] = h11_served
    timings["classify"] = time.perf_counter() - t0

    # --- Stages 3-6 of a build, on the served blocks.
    t0 = time.perf_counter()
    h11_factors = factorize_block_diagonal(blocks["H11"], block_sizes)
    timings["factorize_h11"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    schur_parts = compute_schur_complement_parts(blocks, h11_factors)
    timings["schur_complement"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # SGS factors of the new S, if the parent had a preconditioner.
    preconditioner = (
        None if bundle.preconditioner is None else sgs_factors(schur_parts.schur)
    )
    timings["preconditioner"] = time.perf_counter() - t0

    new_pre = PreprocessArtifacts(
        permutation=perm,
        n1=n1,
        n2=n2,
        n3=n3,
        block_sizes=block_sizes,
        blocks=blocks,
        h11_factors=h11_factors,
        schur=schur_parts.schur,
        hubspoke=pre.hubspoke,
        timings=dict(timings),
        nnz_h22=schur_parts.nnz_h22,
        nnz_correction=schur_parts.nnz_correction,
    )
    return IncrementalResult(
        bundle=SolverArtifacts(
            kind=bundle.kind,
            config=dict(bundle.config),
            graph=new_graph,
            preprocess=new_pre,
            preconditioner=preconditioner,
        ),
        error_bound=error_bound,
        n_affected_blocks=int(block_sizes.size),
        n_blocks=int(block_sizes.size),
        seconds=time.perf_counter() - started,
        timings=timings,
    )
