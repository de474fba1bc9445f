"""Incremental artifact corrections for edge-update batches.

BePI's own answer to evolving graphs is "buffer updates, re-preprocess in
batches" (Section 5).  A full re-preprocess repeats every stage of
Algorithm 1 — deadend reorder, SlashBurn, block factorization, Schur
complement, preconditioner — even though a small update batch leaves most
of that work bit-identical.  Following the bounded-correction idea of Yoon
et al. (*Fast and Accurate Random Walk with Restart on Dynamic Graphs with
Guarantees*), this module applies a batch to an existing artifact bundle
as a *correction* instead:

- the old node ordering and hub/spoke/deadend partition are **reused**
  (the two reordering stages are skipped entirely),
- ``H`` is rebuilt from the new graph in the old order, and only the
  ``H11`` diagonal blocks whose columns actually changed are refactorized
  (per-block LU inversion is independent, so untouched blocks keep their
  old inverted factors bit for bit),
- the Schur complement is updated with a per-affected-block low-rank
  correction ``S' = S + ΔH22 − Σ_b (C'_b − C_b)`` where
  ``C_b = H21[:,b] H11[b]^{-1} H12[b,:]``, instead of re-solving all of
  ``H11^{-1} H12``,
- the preconditioner is rebuilt from the updated ``S`` (the SGS factors
  cost one pass over ``S``), so every generation is preconditioned by the
  factors of its own Schur complement.

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
the build, so every correction carries a *tracked, guaranteed* L1 error
bound; a batch whose edges all land inside the old structure has
``R = 0`` and the correction is **exact** (up to solver tolerance).  When
the bound crosses the caller's threshold, :func:`build_updated_bundle`
falls back to a full re-preprocess, which re-partitions and resets the
bound to zero.
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
from repro.exceptions import GraphFormatError, InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.block_lu import BlockDiagonalLU, factorize_block_diagonal
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
        """JSON-serializable form (crosses the spawn boundary of the
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
# The correction engine
# ----------------------------------------------------------------------
@dataclass
class IncrementalResult:
    """A correction applied to an existing bundle.

    Attributes
    ----------
    bundle:
        The updated, query-ready artifact bundle (same permutation and
        partition as the parent; serve or publish it directly).
    error_bound:
        Guaranteed L1 bound ``‖R‖₁ / c`` on per-query score error versus
        the exact new graph; ``0.0`` means the correction is exact.
    n_affected_blocks, n_blocks:
        Diagonal ``H11`` blocks refactorized vs. total.
    seconds:
        Wall-clock cost of the correction.
    timings:
        Per-stage breakdown (``build_h``, ``classify``, ``refactorize``,
        ``schur_correction``).
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


def _changed_rows(old: sp.csr_matrix, new: sp.csr_matrix) -> np.ndarray:
    """Row indices whose pattern or values differ between two CSR matrices."""
    delta = (sp.csr_matrix(new) - sp.csr_matrix(old)).tocsr()
    delta.eliminate_zeros()
    return np.flatnonzero(np.diff(delta.indptr))


def _block_ranges(block_sizes: np.ndarray) -> np.ndarray:
    """Start offsets of each diagonal block (length ``b + 1``)."""
    return np.concatenate([[0], np.cumsum(block_sizes)]).astype(np.int64)


def _gather_index(block_ids: np.ndarray, starts: np.ndarray,
                  sizes: np.ndarray) -> np.ndarray:
    """Concatenated (ascending) row/col index range of the given blocks."""
    return np.concatenate(
        [np.arange(starts[b], starts[b] + sizes[b], dtype=np.int64)
         for b in block_ids]
    )


def _block_correction(
    h21: sp.spmatrix,
    h12: sp.spmatrix,
    l_inv: sp.spmatrix,
    u_inv: sp.spmatrix,
    idx: np.ndarray,
) -> sp.csr_matrix:
    """``Σ_{b∈idx-blocks} H21[:,b] H11[b]^{-1} H12[b,:]`` in one pass.

    ``idx`` is the concatenated index range of the affected blocks; the
    sliced factors stay block diagonal across those blocks, so one triple
    product covers all of them.
    """
    l_sub = sp.csr_matrix(l_inv)[idx][:, idx]
    u_sub = sp.csr_matrix(u_inv)[idx][:, idx]
    h12_sub = sp.csr_matrix(h12)[idx]
    h21_sub = sp.csr_matrix(h21)[:, idx]
    inner = u_sub @ (l_sub @ h12_sub)
    return (h21_sub @ inner).tocsr()


def incremental_update(
    bundle: SolverArtifacts,
    new_graph: Graph,
    bound_threshold: Optional[float] = None,
) -> Optional[IncrementalResult]:
    """Apply an updated graph to ``bundle`` as a partition-reusing correction.

    Returns ``None`` when ``bound_threshold`` is set and the tracked error
    bound would exceed it — the signal to fall back to a full
    re-preprocess.  Only BePI bundles can be corrected.

    The new bundle serves the *new* graph through the *old* ordering and
    partition; see the module docstring for the bound derivation.
    """
    if bundle.kind != "bepi":
        raise InvalidParameterError(
            f"incremental corrections require a BePI bundle, got {bundle.kind!r}"
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

    # --- Stage 1: H in the old order (the reordering stages are skipped).
    t0 = time.perf_counter()
    reordered = new_graph.permute(perm.order)
    h = build_h_matrix(reordered.adjacency, c)
    timings["build_h"] = time.perf_counter() - t0

    # --- Stage 2: residual + error bound.
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
        dead_cols = sp.csc_matrix(h)[:, n1 + n2:]
        col_abs = np.asarray(np.abs(dead_cols).sum(axis=0)).ravel()
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
    timings["classify"] = time.perf_counter() - t0
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

    # --- Stage 3: refactorize only the H11 blocks whose columns changed.
    # A column of H changes exactly when its node's out-edges changed (row
    # renormalization touches the whole column, nothing else), and the
    # structural stripping of an unchanged column is reproduced verbatim —
    # so untouched blocks keep their old inverted factors bit for bit.
    t0 = time.perf_counter()
    changed_nodes = _changed_rows(bundle.graph.adjacency, new_graph.adjacency)
    changed_pos = perm.positions[changed_nodes]
    spoke_cols = changed_pos[changed_pos < n1]
    affected = (
        np.unique(block_id[spoke_cols]) if spoke_cols.size else
        np.zeros(0, dtype=np.int64)
    )
    starts = _block_ranges(block_sizes)
    if affected.size:
        idx = _gather_index(affected, starts, block_sizes)
        sub = blocks["H11"][idx][:, idx]
        sub_factors = factorize_block_diagonal(sub, block_sizes[affected])
        h11_factors = BlockDiagonalLU(
            l_inv=_splice(pre.h11_factors.l_inv, sub_factors.l_inv, idx, n1),
            u_inv=_splice(pre.h11_factors.u_inv, sub_factors.u_inv, idx, n1),
            block_sizes=block_sizes,
        )
    else:
        h11_factors = pre.h11_factors
    timings["refactorize"] = time.perf_counter() - t0

    # --- Stage 4: low-rank Schur correction over the affected blocks.
    # S' = S + ΔH22 − Σ_{b affected} (C'_b − C_b): a block contributes a
    # changed correction term C_b = H21[:,b] H11[b]^{-1} H12[b,:] when its
    # factors changed or any of its H12 rows / H21 columns did.
    t0 = time.perf_counter()
    old_h12, old_h21, old_h22 = (
        pre.blocks["H12"], pre.blocks["H21"], pre.blocks["H22"]
    )
    if n2 and n1:
        delta_h12_rows = _changed_rows(old_h12, blocks["H12"])
        delta_h21_cols = _changed_rows(
            sp.csr_matrix(old_h21).T.tocsr(),
            sp.csr_matrix(blocks["H21"]).T.tocsr(),
        )
        schur_blocks = np.unique(
            np.concatenate([
                affected,
                block_id[delta_h12_rows] if delta_h12_rows.size else affected[:0],
                block_id[delta_h21_cols] if delta_h21_cols.size else affected[:0],
            ])
        ).astype(np.int64)
    else:
        schur_blocks = np.zeros(0, dtype=np.int64)
    delta_h22 = (sp.csr_matrix(blocks["H22"]) - sp.csr_matrix(old_h22)).tocsr()
    schur = sp.csr_matrix(pre.schur) + delta_h22
    if schur_blocks.size:
        sidx = _gather_index(schur_blocks, starts, block_sizes)
        c_new = _block_correction(
            blocks["H21"], blocks["H12"],
            h11_factors.l_inv, h11_factors.u_inv, sidx,
        )
        c_old = _block_correction(
            old_h21, old_h12,
            pre.h11_factors.l_inv, pre.h11_factors.u_inv, sidx,
        )
        schur = schur - (c_new - c_old)
    schur = schur.tocsr()
    schur.eliminate_zeros()
    schur.sort_indices()
    timings["schur_correction"] = time.perf_counter() - t0

    new_pre = PreprocessArtifacts(
        permutation=perm,
        n1=n1,
        n2=n2,
        n3=n3,
        block_sizes=block_sizes,
        blocks=blocks,
        h11_factors=h11_factors,
        schur=schur,
        hubspoke=pre.hubspoke,
        timings=dict(timings),
        nnz_h22=int(blocks["H22"].nnz),
        nnz_correction=None,
    )
    new_bundle = SolverArtifacts(
        kind=bundle.kind,
        config=dict(bundle.config),
        graph=new_graph,
        preprocess=new_pre,
        # SGS factors of the updated S, if the parent had a preconditioner.
        preconditioner=None if bundle.preconditioner is None else sgs_factors(schur),
    )
    return IncrementalResult(
        bundle=new_bundle,
        error_bound=error_bound,
        n_affected_blocks=int(affected.size),
        n_blocks=int(block_sizes.size),
        seconds=time.perf_counter() - started,
        timings=timings,
    )


def _splice(
    old: sp.spmatrix, sub: sp.spmatrix, idx: np.ndarray, n: int
) -> sp.csr_matrix:
    """Replace the rows/cols ``idx`` of a block-diagonal matrix with ``sub``.

    ``sub`` is the refactorized band in gathered coordinates; because both
    matrices are block diagonal and ``idx`` is a union of whole blocks,
    every replaced entry stays inside ``idx × idx``.
    """
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    old_coo = sp.coo_matrix(old)
    keep = ~mask[old_coo.row]
    sub_coo = sp.coo_matrix(sub)
    rows = np.concatenate([old_coo.row[keep], idx[sub_coo.row]])
    cols = np.concatenate([old_coo.col[keep], idx[sub_coo.col]])
    data = np.concatenate([old_coo.data[keep], sub_coo.data])
    out = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    out.sort_indices()
    return out


# ----------------------------------------------------------------------
# Policy: correction with full-rebuild fallback
# ----------------------------------------------------------------------
@dataclass
class UpdateResult:
    """Outcome of :func:`build_updated_bundle`.

    ``mode`` is ``"incremental"`` (correction applied; ``incremental``
    holds the details) or ``"full"`` (re-preprocessed from scratch;
    ``error_bound`` is ``0.0``).
    """

    mode: str
    bundle: SolverArtifacts
    error_bound: float
    seconds: float
    incremental: Optional[IncrementalResult] = None


def build_updated_bundle(
    bundle: SolverArtifacts,
    new_graph: Graph,
    bound_threshold: float = 0.0,
    force_full: bool = False,
) -> UpdateResult:
    """Updated artifacts for ``new_graph``: correction if the bound allows.

    The incremental path is attempted first (unless ``force_full``); when
    its tracked error bound exceeds ``bound_threshold`` — ``0.0`` admits
    only *exact* corrections — the graph is re-preprocessed in full with a
    solver rebuilt from the bundle's own config, which re-partitions and
    resets the bound.
    """
    started = time.perf_counter()
    if not force_full and bundle.kind == "bepi":
        result = incremental_update(bundle, new_graph, bound_threshold=bound_threshold)
        if result is not None:
            return UpdateResult(
                mode="incremental",
                bundle=result.bundle,
                error_bound=result.error_bound,
                seconds=time.perf_counter() - started,
                incremental=result,
            )
    from repro.persistence import solver_from_config

    solver = solver_from_config(bundle.config)
    solver.preprocess(new_graph)
    return UpdateResult(
        mode="full",
        bundle=solver.solver_artifacts,
        error_bound=0.0,
        seconds=time.perf_counter() - started,
    )
