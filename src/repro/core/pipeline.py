"""Shared preprocessing pipeline (Algorithm 1 / 3, lines 1-6), staged.

Both the BePI solver variants and the hub-ratio sweep of Section 3.4 need
the same sequence — deadend reorder, hub-and-spoke reorder, ``H`` assembly
and partitioning, block-diagonal LU of ``H11``, Schur complement — so it
lives here once, producing a :class:`PreprocessArtifacts` bundle.

The pipeline is split into reusable stages:

- :func:`run_deadend_stage` computes everything *independent of the hub
  ratio ``k``* — the deadend split, the deadend-permuted graph, and the
  non-deadend subgraph ``A_nn`` SlashBurn runs on.  The hub-ratio sweep
  runs it **once** and shares the resulting :class:`DeadendStage` across
  all candidate ``k`` via ``build_artifacts(..., deadend_stage=...)``.
- :func:`build_artifacts` runs the remaining ``k``-dependent stages and
  records the Schur sparsity breakdown (``nnz_h22`` / ``nnz_correction``)
  as build by-products, so sweeps never recompute the correction term.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.schur import compute_schur_complement_parts
from repro.exceptions import InvalidParameterError
from repro.graph.graph import Graph
from repro.linalg.block_lu import BlockDiagonalLU, factorize_block_diagonal
from repro.linalg.rwr_matrix import build_h_matrix, partition_h
from repro.reorder.deadend import deadend_reorder
from repro.reorder.hubspoke import HubSpokePartition, hub_and_spoke_partition
from repro.reorder.permutation import Permutation


@dataclass(frozen=True)
class DeadendStage:
    """The ``k``-independent prefix of Algorithm 1 (lines 1-2, deadend part).

    Attributes
    ----------
    permutation:
        Deadend split permutation over original ids (non-deadends first).
    n_non_deadends, n_deadends:
        Node counts on either side of the split.
    nondeadend_graph:
        The non-deadend subgraph ``A_nn`` in deadend order — the input to
        every hub-and-spoke reordering, whatever the hub ratio.
    seconds:
        Wall-clock cost of the stage (paid once per sweep).
    reordered:
        Whether deadend reordering was actually applied (``False`` for the
        Section 3.2.1 ablation, where the split is the identity).
    """

    permutation: Permutation
    n_non_deadends: int
    n_deadends: int
    nondeadend_graph: Graph
    seconds: float
    reordered: bool

    @property
    def n_nodes(self) -> int:
        return self.n_non_deadends + self.n_deadends


@dataclass
class PreprocessArtifacts:
    """Everything Algorithm 1 computes before the (optional) ILU step.

    Attributes
    ----------
    permutation:
        Total node ordering (spokes, hubs, deadends) over original ids.
    n1, n2, n3:
        Spoke / hub / deadend counts.
    block_sizes:
        Diagonal block sizes of ``H11``.
    blocks:
        The ``H`` blocks of Eq. 5, in reordered coordinates.
    h11_factors:
        Inverted LU factors of ``H11``.
    schur:
        The Schur complement ``S``.
    hubspoke:
        The hub-and-spoke partition metadata (SlashBurn iterations, ``k``).
    timings:
        Per-stage wall-clock seconds.
    nnz_h22, nnz_correction:
        Non-zero counts of ``H22`` and of ``H21 H11^{-1} H12`` (the two
        sides of the Section 3.4 bound), recorded as Schur-build
        by-products; ``None`` on artifacts loaded from an artifact
        directory.
    """

    permutation: Permutation
    n1: int
    n2: int
    n3: int
    block_sizes: np.ndarray
    blocks: Dict[str, sp.csr_matrix]
    h11_factors: BlockDiagonalLU
    schur: sp.csr_matrix
    hubspoke: HubSpokePartition
    timings: Dict[str, float] = field(default_factory=dict)
    nnz_h22: Optional[int] = None
    nnz_correction: Optional[int] = None


def run_deadend_stage(graph: Graph, deadend_reordering: bool = True) -> DeadendStage:
    """Run the hub-ratio-independent prefix of Algorithm 1 on ``graph``.

    The output is identical for every hub ratio, so sweeps compute it once
    and pass it to :func:`build_artifacts` for each candidate ``k``.
    """
    start = time.perf_counter()
    if deadend_reordering:
        dead = deadend_reorder(graph)
        dead_permutation = dead.permutation
        n_nd, n3 = dead.n_non_deadends, dead.n_deadends
    else:
        dead_permutation = Permutation.identity(graph.n_nodes)
        n_nd, n3 = graph.n_nodes, 0
    graph_d = graph.permute(dead_permutation.order)
    # Hub-and-spoke reordering runs on the non-deadend subgraph A_nn only
    # (Algorithm 1, line 2); the adjacency pattern is all SlashBurn needs.
    ann = Graph(graph_d.adjacency[:n_nd, :n_nd])
    seconds = time.perf_counter() - start
    return DeadendStage(
        permutation=dead_permutation,
        n_non_deadends=n_nd,
        n_deadends=n3,
        nondeadend_graph=ann,
        seconds=seconds,
        reordered=deadend_reordering,
    )


def build_artifacts(
    graph: Graph,
    c: float,
    hub_ratio: float,
    deadend_reordering: bool = True,
    hub_selection: str = "slashburn",
    deadend_stage: Optional[DeadendStage] = None,
) -> PreprocessArtifacts:
    """Run Algorithm 1 lines 1-6 on ``graph``.

    Parameters
    ----------
    graph:
        Input graph in original node order.
    c:
        Restart probability.
    hub_ratio:
        SlashBurn hub selection ratio ``k``.
    deadend_reordering:
        Disable to keep deadends inside the hub-and-spoke blocks (the
        Section 3.2.1 ablation); the result is still correct, just with
        ``n3 = 0`` and a larger non-deadend system.
    hub_selection:
        ``"slashburn"`` or ``"degree"`` (ordering ablation; see
        :func:`repro.reorder.hubspoke.hub_and_spoke_partition`).
    deadend_stage:
        Pre-computed :func:`run_deadend_stage` output to reuse (the
        hub-ratio sweep shares one across all candidates).  Must come from
        the same ``graph`` and ``deadend_reordering`` setting.
    """
    timings: Dict[str, float] = {}

    if deadend_stage is None:
        deadend_stage = run_deadend_stage(graph, deadend_reordering)
    elif (
        deadend_stage.reordered != deadend_reordering
        or deadend_stage.n_nodes != graph.n_nodes
    ):
        raise InvalidParameterError(
            "deadend_stage does not match this graph / deadend_reordering setting"
        )
    timings["deadend_reorder"] = deadend_stage.seconds
    n_nd, n3 = deadend_stage.n_non_deadends, deadend_stage.n_deadends
    dead_permutation = deadend_stage.permutation

    start = time.perf_counter()
    hubspoke = hub_and_spoke_partition(
        deadend_stage.nondeadend_graph, hub_ratio, method=hub_selection
    )
    timings["hub_and_spoke_reorder"] = time.perf_counter() - start
    assert n_nd == hubspoke.n_nodes

    # Lift the non-deadend permutation to the full graph and compose with
    # the deadend split: total order = deadend order refined by hub/spoke.
    embedded = hubspoke.permutation.extend_with_offset(graph.n_nodes, 0)
    total = Permutation(dead_permutation.order[embedded.order])

    start = time.perf_counter()
    reordered = graph.permute(total.order)
    h = build_h_matrix(reordered.adjacency, c)
    blocks = partition_h(h, hubspoke.n_spokes, hubspoke.n_hubs, n3)
    timings["build_and_partition_h"] = time.perf_counter() - start

    start = time.perf_counter()
    h11_factors = factorize_block_diagonal(blocks["H11"], hubspoke.block_sizes)
    timings["factorize_h11"] = time.perf_counter() - start

    start = time.perf_counter()
    schur_parts = compute_schur_complement_parts(blocks, h11_factors)
    timings["schur_complement"] = time.perf_counter() - start

    return PreprocessArtifacts(
        permutation=total,
        n1=hubspoke.n_spokes,
        n2=hubspoke.n_hubs,
        n3=n3,
        block_sizes=hubspoke.block_sizes,
        blocks=blocks,
        h11_factors=h11_factors,
        schur=schur_parts.schur,
        hubspoke=hubspoke,
        timings=timings,
        nnz_h22=schur_parts.nnz_h22,
        nnz_correction=schur_parts.nnz_correction,
    )
