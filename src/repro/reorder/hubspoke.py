"""Hub-and-spoke partition of the non-deadend block (Section 3.2.1, Fig. 3c).

SlashBurn picks the hub set; this module derives the spoke *blocks* and the
node ordering BePI needs:

- remove the hubs from the (symmetrized) graph; every weakly connected
  component of the remainder is one spoke block,
- order spokes block by block, then hubs, so the spoke-spoke submatrix
  ``H11`` is block diagonal with one diagonal block per component (edges
  between different components cannot exist once hubs are removed).

``n1`` (spokes), ``n2`` (hubs) and the diagonal block sizes ``n1i`` of the
paper all come from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.reorder.permutation import Permutation
from repro.reorder.slashburn import SlashBurnResult, slashburn


@dataclass(frozen=True)
class HubSpokePartition:
    """Spoke/hub ordering of a graph.

    Attributes
    ----------
    permutation:
        Orders spokes first (grouped into connected blocks), hubs last.
    n_spokes:
        ``n1`` in the paper.
    n_hubs:
        ``n2`` in the paper.
    block_sizes:
        Sizes ``n1i`` of the diagonal blocks of ``H11``; ``sum == n_spokes``.
    slashburn_iterations:
        Hub-removal rounds performed by SlashBurn.
    hub_ratio:
        The ``k`` used for hub selection.
    """

    permutation: Permutation
    n_spokes: int
    n_hubs: int
    block_sizes: np.ndarray
    slashburn_iterations: int
    hub_ratio: float

    @property
    def n_nodes(self) -> int:
        return self.n_spokes + self.n_hubs

    @property
    def n_blocks(self) -> int:
        """``b`` in the paper."""
        return int(self.block_sizes.shape[0])


def _degree_hub_selection(sym, k: float) -> SlashBurnResult:
    """One-shot alternative to SlashBurn: top ``ceil(k n)`` nodes by degree.

    Used by the ordering ablation — it skips the shatter-and-recurse loop,
    so the spoke blocks it induces are typically much larger than
    SlashBurn's.
    """
    import math

    n = sym.shape[0]
    count = max(1, math.ceil(k * n))
    degrees = np.asarray(sym.sum(axis=1)).ravel()
    hubs = np.sort(np.argsort(-degrees, kind="stable")[:count].astype(np.int64))
    mask = np.ones(n, dtype=bool)
    mask[hubs] = False
    return SlashBurnResult(
        hubs=hubs,
        spokes=np.flatnonzero(mask),
        n_iterations=1,
        hubs_per_iteration=count,
    )


def hub_and_spoke_partition(
    graph: Graph,
    k: float,
    slashburn_result: Optional[SlashBurnResult] = None,
    method: str = "slashburn",
) -> HubSpokePartition:
    """Compute the hub-and-spoke ordering of ``graph``.

    Parameters
    ----------
    graph:
        The (non-deadend) graph to reorder.
    k:
        SlashBurn hub selection ratio.
    slashburn_result:
        Pre-computed SlashBurn output to reuse (the hub-ratio sweep of
        BePI-S calls SlashBurn once per candidate ``k``; tests inject known
        hub sets here).
    method:
        ``"slashburn"`` (the paper's choice) or ``"degree"`` — a single
        highest-degree cut used as the ordering ablation baseline.
    """
    from repro.exceptions import InvalidParameterError

    if method not in ("slashburn", "degree"):
        raise InvalidParameterError(
            f"method must be 'slashburn' or 'degree', got {method!r}"
        )
    n = graph.n_nodes
    if n == 0:
        return HubSpokePartition(
            permutation=Permutation.identity(0),
            n_spokes=0,
            n_hubs=0,
            block_sizes=np.empty(0, dtype=np.int64),
            slashburn_iterations=0,
            hub_ratio=k,
        )
    sym = graph.symmetrized()
    if slashburn_result is not None:
        result = slashburn_result
    elif method == "degree":
        result = _degree_hub_selection(sym, k)
    else:
        result = slashburn(sym, k)
    hubs = result.hubs
    spokes = result.spokes

    if spokes.size == 0:
        order = hubs
        block_sizes = np.empty(0, dtype=np.int64)
    else:
        # One diagonal block of H11 per weakly connected component of the
        # hub-free graph.
        spoke_sub = sym[spokes][:, spokes]
        _n_comp, labels = connected_components(spoke_sub)
        by_block = np.argsort(labels, kind="stable")
        ordered_spokes = spokes[by_block]
        block_sizes = np.bincount(labels).astype(np.int64)
        order = np.concatenate([ordered_spokes, hubs])

    return HubSpokePartition(
        permutation=Permutation(order),
        n_spokes=int(spokes.size),
        n_hubs=int(hubs.size),
        block_sizes=block_sizes,
        slashburn_iterations=result.n_iterations,
        hub_ratio=k,
    )
