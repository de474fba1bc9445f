"""Node reordering: deadend separation and hub-and-spoke (SlashBurn) ordering.

BePI's preprocessing (Section 3.2 of the paper) rests on two reorderings:

1. :func:`~repro.reorder.deadend.deadend_reorder` places non-deadend nodes
   before deadend nodes, shrinking the linear system to the non-deadend
   block (Eq. 3-4).
2. :func:`~repro.reorder.hubspoke.hub_and_spoke_partition` runs SlashBurn
   (:mod:`repro.reorder.slashburn`) on the non-deadend subgraph and orders
   spokes (grouped into connected blocks) before hubs, making ``H11`` block
   diagonal (Fig. 3).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

# Bound eagerly: ``slashburn`` shares its name with repro.reorder.slashburn, and
# importing that module would bind the module here instead.
from repro.reorder.slashburn import slashburn as slashburn

_EXPORTS = {
    "repro.reorder.deadend": ("DeadendSplit", "deadend_reorder"),
    "repro.reorder.hubspoke": ("HubSpokePartition", "hub_and_spoke_partition"),
    "repro.reorder.permutation": ("Permutation",),
    "repro.reorder.slashburn": ("SlashBurnResult", "slashburn"),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.reorder.deadend import (
        DeadendSplit as DeadendSplit,
        deadend_reorder as deadend_reorder,
    )
    from repro.reorder.hubspoke import (
        HubSpokePartition as HubSpokePartition,
        hub_and_spoke_partition as hub_and_spoke_partition,
    )
    from repro.reorder.permutation import Permutation as Permutation
    from repro.reorder.slashburn import SlashBurnResult as SlashBurnResult
