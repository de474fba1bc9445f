"""Graph substrate: containers, I/O, generators, and structural algorithms.

This subpackage is the foundation the RWR solvers are built on.  It provides

- :class:`~repro.graph.graph.Graph` — an immutable directed graph backed by a
  CSR adjacency matrix,
- edge-list I/O (:mod:`repro.graph.io`),
- synthetic generators used as stand-ins for the paper's datasets
  (:mod:`repro.graph.generators`),
- connected components implemented from scratch
  (:mod:`repro.graph.components`),
- structural statistics (:mod:`repro.graph.stats`).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

_EXPORTS = {
    "repro.graph.cleaning": (
        "compact_node_ids",
        "largest_connected_component",
        "make_undirected",
        "prepare_for_rwr",
        "remove_isolated_nodes",
    ),
    "repro.graph.components": (
        "breadth_first_order",
        "connected_components",
        "giant_component_mask",
    ),
    "repro.graph.generators": (
        "add_deadends",
        "ensure_no_deadends",
        "generate_bipartite",
        "generate_erdos_renyi",
        "generate_hub_and_spoke",
        "generate_preferential_attachment",
        "generate_rmat",
    ),
    "repro.graph.graph": ("Graph",),
    "repro.graph.io": ("load_edge_list", "save_edge_list"),
    "repro.graph.stats": ("GraphStats", "compute_stats"),
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)

if TYPE_CHECKING:
    from repro.graph.cleaning import (
        compact_node_ids as compact_node_ids,
        largest_connected_component as largest_connected_component,
        make_undirected as make_undirected,
        prepare_for_rwr as prepare_for_rwr,
        remove_isolated_nodes as remove_isolated_nodes,
    )
    from repro.graph.components import (
        breadth_first_order as breadth_first_order,
        connected_components as connected_components,
        giant_component_mask as giant_component_mask,
    )
    from repro.graph.generators import (
        add_deadends as add_deadends,
        ensure_no_deadends as ensure_no_deadends,
        generate_bipartite as generate_bipartite,
        generate_erdos_renyi as generate_erdos_renyi,
        generate_hub_and_spoke as generate_hub_and_spoke,
        generate_preferential_attachment as generate_preferential_attachment,
        generate_rmat as generate_rmat,
    )
    from repro.graph.graph import Graph as Graph
    from repro.graph.io import (
        load_edge_list as load_edge_list,
        save_edge_list as save_edge_list,
    )
    from repro.graph.stats import (
        GraphStats as GraphStats,
        compute_stats as compute_stats,
    )
