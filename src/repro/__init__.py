"""BePI reproduction: fast and memory-efficient Random Walk with Restart.

A from-scratch Python implementation of

    Jung, Park, Sael, Kang.
    "BePI: Fast and Memory-Efficient Method for Billion-Scale Random Walk
    with Restart."  SIGMOD 2017.

Quickstart
----------
>>> from repro import BePI, generate_rmat
>>> graph = generate_rmat(8, 1500, seed=7)
>>> solver = BePI(c=0.05).preprocess(graph)
>>> scores = solver.query(0)          # RWR scores of every node w.r.t. node 0
>>> ranking = scores.argsort()[::-1]  # personalized ranking for node 0

Package map
-----------
- :mod:`repro.core` — BePI / BePI-S / BePI-B and the solver interface,
- :mod:`repro.baselines` — Bear, LU, GMRES, power iteration, dense inverse,
- :mod:`repro.graph` — graph container, generators, I/O, components,
- :mod:`repro.reorder` — deadend + SlashBurn hub-and-spoke reordering,
- :mod:`repro.linalg` — GMRES, the SGS preconditioner, triangular solves, block LU,
- :mod:`repro.datasets` — seeded stand-ins for the paper's datasets,
- :mod:`repro.applications` — ranking, link prediction, community detection,
- :mod:`repro.bench` — experiment harness and memory accounting,
- :mod:`repro.persistence` / :mod:`repro.store` / :mod:`repro.serve` — the
  build/serve split: immutable artifact directories, generation store with
  atomic switchover, and multi-process mmap-backed query serving,
- :mod:`repro.wire` / :mod:`repro.gateway` — the multi-host serve tier:
  length-prefixed binary socket protocol and the asyncio gateway
  (request coalescing, admission control, consistent-hash sharding),
- :mod:`repro.core.dynamic` / :mod:`repro.core.incremental` — continuous
  updates: edge-update batches applied as bounded incremental corrections,
  background rebuilds publishing new store generations, hot-swapped into
  the serve tier with zero downtime.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

__version__ = "1.0.0"

#: Every public name, by the module that defines it.  Names load on first
#: use (PEP 562), so ``import repro.serve`` does not pull in the gateway,
#: the update path or the build's dense LAPACK.
_EXPORTS = {
    "repro.approximate.nb_lin": ("NBLinSolver",),
    "repro.baselines.bear": ("BearSolver",),
    "repro.baselines.dense": ("DenseSolver",),
    "repro.baselines.gmres_solver": ("GMRESSolver",),
    "repro.baselines.lu": ("LUSolver",),
    "repro.baselines.power_solver": ("PowerSolver",),
    "repro.bench.memory": ("MemoryBudget",),
    "repro.core.accuracy": ("AccuracyBound", "accuracy_bound", "tolerance_for_target"),
    "repro.core.base": ("BatchQueryResult", "QueryResult", "RWRSolver"),
    "repro.core.bepi": ("BePI", "BePIB", "BePIS"),
    "repro.core.dynamic": ("BackgroundRebuildError", "DynamicRWR"),
    "repro.core.engine": (
        "BearQueryEngine",
        "BePIQueryEngine",
        "LUQueryEngine",
        "QueryEngine",
        "SolverArtifacts",
    ),
    "repro.core.hub_ratio": (
        "HubRatioSelection",
        "choose_hub_ratio",
        "select_hub_ratio",
        "sweep_hub_ratios",
    ),
    "repro.core.incremental": ("IncrementalResult", "UpdateBatch", "incremental_update"),
    "repro.core.topk": ("TopKResult",),
    "repro.exceptions": (
        "ArtifactIntegrityError",
        "ConvergenceError",
        "ConvergenceWarning",
        "GraphFormatError",
        "InvalidParameterError",
        "MemoryBudgetExceededError",
        "NotPreprocessedError",
        "ReproError",
        "SingularMatrixError",
        "TimeBudgetExceededError",
    ),
    "repro.gateway": (
        "BackendError",
        "Gateway",
        "GatewayServer",
        "LocalBackend",
        "Overloaded",
        "PoolServer",
        "QueryError",
        "RemoteBackend",
    ),
    "repro.graph.generators": (
        "add_deadends",
        "generate_bipartite",
        "generate_erdos_renyi",
        "generate_hub_and_spoke",
        "generate_preferential_attachment",
        "generate_rmat",
    ),
    "repro.graph.graph": ("Graph",),
    "repro.graph.io": ("load_edge_list", "save_edge_list"),
    "repro.persistence": (
        "artifact_nbytes",
        "load_artifacts",
        "load_solver",
        "save_artifacts",
        "verify_artifacts",
    ),
    "repro.serve": ("TopKCache", "WorkerPool", "open_query_engine"),
    "repro.store": ("ArtifactStore",),
    "repro.telemetry": ("MetricsRegistry", "merge_snapshots"),
}
_SUBMODULES = ("datasets", "telemetry", "tracing", "wire")

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS, _SUBMODULES)
__all__ += ["__version__"]

if TYPE_CHECKING:
    from repro import datasets as datasets
    from repro import telemetry as telemetry
    from repro import tracing as tracing
    from repro import wire as wire
    from repro.approximate.nb_lin import NBLinSolver as NBLinSolver
    from repro.baselines.bear import BearSolver as BearSolver
    from repro.baselines.dense import DenseSolver as DenseSolver
    from repro.baselines.gmres_solver import GMRESSolver as GMRESSolver
    from repro.baselines.lu import LUSolver as LUSolver
    from repro.baselines.power_solver import PowerSolver as PowerSolver
    from repro.bench.memory import MemoryBudget as MemoryBudget
    from repro.core.accuracy import (
        AccuracyBound as AccuracyBound,
        accuracy_bound as accuracy_bound,
        tolerance_for_target as tolerance_for_target,
    )
    from repro.core.base import (
        BatchQueryResult as BatchQueryResult,
        QueryResult as QueryResult,
        RWRSolver as RWRSolver,
    )
    from repro.core.bepi import (
        BePI as BePI,
        BePIB as BePIB,
        BePIS as BePIS,
    )
    from repro.core.dynamic import (
        BackgroundRebuildError as BackgroundRebuildError,
        DynamicRWR as DynamicRWR,
    )
    from repro.core.engine import (
        BearQueryEngine as BearQueryEngine,
        BePIQueryEngine as BePIQueryEngine,
        LUQueryEngine as LUQueryEngine,
        QueryEngine as QueryEngine,
        SolverArtifacts as SolverArtifacts,
    )
    from repro.core.hub_ratio import (
        HubRatioSelection as HubRatioSelection,
        choose_hub_ratio as choose_hub_ratio,
        select_hub_ratio as select_hub_ratio,
        sweep_hub_ratios as sweep_hub_ratios,
    )
    from repro.core.incremental import (
        IncrementalResult as IncrementalResult,
        UpdateBatch as UpdateBatch,
        incremental_update as incremental_update,
    )
    from repro.core.topk import TopKResult as TopKResult
    from repro.exceptions import (
        ArtifactIntegrityError as ArtifactIntegrityError,
        ConvergenceError as ConvergenceError,
        ConvergenceWarning as ConvergenceWarning,
        GraphFormatError as GraphFormatError,
        InvalidParameterError as InvalidParameterError,
        MemoryBudgetExceededError as MemoryBudgetExceededError,
        NotPreprocessedError as NotPreprocessedError,
        ReproError as ReproError,
        SingularMatrixError as SingularMatrixError,
        TimeBudgetExceededError as TimeBudgetExceededError,
    )
    from repro.gateway import (
        BackendError as BackendError,
        Gateway as Gateway,
        GatewayServer as GatewayServer,
        LocalBackend as LocalBackend,
        Overloaded as Overloaded,
        PoolServer as PoolServer,
        QueryError as QueryError,
        RemoteBackend as RemoteBackend,
    )
    from repro.graph.generators import (
        add_deadends as add_deadends,
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
    from repro.persistence import (
        artifact_nbytes as artifact_nbytes,
        load_artifacts as load_artifacts,
        load_solver as load_solver,
        save_artifacts as save_artifacts,
        verify_artifacts as verify_artifacts,
    )
    from repro.serve import (
        TopKCache as TopKCache,
        WorkerPool as WorkerPool,
        open_query_engine as open_query_engine,
    )
    from repro.store import ArtifactStore as ArtifactStore
    from repro.telemetry import (
        MetricsRegistry as MetricsRegistry,
        merge_snapshots as merge_snapshots,
    )
