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

from repro import datasets, telemetry, tracing, wire
from repro.approximate import NBLinSolver
from repro.baselines import BearSolver, DenseSolver, GMRESSolver, LUSolver, PowerSolver
from repro.bench.memory import MemoryBudget
from repro.core.accuracy import AccuracyBound, accuracy_bound, tolerance_for_target
from repro.core.base import BatchQueryResult, QueryResult, RWRSolver
from repro.core.bepi import BePI, BePIB, BePIS
from repro.core.dynamic import BackgroundRebuildError, DynamicRWR
from repro.core.engine import (
    BearQueryEngine,
    BePIQueryEngine,
    LUQueryEngine,
    QueryEngine,
    SolverArtifacts,
)
from repro.core.incremental import (
    IncrementalResult,
    UpdateBatch,
    incremental_update,
)
from repro.core.hub_ratio import (
    HubRatioSelection,
    choose_hub_ratio,
    select_hub_ratio,
    sweep_hub_ratios,
)
from repro.persistence import (
    artifact_nbytes,
    load_artifacts,
    load_solver,
    save_artifacts,
    verify_artifacts,
)
from repro.core.topk import TopKResult
from repro.gateway import (
    BackendError,
    Gateway,
    GatewayServer,
    LocalBackend,
    Overloaded,
    PoolServer,
    QueryError,
    RemoteBackend,
)
from repro.serve import TopKCache, WorkerPool, open_query_engine
from repro.store import ArtifactStore
from repro.telemetry import MetricsRegistry, merge_snapshots
from repro.exceptions import (
    ArtifactIntegrityError,
    ConvergenceError,
    ConvergenceWarning,
    GraphFormatError,
    InvalidParameterError,
    MemoryBudgetExceededError,
    NotPreprocessedError,
    ReproError,
    SingularMatrixError,
    TimeBudgetExceededError,
)
from repro.graph import (
    Graph,
    add_deadends,
    generate_bipartite,
    generate_erdos_renyi,
    generate_hub_and_spoke,
    generate_preferential_attachment,
    generate_rmat,
    load_edge_list,
    save_edge_list,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyBound",
    "ArtifactIntegrityError",
    "ArtifactStore",
    "BackendError",
    "BackgroundRebuildError",
    "BatchQueryResult",
    "BePI",
    "BePIB",
    "BePIQueryEngine",
    "BePIS",
    "BearQueryEngine",
    "BearSolver",
    "ConvergenceError",
    "ConvergenceWarning",
    "DenseSolver",
    "DynamicRWR",
    "GMRESSolver",
    "Gateway",
    "GatewayServer",
    "Graph",
    "GraphFormatError",
    "HubRatioSelection",
    "IncrementalResult",
    "InvalidParameterError",
    "LUQueryEngine",
    "LUSolver",
    "LocalBackend",
    "MemoryBudget",
    "MemoryBudgetExceededError",
    "MetricsRegistry",
    "NBLinSolver",
    "NotPreprocessedError",
    "Overloaded",
    "PoolServer",
    "PowerSolver",
    "QueryEngine",
    "QueryError",
    "QueryResult",
    "RWRSolver",
    "RemoteBackend",
    "ReproError",
    "SingularMatrixError",
    "SolverArtifacts",
    "TimeBudgetExceededError",
    "TopKCache",
    "TopKResult",
    "UpdateBatch",
    "WorkerPool",
    "accuracy_bound",
    "add_deadends",
    "artifact_nbytes",
    "choose_hub_ratio",
    "datasets",
    "generate_bipartite",
    "generate_erdos_renyi",
    "generate_hub_and_spoke",
    "generate_preferential_attachment",
    "generate_rmat",
    "incremental_update",
    "load_artifacts",
    "load_edge_list",
    "load_solver",
    "merge_snapshots",
    "open_query_engine",
    "save_artifacts",
    "save_edge_list",
    "select_hub_ratio",
    "sweep_hub_ratios",
    "telemetry",
    "tolerance_for_target",
    "tracing",
    "verify_artifacts",
    "wire",
    "__version__",
]
