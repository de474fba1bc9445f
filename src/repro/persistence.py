"""Saving and loading preprocessed BePI solvers.

The whole point of a preprocessing method is to pay the reordering /
factorization cost once and then serve queries indefinitely — including
from other processes and after restarts.  :func:`save_artifacts` writes
one on-disk format (v4): a *directory* holding ``manifest.json`` plus one
raw ``.npy`` file per array under ``arrays/``.

- Loading with ``mmap=True`` (the default) memory-maps every array
  read-only and reassembles the CSR blocks **zero-copy**, so any number of
  worker processes opening the same directory share physical pages through
  the OS page cache.  Index arrays keep their in-memory dtype (typically
  ``int32``) so scipy reuses the mapped buffers instead of copying.
- The manifest carries a SHA-256 checksum of every array file.
  :func:`load_artifacts` verifies them before reassembly (``verify=False``
  skips, for benchmarks that measure pure open cost), so a flipped bit on
  disk surfaces as :class:`~repro.exceptions.ArtifactIntegrityError` at
  load time instead of as silently wrong scores;
  :class:`repro.store.ArtifactStore` quarantines such generations and
  rolls back.

Only matrices the query phase needs are stored — the same list the
paper's Algorithm 3 returns, which holds ``L1^{-1}`` / ``U1^{-1}`` and
``S`` but neither ``H11`` nor ``H22`` — plus the adjacency the update
path rebuilds every ``H`` block from, so file size tracks
:meth:`~repro.core.base.RWRSolver.memory_bytes` plus the graph.

:func:`load_solver` turns an artifact directory, or the current generation
of a store root, back into a query-ready solver.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.bepi import BePI
from repro.core.engine import SolverArtifacts
from repro.core.pipeline import PreprocessArtifacts
from repro.exceptions import (
    ArtifactIntegrityError,
    GraphFormatError,
    NotPreprocessedError,
)
from repro.graph.graph import Graph
from repro.linalg.block_lu import BlockDiagonalLU
from repro.linalg.ilu import ILUFactors
from repro.reorder.hubspoke import HubSpokePartition
from repro.reorder.permutation import Permutation

PathLike = Union[str, os.PathLike]

_ARTIFACT_FORMAT_VERSION = 4

#: Blocks the query phase (Algorithm 4) actually reads; ``H11`` is covered
#: by its inverted LU factors and ``H22`` by ``S``, so neither is persisted.
#: Bundles written before ``H22`` was dropped still name it; its files are
#: verified with the rest but not read.
_STORED_BLOCKS = ("H12", "H21", "H31", "H32")

_MANIFEST_NAME = "manifest.json"
_ARRAYS_DIR = "arrays"


#: Solver settings earlier bundles record that are no longer options, with
#: the one value this version still serves.  A bundle naming another value
#: is refused.  Their keys are dropped from a loaded config, and so is
#: ``fallback_chain``: the engine's safety net now always runs.
_RETIRED_SETTINGS = {"ilu_engine": "sgs", "iterative_method": "gmres"}
_RETIRED_KEYS = (*_RETIRED_SETTINGS, "fallback_chain")

#: Prefix of the row/column permutation arrays that the removed permuting
#: (SuperLU) ILU engine stored.  The preconditioner is now derived from
#: ``S`` itself, unpermuted, so a bundle naming such an array is refused.
_PERMUTATION_PREFIX = "perm_"


def _refuse_retired_bundle(root: Path, manifest: Dict[str, Any]) -> None:
    """Raise :class:`GraphFormatError` for a bundle this version cannot apply.

    That includes ``ilu0`` bundles, whose stored ILU(0) factors are not the
    preconditioner this version derives from ``S``, and bundles built with
    the retired Jacobi preconditioner or the retired second Krylov method.
    """
    for key, served in _RETIRED_SETTINGS.items():
        value = manifest["config"].get(key, served)
        if value != served:
            raise GraphFormatError(
                f"{root}: built with {key} {value!r}, which is no longer "
                f"supported (only {served!r}); rebuild the artifacts"
            )
    kind = manifest["preconditioner_kind"]
    if kind not in ("ilu", "none"):
        raise GraphFormatError(
            f"{root}: preconditioner_kind {kind!r} is no longer supported; "
            "rebuild the artifacts"
        )
    retired = sorted(n for n in manifest["checksums"] if n.startswith(_PERMUTATION_PREFIX))
    if retired:
        raise GraphFormatError(
            f"{root}: manifest names {', '.join(retired)}, the permutations of "
            "a permuted ILU, which is no longer supported; rebuild the artifacts"
        )


def _require_bepi_bundle(source: Union[BePI, SolverArtifacts]) -> SolverArtifacts:
    if isinstance(source, SolverArtifacts):
        bundle = source
    else:
        if not source.is_preprocessed:
            raise NotPreprocessedError("cannot save a solver before preprocess()")
        bundle = source.solver_artifacts
    if bundle.kind != "bepi":
        raise GraphFormatError(
            f"only BePI bundles can be persisted, got kind={bundle.kind!r}"
        )
    return bundle


def _sha256_file(path: Path) -> str:
    """Streaming SHA-256 of a file (arrays can be larger than RAM)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_artifacts(directory: PathLike) -> int:
    """Check every array file an artifact directory's manifest names.

    Returns the number of files verified.

    Raises
    ------
    ArtifactIntegrityError
        Naming the first array file whose bytes do not match the manifest,
        or that the manifest names but is missing on disk.
    """
    root = Path(directory)
    manifest = _read_manifest(root)
    checksums: Dict[str, str] = manifest["checksums"]
    arrays_dir = root / _ARRAYS_DIR
    for filename in sorted(checksums):
        target = arrays_dir / filename
        if not target.is_file():
            raise ArtifactIntegrityError(
                f"{root}: manifest names {_ARRAYS_DIR}/{filename} but the "
                "file is missing"
            )
        actual = _sha256_file(target)
        expected = checksums[filename]
        if actual != expected:
            raise ArtifactIntegrityError(
                f"{root}: {_ARRAYS_DIR}/{filename} is corrupt "
                f"(sha256 {actual} != manifest {expected})"
            )
    return len(checksums)


def save_artifacts(
    source: Union[BePI, SolverArtifacts],
    directory: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write an immutable artifact directory (format v4) for serving.

    Layout: ``<directory>/manifest.json`` plus ``<directory>/arrays/`` with
    one raw ``.npy`` file per array.  CSR index arrays are written in their
    native in-memory dtype (``int32`` for all practically-sized graphs) so
    that :func:`load_artifacts` can hand the memory-mapped buffers to scipy
    without a dtype-conversion copy.

    The manifest is written *last* and carries a SHA-256 checksum of every
    array file, so a reader that finds one can trust — and verify — every
    array file it names (the generation-level atomicity for live swaps is
    handled by :class:`repro.store.ArtifactStore` on top).

    ``metadata`` (optional, JSON-serializable) is recorded verbatim under
    the manifest's ``"lineage"`` key.  The dynamic-update pipeline uses it
    for generation provenance: parent generation name, update-batch
    digest, correction error bound, and rebuild mode.

    Accepts a preprocessed :class:`~repro.core.bepi.BePI` solver or its
    :class:`~repro.core.engine.SolverArtifacts` bundle; returns the
    directory path.
    """
    bundle = _require_bepi_bundle(source)
    artifacts = bundle.preprocess

    root = Path(directory)
    arrays_dir = root / _ARRAYS_DIR
    arrays_dir.mkdir(parents=True, exist_ok=True)

    csr_shapes: Dict[str, list] = {}
    checksums: Dict[str, str] = {}

    def write_dense(name: str, array: np.ndarray) -> None:
        target = arrays_dir / f"{name}.npy"
        np.save(target, np.ascontiguousarray(array))
        checksums[target.name] = _sha256_file(target)

    def write_csr(name: str, matrix: sp.spmatrix) -> None:
        csr = sp.csr_matrix(matrix)
        csr.sort_indices()
        write_dense(f"{name}.data", csr.data)
        write_dense(f"{name}.indices", csr.indices)
        write_dense(f"{name}.indptr", csr.indptr)
        csr_shapes[name] = [int(csr.shape[0]), int(csr.shape[1])]

    write_dense("permutation_order", artifacts.permutation.order)
    write_dense("block_sizes", artifacts.block_sizes)
    write_csr("adjacency", bundle.graph.adjacency)
    write_csr("L1_inv", artifacts.h11_factors.l_inv)
    write_csr("U1_inv", artifacts.h11_factors.u_inv)
    write_csr("S", artifacts.schur)
    for block in _STORED_BLOCKS:
        write_csr(block, artifacts.blocks[block])

    manifest = {
        "format_version": _ARTIFACT_FORMAT_VERSION,
        "kind": bundle.kind,
        "config": dict(bundle.config),
        "n1": artifacts.n1,
        "n2": artifacts.n2,
        "n3": artifacts.n3,
        "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
        "hub_ratio": artifacts.hubspoke.hub_ratio,
        # SGS factors are derived from S at load, so none are stored.
        "preconditioner_kind": "none" if bundle.preconditioner is None else "ilu",
        "csr_shapes": csr_shapes,
        "checksums": checksums,
    }
    if metadata is not None:
        manifest["lineage"] = dict(metadata)
    manifest_tmp = root / (_MANIFEST_NAME + ".tmp")
    manifest_tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(manifest_tmp, root / _MANIFEST_NAME)
    # A previous save into this directory may have written arrays this
    # bundle does not have (e.g. a retired preconditioner's).  Drop
    # them only once the new manifest is in place, so no manifest on disk
    # ever names a deleted file.
    for stale in arrays_dir.glob("*.npy"):
        if stale.name not in checksums:
            stale.unlink()
    return root


def _read_manifest(directory: Path) -> Dict[str, Any]:
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise GraphFormatError(f"{directory}: not an artifact directory (no manifest)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise GraphFormatError(f"{directory}: unreadable manifest ({exc})") from exc
    if manifest.get("format_version") != _ARTIFACT_FORMAT_VERSION:
        raise GraphFormatError(
            f"{directory}: unsupported artifact format version "
            f"{manifest.get('format_version')}"
        )
    return manifest


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """The parsed (and version-checked) manifest of an artifact directory.

    Exposes the provenance fields without loading any array — in
    particular the ``"lineage"`` dict the dynamic-update pipeline writes
    (parent generation, update-batch digest, error bound, rebuild mode;
    absent on generations published outside that pipeline).
    """
    return _read_manifest(Path(directory))


def load_artifacts(
    directory: PathLike, mmap: bool = True, verify: bool = True
) -> SolverArtifacts:
    """Open an artifact directory written by :func:`save_artifacts`.

    With ``mmap=True`` (default) every array is ``np.load(mmap_mode="r")``
    memory-mapped read-only and the CSR blocks are assembled **zero-copy**
    around the mapped buffers: nothing is read from disk until a query
    touches it, the OS page cache shares resident pages between all
    processes serving the same directory, and the read-only mapping makes
    the bundle immutable by construction (writes raise).

    With ``verify=True`` (default) every array file is hashed against the
    manifest's SHA-256 checksums before reassembly and a mismatch raises
    :class:`ArtifactIntegrityError`.  Pass ``verify=False`` when measuring
    pure open cost — verification reads every byte, which defeats mmap
    laziness.
    """
    root = Path(directory)
    manifest = _read_manifest(root)
    _refuse_retired_bundle(root, manifest)
    if verify:
        verify_artifacts(root)
    arrays_dir = root / _ARRAYS_DIR
    mode = "r" if mmap else None

    def read(name: str) -> np.ndarray:
        return np.load(arrays_dir / f"{name}.npy", mmap_mode=mode)

    def read_csr(name: str) -> sp.csr_matrix:
        shape = tuple(manifest["csr_shapes"][name])
        return sp.csr_matrix(
            (read(f"{name}.data"), read(f"{name}.indices"), read(f"{name}.indptr")),
            shape=shape,
        )

    graph = Graph.from_canonical_csr(read_csr("adjacency"))
    blocks = {name: read_csr(name) for name in _STORED_BLOCKS}
    block_sizes = read("block_sizes")
    h11_factors = BlockDiagonalLU(
        l_inv=read_csr("L1_inv"),
        u_inv=read_csr("U1_inv"),
        block_sizes=block_sizes,
    )
    schur = read_csr("S")
    permutation = Permutation(read("permutation_order"))
    # The deadend split keeps the non-deadends in id order, so the
    # hub-and-spoke ordering of that subgraph is the rank of each
    # non-deadend id, read off the total order's first n1 + n2 entries.
    # (Older bundles also store it as hubspoke_order.npy; it is not read.)
    head = permutation.order[: manifest["n1"] + manifest["n2"]]
    hubspoke = HubSpokePartition(
        permutation=Permutation(np.searchsorted(np.sort(head), head)),
        n_spokes=manifest["n1"],
        n_hubs=manifest["n2"],
        block_sizes=block_sizes,
        slashburn_iterations=manifest["slashburn_iterations"],
        hub_ratio=manifest["hub_ratio"],
    )
    artifacts = PreprocessArtifacts(
        permutation=permutation,
        n1=manifest["n1"],
        n2=manifest["n2"],
        n3=manifest["n3"],
        block_sizes=block_sizes,
        blocks=blocks,
        h11_factors=h11_factors,
        schur=schur,
        hubspoke=hubspoke,
    )

    preconditioner = None
    if manifest["preconditioner_kind"] == "ilu":
        preconditioner = ILUFactors(schur)

    return SolverArtifacts(
        kind=manifest["kind"],
        config={
            key: value
            for key, value in manifest["config"].items()
            if key not in _RETIRED_KEYS
        },
        graph=graph,
        preprocess=artifacts,
        preconditioner=preconditioner,
        source=root,
    )


def artifact_nbytes(directory: PathLike) -> int:
    """Total bytes of the array files an artifact directory's manifest names."""
    root = Path(directory)
    arrays_dir = root / _ARRAYS_DIR
    return sum(
        (arrays_dir / name).stat().st_size
        for name in _read_manifest(root)["checksums"]
    )


# ----------------------------------------------------------------------
# Solvers from bundles
# ----------------------------------------------------------------------
def solver_from_config(config: Dict[str, Any]) -> BePI:
    """A fresh (un-preprocessed) BePI matching an artifact bundle's config.

    Used wherever a rebuild must reproduce the build policy of an existing
    bundle without holding the original solver object — the background
    rebuilder and the full-rebuild fallback of the incremental engine.
    """
    return BePI(
        c=config["c"],
        tol=config["tol"],
        hub_ratio=config["hub_ratio"],
        use_preconditioner=config["use_preconditioner"],
        gmres_restart=config.get("gmres_restart"),
        max_iterations=config.get("max_iterations"),
    )


def solver_from_bundle(bundle: SolverArtifacts, source: str) -> BePI:
    """Rebuild a query-ready BePI around a loaded artifact bundle."""
    config = bundle.config
    solver = solver_from_config(config)
    artifacts = bundle.preprocess
    # Same end state as preprocess(): graph set, matrices retained, engine
    # built — via the one code path _preprocess itself uses.
    solver._graph = bundle.graph
    solver._install_artifacts(bundle)
    solver.stats.update(
        {
            "hub_ratio": config["hub_ratio"],
            "n1": artifacts.n1,
            "n2": artifacts.n2,
            "n3": artifacts.n3,
            "n_blocks": int(np.asarray(artifacts.block_sizes).shape[0]),
            "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
            "nnz_schur": int(artifacts.schur.nnz),
            "preconditioned": bundle.preconditioner is not None,
            "loaded_from": source,
            "preprocess_seconds": 0.0,
            "memory_bytes": solver.memory_bytes(),
            "queries": 0,
            "unconverged_queries": 0,
        }
    )
    return solver


def load_solver(path: PathLike, mmap: bool = True, verify: bool = True) -> BePI:
    """Load a solver from an artifact directory or a store root.

    A directory is opened as in :func:`load_artifacts`; a store root
    through :meth:`repro.store.ArtifactStore.open_current`, so a corrupt
    current generation is quarantined and the last good one loaded
    instead.  Either way the result is a query-ready
    :class:`~repro.core.bepi.BePI` in the same state ``preprocess`` leaves.

    Raises
    ------
    GraphFormatError
        If the path is neither, or its format version is unsupported.
    """
    from repro.store import open_artifacts  # repro.store imports this module

    bundle = open_artifacts(path, mmap=mmap, verify=verify)
    return solver_from_bundle(bundle, str(path))
