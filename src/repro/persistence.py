"""Saving and loading preprocessed BePI solvers.

The whole point of a preprocessing method is to pay the reordering /
factorization cost once and then serve queries indefinitely — including
from other processes and after restarts.  Two on-disk representations are
supported:

- :func:`save_solver` / :func:`load_solver` — a single compressed ``.npz``
  archive (format v2).  Compact and portable, but loading decompresses
  every matrix into private process memory.
- :func:`save_artifacts` / :func:`load_artifacts` — a *directory* holding
  ``manifest.json`` plus one raw ``.npy`` file per array (format v3).
  Loading with ``mmap=True`` (the default) memory-maps every array
  read-only and reassembles the CSR blocks **zero-copy**, so any number of
  worker processes opening the same directory share physical pages through
  the OS page cache.  This is the serving format used by
  :mod:`repro.serve`.

Only matrices the query phase needs are stored — the same list the
paper's Algorithm 3 returns — so file size tracks
:meth:`~repro.core.base.RWRSolver.memory_bytes`.

Format history
--------------
- **v4** (current, directory): v3 plus per-array SHA-256 checksums in the
  manifest.  :func:`load_artifacts` verifies every array file against them
  before reassembly (``verify=False`` skips, for benchmarks that measure
  pure open cost), so a flipped bit on disk surfaces as
  :class:`~repro.exceptions.ArtifactIntegrityError` at load time instead
  of as silently wrong scores; :class:`repro.store.ArtifactStore`
  quarantines such generations and rolls back.
- **v3** (directory): raw ``.npy`` per array + ``manifest.json``,
  designed for ``np.load(mmap_mode="r")``.  Index arrays keep their
  in-memory dtype (typically ``int32``) so scipy reuses the mapped buffers
  instead of copying.  Stores the real hub-and-spoke ordering.  Still
  loadable; with no stored checksums verification is skipped.
- **v2** (``.npz``): drops the ``H11`` block.  Algorithm 3's output list
  and the query phase only ever use the *inverted factors* ``L1^{-1}`` /
  ``U1^{-1}``, so storing ``H11`` was pure file bloat scaling with the
  biggest spoke block.  Archives written since the ``hubspoke_order``
  field also carry the real hub-and-spoke ordering; on older archives the
  loaded partition reports ``permutation=None`` rather than inventing one.
- **v1** (``.npz``): stored all six ``H`` blocks including ``H11``.  Still
  loadable; the stored ``H11`` is simply ignored.

:func:`load_solver` reads all three through one entry point: pass either
an archive path (``.npz`` suffix optional) or an artifact directory.
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
from repro.linalg.preconditioners import JacobiPreconditioner
from repro.reorder.hubspoke import HubSpokePartition
from repro.reorder.permutation import Permutation

PathLike = Union[str, os.PathLike]

_FORMAT_VERSION = 2
_ARTIFACT_FORMAT_VERSION = 4

#: Directory-format versions ``load_artifacts`` accepts.  v3 predates the
#: per-array checksums; its arrays load unverified.
_SUPPORTED_ARTIFACT_VERSIONS = (3, 4)

#: Versions ``load_solver`` accepts for ``.npz`` archives.  v1 archives
#: additionally contain the (unused) ``H11`` block; it is ignored on load.
_SUPPORTED_VERSIONS = (1, 2)

#: Blocks the query phase (Algorithm 4) actually reads; ``H11`` is covered
#: by its inverted LU factors and is deliberately not persisted.
_STORED_BLOCKS = ("H12", "H21", "H22", "H31", "H32")

#: CSR matrices every artifact directory contains, beyond the ``H`` blocks.
_CSR_MATRICES = ("adjacency", "L1_inv", "U1_inv", "S") + _STORED_BLOCKS

_MANIFEST_NAME = "manifest.json"
_ARRAYS_DIR = "arrays"


def _normalize_npz_path(path: PathLike) -> Path:
    """The path ``np.savez_compressed`` actually writes to.

    numpy silently appends ``.npz`` when the suffix is missing, which used
    to leave ``save_solver(s, "model")`` and ``load_solver("model")``
    disagreeing about the file name.  Both directions now normalize here.
    """
    p = Path(path)
    if p.suffix != ".npz":
        p = p.with_name(p.name + ".npz")
    return p


def _pack_csr(arrays: dict, name: str, matrix: sp.spmatrix) -> None:
    csr = sp.csr_matrix(matrix)
    arrays[f"{name}_data"] = csr.data
    arrays[f"{name}_indices"] = csr.indices
    arrays[f"{name}_indptr"] = csr.indptr
    arrays[f"{name}_shape"] = np.asarray(csr.shape, dtype=np.int64)


def _unpack_csr(archive, name: str) -> sp.csr_matrix:
    return sp.csr_matrix(
        (archive[f"{name}_data"], archive[f"{name}_indices"], archive[f"{name}_indptr"]),
        shape=tuple(archive[f"{name}_shape"]),
    )


def _preconditioner_kind(preconditioner: Any) -> str:
    if preconditioner is None:
        return "none"
    if isinstance(preconditioner, JacobiPreconditioner):
        return "jacobi"
    return "ilu"


#: Optional :class:`ILUFactors` fields, stored (under the same names) only
#: for engines that permute, e.g. ``spilu``.
_ILU_PERMUTATIONS = ("perm_r", "perm_c")


def _ilu_permutations(factors: ILUFactors) -> Dict[str, np.ndarray]:
    """The permutation arrays ``factors`` carries, by field name."""
    return {
        name: getattr(factors, name)
        for name in _ILU_PERMUTATIONS
        if getattr(factors, name) is not None
    }


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


# ----------------------------------------------------------------------
# v2: single compressed .npz archive
# ----------------------------------------------------------------------
def save_solver(solver: BePI, path: PathLike) -> Path:
    """Serialize a preprocessed BePI solver to ``path`` (``.npz``).

    A missing ``.npz`` suffix is appended (numpy would do so silently
    anyway); the actual file path is returned so callers can hand it to
    :func:`load_solver` verbatim.

    Raises
    ------
    NotPreprocessedError
        If the solver has not been preprocessed.
    """
    bundle = _require_bepi_bundle(solver)
    artifacts = bundle.preprocess
    target = _normalize_npz_path(path)

    meta = {
        "format_version": _FORMAT_VERSION,
        "c": solver.c,
        "tol": solver.tol,
        "hub_ratio": solver.stats.get("hub_ratio"),
        "use_preconditioner": solver.use_preconditioner,
        "ilu_engine": solver.ilu_engine,
        "iterative_method": solver.iterative_method,
        "n1": artifacts.n1,
        "n2": artifacts.n2,
        "n3": artifacts.n3,
        "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
        "preconditioner_kind": _preconditioner_kind(bundle.preconditioner),
    }

    arrays: dict = {
        "meta_json": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "permutation_order": artifacts.permutation.order,
        "block_sizes": artifacts.block_sizes,
    }
    if artifacts.hubspoke.permutation is not None:
        arrays["hubspoke_order"] = artifacts.hubspoke.permutation.order
    _pack_csr(arrays, "adjacency", bundle.graph.adjacency)
    _pack_csr(arrays, "L1_inv", artifacts.h11_factors.l_inv)
    _pack_csr(arrays, "U1_inv", artifacts.h11_factors.u_inv)
    _pack_csr(arrays, "S", artifacts.schur)
    for block in _STORED_BLOCKS:
        _pack_csr(arrays, block, artifacts.blocks[block])
    if isinstance(bundle.preconditioner, ILUFactors):
        _pack_csr(arrays, "L2", bundle.preconditioner.l)
        _pack_csr(arrays, "U2", bundle.preconditioner.u)
        arrays.update(_ilu_permutations(bundle.preconditioner))
    elif isinstance(bundle.preconditioner, JacobiPreconditioner):
        arrays["M_diag"] = bundle.preconditioner.inverse_diagonal

    np.savez_compressed(target, **arrays)
    return target


def _load_npz_bundle(path: Path) -> SolverArtifacts:
    """Read a v1/v2 ``.npz`` archive into an in-memory artifact bundle."""
    with np.load(path) as archive:
        try:
            meta = json.loads(bytes(archive["meta_json"]).decode())
        except KeyError as exc:
            raise GraphFormatError(f"{path}: not a saved BePI solver") from exc
        if meta.get("format_version") not in _SUPPORTED_VERSIONS:
            raise GraphFormatError(
                f"{path}: unsupported format version {meta.get('format_version')}"
            )

        graph = Graph(_unpack_csr(archive, "adjacency"))
        # v1 archives also carry "H11"; nothing downstream reads it, so the
        # reconstructed blocks exclude it for both versions.
        blocks = {name: _unpack_csr(archive, name) for name in _STORED_BLOCKS}
        block_sizes = archive["block_sizes"]
        h11_factors = BlockDiagonalLU(
            l_inv=_unpack_csr(archive, "L1_inv"),
            u_inv=_unpack_csr(archive, "U1_inv"),
            block_sizes=block_sizes,
        )
        schur = _unpack_csr(archive, "S")
        # Archives written before the hubspoke_order field never stored the
        # hub-and-spoke ordering; report it as unavailable rather than
        # fabricating an identity.
        hubspoke_permutation = (
            Permutation(archive["hubspoke_order"])
            if "hubspoke_order" in archive.files
            else None
        )
        hubspoke = HubSpokePartition(
            permutation=hubspoke_permutation,
            n_spokes=meta["n1"],
            n_hubs=meta["n2"],
            block_sizes=block_sizes,
            slashburn_iterations=meta["slashburn_iterations"],
            hub_ratio=meta["hub_ratio"],
        )
        artifacts = PreprocessArtifacts(
            permutation=Permutation(archive["permutation_order"]),
            n1=meta["n1"],
            n2=meta["n2"],
            n3=meta["n3"],
            block_sizes=block_sizes,
            blocks=blocks,
            h11_factors=h11_factors,
            schur=schur,
            hubspoke=hubspoke,
        )

        preconditioner = None
        if meta["preconditioner_kind"] == "ilu":
            preconditioner = ILUFactors(
                l=_unpack_csr(archive, "L2"),
                u=_unpack_csr(archive, "U2"),
                **{name: archive[name] for name in _ILU_PERMUTATIONS if name in archive.files},
            )
        elif meta["preconditioner_kind"] == "jacobi":
            preconditioner = JacobiPreconditioner.from_inverse_diagonal(
                archive["M_diag"]
            )

    config = {
        "c": meta["c"],
        "tol": meta["tol"],
        "iterative_method": meta["iterative_method"],
        "gmres_restart": None,
        "max_iterations": None,
        "hub_ratio": meta["hub_ratio"],
        "use_preconditioner": meta["use_preconditioner"],
        "ilu_engine": meta["ilu_engine"],
    }
    return SolverArtifacts(
        kind="bepi",
        config=config,
        graph=graph,
        preprocess=artifacts,
        preconditioner=preconditioner,
    )


# ----------------------------------------------------------------------
# v4: artifact directory for zero-copy mmap serving
# ----------------------------------------------------------------------
def _sha256_file(path: Path) -> str:
    """Streaming SHA-256 of a file (arrays can be larger than RAM)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def verify_artifacts(directory: PathLike) -> int:
    """Check every checksummed array file in an artifact directory.

    Returns the number of files verified (0 for a v3 directory, which
    stores no checksums).

    Raises
    ------
    ArtifactIntegrityError
        Naming the first array file whose bytes do not match the manifest,
        or that the manifest names but is missing on disk.
    """
    root = Path(directory)
    manifest = _read_manifest(root)
    checksums: Dict[str, str] = manifest.get("checksums", {})
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
    if artifacts.hubspoke.permutation is None:
        raise GraphFormatError(
            "artifact bundle is missing the hub-and-spoke ordering "
            "(loaded from a pre-hubspoke_order archive?); rebuild from the "
            "graph before exporting to the v3 format"
        )

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
    write_dense("hubspoke_order", artifacts.hubspoke.permutation.order)
    write_dense("block_sizes", artifacts.block_sizes)
    write_csr("adjacency", bundle.graph.adjacency)
    write_csr("L1_inv", artifacts.h11_factors.l_inv)
    write_csr("U1_inv", artifacts.h11_factors.u_inv)
    write_csr("S", artifacts.schur)
    for block in _STORED_BLOCKS:
        write_csr(block, artifacts.blocks[block])

    kind = _preconditioner_kind(bundle.preconditioner)
    if kind == "ilu":
        write_csr("L2", bundle.preconditioner.l)
        write_csr("U2", bundle.preconditioner.u)
        for name, perm in _ilu_permutations(bundle.preconditioner).items():
            write_dense(name, perm)
    elif kind == "jacobi":
        write_dense("M_diag", bundle.preconditioner.inverse_diagonal)

    manifest = {
        "format_version": _ARTIFACT_FORMAT_VERSION,
        "kind": bundle.kind,
        "config": dict(bundle.config),
        "n1": artifacts.n1,
        "n2": artifacts.n2,
        "n3": artifacts.n3,
        "slashburn_iterations": artifacts.hubspoke.slashburn_iterations,
        "hub_ratio": artifacts.hubspoke.hub_ratio,
        "preconditioner_kind": kind,
        "csr_shapes": csr_shapes,
        "checksums": checksums,
    }
    if metadata is not None:
        manifest["lineage"] = dict(metadata)
    manifest_tmp = root / (_MANIFEST_NAME + ".tmp")
    manifest_tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(manifest_tmp, root / _MANIFEST_NAME)
    return root


def _read_manifest(directory: Path) -> Dict[str, Any]:
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise GraphFormatError(f"{directory}: not an artifact directory (no manifest)")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") not in _SUPPORTED_ARTIFACT_VERSIONS:
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
    :class:`ArtifactIntegrityError`; v3 directories carry no checksums and
    load unverified.  Pass ``verify=False`` when measuring pure open cost —
    verification reads every byte, which defeats mmap laziness.
    """
    root = Path(directory)
    manifest = _read_manifest(root)
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
    hubspoke = HubSpokePartition(
        permutation=Permutation(read("hubspoke_order")),
        n_spokes=manifest["n1"],
        n_hubs=manifest["n2"],
        block_sizes=block_sizes,
        slashburn_iterations=manifest["slashburn_iterations"],
        hub_ratio=manifest["hub_ratio"],
    )
    artifacts = PreprocessArtifacts(
        permutation=Permutation(read("permutation_order")),
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
        preconditioner = ILUFactors(
            l=read_csr("L2"),
            u=read_csr("U2"),
            **{
                name: read(name)
                for name in _ILU_PERMUTATIONS
                if (arrays_dir / f"{name}.npy").is_file()
            },
        )
    elif manifest["preconditioner_kind"] == "jacobi":
        preconditioner = JacobiPreconditioner.from_inverse_diagonal(read("M_diag"))

    return SolverArtifacts(
        kind=manifest["kind"],
        config=dict(manifest["config"]),
        graph=graph,
        preprocess=artifacts,
        preconditioner=preconditioner,
    )


def artifact_nbytes(directory: PathLike) -> int:
    """Total bytes of array payload in an artifact directory."""
    arrays_dir = Path(directory) / _ARRAYS_DIR
    if not arrays_dir.is_dir():
        raise GraphFormatError(f"{directory}: not an artifact directory (no arrays/)")
    return sum(f.stat().st_size for f in arrays_dir.glob("*.npy"))


# ----------------------------------------------------------------------
# Unified loading
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
        ilu_engine=config["ilu_engine"],
        iterative_method=config["iterative_method"],
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


def _resolve_archive_path(path: PathLike) -> Path:
    """Accept saved-solver paths with or without the ``.npz`` suffix."""
    given = Path(path)
    if given.is_file():
        return given
    normalized = _normalize_npz_path(given)
    if normalized.is_file():
        return normalized
    raise GraphFormatError(f"{path}: no such saved solver")


def load_solver(path: PathLike, mmap: bool = True, verify: bool = True) -> BePI:
    """Load a solver saved by :func:`save_solver` or :func:`save_artifacts`.

    ``path`` may be a ``.npz`` archive (suffix optional; formats v1/v2) or
    an artifact directory (formats v3/v4, opened with ``mmap`` and
    ``verify`` as in :func:`load_artifacts`).  Either way the result is a
    query-ready :class:`~repro.core.bepi.BePI` in the same state
    ``preprocess`` leaves.

    Raises
    ------
    GraphFormatError
        If the path does not look like a saved solver or its version is
        unsupported.
    """
    given = Path(path)
    if given.is_dir():
        bundle = load_artifacts(given, mmap=mmap, verify=verify)
    else:
        bundle = _load_npz_bundle(_resolve_archive_path(given))
    return solver_from_bundle(bundle, str(path))
