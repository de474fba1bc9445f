"""Generation-based artifact store with atomic publication.

A serving deployment needs two things the raw artifact directory
(:func:`repro.persistence.save_artifacts`) does not provide on its own:

- **history** — each rebuild of an evolving graph produces a new artifact
  bundle, and workers holding the old one must keep working until they
  re-open;
- **atomic switchover** — a reader must never observe a half-written
  bundle.

:class:`ArtifactStore` provides both with plain filesystem primitives::

    <root>/
        generations/
            gen-000001/        complete artifact directory (format v4)
            gen-000002/
        current -> generations/gen-000002

:meth:`ArtifactStore.publish` writes the new generation into a hidden
staging directory (``generations/.incoming-*``), where the manifest is the
last file written, then ``os.rename``\\ s it to its final name — so a
``gen-*`` directory either does not exist or is complete.  The ``current``
pointer is then swapped with ``os.replace`` of a freshly created symlink
(or, on filesystems without symlink support, of a one-line ``CURRENT``
text file).  Readers that resolve ``current`` therefore always land on a
fully published generation; readers that already opened the previous one
keep their memory maps alive regardless of what the pointer does.

Corruption recovery
-------------------
Publication guards against *partial* writes, not against bytes rotting
after the fact (disk faults, truncating copies, operator accidents).  The
manifest's per-array SHA-256 checksums (format v4) catch those at open
time, and :meth:`ArtifactStore.open_current` recovers: a generation that
fails verification is moved into ``<root>/quarantine/`` — preserved for
forensics, never served again — the ``current`` pointer is rolled back to
the newest remaining generation, and the open is retried.  Serving workers
therefore survive a corrupted deploy by transparently falling back to the
last good build.
"""

from __future__ import annotations

import os
import re
import shutil
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.core.bepi import BePI
from repro.core.engine import SolverArtifacts
from repro.exceptions import ArtifactIntegrityError, GraphFormatError
from repro.persistence import PathLike, load_artifacts, read_manifest, save_artifacts

_GENERATIONS_DIR = "generations"
_QUARANTINE_DIR = "quarantine"
_LEASES_DIR = "leases"
_CURRENT_LINK = "current"
_CURRENT_FILE = "CURRENT"
_GENERATION_RE = re.compile(r"^gen-(\d{6})$")
_LEASE_RE = re.compile(r"^(gen-\d{6})\.(\d+)-[0-9a-f]+\.lease$")


class GenerationLease:
    """A liveness-scoped pin on one generation (see
    :meth:`ArtifactStore.acquire_lease`).

    The lease is a marker file under ``<root>/leases/`` whose name embeds
    the holder's pid; :meth:`ArtifactStore.prune` refuses to delete a
    leased generation while that pid is alive, and garbage-collects the
    marker once it is not (a crashed holder cannot pin a generation
    forever).  Usable as a context manager; :meth:`release` is idempotent.
    """

    def __init__(self, generation: str, path: Path):
        self.generation = generation
        self.path = path

    def release(self) -> None:
        self.path.unlink(missing_ok=True)

    def __enter__(self) -> "GenerationLease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GenerationLease({self.generation!r})"


class PruneResult(List[str]):
    """Names removed by :meth:`ArtifactStore.prune`; behaves as that list
    (back-compat), with the protected-but-expired names on ``skipped``."""

    def __init__(self, removed: List[str], skipped: List[str]):
        super().__init__(removed)
        self.skipped = list(skipped)


class ArtifactStore:
    """A directory of artifact generations with an atomic ``current`` pointer.

    Parameters
    ----------
    root:
        Store root directory; created (with the ``generations/``
        subdirectory) if missing.

    Examples
    --------
    >>> from repro import BePI, generate_rmat
    >>> from repro.store import ArtifactStore
    >>> import tempfile
    >>> solver = BePI(hub_ratio=0.3).preprocess(generate_rmat(6, 150, seed=1))
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     store = ArtifactStore(tmp)
    ...     path = store.publish(solver)
    ...     store.generations()
    ['gen-000001']
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.generations_dir = self.root / _GENERATIONS_DIR
        self.generations_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def publish(
        self,
        source: Union[BePI, SolverArtifacts],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write ``source`` as the next generation and point ``current`` at it.

        The new generation becomes visible to readers only once it is
        complete; the returned path is the final ``gen-*`` directory.
        ``metadata`` (JSON-serializable) is recorded as the manifest's
        ``"lineage"`` — the dynamic-update pipeline writes the parent
        generation, update-batch digest, error bound, and rebuild mode
        there (see :meth:`lineage`).
        """
        index = self._next_index()
        name = f"gen-{index:06d}"
        staging = self.generations_dir / f".incoming-{os.getpid()}-{name}"
        if staging.exists():
            shutil.rmtree(staging)
        try:
            save_artifacts(source, staging, metadata=metadata)
            final = self.generations_dir / name
            os.rename(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._set_current(name)
        return final

    def prune(self, keep: int = 2) -> PruneResult:
        """Delete all but the newest ``keep`` generations.

        Returns the removed names (as a list, back-compat); the result's
        ``.skipped`` attribute names the expired generations that were
        *protected* instead of deleted.  Two kinds of generations are
        never removed: the one ``current`` points at (deleting it would
        leave the pointer dangling) and any generation pinned by a live
        lease (:meth:`acquire_lease`) — a serving pool mid-reopen holds
        one, so its memory-mapped arrays cannot vanish underneath it.
        """
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        current = self.current_path()
        current_name = current.name if current is not None else None
        leased = self.leased_generations()
        removed: List[str] = []
        skipped: List[str] = []
        for name in self.generations()[:-keep]:
            if name == current_name or name in leased:
                skipped.append(name)
                continue
            shutil.rmtree(self.generations_dir / name)
            removed.append(name)
        return PruneResult(removed, skipped)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def acquire_lease(self, name: Optional[str] = None) -> GenerationLease:
        """Pin generation ``name`` (default: current) against pruning.

        Returns a :class:`GenerationLease`; release it (or let its holder
        process exit — dead holders are garbage-collected) to make the
        generation prunable again.  Raises
        :class:`~repro.exceptions.GraphFormatError` when the generation
        does not exist.
        """
        if name is None:
            current = self.current_path()
            if current is None:
                raise GraphFormatError(
                    f"{self.root}: store has no published generation"
                )
            name = current.name
        if not (self.generations_dir / name).is_dir():
            raise GraphFormatError(f"{self.root}: no generation {name!r}")
        leases_dir = self.root / _LEASES_DIR
        leases_dir.mkdir(parents=True, exist_ok=True)
        path = leases_dir / f"{name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.lease"
        path.write_text(f"{os.getpid()}\n")
        return GenerationLease(name, path)

    def leased_generations(self) -> Set[str]:
        """Generation names pinned by a lease whose holder is still alive.

        Stale leases — marker files whose embedded pid no longer exists —
        are unlinked as they are discovered, so a crashed pool cannot pin
        a generation forever.
        """
        leases_dir = self.root / _LEASES_DIR
        if not leases_dir.is_dir():
            return set()
        leased: Set[str] = set()
        for entry in leases_dir.iterdir():
            match = _LEASE_RE.match(entry.name)
            if match is None:
                continue
            name, pid = match.group(1), int(match.group(2))
            if _pid_alive(pid):
                leased.add(name)
            else:
                entry.unlink(missing_ok=True)
        return leased

    # ------------------------------------------------------------------
    # Lineage
    # ------------------------------------------------------------------
    def lineage(self, name: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The ``"lineage"`` metadata of generation ``name`` (default:
        current): parent generation, update-batch digest, error bound, and
        rebuild mode as written by the dynamic-update pipeline.  ``None``
        for generations published outside that pipeline."""
        if name is None:
            current = self.current_path()
            if current is None:
                return None
            name = current.name
        target = self.generations_dir / name
        if not target.is_dir():
            raise GraphFormatError(f"{self.root}: no generation {name!r}")
        return read_manifest(target).get("lineage")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def generations(self) -> List[str]:
        """Names of all complete generations, oldest first."""
        names = [
            entry.name
            for entry in self.generations_dir.iterdir()
            if entry.is_dir() and _GENERATION_RE.match(entry.name)
        ]
        return sorted(names)

    def current_path(self) -> Optional[Path]:
        """Directory of the current generation, or ``None`` before the first
        publish."""
        link = self.root / _CURRENT_LINK
        if link.is_symlink() or link.exists():
            target = link.resolve()
            if target.is_dir():
                return target
        marker = self.root / _CURRENT_FILE
        if marker.is_file():
            target = self.generations_dir / marker.read_text().strip()
            if target.is_dir():
                return target
        return None

    def open_current(
        self, mmap: bool = True, verify: bool = True, recover: bool = True
    ) -> SolverArtifacts:
        """Load the current generation (see
        :func:`repro.persistence.load_artifacts`).

        With ``recover=True`` (default) a generation that fails checksum
        verification is quarantined, ``current`` is rolled back to the
        newest remaining generation, and the open retries — so a corrupt
        deploy degrades to serving the previous build instead of failing.
        With ``recover=False`` the :class:`ArtifactIntegrityError`
        propagates untouched (useful for health checks that must *report*
        corruption rather than paper over it).
        """
        # Bounded: each failed attempt removes one generation from the
        # store, so the loop ends even if every generation is corrupt.
        for _ in range(max(len(self.generations()), 1) + 1):
            current = self.current_path()
            if current is None:
                # A dangling pointer (e.g. its target was quarantined by a
                # concurrent worker) falls back to the newest survivor.
                names = self.generations()
                if not names:
                    break
                current = self.generations_dir / names[-1]
            try:
                return load_artifacts(current, mmap=mmap, verify=verify)
            except ArtifactIntegrityError:
                if not recover:
                    raise
                self.quarantine(current.name)
            except (FileNotFoundError, GraphFormatError):
                # The generation vanished mid-load (arrays gone, or the
                # manifest missing from a directory that no longer exists):
                # a concurrent worker detected the corruption first,
                # quarantined it, and rolled ``current`` back.  Re-resolve
                # and retry — but a directory still present is genuinely
                # malformed, not raced away.
                if current.is_dir():
                    raise
                continue
        raise GraphFormatError(f"{self.root}: store has no published generation")

    # ------------------------------------------------------------------
    # Corruption handling
    # ------------------------------------------------------------------
    def quarantine(self, name: str) -> Optional[Path]:
        """Move generation ``name`` into ``<root>/quarantine/`` and repoint
        ``current`` at the newest remaining generation.

        Returns the quarantine destination, or ``None`` when the
        generation was already gone (another process won the race —
        ``current`` is still repointed so this process stops resolving to
        the vanished directory).  The corrupt bytes are preserved, not
        deleted, so the failure can be diagnosed later.
        """
        source = self.generations_dir / name
        quarantine_dir = self.root / _QUARANTINE_DIR
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination: Optional[Path] = quarantine_dir / name
        suffix = 1
        while destination.exists():
            destination = quarantine_dir / f"{name}.{suffix}"
            suffix += 1
        try:
            os.rename(source, destination)
        except FileNotFoundError:
            destination = None
        self._rollback()
        return destination

    def _rollback(self) -> None:
        """Point ``current`` at the newest remaining generation (or drop the
        pointer entirely when none are left)."""
        names = self.generations()
        if names:
            self._set_current(names[-1])
            return
        (self.root / _CURRENT_LINK).unlink(missing_ok=True)
        (self.root / _CURRENT_FILE).unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_index(self) -> int:
        indices = [0]
        for name in self.generations():
            match = _GENERATION_RE.match(name)
            assert match is not None
            indices.append(int(match.group(1)))
        # Quarantined generations keep their index reserved so a rebuild
        # after a corruption event cannot collide with the forensic copy.
        quarantine_dir = self.root / _QUARANTINE_DIR
        if quarantine_dir.is_dir():
            for entry in quarantine_dir.iterdir():
                match = _GENERATION_RE.match(entry.name.split(".")[0])
                if match:
                    indices.append(int(match.group(1)))
        return max(indices) + 1

    def _set_current(self, name: str) -> None:
        target = os.path.join(_GENERATIONS_DIR, name)
        link = self.root / _CURRENT_LINK
        staged = self.root / f".current-{os.getpid()}"
        try:
            if staged.is_symlink() or staged.exists():
                staged.unlink()
            os.symlink(target, staged)
            os.replace(staged, link)
        except OSError:
            # Filesystem without symlinks: fall back to an atomically
            # replaced one-line marker file.
            staged.unlink(missing_ok=True)
            marker_tmp = self.root / f".{_CURRENT_FILE}-{os.getpid()}"
            marker_tmp.write_text(name + "\n")
            os.replace(marker_tmp, self.root / _CURRENT_FILE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        current = self.current_path()
        return (
            f"ArtifactStore(root={str(self.root)!r}, "
            f"generations={len(self.generations())}, "
            f"current={current.name if current else None})"
        )


def open_artifacts(
    path: PathLike, mmap: bool = True, verify: bool = True
) -> SolverArtifacts:
    """Load an artifact directory, or the current generation of a store root.

    A store root opens through :meth:`ArtifactStore.open_current`, so a
    generation whose checksums fail is quarantined and the last good one
    loaded instead; a bare artifact directory has nothing to roll back to,
    so corruption there raises :class:`ArtifactIntegrityError`.
    """
    p = Path(path)
    if not (p / "manifest.json").is_file() and (p / _GENERATIONS_DIR).is_dir():
        return ArtifactStore(p).open_current(mmap=mmap, verify=verify)
    return load_artifacts(p, mmap=mmap, verify=verify)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but owned elsewhere
        return True
    except OSError:  # pragma: no cover - e.g. platforms without kill
        return True
    return True
