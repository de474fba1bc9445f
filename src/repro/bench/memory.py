"""Byte accounting for preprocessed data, and memory budgets.

The paper reports "memory space for preprocessed data" (Figure 1b) as the
size of the matrices each method must keep around for the query phase,
stored in a compressed sparse format.  We use the same convention:

- sparse matrix: 8 bytes per non-zero value + 4 bytes per non-zero index
  + 4 bytes per row/column pointer (compressed column storage, as in the
  paper's Section 3.1),
- dense matrix: 8 bytes per entry.

:class:`MemoryBudget` emulates the machine limit: preprocessing that would
retain more than the budget raises
:class:`~repro.exceptions.MemoryBudgetExceededError`, reproducing the
missing bars of Figure 1 without actually exhausting RAM.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Union

try:  # the resource module is POSIX-only (absent on Windows)
    import resource
except ImportError:  # pragma: no cover - exercised only off-POSIX
    resource = None  # type: ignore[assignment]

import numpy as np
import scipy.sparse as sp

from repro.exceptions import MemoryBudgetExceededError

_VALUE_BYTES = 8
_INDEX_BYTES = 4
_POINTER_BYTES = 4

MatrixLike = Union[sp.spmatrix, np.ndarray]


def sparse_memory_bytes(matrix: sp.spmatrix) -> int:
    """Bytes to store a sparse matrix in compressed row/column format."""
    # Pointer array length is dim + 1; a storage-conscious implementation
    # picks the cheaper of the CSR/CSC orientations.
    n_pointers = min(matrix.shape[0], matrix.shape[1]) + 1
    return int(
        matrix.nnz * (_VALUE_BYTES + _INDEX_BYTES) + n_pointers * _POINTER_BYTES
    )


def dense_memory_bytes(shape: Iterable[int]) -> int:
    """Bytes to store a dense float64 matrix of the given shape."""
    total = 1
    for dim in shape:
        total *= int(dim)
    return total * _VALUE_BYTES


def matrix_memory_bytes(matrix: MatrixLike) -> int:
    """Bytes for either a sparse or a dense matrix."""
    if sp.issparse(matrix):
        return sparse_memory_bytes(matrix)
    return dense_memory_bytes(np.asarray(matrix).shape)


def process_rss_bytes() -> Optional[int]:
    """Resident set size of the calling process in bytes, or ``None``.

    Reads ``/proc/self/statm`` where available (Linux); falls back to the
    peak RSS reported by ``getrusage`` elsewhere, and returns ``None`` on
    platforms where neither works (callers must exclude ``None`` from
    aggregation rather than crash).  Used by the serving benchmark to show
    that mmap-backed workers share artifact pages instead of each holding a
    private copy.
    """
    try:
        with open("/proc/self/statm") as statm:
            resident_pages = int(statm.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    if resource is None:
        return None
    try:
        # ru_maxrss is kilobytes on Linux, bytes on macOS; this branch only
        # runs off-Linux, where the bytes interpretation is the right one
        # for Darwin and a safe overestimate elsewhere.
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (OSError, ValueError):  # pragma: no cover - platform-specific
        return None


def mapped_rss_bytes(directory: Union[str, "os.PathLike[str]"]) -> Optional[int]:
    """Resident bytes of the calling process's file mappings under ``directory``.

    Sums the ``Rss`` of every ``/proc/self/smaps`` mapping of a file below
    ``directory``: for a worker serving a memory-mapped bundle, the share
    of the bundle it actually holds in memory (the pages sit in the shared
    page cache, so every worker mapping them counts them).  Residency is
    paged, so a file counts at most its own size: the figure never exceeds
    the files' total bytes.  Returns ``None`` where ``/proc`` is
    unavailable.  It reads the whole mapping table, so callers read it on
    request, not per query.
    """
    prefix = os.path.join(os.path.realpath(directory), "")
    resident: Dict[str, int] = {}
    path = None
    try:
        with open("/proc/self/smaps") as smaps:
            for line in smaps:
                if line.startswith("Rss:"):
                    if path is not None:
                        kib = int(line.split()[1])
                        resident[path] = resident.get(path, 0) + kib * 1024
                elif "-" in line.split(" ", 1)[0]:  # a mapping's header line
                    fields = line.rstrip("\n").split(None, 5)
                    path = fields[5] if len(fields) == 6 else None
                    if path is not None and not path.startswith(prefix):
                        path = None
    except OSError:
        return None
    total = 0
    for path, nbytes in resident.items():
        try:
            nbytes = min(nbytes, os.path.getsize(path))
        except OSError:  # unlinked since it was mapped
            pass
        total += nbytes
    return total


class MemoryBudget:
    """A byte budget for preprocessed data.

    Parameters
    ----------
    limit_bytes:
        Maximum bytes of preprocessed data a method may retain, or ``None``
        for unlimited.

    Examples
    --------
    >>> budget = MemoryBudget(limit_bytes=1024)
    >>> budget.check(512, what="Schur complement")
    >>> budget.check(4096, what="dense inverse")
    Traceback (most recent call last):
        ...
    repro.exceptions.MemoryBudgetExceededError: ...
    """

    def __init__(self, limit_bytes: Optional[int] = None):
        if limit_bytes is not None and limit_bytes <= 0:
            raise ValueError(f"limit_bytes must be positive or None, got {limit_bytes}")
        self.limit_bytes = limit_bytes

    def check(self, required_bytes: int, what: str = "preprocessed data") -> None:
        """Raise if ``required_bytes`` exceeds the budget."""
        if self.limit_bytes is not None and required_bytes > self.limit_bytes:
            raise MemoryBudgetExceededError(
                f"{what} needs {required_bytes:,} bytes but the budget is "
                f"{self.limit_bytes:,} bytes",
                required_bytes=required_bytes,
                budget_bytes=self.limit_bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.limit_bytes is None:
            return "MemoryBudget(unlimited)"
        return f"MemoryBudget(limit_bytes={self.limit_bytes:,})"
