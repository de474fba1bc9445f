"""Incomplete LU factorization with zero fill-in — ILU(0).

The BePI preconditioner (Section 3.5): ``S ~= L2 U2`` where the factors have
exactly the sparsity pattern of the lower/upper triangular parts of ``S``.
The factorization cost is ``O(|S|)`` per row-width, and the storage cost is
identical to storing ``S`` itself — the property Theorem 1/3 rely on.

Implemented from scratch as the IKJ update restricted to the original
pattern, scheduled in wavefronts: each strict-lower entry ``(i, k)`` gets the
earliest step at which row ``k`` is final and row ``i``'s previous entry is
done, and all entries of one step (distinct rows) are eliminated together by
vectorized gathers, one ``searchsorted`` for the update sources, and one
scatter.  Every entry receives the same float operations in the same order
as the row-by-row loop, so the factors are bit-identical to it.

:meth:`ILUFactors.solve` applies the factors by one Jacobi sweep each
rather than by exact substitution; the sweep is sound for these no-fill
factors of the diagonally dominant ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.exceptions import SingularMatrixError


@dataclass(frozen=True)
class ILUFactors:
    """Triangular factors ``L`` (unit diagonal, stored) and ``U`` with ``A ~= L U``."""

    l: sp.csr_matrix
    u: sp.csr_matrix

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """``d = diag(U)``, the only thing :meth:`solve` derives from the factors.

        Computed on the first application, so opening memory-mapped factors
        touches none of their pages.
        """
        return np.asarray(self.u.diagonal(), dtype=np.float64)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: one Jacobi sweep per triangular factor.

        Writing ``L = I + L_s`` and ``U = D (I + D^{-1} U_s)`` with ``L_s``,
        ``U_s`` strict and ``D = diag(U)``, each factor's inverse is
        replaced by the first two terms of its Neumann series::

            M^{-1} b = (I - D^{-1} U_s) D^{-1} (I - L_s) b

        (the iterative triangular solve of Anzt, Chow and Dongarra, one
        sweep from a zero start).  It is evaluated from the stored factors
        as ``y = 2b - L b``, ``z = y / d``, ``x = z - (U z - y) / d``: two
        sparse products, about one matvec of ``S``, at every width.  The
        factors are never inverted (Appendix B of the paper).  ``rhs`` may
        be a vector or an ``(n, k)`` block; column ``j`` of a block's answer
        is bit-equal to the answer for column ``j`` alone.
        """
        b = np.asarray(rhs, dtype=np.float64)
        d = self._diagonal.reshape((-1,) + (1,) * (b.ndim - 1))
        y = 2.0 * b - self.l @ b
        z = y / d
        return z - (self.u @ z - y) / d

    @property
    def nnz(self) -> int:
        """Stored non-zeros across both factors."""
        return int(self.l.nnz + self.u.nnz)


def _ensure_diagonal(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Return a copy whose sparsity pattern includes every diagonal position.

    Rows lacking a *structural* diagonal entry get one added with value zero
    (by inserting a sentinel 1.0 to survive sparse addition, then resetting
    the stored value).  This extends the ILU(0) pattern minimally; an actual
    zero pivot is still detected during elimination.
    """
    csr = sp.csr_matrix(matrix)
    csr.sort_indices()
    structural = _diagonal_positions(csr)
    missing = np.flatnonzero(structural < 0)
    if missing.size == 0:
        return csr.copy()
    sentinel = sp.coo_matrix(
        (np.ones(missing.size), (missing, missing)), shape=csr.shape
    )
    padded = (csr + sentinel).tocsr()
    padded.sort_indices()
    positions = _diagonal_positions(padded)
    padded.data[positions[missing]] -= 1.0
    return padded


def _diagonal_positions(matrix: sp.csr_matrix) -> np.ndarray:
    """Index into ``matrix.data`` of each row's diagonal entry (-1 if absent).

    ``matrix`` must have sorted indices, so its ``row * n + col`` keys are
    ascending and one ``searchsorted`` finds every diagonal at once.
    """
    n = matrix.shape[0]
    diagonal = np.arange(n, dtype=np.int64) * (n + 1)
    # A trailing sentinel matches no diagonal key, for searches past the end.
    keys = np.append(_entry_keys(matrix), -1)
    positions = np.searchsorted(keys[:-1], diagonal)
    return np.where(keys[positions] == diagonal, positions, -1)


def _entry_keys(matrix: sp.csr_matrix) -> np.ndarray:
    """``row * n + col`` of every stored entry, in storage order."""
    n = matrix.shape[1]
    rows = np.repeat(np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr))
    return rows * n + matrix.indices


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + m) for s, m in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - offsets, lengths)


#: Most candidate updates one step of :func:`ilu0` materializes at a time;
#: a wavefront with more is processed in slices of this many.  Each
#: candidate holds ~60 bytes of index temporaries.  tracemalloc peak of the
#: whole factorization of the R-MAT scale-14 Schur complement (n = 3,669,
#: 131,677 non-zeros, largest wavefront 98k candidates): 9.0 MB at this
#: bound, the same as at 2**14 because other stages set it, against 12.3 MB
#: unsliced and 17.1 MB for the row-by-row dict loop.
_CANDIDATE_SLICE = 1 << 15


def _wavefront_depths(
    low_rows: np.ndarray, low_cols: np.ndarray, n: int
) -> np.ndarray:
    """Elimination step of each strict-lower entry (1-based), for :func:`ilu0`.

    The ``t``-th lower entry ``(i, k)`` of row ``i`` may run once row ``k``
    is final and once entry ``t - 1`` of row ``i`` has run::

        depth(i, t) = max(depth(i, t - 1), finish(k)) + 1

    where ``finish(k)`` is the depth of row ``k``'s last lower entry (0 if
    it has none).  Unrolled, ``depth(i, t) = t + 1 + max_{s <= t}
    (finish(k_s) - s)``: a running max within each row.  Rows are taken a
    dependency level at a time (Kahn's algorithm), so each level's running
    maxima are one ``maximum.accumulate`` over its rows' entries, kept apart
    by a per-row offset larger than any value's range.
    """
    counts = np.bincount(low_rows, minlength=n)
    row_ptr = np.concatenate(([0], np.cumsum(counts)))
    ordinal = np.arange(low_rows.size, dtype=np.int64) - row_ptr[low_rows]
    by_col = np.argsort(low_cols, kind="stable")
    col_counts = np.bincount(low_cols, minlength=n)
    col_ptr = np.concatenate(([0], np.cumsum(col_counts)))
    # Values finish(k) - t lie in (-n, low_rows.size]; an offset of `span`
    # per row keeps each row's running max from seeing the row before.
    span = low_rows.size + n + 1

    depth = np.zeros(low_rows.size, dtype=np.int64)
    finish = np.zeros(n, dtype=np.int64)
    waiting = counts.copy()
    ready = np.flatnonzero(counts == 0)
    while True:
        dependents = by_col[_concat_ranges(col_ptr[ready], col_counts[ready])]
        released = np.bincount(low_rows[dependents], minlength=n)
        waiting -= released
        ready = np.flatnonzero((waiting == 0) & (released > 0))
        if ready.size == 0:
            return depth
        entries = _concat_ranges(row_ptr[ready], counts[ready])
        t = ordinal[entries]
        shift = np.repeat(np.arange(ready.size, dtype=np.int64) * span, counts[ready])
        running = np.maximum.accumulate(finish[low_cols[entries]] - t + shift) - shift
        depth[entries] = running + t + 1
        finish[ready] = depth[row_ptr[ready + 1] - 1]


def ilu0(matrix: sp.spmatrix) -> ILUFactors:
    """ILU(0) factorization of a square sparse matrix.

    Parameters
    ----------
    matrix:
        Square sparse matrix.  Positions missing a diagonal entry get one
        added to the pattern (value zero) so unit-lower / upper splitting is
        well defined; a zero *pivot* still raises.

    Returns
    -------
    ILUFactors
        ``L`` has an explicit unit diagonal; ``U`` holds the diagonal and
        strictly upper entries.  ``L @ U`` matches ``matrix`` exactly on the
        matrix's own sparsity pattern.

    Raises
    ------
    SingularMatrixError
        If a pivot (diagonal of ``U``) becomes zero during elimination.

    Notes
    -----
    The result is bit-identical to the row-by-row IKJ loop: every entry
    receives the same float operations in the same order.  Strict-lower
    entries are grouped into wavefronts by :func:`_wavefront_depths`; the
    entries of one wavefront lie in distinct rows and depend only on
    earlier wavefronts, so each is one vectorized step:

    1. divide every entry ``(i, k)`` by its (final) pivot ``u_kk``;
    2. enumerate the later entries ``(i, j)`` of each entry's row;
    3. find the sources ``(k, j)`` with one ``searchsorted`` into the sorted
       ``row * n + col`` keys (a miss means no update: zero fill-in);
    4. apply ``a_ij -= l_ik * u_kj``.  No target repeats within a step, and
       each target sees its updates in ascending ``k``, as in the loop.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"ILU(0) requires a square matrix, got {csr.shape}")
    n = csr.shape[0]
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return ILUFactors(empty, empty)
    work = _ensure_diagonal(csr)
    indptr, indices, data = work.indptr, work.indices, work.data
    diagonal = _diagonal_positions(work)
    # The sorted keys end in a sentinel above every key, so a search that
    # runs past the last entry still lands on something to compare with.
    keys = np.append(_entry_keys(work), np.iinfo(np.int64).max)
    rows = keys[:-1] // n

    low_pos = np.flatnonzero(indices < rows)
    low_rows = rows[low_pos]
    low_cols = indices[low_pos].astype(np.int64)
    depth = _wavefront_depths(low_rows, low_cols, n)
    schedule = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[schedule], np.arange(1, depth.max(initial=0) + 2))

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        wave = schedule[lo:hi]
        own = low_pos[wave]
        pivot_rows = low_cols[wave]
        pivots = data[diagonal[pivot_rows]]
        if np.any(pivots == 0.0):
            bad = int(pivot_rows[np.flatnonzero(pivots == 0.0)[0]])
            raise SingularMatrixError(f"zero pivot at row {bad} during ILU(0)")
        data[own] = data[own] / pivots

        # Candidate targets: positions own+1 .. end of row, sliced by count.
        n_later = indptr[low_rows[wave] + 1] - own - 1
        ends = np.cumsum(n_later)
        starts = ends - n_later
        for first in range(0, int(ends[-1]), _CANDIDATE_SLICE):
            last = first + _CANDIDATE_SLICE
            a = np.searchsorted(ends, first, side="right")
            b = np.searchsorted(ends, last - 1, side="right") + 1
            begin = np.maximum(starts[a:b], first)
            lengths = np.minimum(ends[a:b], last) - begin
            target = _concat_ranges(own[a:b] + 1 + (begin - starts[a:b]), lengths)
            source_key = np.repeat(pivot_rows[a:b] * n, lengths) + indices[target]
            source = np.searchsorted(keys, source_key)
            hit = np.flatnonzero(keys[source] == source_key)
            factor = np.repeat(data[own[a:b]], lengths)[hit]
            data[target[hit]] -= factor * data[source[hit]]

    # Split the in-place combined factorization into L (unit diag) and U.
    lower = sp.tril(work, k=-1).tocsr()
    lower = (lower + sp.identity(n, format="csr")).tocsr()
    upper = sp.triu(work, k=0).tocsr()
    u_diag = upper.diagonal()
    if np.any(u_diag == 0.0):
        bad = int(np.flatnonzero(u_diag == 0.0)[0])
        raise SingularMatrixError(f"zero pivot at row {bad} in ILU(0) result")
    lower.sort_indices()
    upper.sort_indices()
    return ILUFactors(l=lower, u=upper)
