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
``spilu_factors`` wraps scipy's SuperLU-based ILU as an alternative engine
for cross-checking and for speed on large inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.exceptions import SingularMatrixError
from repro.linalg.triangular import TriangularSolver

#: Block width ``k`` from which :meth:`ILUFactors.solve` applies the factors
#: with the level-ordered :class:`TriangularSolver` instead of SuperLU.
#: SuperLU substitutes column by column, so its cost grows linearly in
#: ``k``; the level solver pays a fixed per-level overhead once per block.
#: Chosen from ms per application of ``L2, U2`` of the R-MAT scale-14 Schur
#: complement (n2 = 3,669, 135k factor non-zeros, 148 + 137 levels) on a
#: 2-vCPU x86 machine, BLAS on one thread, medians of 41 alternated
#: applications averaged over two runs, one Schur SpMV for scale:
#:
#: ====  =======  =====  ==========
#:  k    SuperLU  level  Schur SpMV
#: ====  =======  =====  ==========
#:   1     0.50    2.97     0.20
#:   8     2.3     3.9      0.9
#:  12     2.9     3.6      0.9
#:  16     4.7     4.9      1.6
#:  20     5.3     4.9      1.6
#:  24     8.0     6.7      2.4
#:  32    11.0     8.1      3.9
#:  64    19.7    11.3      6.8
#: ====  =======  =====  ==========
#:
#: The two tie at 16; the level solver wins from 20 on and is built once
#: per factor pair (~60 ms, ~1.7 MB at this size).
LEVEL_SOLVE_CROSSOVER = 16


@dataclass(frozen=True)
class ILUFactors:
    """Triangular factors ``L`` (unit diagonal, stored) and ``U`` with ``A ~= L U``.

    An engine that permutes (scipy's SuperLU ``spilu``) factors
    ``Pr A Pc ~= L U`` instead; ``perm_r`` and ``perm_c`` then hold its
    permutations in SuperLU's convention (``Pr[perm_r[i], i] = 1``,
    ``Pc[i, perm_c[i]] = 1``), and :meth:`solve` applies them around the
    substitutions.  They are ``None`` for ILU(0) and ILUT.
    """

    l: sp.csr_matrix
    u: sp.csr_matrix
    perm_r: Optional[np.ndarray] = None
    perm_c: Optional[np.ndarray] = None

    def _solvers(self, width: int):
        """Triangular solvers for a block of ``width`` columns (cached).

        Narrow blocks use a no-fill natural-order sparse LU of each
        (already triangular) factor, giving sequential C-speed
        substitutions.  From :data:`LEVEL_SOLVE_CROSSOVER` columns on, the
        level-ordered :class:`TriangularSolver` shares its per-level cost
        across the block and wins; it is built on the first wide
        application.  Neither is persisted with the factors.

        SuperLU is built on the first application of any width.  Its
        workspace is large and mostly untouched.  Built later, inside a
        wide solve whose large temporaries have already been freed, glibc
        serves it from dirty heap pages: at R-MAT scale 14 a serving
        process then grew by up to 16 MB of RSS, where the level solver
        itself holds ~2 MB.
        """
        cached = getattr(self, "_cached_solvers", None)
        if cached is None:
            lower = splu(sp.csc_matrix(self.l), permc_spec="NATURAL")
            upper = splu(sp.csc_matrix(self.u), permc_spec="NATURAL")
            cached = (lower.solve, upper.solve)
            object.__setattr__(self, "_cached_solvers", cached)
        if width < LEVEL_SOLVE_CROSSOVER:
            return cached
        level = getattr(self, "_cached_level_solvers", None)
        if level is None:
            lower = TriangularSolver(self.l, lower=True, unit_diagonal=True)
            upper = TriangularSolver(self.u, lower=False)
            level = (lower.solve, upper.solve)
            object.__setattr__(self, "_cached_level_solvers", level)
        return level

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the preconditioner: return ``U^{-1} (L^{-1} rhs)``.

        Applies the factors through forward/backward substitution; they are
        never inverted (Appendix B of the paper), so each application costs
        about one sparse matvec.  ``rhs`` may be a vector or an ``(n, k)``
        matrix; the substitution engine is chosen by ``k`` (see
        :data:`LEVEL_SOLVE_CROSSOVER`).
        """
        b = np.asarray(rhs, dtype=np.float64)
        solve_lower, solve_upper = self._solvers(1 if b.ndim == 1 else b.shape[1])
        if self.perm_r is not None:
            permuted = np.empty_like(b)
            permuted[self.perm_r] = b
            b = permuted
        x = solve_upper(solve_lower(b))
        return x if self.perm_c is None else np.take(x, self.perm_c, axis=0)

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


def ilut(
    matrix: sp.spmatrix,
    drop_tolerance: float = 1e-3,
    fill_factor: int = 10,
) -> ILUFactors:
    """ILUT: threshold-based incomplete LU (Saad's dual-dropping scheme).

    Unlike ILU(0), fill-in *is* allowed, but entries are dropped by two
    rules applied per row:

    1. magnitude: entries below ``drop_tolerance`` times the row's 2-norm
       are discarded during elimination,
    2. count: only the ``fill_factor`` largest entries are kept in each of
       the row's L and U parts.

    A stronger (and costlier) preconditioner than ILU(0) — the standard
    upgrade path when ILU(0)'s iteration counts are not low enough.

    Parameters
    ----------
    matrix:
        Square sparse matrix.
    drop_tolerance:
        Relative magnitude threshold; 0 disables magnitude dropping.
    fill_factor:
        Maximum kept entries per row per factor (diagonal always kept).

    Raises
    ------
    SingularMatrixError
        On a zero pivot.
    """
    csr = sp.csr_matrix(matrix, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"ILUT requires a square matrix, got {csr.shape}")
    if drop_tolerance < 0:
        raise SingularMatrixError(f"drop_tolerance must be >= 0, got {drop_tolerance}")
    if fill_factor < 1:
        raise SingularMatrixError(f"fill_factor must be >= 1, got {fill_factor}")
    n = csr.shape[0]
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return ILUFactors(empty, empty)
    csr = _ensure_diagonal(csr)
    csr.sort_indices()

    # Finished rows of U (dict col -> value) and of strict L.
    u_rows: list = [None] * n
    l_rows: list = [None] * n

    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row = dict(zip(indices[lo:hi].tolist(), data[lo:hi].tolist()))
        row_norm = float(np.sqrt(sum(v * v for v in row.values())))
        threshold = drop_tolerance * row_norm

        l_part: dict = {}
        # Eliminate against finished rows in ascending column order; the
        # update can introduce *new* sub-diagonal fill, so pick the next
        # column dynamically instead of from a static snapshot.
        while True:
            pending = [col for col in row if col < i]
            if not pending:
                break
            k = min(pending)
            a_ik = row.pop(k)
            if abs(a_ik) <= threshold:
                continue
            pivot = u_rows[k].get(k, 0.0)
            if pivot == 0.0:
                raise SingularMatrixError(f"zero pivot at row {k} during ILUT")
            factor = a_ik / pivot
            l_part[k] = factor
            for j, u_kj in u_rows[k].items():
                if j > k:
                    row[j] = row.get(j, 0.0) - factor * u_kj

        # Dual dropping on the remaining (U-part) entries.
        u_part = {
            j: v for j, v in row.items()
            if j >= i and (j == i or abs(v) > threshold)
        }
        if i not in u_part:
            raise SingularMatrixError(f"zero pivot at row {i} in ILUT result")
        if len(u_part) - 1 > fill_factor:
            keep = sorted(
                (j for j in u_part if j != i),
                key=lambda j: -abs(u_part[j]),
            )[:fill_factor]
            u_part = {i: u_part[i], **{j: u_part[j] for j in keep}}
        if len(l_part) > fill_factor:
            keep = sorted(l_part, key=lambda j: -abs(l_part[j]))[:fill_factor]
            l_part = {j: l_part[j] for j in keep}
        if u_part[i] == 0.0:
            raise SingularMatrixError(f"zero pivot at row {i} in ILUT result")

        u_rows[i] = u_part
        l_rows[i] = l_part

    def _rows_to_csr(rows, add_unit_diagonal):
        row_idx, col_idx, values = [], [], []
        for r, entries in enumerate(rows):
            if add_unit_diagonal:
                row_idx.append(r)
                col_idx.append(r)
                values.append(1.0)
            for c, v in entries.items():
                row_idx.append(r)
                col_idx.append(c)
                values.append(v)
        mat = sp.coo_matrix((values, (row_idx, col_idx)), shape=(n, n)).tocsr()
        mat.sort_indices()
        return mat

    lower = _rows_to_csr(l_rows, add_unit_diagonal=True)
    upper = _rows_to_csr(u_rows, add_unit_diagonal=False)
    return ILUFactors(l=lower, u=upper)


def spilu_factors(matrix: sp.spmatrix, **kwargs) -> ILUFactors:
    """ILU via scipy's SuperLU (alternative engine; used for cross-checks).

    SuperLU's incomplete factorization permutes rows and columns, so the
    triangular factors approximate ``Pr matrix Pc``; the returned
    :class:`ILUFactors` carries both permutations and applies them in
    :meth:`ILUFactors.solve`, so it is the same operator in memory and after
    a save/load round trip.
    """
    from scipy.sparse.linalg import spilu

    ilu = spilu(sp.csc_matrix(matrix), **kwargs)
    return ILUFactors(
        l=ilu.L.tocsr(), u=ilu.U.tocsr(), perm_r=ilu.perm_r, perm_c=ilu.perm_c
    )
