"""Independent correctness oracle built with plain scipy.

``H = I - (1-c) Ã^T`` is assembled here from the graph's adjacency alone
(``Ã`` row-normalised, deadend rows zero), without any of the program's
reordering, partitioning or factorisation.  A dense RWR row ``r`` for seed
``s`` is accepted when its residual ``‖H r - c e_s‖₁`` is within
``RESIDUAL_L1``.  Because ``Ã^T`` has column sums at most 1,
``‖H⁻¹‖₁ <= 1/c``, so the residual also bounds the row's L1 distance from
the exact answer: ``‖r - r*‖₁ <= residual / c``.  That turns one sparse
product per row into a proof of accuracy, with no second solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Accepted ``‖H r - c q‖₁``.  Exact rows at the library tolerance measure
#: ~2e-9 at scale 14; a wrong row measures on the order of ``c``.
RESIDUAL_L1 = 1e-7
#: Score agreement between a served top-k reply and its reference row:
#: two rows that each pass the residual check differ by at most
#: ``2 * RESIDUAL_L1 / c`` = 4e-6 in L1.
SCORE_TOL = 4e-6


def build_h(adjacency: sp.spmatrix, c: float) -> sp.csr_matrix:
    adj = sp.csr_matrix(adjacency, dtype=np.float64)
    sums = np.asarray(adj.sum(axis=1)).ravel()
    inverse = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    walk = (sp.diags(inverse) @ adj).T.tocsr()
    return (sp.identity(adj.shape[0], format="csr") - (1.0 - c) * walk).tocsr()


def residuals(h: sp.csr_matrix, c: float, seeds: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``‖H r_i - c e_{s_i}‖₁`` for each row ``r_i`` of ``rows``."""
    seeds = np.asarray(seeds, dtype=np.int64)
    product = h @ np.asarray(rows, dtype=np.float64).T
    product[seeds, np.arange(seeds.size)] -= c
    return np.abs(product).sum(axis=0)


def topk_matches(
    reply: np.ndarray, reference: np.ndarray, seed: int, k: int,
    tol: float = SCORE_TOL,
) -> bool:
    """Whether ``reply`` (packed ``(id, score)`` pairs) is an exact top-k
    of the dense ``reference`` row with the seed excluded.

    Accepts any id order among near-ties: each returned score must equal
    its id's reference score within ``tol``, the ids must be distinct and
    exclude the seed, and the returned scores must match the ``k`` largest
    reference scores within ``tol``.
    """
    ids = np.asarray(reply["id"], dtype=np.int64)
    scores = np.asarray(reply["score"], dtype=np.float64)
    row = np.array(reference, dtype=np.float64)
    row[seed] = -np.inf
    best = np.sort(row)[::-1][: min(k, row.size - 1)]
    return bool(
        ids.size == best.size
        and np.unique(ids).size == ids.size
        and not np.any(ids == seed)
        and np.all(np.abs(row[ids] - scores) <= tol)
        and np.all(np.abs(np.sort(scores)[::-1] - best) <= tol)
    )
