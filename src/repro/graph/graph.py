"""Directed graph container backed by a CSR sparse adjacency matrix.

The adjacency convention follows the paper: ``A[u, v] != 0`` means there is a
directed edge ``u -> v``.  Row ``u`` therefore lists the out-neighbors of
``u``, and a *deadend* is a node whose row is empty.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphFormatError

ArrayLike = Union[np.ndarray, Sequence[int]]


class Graph:
    """A directed graph over nodes ``0 .. n-1``.

    Parameters
    ----------
    adjacency:
        Square sparse (or dense) matrix; entry ``(u, v)`` is the weight of the
        edge ``u -> v``.  Weights must be finite and non-negative.  The
        matrix is converted to CSR, duplicate entries are summed, and explicit
        zeros are removed.

    Notes
    -----
    Instances are treated as immutable: all transforming operations
    (:meth:`permute`, :meth:`subgraph`, ...) return new graphs.  The
    underlying CSR matrix is exposed read-only through :attr:`adjacency`.
    """

    __slots__ = ("_adj",)

    def __init__(self, adjacency: Union[sp.spmatrix, np.ndarray]):
        adj = sp.csr_matrix(adjacency, dtype=np.float64)
        if adj.shape[0] != adj.shape[1]:
            raise GraphFormatError(
                f"adjacency matrix must be square, got shape {adj.shape}"
            )
        adj.sum_duplicates()
        adj.eliminate_zeros()
        if adj.nnz and not np.isfinite(adj.data).all():
            raise GraphFormatError("edge weights must be finite")
        if adj.nnz and adj.data.min() < 0:
            raise GraphFormatError("edge weights must be non-negative")
        adj.sort_indices()
        self._adj = adj

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Union[np.ndarray, Iterable[Tuple[int, int]]],
        n_nodes: Optional[int] = None,
        weights: Optional[ArrayLike] = None,
    ) -> "Graph":
        """Build a graph from an iterable or ``(m, 2)`` array of edges.

        Parameters
        ----------
        edges:
            Edge endpoints as ``(source, target)`` pairs.
        n_nodes:
            Total number of nodes.  Defaults to ``max(edge endpoint) + 1``;
            must be provided for graphs with trailing isolated nodes.
        weights:
            Optional per-edge weights (default: all ones).  Duplicate edges
            have their weights summed.
        """
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            if n_nodes is None:
                raise GraphFormatError("empty edge list requires explicit n_nodes")
            return cls(sp.csr_matrix((n_nodes, n_nodes)))
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphFormatError(
                f"edges must be an (m, 2) array, got shape {edge_array.shape}"
            )
        src = edge_array[:, 0].astype(np.int64)
        dst = edge_array[:, 1].astype(np.int64)
        if src.min() < 0 or dst.min() < 0:
            raise GraphFormatError("node ids must be non-negative")
        inferred = int(max(src.max(), dst.max())) + 1
        n = inferred if n_nodes is None else int(n_nodes)
        if n < inferred:
            raise GraphFormatError(
                f"n_nodes={n} is smaller than the largest node id {inferred - 1}"
            )
        if weights is None:
            data = np.ones(len(src), dtype=np.float64)
        else:
            data = np.asarray(weights, dtype=np.float64)
            if data.shape != src.shape:
                raise GraphFormatError("weights must have one entry per edge")
        adj = sp.coo_matrix((data, (src, dst)), shape=(n, n))
        return cls(adj)

    @classmethod
    def empty(cls, n_nodes: int) -> "Graph":
        """An edgeless graph on ``n_nodes`` nodes."""
        return cls(sp.csr_matrix((n_nodes, n_nodes)))

    @classmethod
    def from_canonical_csr(cls, adjacency: sp.csr_matrix) -> "Graph":
        """Wrap an already-canonical CSR matrix without copying or normalizing.

        The constructor's canonicalization (``sum_duplicates`` /
        ``eliminate_zeros`` / ``sort_indices``) mutates the CSR buffers, which
        fails on the read-only arrays produced by ``np.load(mmap_mode="r")``.
        This trusted constructor skips it so memory-mapped artifact directories
        stay zero-copy; the caller guarantees the matrix is square, sorted,
        duplicate-free, non-negative and float64 (true for anything written by
        :mod:`repro.persistence`, which serializes canonical CSR buffers).
        """
        if adjacency.shape[0] != adjacency.shape[1]:
            raise GraphFormatError(
                f"adjacency matrix must be square, got shape {adjacency.shape}"
            )
        graph = cls.__new__(cls)
        graph._adj = adjacency
        return graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency matrix (do not mutate)."""
        return self._adj

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adj.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of stored (non-zero) edges ``m``."""
        return self._adj.nnz

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node (count of stored edges, not weight sum)."""
        return np.diff(self._adj.indptr).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.bincount(self._adj.indices, minlength=self.n_nodes).astype(np.int64)

    def total_degrees(self) -> np.ndarray:
        """Sum of in- and out-degree, the hub score used by SlashBurn."""
        return self.out_degrees() + self.in_degrees()

    def deadend_mask(self) -> np.ndarray:
        """Boolean mask of deadend nodes (no outgoing edges)."""
        return self.out_degrees() == 0

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` as an array of node ids."""
        lo, hi = self._adj.indptr[node], self._adj.indptr[node + 1]
        return self._adj.indices[lo:hi]

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array of ``(source, target)`` pairs."""
        coo = self._adj.tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        return target in self.out_neighbors(source)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def symmetrized(self) -> sp.csr_matrix:
        """Binary symmetric adjacency ``A + A^T`` (pattern only, weights 1)."""
        sym = self._adj + self._adj.T
        sym = sym.tocsr()
        sym.data = np.ones_like(sym.data)
        return sym

    def permute(self, permutation: np.ndarray) -> "Graph":
        """Relabel nodes so that old node ``permutation[i]`` becomes node ``i``.

        ``permutation`` is the *ordering* form: a permutation array whose
        ``i``-th entry names the old id placed at new position ``i`` (the
        convention used throughout :mod:`repro.reorder`).
        """
        perm = np.asarray(permutation, dtype=np.int64)
        n = self.n_nodes
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise GraphFormatError("permutation must be a rearrangement of 0..n-1")
        sub = self._adj[perm][:, perm]
        return Graph(sub)

    def subgraph(self, nodes: ArrayLike) -> "Graph":
        """Induced subgraph on ``nodes`` (relabelled to ``0..len(nodes)-1``)."""
        idx = np.asarray(nodes, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_nodes):
            raise GraphFormatError("subgraph nodes out of range")
        return Graph(self._adj[idx][:, idx])

    def principal_submatrix(self, size: int) -> "Graph":
        """Graph on the first ``size`` nodes (used by the Fig. 5 scalability sweep)."""
        if not 0 < size <= self.n_nodes:
            raise GraphFormatError(
                f"principal submatrix size must be in [1, {self.n_nodes}], got {size}"
            )
        return Graph(self._adj[:size, :size])

    def reversed(self) -> "Graph":
        """Graph with every edge direction flipped."""
        return Graph(self._adj.T.tocsr())

    def without_self_loops(self) -> "Graph":
        """Copy with diagonal entries removed."""
        coo = self._adj.tocoo()
        keep = coo.row != coo.col
        adj = sp.coo_matrix(
            (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape
        )
        return Graph(adj)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        diff = (self._adj != other._adj)
        return diff.nnz == 0

    def __hash__(self) -> int:  # graphs are mutable-free but large; id-hash
        return id(self)
