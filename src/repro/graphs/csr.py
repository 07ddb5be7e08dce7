"""Compact CSR graph representation on numpy arrays.

All topologies in this package are simple undirected graphs; ``CSRGraph``
stores both directions of every edge in sorted CSR form, which is what the
batched BFS, the partitioner, and the simulator's routing tables consume.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from repro.errors import ConstructionError


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for integer keys: one sort and a first-of-run mask.

    Same result (the sorted distinct values, flattened, in the input
    dtype), but numpy 2's ``np.unique`` deduplicates through a hash table
    that is several times slower than a sort once there are ~10^3 or more
    int64 keys, as in every topology build and BFS frontier.
    """
    keys = np.sort(keys, axis=None)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class CSRGraph:
    """Simple undirected graph in CSR form.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr, indices:
        Standard CSR adjacency structure; ``indices[indptr[v]:indptr[v+1]]``
        are the (sorted) neighbours of ``v``.
    """

    __slots__ = ("n", "indptr", "indices", "_adj_cache")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self._adj_cache: sp.csr_matrix | None = None
        if len(self.indptr) != self.n + 1:
            raise ConstructionError("indptr length must be n + 1")
        # Sorted neighbour rows are a structural invariant: port_of /
        # has_edge binary-search them and the routing fast path's
        # neighbour-row ordering relies on them.  Validate here so a direct
        # construction with unsorted rows fails loudly, not via silently
        # wrong searchsorted results deep in a simulation.
        m = len(self.indices)
        if m > 1:
            decreasing = self.indices[1:] < self.indices[:-1]
            row_starts = self.indptr[1:-1]
            row_starts = row_starts[(row_starts > 0) & (row_starts < m)]
            decreasing[row_starts - 1] = False  # pairs spanning two rows
            if decreasing.any():
                pos = int(np.flatnonzero(decreasing)[0])
                v = int(np.searchsorted(self.indptr, pos, side="right")) - 1
                raise ConstructionError(
                    f"CSR neighbour row of vertex {v} is not sorted "
                    f"(indices[{pos}]={int(self.indices[pos])} > "
                    f"indices[{pos + 1}]={int(self.indices[pos + 1])}); "
                    "build via CSRGraph.from_edges or sort each row"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray, allow_parallel: bool = False) -> "CSRGraph":
        """Build from an ``(m, 2)`` array of (possibly directed) edge pairs.

        Symmetrises, removes self-loops, and (unless ``allow_parallel``)
        deduplicates parallel edges.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        mask = edges[:, 0] != edges[:, 1]
        edges = edges[mask]
        if np.any(edges < 0) or np.any(edges >= n):
            raise ConstructionError("edge endpoint out of range")
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        keys = both[:, 0] * n + both[:, 1]
        if not allow_parallel:
            keys = sorted_unique(keys)
        else:
            keys = np.sort(keys)
        heads = keys // n
        tails = keys % n
        counts = np.bincount(heads, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n, indptr, tails.astype(np.int32))

    @classmethod
    def from_networkx(cls, g) -> "CSRGraph":
        """Build from a ``networkx`` graph with integer labels 0..n-1."""
        n = g.number_of_nodes()
        edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
        return cls.from_edges(n, edges)

    # -- basic accessors ----------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every vertex."""
        return np.diff(self.indptr).astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def is_regular(self) -> bool:
        """True iff all degrees are equal."""
        degs = self.degrees()
        return bool(len(degs) == 0 or np.all(degs == degs[0]))

    def degree(self) -> int:
        """The common degree of a regular graph (raises otherwise)."""
        degs = self.degrees()
        if not self.is_regular():
            raise ConstructionError("graph is not regular")
        return int(degs[0]) if len(degs) else 0

    def edge_array(self) -> np.ndarray:
        """Return each undirected edge once as an ``(m, 2)`` array (u < v)."""
        heads = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        tails = self.indices.astype(np.int64)
        mask = heads < tails
        return np.stack([heads[mask], tails[mask]], axis=1)

    def content_hash(self) -> str:
        """SHA-256 over the CSR arrays — a stable identity for this graph.

        Two graphs hash equal iff they have identical vertex numbering and
        edge sets, which is what the on-disk caches of derived artifacts
        (BFS distance matrices, routing tables) key on.
        """
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        h.update(np.ascontiguousarray(self.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.indices, dtype=np.int32).tobytes())
        return h.hexdigest()

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search on the sorted neighbour row."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # -- conversions ---------------------------------------------------------
    def adjacency(self, dtype=np.float64) -> sp.csr_matrix:
        """Scipy CSR adjacency matrix (cached for float64)."""
        if dtype == np.float64 and self._adj_cache is not None:
            return self._adj_cache
        data = np.ones(len(self.indices), dtype=dtype)
        mat = sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n, self.n)
        )
        if dtype == np.float64:
            self._adj_cache = mat
        return mat

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (tests/interop only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edge_array()))
        return g

    # -- mutation-by-copy ------------------------------------------------------
    def without_edges(self, removed: np.ndarray) -> "CSRGraph":
        """Return a copy with the given undirected edges removed.

        ``removed`` is an ``(r, 2)`` array; orientation is ignored.
        """
        removed = np.asarray(removed, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(removed[:, 0], removed[:, 1])
        hi = np.maximum(removed[:, 0], removed[:, 1])
        kill_keys = lo * self.n + hi
        edges = self.edge_array()
        edge_keys = edges[:, 0] * self.n + edges[:, 1]
        keep = ~np.isin(edge_keys, kill_keys)
        return CSRGraph.from_edges(self.n, edges[keep])

    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph; vertices are relabelled 0..len(vertices)-1."""
        vertices = np.asarray(vertices, dtype=np.int64)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[vertices] = np.arange(len(vertices))
        edges = self.edge_array()
        mask = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        sub_edges = remap[edges[mask]]
        return CSRGraph.from_edges(len(vertices), sub_edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.n}, m={self.num_edges})"
