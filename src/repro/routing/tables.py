"""Distance tables, minimal next-hop queries, and the simulator fast path.

A single ``n x n`` int16 hop-distance matrix (batched-BFS, computed once per
topology) answers every routing question the simulator asks:

* minimal next hops of ``(router, destination)``: the neighbours ``v`` with
  ``dist[v, d] == dist[u, d] - 1`` (all of them — path diversity is the
  point of the paper's Section VI analysis);
* path lengths for UGAL's minimal-vs-Valiant comparison.

Two query paths coexist:

* :meth:`min_next_hops` / :meth:`port_of` — the *reference* implementations,
  numpy slices over the CSR row.  Simple, obviously correct, and what the
  property tests compare the fast path against.
* the **flat next-hop table** — a CSR-of-CSR layout built once per topology
  by :meth:`build_fast_path`: one flat candidate array ``nh_indices`` where
  the candidates of pair ``(u, d)`` live at
  ``nh_indptr[u * n + d] : nh_indptr[u * n + d + 1]``, in neighbour-row
  order.  Together with :attr:`edge_index` (a dict mapping
  ``u * n + v -> directed edge id``) this turns every per-hop query into
  one or two O(1) scalar reads — no per-packet numpy slicing, boolean
  masking, or ``searchsorted``.

The table has **one stored form**: the ndarray pair ``(indptr int64,
indices int32)`` that :meth:`next_hop_arrays` returns and the disk cache
holds.  The vectorized batched engine gathers from it directly.  The
event engine's scalar reads are ~3x faster on plain Python lists, so
:attr:`nh_indptr`, :attr:`nh_indices` and :attr:`dist_flat` are *views*
for it: lists up to :data:`LIST_CELLS_MAX` cells, the arrays themselves
past it (to bound memory).  Each view is built on first request and kept;
a process that only runs the batched engine never builds one.  Routing
policies copy the views into attributes in ``bind_views()``, which
:class:`~repro.sim.network.NetworkSimulator` calls in its constructor so
no timed run pays for the conversion (a policy used without a simulator
binds on its first hop); :class:`FaultMask` reads them from the tables.

Everything O(n^2) is **lazy** behind a pluggable oracle seam
(:mod:`repro.routing.oracles`): construction costs one connectivity BFS and
the O(E) port structures, so callers that only need
:meth:`port_of`/:meth:`directed_edge_id` never pay for (or allocate) the
matrix.  In the default *dense* mode the matrix materialises transparently
on first use of :attr:`dist`/:meth:`next_hop_arrays` — bit-identical
behaviour to the eager implementation.  Passing a non-dense oracle
(``CayleyOracle``/``LandmarkOracle`` via
:func:`repro.routing.oracles.oracle_for`) makes the tables answer
``distance``/``min_next_hops``/``diameter`` on demand in ``O(k*n)`` memory;
touching :attr:`dist` or the flat table then raises rather than silently
allocating ``O(n^2)`` — that is the contract the 1e5-router scale cells
rely on (see docs/scaling.md).

The ``n x n`` matrix and the next-hop table are the most expensive
intermediates the simulations share, so both are transparently memoised in
the content-addressed disk cache (:mod:`repro.utils.diskcache`) keyed by the
graph's CSR hash: every simulator run, benchmark, and CLI invocation over
the same topology reuses one BFS and one table build.  Set ``REPRO_CACHE=0``
to disable.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graphs.bfs import UNREACHED, bfs_distances, distance_matrix
from repro.graphs.csr import CSRGraph
from repro.utils.diskcache import get_default_cache

#: Above this many ``(router, destination)`` cells the event engine's views
#: of the flat tables (:attr:`RoutingTables.nh_indptr` and friends) are the
#: numpy arrays themselves (memory-bounded); at or below it they are Python
#: lists, trading memory for the fastest possible scalar indexing.  2**21
#: cells covers every topology of the small/paper size classes up to ~1.4K
#: routers.  The stored arrays and the batched engine ignore it.
LIST_CELLS_MAX = 1 << 21


class RoutingTables:
    """Hop-distance oracle (+ flat fast-path tables) for one router graph."""

    def __init__(
        self, graph: CSRGraph, use_cache: bool = True, oracle=None
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self._use_cache = use_cache
        # One O(E) single-source BFS keeps the historical contract that a
        # disconnected graph is rejected at construction time — without
        # materialising anything O(n^2).
        if self.n and int(bfs_distances(graph, 0).max()) >= UNREACHED:
            raise ValueError("router graph is disconnected")
        #: The pluggable distance oracle.  ``None`` means dense mode with
        #: on-demand materialisation; a ``DenseOracle`` supplies its matrix
        #: eagerly; any other oracle makes the tables fully lazy.
        self._oracle = oracle
        self._dist: np.ndarray | None = None
        self._diameter: int | None = None
        if oracle is not None and oracle.kind == "dense":
            self._dist = oracle.dist
            self._diameter = oracle.diameter
        self._edge_index: dict[int, int] | None = None
        self._indptr_list: list[int] = graph.indptr.tolist()

        # Flat next-hop arrays; built lazily (only simulations need them).
        self._nh_indptr: np.ndarray | None = None
        self._nh_indices: np.ndarray | None = None

    # -- oracle seam ---------------------------------------------------------
    @property
    def is_lazy(self) -> bool:
        """True when a non-dense oracle answers queries (no n x n allowed)."""
        return self._oracle is not None and self._oracle.kind != "dense"

    @property
    def oracle(self):
        """The distance oracle (a ``DenseOracle`` is built on demand)."""
        if self._oracle is None:
            from repro.routing.oracles import DenseOracle

            self._oracle = DenseOracle(self.graph, dist=self.dist)
        return self._oracle

    def _lazy_error(self, what: str) -> RuntimeError:
        return RuntimeError(
            f"tables are oracle-backed ({self._oracle.kind}); {what} would "
            "materialise O(n^2) state — use the oracle query API instead "
            "(distance/min_next_hops/diameter)"
        )

    @property
    def dist(self) -> np.ndarray:
        """The dense matrix (materialised on first use in dense mode)."""
        if self._dist is None:
            if self.is_lazy:
                raise self._lazy_error("the dense distance matrix")
            if self._use_cache:
                key = ("distance-matrix", self.graph.content_hash())
                self._dist = get_default_cache().memoize(
                    key, lambda: distance_matrix(self.graph).astype(np.int16)
                )
            else:
                self._dist = distance_matrix(self.graph).astype(np.int16)
            if np.any(self._dist < 0):
                raise ValueError("router graph is disconnected")
        return self._dist

    @property
    def diameter(self) -> int:
        """Graph diameter (from the oracle in lazy mode)."""
        if self._diameter is None:
            if self.is_lazy:
                self._diameter = int(self._oracle.diameter)
            else:
                self._diameter = int(self.dist.max())
        return self._diameter

    @property
    def edge_index(self) -> dict[int, int]:
        """O(1) directed-edge lookup: ``edge_index[u * n + v]`` is the CSR
        position of the directed edge u -> v.  The simulator's event loop
        reads this dict directly.  Built on first use (O(E))."""
        if self._edge_index is None:
            g = self.graph
            heads = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(g.indptr)
            )
            keys = (heads * self.n + g.indices).tolist()
            self._edge_index = dict(zip(keys, range(len(keys))))
        return self._edge_index

    # -- reference queries ---------------------------------------------------
    def distance(self, u: int, d: int) -> int:
        """Hop distance from router u to router d."""
        if self.is_lazy:
            return self._oracle.distance(u, d)
        return int(self.dist[u, d])

    def min_next_hops(self, u: int, d: int) -> np.ndarray:
        """All neighbours of ``u`` on a shortest path to ``d``.

        Reference implementation (numpy slice over the CSR row); the
        simulators read the flat table (:meth:`next_hop_arrays` and its
        views) instead.  In lazy mode the oracle answers
        bit-identically (same sorted candidate order).
        """
        if self.is_lazy:
            return self._oracle.min_next_hops(u, d)
        row = self.graph.neighbors(u)
        return row[self.dist[row, d] == self.dist[u, d] - 1]

    def port_of(self, u: int, v: int) -> int:
        """Local port index of the link u -> v (raises if absent)."""
        return self.directed_edge_id(u, v) - self._indptr_list[u]

    def directed_edge_id(self, u: int, v: int) -> int:
        """Global id of the directed edge u -> v (CSR position)."""
        eid = self.edge_index.get(u * self.n + v)
        if eid is None:
            raise KeyError(f"no link {u} -> {v}")
        return eid

    # -- flat fast path ------------------------------------------------------
    def _build_next_hop_table(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-of-CSR minimal next hops for every (router, destination).

        Returns ``(indptr, indices)``: the candidates of pair ``(u, d)``
        are ``indices[indptr[u*n + d] : indptr[u*n + d + 1]]``, listed in
        the same (sorted neighbour-row) order as :meth:`min_next_hops`.
        """
        g = self.graph
        n = self.n
        dist = self.dist
        counts = np.empty(n * n, dtype=np.int64)
        chunks = []
        for u in range(n):
            row = g.neighbors(u)
            # mask[d, j]: neighbour row[j] is a minimal next hop toward d.
            mask = (dist[row] == dist[u] - np.int16(1)).T
            d_idx, j_idx = np.nonzero(mask)
            chunks.append(row[j_idx])
            counts[u * n : (u + 1) * n] = mask.sum(axis=1)
        indptr = np.empty(n * n + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        indices = (
            np.concatenate(chunks).astype(np.int32)
            if chunks
            else np.empty(0, dtype=np.int32)
        )
        return indptr, indices

    def build_fast_path(self) -> None:
        """Build (or load from the disk cache) the flat next-hop arrays."""
        if self._nh_indptr is not None:
            return
        if self.is_lazy:
            raise self._lazy_error("the flat next-hop table")
        if self._use_cache:
            key = ("next-hop-table", self.graph.content_hash())
            indptr, indices = get_default_cache().memoize(
                key, self._build_next_hop_table
            )
        else:
            indptr, indices = self._build_next_hop_table()
        self._nh_indptr = indptr
        self._nh_indices = indices

    def next_hop_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat table as stored: ``(indptr int64, indices int32)``.

        ``indices[indptr[u*n + d] : indptr[u*n + d + 1]]`` are the minimal
        next hops of ``(u, d)``.  Built or loaded on first use; what the
        batched engine gathers from.
        """
        self.build_fast_path()
        return self._nh_indptr, self._nh_indices

    def _view(self, arr: np.ndarray):
        return arr.tolist() if self.n * self.n <= LIST_CELLS_MAX else arr

    @cached_property
    def nh_indptr(self):
        """Event-engine view of the table's ``indptr`` (built on first use).

        A Python list up to :data:`LIST_CELLS_MAX` cells, the array of
        :meth:`next_hop_arrays` past it; either way ``nh_indices[
        nh_indptr[u*n + d] : nh_indptr[u*n + d + 1]]`` are the minimal
        next hops of ``(u, d)``.
        """
        return self._view(self.next_hop_arrays()[0])

    @cached_property
    def nh_indices(self):
        """Event-engine view of the table's ``indices`` (see
        :attr:`nh_indptr`; built on first use)."""
        return self._view(self.next_hop_arrays()[1])

    @cached_property
    def dist_flat(self):
        """Row-major flat view of :attr:`dist` (``dist_flat[u * n + d]``)
        for O(1) scalar reads: a list on small topologies, a raveled int16
        view otherwise.  Built on first use."""
        return self._view(self.dist.ravel())

    def table_next_hops(self, u: int, d: int) -> np.ndarray:
        """Candidates of ``(u, d)`` read from the flat table (test hook)."""
        indptr, indices = self.next_hop_arrays()
        k = u * self.n + d
        return indices[indptr[k] : indptr[k + 1]]

    def fault_mask(self) -> "FaultMask":
        """A fresh incremental fault overlay on this table (pristine)."""
        return FaultMask(self)


class FaultMask:
    """Reversible link/router fault overlay on a :class:`RoutingTables`.

    Failing a link *masks* its two directed edges out of the flat next-hop
    table at query time instead of recomputing BFS: the underlying arrays
    are never touched, so recovery is exact (bit-for-bit — a property test
    pins ``live_min_candidates`` back to :meth:`RoutingTables.table_next_hops`
    after full restoration) and each fault/recovery is O(1).

    Distances deliberately stay **stale**: like a real network running on
    tables computed before the fault, minimal candidates that survive are
    still truly minimal for mild damage, and when every minimal candidate
    of a ``(router, destination)`` pair is severed,
    :meth:`fallback_candidates` offers the live neighbours greedily closest
    to the destination under the stale metric (the simulator bounds the
    resulting non-minimal walks with a hop TTL).

    On oracle-backed (lazy) tables the overlay composes with lazily
    materialised rows instead of the flat table: candidates come from
    ``oracle.min_next_hops`` and fallback scans read the destination's
    distance row through the oracle's bounded LRU.  The oracle always
    reports *pristine* distances, which is exactly the stale-metric
    semantics above — the equivalence suite pins the two paths together.

    Failure counts per directed edge (not booleans) make independently
    failed links compose with router failures: failing a router increments
    every incident directed edge, so restoring the router cannot resurrect
    a link that was also failed on its own.
    """

    def __init__(self, tables: RoutingTables) -> None:
        self.tables = tables
        g = tables.graph
        self._n = tables.n
        self._oracle = tables.oracle if tables.is_lazy else None
        self._edge_index = tables.edge_index
        self._indptr = tables._indptr_list
        self._neighbors: list[list[int]] = [
            g.neighbors(u).tolist() for u in range(self._n)
        ]
        #: failure multiplicity per directed edge id; alive iff 0.
        self._dead_edge: list[int] = [0] * len(g.indices)
        self._dead_router: list[bool] = [False] * self._n
        self._n_dead = 0  # total failure multiplicity + dead routers

    # -- state ---------------------------------------------------------------
    @property
    def pristine(self) -> bool:
        """True iff no link or router is currently failed."""
        return self._n_dead == 0

    def router_alive(self, r: int) -> bool:
        return not self._dead_router[r]

    def edge_alive(self, u: int, v: int) -> bool:
        return not self._dead_edge[self._edge_index[u * self._n + v]]

    def _directed_ids(self, u: int, v: int) -> tuple[int, int]:
        n = self._n
        ei = self._edge_index
        try:
            return ei[u * n + v], ei[v * n + u]
        except KeyError:
            raise KeyError(f"no link {u} <-> {v}") from None

    # -- mutation ------------------------------------------------------------
    def fail_link(self, u: int, v: int) -> list[int]:
        """Fail the undirected link u-v; returns the newly dead directed ids."""
        newly = []
        for eid in self._directed_ids(u, v):
            self._dead_edge[eid] += 1
            self._n_dead += 1
            if self._dead_edge[eid] == 1:
                newly.append(eid)
        return newly

    def restore_link(self, u: int, v: int) -> list[int]:
        """Undo one failure of link u-v; returns the newly live directed ids."""
        newly = []
        for eid in self._directed_ids(u, v):
            if self._dead_edge[eid] == 0:
                raise ValueError(f"link {u}-{v} is not failed")
            self._dead_edge[eid] -= 1
            self._n_dead -= 1
            if self._dead_edge[eid] == 0:
                newly.append(eid)
        return newly

    def fail_router(self, r: int) -> list[int]:
        """Fail router ``r`` and every incident link (both directions).

        Returns the newly dead directed edge ids (for queue flushing).
        """
        if self._dead_router[r]:
            raise ValueError(f"router {r} is already failed")
        self._dead_router[r] = True
        self._n_dead += 1
        newly = []
        for v in self._neighbors[r]:
            newly.extend(self.fail_link(r, v))
        return newly

    def restore_router(self, r: int) -> list[int]:
        """Undo a router failure; returns the newly live directed edge ids."""
        if not self._dead_router[r]:
            raise ValueError(f"router {r} is not failed")
        self._dead_router[r] = False
        self._n_dead -= 1
        newly = []
        for v in self._neighbors[r]:
            newly.extend(self.restore_link(r, v))
        return newly

    # -- queries -------------------------------------------------------------
    def live_min_candidates(self, u: int, d: int) -> list[int]:
        """The minimal next hops of ``(u, d)`` whose outgoing link is live.

        Router death implies incident-edge death (see :meth:`fail_router`),
        so the edge check subsumes the router check.  Empty when the
        minimal set is fully severed.
        """
        dead = self._dead_edge
        ei = self._edge_index
        base = u * self._n
        if self._oracle is None:
            # The event engine's views (only its handler path calls this;
            # the batched engine filters the stored arrays itself).
            tables = self.tables
            indptr = tables.nh_indptr
            k = base + d
            cands = tables.nh_indices[indptr[k] : indptr[k + 1]]
        else:
            cands = self._oracle.min_next_hops(u, d)
        return [int(v) for v in cands if not dead[ei[base + int(v)]]]

    def fallback_candidates(self, u: int, d: int) -> list[int]:
        """Live neighbours of ``u`` closest to ``d`` under the stale metric.

        The non-minimal escape hatch when :meth:`live_min_candidates` comes
        back empty.  Empty iff ``u`` has no live outgoing link at all.
        """
        # The destination's distance row (undirected, so row(d)[v] ==
        # d(v, d)): pristine distances, i.e. exactly the stale metric; in
        # lazy mode through the oracle's bounded LRU.  ``item`` reads a
        # Python int straight from the array (no numpy scalar + int()).
        if self._oracle is None:
            dist_of = self.tables.dist[d].item
        else:
            dist_of = self._oracle.row(d).item
        dead = self._dead_edge
        eid = self._indptr[u]
        best = None
        out: list[int] = []
        for v in self._neighbors[u]:
            if not dead[eid]:
                d_v = dist_of(v)
                if best is None or d_v < best:
                    best = d_v
                    out = [v]
                elif d_v == best:
                    out.append(v)
            eid += 1
        return out

    def live_next_hops(self, u: int, d: int) -> np.ndarray:
        """Array view of :meth:`live_min_candidates` (test hook)."""
        return np.asarray(self.live_min_candidates(u, d), dtype=np.int32)
