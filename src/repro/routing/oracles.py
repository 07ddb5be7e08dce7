"""On-demand routing oracles: distances and minimal next hops without O(n^2).

The dense all-pairs matrix in :mod:`repro.routing.tables` answers every
routing question the simulators ask, but costs ``O(n^2)`` memory and an
all-pairs BFS — which caps experiments at toy node counts.  The paper's
SpectralFly graphs are *Cayley graphs*, so the same questions admit
on-demand answers from group structure.  This module provides the pluggable
oracle layer behind :class:`repro.routing.tables.RoutingTables`:

* :class:`DenseOracle` — today's matrix behind the oracle interface; still
  the default below :data:`DENSE_ORACLE_MAX` routers.
* :class:`CayleyOracle` — for vertex-transitive algebraic families
  (LPS/SpectralFly, Paley, MMS/SlimFly).  A *translator* maps any query
  pair ``(u, d)`` to a canonical source via a graph automorphism
  (``d(u, d) == d(src_f, z)``), so one cached single-source BFS ball per
  canonical form answers every distance query: ``O(forms * n)`` memory
  instead of ``O(n^2)``.
* :class:`LandmarkOracle` — for unstructured families (Jellyfish, Xpander):
  ``k`` landmark BFS trees give fast admissible upper bounds,
  and exact answers come from per-vertex BFS rows computed on miss and
  kept in the same bounded LRU.

All oracles answer ``distance`` / ``min_next_hops`` *bit-identically* to
:class:`DenseOracle` (candidates in sorted neighbour-row order, same
widths), so routing policies driven by an oracle consume their RNG streams
exactly like the dense fast path — the oracle-equivalence and differential
suites pin this.

Every oracle also keeps a bounded LRU of full distance *rows* (``row(u)``:
distances from ``u`` to everybody, ``O(n)`` each).  Rows serve the fault
mask's fallback scans and the landmark oracle's exact path; eviction never
changes answers (property-tested), it only re-costs them.
"""

from __future__ import annotations

import logging
from collections import OrderedDict

import numpy as np

from repro.graphs.bfs import UNREACHED, bfs_distances
from repro.graphs.csr import CSRGraph
from repro.routing.tables import dense_distances

_log = logging.getLogger(__name__)

#: Router count at or below which ``oracle_for(kind="auto")`` picks the
#: dense matrix: below this the O(n^2) table fits comfortably in memory and
#: its flat fast path is the quickest per-hop answer.  Above it, algebraic
#: families get a :class:`CayleyOracle` and everything else a
#: :class:`LandmarkOracle`.  See docs/scaling.md for how to tune this.
DENSE_ORACLE_MAX = 4096

#: Default bound on the per-oracle LRU of full distance rows.
ROW_CACHE_ROWS = 64

#: Default number of landmark BFS trees for :class:`LandmarkOracle`.
LANDMARKS_DEFAULT = 16


class RoutingOracle:
    """Interface + shared machinery for distance/next-hop oracles.

    Subclasses implement :meth:`_compute_row` (a full distance row, used
    by the LRU) and usually override :meth:`distance_batch` with something
    cheaper than whole rows.  The graph must be undirected (every router
    graph in this repo is), which the row cache exploits via
    ``d(u, v) == d(v, u)``.
    """

    kind = "abstract"

    def __init__(self, graph: CSRGraph, row_cache: int = ROW_CACHE_ROWS) -> None:
        self.graph = graph
        self.n = graph.n
        degs = np.diff(graph.indptr)
        #: Common degree when the graph is regular, else None (regularity
        #: enables the fully vectorised batch next-hop path).
        self._radix = (
            int(degs[0]) if len(degs) and np.all(degs == degs[0]) else None
        )
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._row_cache_max = max(1, int(row_cache))

    # -- required ------------------------------------------------------------
    def _compute_row(self, u: int) -> np.ndarray:
        """Distances from ``u`` to every vertex (int32, no UNREACHED)."""
        raise NotImplementedError

    @property
    def diameter(self) -> int:
        raise NotImplementedError

    # -- row LRU -------------------------------------------------------------
    def row(self, u: int) -> np.ndarray:
        """Full distance row of ``u`` through the bounded LRU."""
        rows = self._rows
        r = rows.get(u)
        if r is not None:
            rows.move_to_end(u)
            return r
        r = self._compute_row(int(u))
        rows[u] = r
        if len(rows) > self._row_cache_max:
            rows.popitem(last=False)
        return r

    def cached_row_ids(self) -> list[int]:
        """Vertices currently holding a cached row (eviction test hook)."""
        return list(self._rows)

    # -- distances -----------------------------------------------------------
    def distance(self, u: int, d: int) -> int:
        """Hop distance from ``u`` to ``d``."""
        r = self._rows.get(u)
        if r is not None:
            return int(r[d])
        r = self._rows.get(d)  # undirected: d(u, d) == d(d, u)
        if r is not None:
            return int(r[u])
        return int(
            self.distance_batch(
                np.array([u], dtype=np.int64), np.array([d], dtype=np.int64)
            )[0]
        )

    def distance_batch(self, us, ds) -> np.ndarray:
        """Vectorised distances for parallel arrays ``us[i] -> ds[i]``.

        Default: group by destination and gather from ``row(d)`` (one row
        per distinct destination, LRU-cached).  Algebraic oracles override
        this with O(1)-per-pair translation.
        """
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        out = np.empty(len(us), dtype=np.int64)
        for d in np.unique(ds):
            m = ds == d
            out[m] = self.row(int(d))[us[m]]
        return out

    # -- minimal next hops ---------------------------------------------------
    def min_next_hops(self, u: int, d: int) -> np.ndarray:
        """All neighbours of ``u`` on a shortest path to ``d``.

        Same contract as :meth:`RoutingTables.min_next_hops`: candidates in
        sorted neighbour-row order (CSR rows are sorted), bit-identical to
        the dense reference.
        """
        nbrs = self.graph.neighbors(u)
        du = self.distance(u, d)
        nd = self.distance_batch(
            nbrs.astype(np.int64), np.full(len(nbrs), d, dtype=np.int64)
        )
        return nbrs[nd == du - 1]

    def minimal_blocks(self, us: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """Batch minimal-candidate mask for a regular graph.

        Returns a boolean ``(m, radix)`` array: entry ``[i, t]`` says
        whether the neighbour in CSR slot ``t`` of ``us[i]`` (edge id
        ``indptr[us[i]] + t``) is a minimal next hop toward ``ds[i]``.
        This general form asks :meth:`distance_batch` for the pair and
        for each of its ``radix`` neighbours.
        """
        if self._radix is None:
            raise ValueError("minimal_blocks requires a regular graph")
        k = self._radix
        g = self.graph
        nbrs = g.indices[g.indptr[us][:, None] + np.arange(k)]
        nd = self.distance_batch(
            nbrs.ravel().astype(np.int64), np.repeat(ds, k)
        ).reshape(-1, k)
        du = self.distance_batch(us, ds)
        return nd == (du - 1)[:, None]

    def pick_minimal(
        self, us: np.ndarray, ds: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Vectorised uniform minimal pick: candidate ``int(r*width)`` per pair.

        ``r`` holds one uniform [0,1) draw per pair; the selected candidate
        matches the dense flat-table pick (same sorted candidate order, same
        width, same draw) bit for bit.  Returns the CSR edge id of each
        pick (``indptr[u] + slot``); the hop is ``graph.indices[eid]``.
        """
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        g = self.graph
        if self._radix is None:
            out = np.empty(len(us), dtype=np.int64)
            for i in range(len(us)):
                u = int(us[i])
                c = self.min_next_hops(u, int(ds[i]))
                if len(c) == 0:
                    raise ValueError(
                        f"no minimal next hop from {u} to {ds[i]}"
                    )
                lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
                out[i] = lo + np.searchsorted(
                    g.indices[lo:hi], c[int(r[i] * len(c))]
                )
            return out
        mask = self.minimal_blocks(us, ds)
        width = mask.sum(axis=1)
        if len(width) and int(width.min()) <= 0:
            i = int(np.argmin(width))
            raise ValueError(
                f"no minimal next hop from {us[i]} to {ds[i]}"
            )
        pick = (r * width).astype(np.int64)
        cum = np.cumsum(mask, axis=1)
        sel = mask & (cum == (pick + 1)[:, None])
        return g.indptr[us] + sel.argmax(axis=1)

    # -- sanity --------------------------------------------------------------
    def _self_check(self, samples: int = 32, seed: int = 0) -> None:
        """Construction-time smoke test of oracle consistency.

        ``d(u, u) == 0`` pins the translation to the canonical source
        exactly (only the source itself is at ball distance 0), and
        ``d(u, nbr) == 1`` pins the neighbour geometry.
        """
        rng = np.random.default_rng(seed)
        us = rng.integers(0, self.n, size=min(samples, self.n))
        us = us.astype(np.int64)
        if np.any(self.distance_batch(us, us) != 0):
            raise ValueError(f"{self.kind} oracle broken: d(u, u) != 0")
        for u in us[: max(4, samples // 8)]:
            nbrs = self.graph.neighbors(int(u)).astype(np.int64)
            nd = self.distance_batch(
                np.full(len(nbrs), u, dtype=np.int64), nbrs
            )
            if np.any(nd != 1):
                raise ValueError(
                    f"{self.kind} oracle broken: d(u, neighbor) != 1"
                )


class DenseOracle(RoutingOracle):
    """The all-pairs matrix behind the oracle interface (reference)."""

    kind = "dense"

    def __init__(
        self,
        graph: CSRGraph,
        dist: np.ndarray | None = None,
        use_cache: bool = True,
    ) -> None:
        super().__init__(graph)
        if dist is None:
            dist = dense_distances(graph, use_cache)
        self.dist = dist
        self._diam = int(dist.max())

    @property
    def diameter(self) -> int:
        return self._diam

    def _compute_row(self, u: int) -> np.ndarray:
        return self.dist[u].astype(np.int32)

    def distance(self, u: int, d: int) -> int:
        return int(self.dist[u, d])

    def distance_batch(self, us, ds) -> np.ndarray:
        return self.dist[np.asarray(us), np.asarray(ds)].astype(np.int64)

    def min_next_hops(self, u: int, d: int) -> np.ndarray:
        row = self.graph.neighbors(u)
        return row[self.dist[row, d] == self.dist[u, d] - 1]


# ---------------------------------------------------------------------------
# Translators: map (u, d) to (canonical form, translated destination)
# ---------------------------------------------------------------------------
class WordTranslator:
    """Group translator from right-multiplication generator permutations.

    For a Cayley graph with edges ``v -> v*s_j`` (vertex 0 = identity,
    ``perms[j][v] = v*s_j``), left translation by any group element is an
    automorphism, so ``d(u, d) == d(e, u^-1 d)``.  ``u^-1 d`` is computed
    by walking the generator word of ``d`` (from the BFS spanning tree of
    the group) starting at the vertex of ``u^-1``:

        ``u^-1 d = ((u^-1 * s_j1) * s_j2) * ... * s_jk``.

    Inverses come from walking reversed words with paired inverse
    generators — everything stays in the right-multiplication tables the
    closure already produced.  Memory: ``n * diameter`` int8 words, the
    int32 ``(n_generators, n)`` permutations, and the int32 depth and
    int64 inverse of every vertex (at LPS(5,61): 1.0 MB of words, 2.7 MB
    of permutations, 1.4 MB for depths and inverses).  A walk over ``m``
    pairs allocates ``O(m * diameter)`` and no copy of the permutations.
    """

    def __init__(self, perms: np.ndarray) -> None:
        perms = np.ascontiguousarray(np.asarray(perms, dtype=np.int32))
        if perms.ndim != 2:
            raise ValueError("perms must be (n_generators, n_vertices)")
        self.perms = perms
        self.n_gens, self.n = perms.shape
        self.canonical_sources = np.zeros(1, dtype=np.int64)
        self._build_words()
        self._build_inverses()

    def _build_words(self) -> None:
        """BFS the group from the identity; record parent generators."""
        n = self.n
        depth = np.full(n, -1, dtype=np.int32)
        parent = np.full(n, -1, dtype=np.int64)
        pgen = np.full(n, -1, dtype=np.int8)
        depth[0] = 0
        frontier = np.zeros(1, dtype=np.int64)
        d = 0
        while frontier.size:
            nxt = []
            for j in range(self.n_gens):
                w = self.perms[j][frontier]
                m = depth[w] < 0
                cand = w[m]
                csrc = frontier[m]
                if cand.size:
                    uq, first = np.unique(cand, return_index=True)
                    still = depth[uq] < 0
                    uq, first = uq[still], first[still]
                    depth[uq] = d + 1
                    parent[uq] = csrc[first]
                    pgen[uq] = j
                    nxt.append(uq)
            frontier = (
                np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
            )
            d += 1
        if int(depth.min()) < 0:
            raise ValueError("router graph is disconnected")
        self.depth = depth
        maxlen = int(depth.max())
        words = np.zeros((n, max(maxlen, 1)), dtype=np.int8)
        for lvl in range(1, maxlen + 1):
            vs = np.nonzero(depth == lvl)[0]
            if lvl > 1:
                words[vs, : lvl - 1] = words[parent[vs], : lvl - 1]
            words[vs, lvl - 1] = pgen[vs]
        self.words = words

    def _build_inverses(self) -> None:
        """Pair each generator with its inverse; tabulate vertex inverses."""
        inv_pair = np.full(self.n_gens, -1, dtype=np.int64)
        for j in range(self.n_gens):
            v = int(self.perms[j][0])  # the vertex of s_j itself
            for j2 in range(self.n_gens):
                if int(self.perms[j2][v]) == 0:
                    inv_pair[j] = j2
                    break
            if inv_pair[j] < 0:
                raise ValueError("generator set is not closed under inverse")
        self.inv_pair = inv_pair
        # inv[d] = s_jk^-1 * ... * s_j1^-1 for word(d) = [j1 .. jk].
        z = np.zeros(self.n, dtype=np.int64)
        words, depth = self.words, self.depth
        for t in range(words.shape[1] - 1, -1, -1):
            active = depth > t
            z[active] = self.perms[
                inv_pair[words[active, t]], z[active]
            ]
        self.inv = z

    def _apply_words(self, starts: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """Walk ``word(ds[i])`` from ``starts[i]``: returns ``starts*ds``.

        Every pair gathers at every step (a word is padded with generator
        0, a valid row) and a finished word keeps its value through
        ``np.where``: cheaper than selecting the live pairs at each step.
        """
        z = np.array(starts, dtype=np.int64, copy=True)
        wl = self.depth[ds]
        w = self.words[ds]
        flat = self.perms.ravel()  # perms[j][v] is flat[j * n + v]
        n = np.int64(self.n)
        for t in range(int(wl.max()) if len(wl) else 0):
            z = np.where(wl > t, flat[w[:, t] * n + z], z)
        return z

    def translate(self, us, ds) -> tuple[np.ndarray, np.ndarray]:
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        z = self._apply_words(self.inv[us], ds)
        return np.zeros(len(z), dtype=np.int64), z

    def left_translate(self, g: int, vs) -> np.ndarray:
        """The automorphism ``v -> g*v`` (walk word(v) from vertex g)."""
        vs = np.asarray(vs, dtype=np.int64)
        return self._apply_words(np.full(len(vs), g, dtype=np.int64), vs)


class PaleyTranslator:
    """Additive translation for Paley graphs: ``d(u, d) == d(0, d - u)``."""

    def __init__(self, q: int) -> None:
        from repro.algebra.gf import GF

        self.field = GF(q)
        self.canonical_sources = np.zeros(1, dtype=np.int64)

    def translate(self, us, ds) -> tuple[np.ndarray, np.ndarray]:
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        z = np.asarray(self.field.sub(ds, us), dtype=np.int64)
        return np.zeros(len(z), dtype=np.int64), z

    def left_translate(self, g: int, vs) -> np.ndarray:
        """The automorphism ``v -> v + g``."""
        vs = np.asarray(vs, dtype=np.int64)
        return np.asarray(
            self.field.add(vs, np.full(len(vs), g, dtype=np.int64)),
            dtype=np.int64,
        )


class MMSTranslator:
    """Piecewise-affine automorphisms for MMS/SlimFly graphs.

    MMS vertices live in two blocks (block 0: ``(x, y) -> x*q + y``;
    block 1: ``(m, c) -> q^2 + m*q + c``).  The maps

    * block-0 ``u = (x0, y0)`` to the origin:
      ``(x, y) -> (x - x0, y - y0)``, ``(m, c) -> (m, c - y0 + m*x0)``
    * block-1 ``u = (m0, c0)`` to ``(0, 0)`` of block 1:
      ``(x, y) -> (x, y - m0*x - c0)``, ``(m, c) -> (m - m0, c - c0)``

    preserve the intra-block difference sets and the cross condition
    ``y == m*x + c``, so they are graph automorphisms for every delta
    case.  Two canonical forms: vertex 0 and vertex ``q^2``.
    """

    def __init__(self, q: int) -> None:
        from repro.algebra.gf import GF

        self.field = GF(q)
        self.q = q
        self.q2 = q * q
        self.canonical_sources = np.array([0, q * q], dtype=np.int64)

    def translate(self, us, ds) -> tuple[np.ndarray, np.ndarray]:
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        f, q, q2 = self.field, self.q, self.q2
        ub = us >= q2
        db = ds >= q2
        ux = np.where(ub, us - q2, us) // q
        uy = us % q
        dx = np.where(db, ds - q2, ds) // q
        dy = ds % q
        # u in block 0 -> form 0:
        nx0 = np.where(db, dx, f.sub(dx, ux))
        ny0 = np.where(
            db, f.add(f.sub(dy, uy), f.mul(dx, ux)), f.sub(dy, uy)
        )
        # u in block 1 -> form 1:
        nx1 = np.where(db, f.sub(dx, ux), dx)
        ny1 = np.where(
            db, f.sub(dy, uy), f.sub(f.sub(dy, f.mul(ux, dx)), uy)
        )
        nx = np.where(ub, nx1, nx0).astype(np.int64)
        ny = np.where(ub, ny1, ny0).astype(np.int64)
        z = nx * q + ny + np.where(db, q2, 0)
        return ub.astype(np.int64), z


class CayleyOracle(RoutingOracle):
    """Distances/next hops via vertex-transitivity: translate, then look up.

    One BFS ball per canonical form (``O(forms * n)`` int32), plus the
    translator's own ``O(n * diameter)`` structure for word-walk families.
    Every query ``d(u, d)`` becomes ``ball[form(u)][translate(u, d)]``.

    With a :class:`WordTranslator` on a regular graph, one walk answers a
    pair and all its neighbours.  The graph is a right Cayley graph with
    vertex 0 the identity, and left multiplication by ``d^-1`` takes ``d``
    to it, so for ``w = d^-1 u`` (``translate(ds, us)``)
    ``d(u, d) == ball[w]`` and the neighbour ``u*s_j`` is at
    ``ball[perms[j][w]]``.  An ``n x radix`` int8 slot table (``n*radix``
    bytes: 0.68 MB at LPS(5,61)) names the generator behind each CSR
    slot of each vertex, so :meth:`minimal_blocks` reads the neighbour
    distances in CSR order.
    """

    kind = "cayley"

    def __init__(
        self,
        graph: CSRGraph,
        translator,
        row_cache: int = ROW_CACHE_ROWS,
        self_check: bool = True,
    ) -> None:
        super().__init__(graph, row_cache=row_cache)
        self.translator = translator
        srcs = np.asarray(translator.canonical_sources, dtype=np.int64)
        balls = np.stack([bfs_distances(graph, int(s)) for s in srcs])
        if int(balls.max()) >= UNREACHED:
            raise ValueError("router graph is disconnected")
        self._balls = balls.astype(np.int32)
        # Vertex-transitive: every vertex is automorphic to one of the
        # canonical sources, so the max over the form balls is the true
        # eccentricity maximum.
        self._diam = int(self._balls.max())
        self._slot_gen = (
            self._slot_generators(translator.perms)
            if isinstance(translator, WordTranslator)
            and self._radix is not None
            else None
        )
        if self_check:
            self._self_check()

    def _slot_generators(self, perms: np.ndarray) -> np.ndarray:
        """``slot_gen[u, t] = j`` where CSR slot ``t`` of ``u`` is ``u*s_j``."""
        rows = self.graph.indices.reshape(self.n, self._radix)
        slot_gen = np.full(rows.shape, -1, dtype=np.int8)
        for j in range(len(perms)):
            slot_gen[rows == perms[j][:, None]] = j
        if int(slot_gen.min()) < 0:
            raise ValueError(
                "translator permutations do not match the graph's "
                "neighbour rows"
            )
        return slot_gen

    @property
    def diameter(self) -> int:
        return self._diam

    def distance_batch(self, us, ds) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        form, z = self.translator.translate(us, ds)
        return self._balls[form, z].astype(np.int64)

    def minimal_blocks(self, us: np.ndarray, ds: np.ndarray) -> np.ndarray:
        """The minimal mask from one word walk per pair (see the class)."""
        if self._slot_gen is None:
            return super().minimal_blocks(us, ds)
        tr = self.translator
        w = tr._apply_words(tr.inv[ds], us)  # d^-1 u
        ball = self._balls[0]
        nbr = tr.perms.ravel()[self._slot_gen[us] * np.int64(self.n)
                               + w[:, None]]  # d^-1 u s_j, in CSR order
        return ball[nbr] == (ball[w] - 1)[:, None]

    def _compute_row(self, u: int) -> np.ndarray:
        all_d = np.arange(self.n, dtype=np.int64)
        return self.distance_batch(
            np.full(self.n, u, dtype=np.int64), all_d
        ).astype(np.int32)


class LandmarkOracle(RoutingOracle):
    """Landmark BFS trees + exact-on-miss rows for unstructured graphs.

    ``k`` landmarks are chosen greedily farthest-first (deterministic:
    landmark 0 is vertex 0, ties break to the lowest id).  Their BFS rows
    give the classic admissible estimate

        ``d(u, d) <= min_L d(u, L) + d(L, d)``  (:meth:`upper_bound`)

    while *exact* answers — what routing needs — come from full BFS rows
    computed per queried vertex and held in the bounded LRU
    (:meth:`RoutingOracle.row`).  Memory: ``O(k*n + lru*n)``.
    """

    kind = "landmark"

    def __init__(
        self,
        graph: CSRGraph,
        landmarks: int = LANDMARKS_DEFAULT,
        row_cache: int = ROW_CACHE_ROWS,
    ) -> None:
        super().__init__(graph, row_cache=row_cache)
        k = max(1, min(int(landmarks), graph.n))
        first = bfs_distances(graph, 0)
        if int(first.max()) >= UNREACHED:
            raise ValueError("router graph is disconnected")
        lids = [0]
        rows = [first.astype(np.int32)]
        mind = rows[0].copy()
        while len(lids) < k:
            nxt = int(np.argmax(mind))
            if int(mind[nxt]) == 0:
                break  # every vertex is already a landmark
            lids.append(nxt)
            r = bfs_distances(graph, nxt).astype(np.int32)
            rows.append(r)
            np.minimum(mind, r, out=mind)
        self.landmarks = np.asarray(lids, dtype=np.int64)
        self._lrows = np.stack(rows)
        self._diam: int | None = None

    @property
    def diameter(self) -> int:
        if self._diam is None:
            from repro.graphs.bfs import distance_profile

            self._diam = int(distance_profile(self.graph)[1])
        return self._diam

    def _compute_row(self, u: int) -> np.ndarray:
        return bfs_distances(self.graph, u).astype(np.int32)

    def upper_bound(self, us, ds) -> np.ndarray:
        """Admissible (triangle-inequality) distance upper bounds."""
        us = np.asarray(us, dtype=np.int64)
        ds = np.asarray(ds, dtype=np.int64)
        return (
            (self._lrows[:, us] + self._lrows[:, ds]).min(axis=0)
        ).astype(np.int64)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------
#: Families whose group structure the Cayley translators cover.
CAYLEY_FAMILIES = ("LPS", "Paley", "MMS", "SlimFly")


def translator_for(topo):
    """Build the Cayley translator for ``topo``, or None if unsupported."""
    family = topo.family
    if family == "LPS":
        perms = getattr(topo, "gen_perms", None)
        if perms is None:
            from repro.topology.lps import lps_generator_permutations

            perms = lps_generator_permutations(
                topo.params["p"], topo.params["q"]
            )
        return WordTranslator(perms)
    if family == "Paley":
        return PaleyTranslator(topo.params["q"])
    if family in ("MMS", "SlimFly"):
        return MMSTranslator(topo.params["q"])
    return None


def oracle_for(
    topo,
    kind: str = "auto",
    dense_threshold: int = DENSE_ORACLE_MAX,
    landmarks: int = LANDMARKS_DEFAULT,
    use_cache: bool = True,
) -> RoutingOracle:
    """Pick and build the routing oracle for a topology.

    ``kind``: ``"auto"`` (dense below ``dense_threshold`` routers, then
    Cayley where the family has a translator, else landmark), or one of
    ``"dense"`` / ``"cayley"`` / ``"landmark"`` to force a backend.  The
    choice and the rule that made it are logged at DEBUG.
    """
    g = topo.graph
    if kind == "auto":
        if g.n <= dense_threshold:
            kind = "dense"
            rule = f"auto: at most dense_threshold={dense_threshold} routers"
        elif topo.family in CAYLEY_FAMILIES:
            kind = "cayley"
            rule = (f"auto: above dense_threshold={dense_threshold}, "
                    "family has a Cayley translator")
        else:
            kind = "landmark"
            rule = (f"auto: above dense_threshold={dense_threshold}, "
                    "no Cayley translator for the family")
    elif kind in ("dense", "cayley", "landmark"):
        rule = "kind given by the caller"
    else:
        raise ValueError(
            f"unknown oracle kind {kind!r}; options auto/dense/cayley/landmark"
        )
    _log.debug("%s oracle for %d routers, family %s (%s)",
               kind, g.n, topo.family, rule)
    if kind == "dense":
        return DenseOracle(g, use_cache=use_cache)
    if kind == "cayley":
        tr = translator_for(topo)
        if tr is None:
            raise ValueError(
                f"no Cayley translator for family {topo.family!r} "
                f"(supported: {CAYLEY_FAMILIES})"
            )
        return CayleyOracle(g, tr)
    return LandmarkOracle(g, landmarks=landmarks)
