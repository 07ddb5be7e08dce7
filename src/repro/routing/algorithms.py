"""The three routing strategies of Section V.

* **Minimal** — forward along a uniformly random minimal next hop (the
  random tie-break realises the path diversity minimal routing has on LPS
  graphs).
* **Valiant** [34] — route to a random intermediate router minimally, then
  to the destination minimally.
* **UGAL-L** — at the *source router only*, compare the locally observed
  queue of the minimal port against the queue of a random Valiant first-hop
  port, each weighted by its path length in hops; take the cheaper one.
  Only local output-queue state is consulted, as in SST/macro's UGAL-L.

A policy object is stateless across packets; per-packet routing state
(Valiant intermediate, phase) lives on the packet.

Hot-path notes (see ``docs/performance.md``)
--------------------------------------------

Next-hop candidates come from the event engine's views of the flat table
(:attr:`RoutingTables.nh_indptr`/``nh_indices``: Python lists up to
``LIST_CELLS_MAX`` cells) — two scalar indptr reads and one indices read
per hop.  A policy copies those views into plain attributes in
:meth:`RoutingPolicy.bind_views`, which
:class:`~repro.sim.network.NetworkSimulator` calls in its constructor.
Until then the two per-hop entry points that read them (``next_hop`` and
``_random_minimal``) are shadowed on the instance by shims that bind
first, so a policy used without a simulator still routes, and one driven
by the batched engine (which gathers from the stored arrays itself) never
builds them.  Once bound, the per-hop methods are the class's own and read
plain instance attributes.  (A class-level ``__getattr__`` or descriptor
would bind with less code, but on CPython 3.11 it stops the interpreter
specialising those attribute loads, which slows every hop.)

Random values are drawn from a refillable block of
``rng.random(_RNG_BLOCK)`` floats instead of one ``rng.integers`` call per
packet/hop.  Runs remain bit-for-bit deterministic for a fixed seed, but
the *draw order* (and hence the exact random stream) differs from the
pre-fast-path implementation, so per-packet outcomes are not comparable
across that boundary; distributions and seeded reproducibility are.
"""

from __future__ import annotations

from repro.routing.tables import RoutingTables
from repro.utils.rng import as_rng

#: Random floats drawn per generator refill.  One block of 8192 costs about
#: as much as ~15 single ``rng.integers`` calls, so amortised per-draw cost
#: drops by two orders of magnitude.
_RNG_BLOCK = 8192


class RoutingPolicy:
    """Interface the simulator drives.

    ``on_source(net, router, pkt)`` runs once when the packet enters its
    first router (sets Valiant state); ``next_hop(net, router, pkt)``
    returns the neighbour to forward to.
    """

    name = "abstract"

    def __init__(self, tables: RoutingTables, seed=0) -> None:
        self.tables = tables
        self.rng = as_rng(seed)
        self._n = tables.n
        self._rand_buf: list[float] = []
        self._rand_pos = 0
        if tables.is_lazy:
            # Oracle-backed tables: no flat n*n arrays exist.  Shadow the
            # per-hop entry points with oracle variants that draw the RNG
            # identically (single-candidate hops skip the draw, ties take
            # one block draw) so lazy runs are bit-identical to dense runs.
            self._oracle = tables.oracle
            self._nh_indptr = None
            self._nh_indices = None
            self._dist_flat = None
            self._random_minimal = self._random_minimal_oracle
            self.next_hop = self._next_hop_oracle
        else:
            # The flat-table views are unbound until the first hop (or
            # bind_views()): shadow the two entry points that read them.
            self._oracle = None
            self.next_hop = self._next_hop_unbound
            self._random_minimal = self._random_minimal_unbound

    def bind_views(self) -> None:
        """Bind the flat-table views the per-hop methods read.

        Builds the tables' list views on first call (see
        :mod:`repro.routing.tables`) and drops the binding shims; a no-op
        once bound and on oracle-backed tables.
        """
        if self._oracle is not None or hasattr(self, "_nh_indptr"):
            return
        tables = self.tables
        views = tables.nh_indptr, tables.nh_indices, tables.dist_flat
        self._nh_indptr, self._nh_indices, self._dist_flat = views
        del self.next_hop, self._random_minimal
        if type(self._nh_indices) is list:
            # List views hold Python ints already; shadow the method with
            # the variant that skips the int() wraps.
            self._random_minimal = self._random_minimal_list

    def _next_hop_unbound(self, net, router: int, pkt) -> int:
        """``next_hop`` before :meth:`bind_views`: bind, then route."""
        self.bind_views()
        return self.next_hop(net, router, pkt)

    def _random_minimal_unbound(self, router: int, dst: int) -> int:
        """``_random_minimal`` before :meth:`bind_views`: bind, then draw."""
        self.bind_views()
        return self._random_minimal(router, dst)

    def required_vcs(self) -> int:
        """Virtual channels needed for deadlock freedom (Section V-A)."""
        raise NotImplementedError

    def on_source(self, net, router: int, pkt) -> None:  # noqa: ARG002
        """Hook run at the packet's injection router (default: nothing)."""

    def next_hop(self, net, router: int, pkt) -> int:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------
    def _rand01(self) -> float:
        """One uniform float in [0, 1) from the refillable block."""
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self.rng.random(_RNG_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return buf[pos]

    def _random_minimal(self, router: int, dst: int) -> int:
        """Uniform random minimal next hop, read from the flat table."""
        indptr = self._nh_indptr
        k = router * self._n + dst
        lo = indptr[k]
        width = indptr[k + 1] - lo
        if width == 1:
            return int(self._nh_indices[lo])
        if width <= 0:
            raise ValueError(f"no minimal next hop from {router} to {dst}")
        # Inlined _rand01 (this is the single hottest routing call).
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self.rng.random(_RNG_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        # buf[pos] < 1.0 strictly, so the offset stays below width.
        return int(self._nh_indices[lo + int(buf[pos] * width)])

    def _random_minimal_list(self, router: int, dst: int) -> int:
        """`_random_minimal` minus the int() wraps (list views)."""
        indptr = self._nh_indptr
        k = router * self._n + dst
        lo = indptr[k]
        width = indptr[k + 1] - lo
        if width == 1:
            return self._nh_indices[lo]
        if width <= 0:
            raise ValueError(f"no minimal next hop from {router} to {dst}")
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self.rng.random(_RNG_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return self._nh_indices[lo + int(buf[pos] * width)]

    def _random_minimal_oracle(self, router: int, dst: int) -> int:
        """`_random_minimal` against the on-demand oracle (lazy tables).

        Same draw discipline as the flat-table variants: no draw when the
        candidate set is a singleton, one block draw otherwise — the RNG
        stream (and hence the whole run) matches the dense path bit for
        bit because the oracle's candidate order and widths do.
        """
        cands = self._oracle.min_next_hops(router, dst)
        width = len(cands)
        if width == 1:
            return int(cands[0])
        if width <= 0:
            raise ValueError(f"no minimal next hop from {router} to {dst}")
        return int(cands[int(self._rand01() * width)])

    def _next_hop_oracle(self, net, router: int, pkt) -> int:  # noqa: ARG002
        """Generic two-phase forwarding for oracle-backed tables.

        Bound onto ``self.next_hop`` in lazy mode; handles the Valiant
        waypoint exactly like the inlined subclass implementations (a
        minimal packet simply never has an intermediate).
        """
        if pkt.intermediate is not None and pkt.phase == 0:
            if router != pkt.intermediate:
                dst = pkt.intermediate
            else:
                pkt.phase = 1
                dst = pkt.dst_router
        else:
            dst = pkt.dst_router
        return self._random_minimal_oracle(router, dst)

    def _random_router(self) -> int:
        """Uniform random router id (Valiant intermediate draws)."""
        return int(self._rand01() * self._n)

    def _toward(self, router: int, pkt) -> int:
        """Current waypoint: Valiant intermediate while in phase 0."""
        if pkt.intermediate is not None and pkt.phase == 0:
            if router == pkt.intermediate:
                pkt.phase = 1
                return pkt.dst_router
            return pkt.intermediate
        return pkt.dst_router

    # -- fault-aware forwarding ---------------------------------------------
    def next_hop_degraded(self, net, router: int, pkt) -> int:
        """``next_hop`` against the simulator's live :class:`FaultMask`.

        Used by the event loop for every hop whenever a fault schedule is
        attached.  Differences from the pristine path, in order:

        * a dead Valiant intermediate is abandoned — the packet heads
          straight for its destination;
        * minimal candidates are filtered to live links
          (:meth:`FaultMask.live_min_candidates`);
        * when the minimal set is fully severed, forwarding falls back to
          the live neighbour(s) greedily closest to the waypoint under the
          stale distance metric (counted in ``stats.nonminimal_hops``; the
          simulator's hop TTL bounds the walk);
        * returns ``-1`` when the router has no live outgoing link at all —
          the simulator drops the packet.

        Shared by all policies: the adaptive decision (UGAL) already
        happened in ``on_source``; per-hop forwarding only ever needs the
        waypoint and the live candidate set.
        """
        if pkt.intermediate is not None and pkt.phase == 0:
            mask = net._fault_mask
            if not mask.router_alive(pkt.intermediate):
                pkt.intermediate = None
                dst = pkt.dst_router
            elif router == pkt.intermediate:
                pkt.phase = 1
                dst = pkt.dst_router
            else:
                dst = pkt.intermediate
        else:
            mask = net._fault_mask
            dst = pkt.dst_router
        cands = mask.live_min_candidates(router, dst)
        if not cands:
            cands = mask.fallback_candidates(router, dst)
            if not cands:
                return -1
            net.stats.nonminimal_hops += 1
        k = len(cands)
        if k == 1:
            return cands[0]
        return cands[int(self._rand01() * k)]


class MinimalRouting(RoutingPolicy):
    """Shortest-path routing with uniform random tie-breaks."""

    name = "minimal"

    def required_vcs(self) -> int:
        return self.tables.diameter + 1

    def next_hop(self, net, router: int, pkt) -> int:  # noqa: ARG002
        # _random_minimal inlined: the simulator pays one Python call per
        # hop on the hottest policy, not two.  int() is a no-op pass-through
        # on list views and the numpy-scalar conversion otherwise.
        indptr = self._nh_indptr
        k = router * self._n + pkt.dst_router
        lo = indptr[k]
        width = indptr[k + 1] - lo
        if width == 1:
            return int(self._nh_indices[lo])
        if width <= 0:
            raise ValueError(
                f"no minimal next hop from {router} to {pkt.dst_router}"
            )
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self.rng.random(_RNG_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return int(self._nh_indices[lo + int(buf[pos] * width)])


class ValiantRouting(RoutingPolicy):
    """Two-phase Valiant routing via a uniform random intermediate."""

    name = "valiant"

    def required_vcs(self) -> int:
        return 2 * self.tables.diameter + 1

    def on_source(self, net, router: int, pkt) -> None:  # noqa: ARG002
        inter = self._random_router()
        if inter == router or inter == pkt.dst_router:
            pkt.intermediate = None  # degenerate draw: fall back to minimal
        else:
            pkt.intermediate = inter
            pkt.phase = 0

    def next_hop(self, net, router: int, pkt) -> int:  # noqa: ARG002
        # _toward and _random_minimal inlined (see MinimalRouting.next_hop);
        # UGALRouting shares this implementation by class-attribute
        # assignment below.
        if pkt.intermediate is not None and pkt.phase == 0:
            if router != pkt.intermediate:
                dst = pkt.intermediate
            else:
                pkt.phase = 1
                dst = pkt.dst_router
        else:
            dst = pkt.dst_router
        indptr = self._nh_indptr
        k = router * self._n + dst
        lo = indptr[k]
        width = indptr[k + 1] - lo
        if width == 1:
            return int(self._nh_indices[lo])
        if width <= 0:
            raise ValueError(f"no minimal next hop from {router} to {dst}")
        pos = self._rand_pos
        buf = self._rand_buf
        if pos >= len(buf):
            buf = self._rand_buf = self.rng.random(_RNG_BLOCK).tolist()
            pos = 0
        self._rand_pos = pos + 1
        return int(self._nh_indices[lo + int(buf[pos] * width)])


class UGALRouting(RoutingPolicy):
    """UGAL-L: local-queue adaptive choice between minimal and Valiant."""

    name = "ugal"

    def __init__(self, tables: RoutingTables, seed=0, bias_bytes: int = 0) -> None:
        super().__init__(tables, seed)
        #: queue-byte bias added to the Valiant cost (favours minimal when
        #: queues tie, as hardware UGAL implementations do).
        self.bias_bytes = bias_bytes

    def required_vcs(self) -> int:
        return 2 * self.tables.diameter + 1

    def on_source(self, net, router: int, pkt) -> None:
        dst = pkt.dst_router
        if dst == router:
            pkt.intermediate = None
            return
        inter = self._random_router()
        if inter == router or inter == dst:
            pkt.intermediate = None
            return
        min_hop = self._random_minimal(router, dst)
        val_hop = self._random_minimal(router, inter)
        n = self._n
        dist = self._dist_flat
        if dist is None:
            # Oracle-backed tables: three on-demand distances (no draws).
            h = self._oracle.distance_batch(
                [router, router, inter], [dst, inter, dst]
            )
            h_min = int(h[0])
            h_val = int(h[1]) + int(h[2])
        else:
            # int() matters on numpy-backed tables (large topologies):
            # int16 scalars would overflow/wrap in the byte-weighted cost
            # products.
            h_min = int(dist[router * n + dst])
            h_val = int(dist[router * n + inter]) + int(dist[inter * n + dst])
        try:
            # Direct reads of the simulator's port state (same package);
            # stubs without these internals fall back to the public method.
            port_bytes = net._port_bytes
            edge_index = net._edge_index
        except AttributeError:
            q_min = net.output_queue_bytes(router, min_hop)
            q_val = net.output_queue_bytes(router, val_hop)
        else:
            base = router * net.n_routers
            q_min = port_bytes[edge_index[base + min_hop]]
            q_val = port_bytes[edge_index[base + val_hop]]
        cost_min = (q_min + pkt.size) * h_min
        cost_val = (q_val + pkt.size) * h_val + self.bias_bytes
        if cost_min <= cost_val:
            pkt.intermediate = None
        else:
            pkt.intermediate = inter
            pkt.phase = 0

    # Identical two-phase forwarding; share the inlined implementation.
    next_hop = ValiantRouting.next_hop


class UGALGRouting(UGALRouting):
    """UGAL-G: the global-information UGAL variant.

    Where UGAL-L consults only the source router's local output queues,
    UGAL-G scores each candidate by the *sum of queue occupancies along the
    whole path* (an idealisation real hardware approximates with explicit
    congestion telemetry).  Included as an upper bound on what adaptivity
    can buy; the paper evaluates UGAL-L.
    """

    name = "ugal-g"

    def on_source(self, net, router: int, pkt) -> None:
        dst = pkt.dst_router
        if dst == router:
            pkt.intermediate = None
            return
        inter = self._random_router()
        if inter == router or inter == dst:
            pkt.intermediate = None
            return
        q_min, h_min = self._path_cost(net, router, dst)
        q_val1, h_val1 = self._path_cost(net, router, inter)
        q_val2, h_val2 = self._path_cost(net, inter, dst)
        cost_min = (q_min + pkt.size * h_min) * h_min
        cost_val = (q_val1 + q_val2 + pkt.size * (h_val1 + h_val2)) * (
            h_val1 + h_val2
        ) + self.bias_bytes
        if cost_min <= cost_val:
            pkt.intermediate = None
        else:
            pkt.intermediate = inter
            pkt.phase = 0

    def _path_cost(self, net, src: int, dst: int) -> tuple[int, int]:
        """Queued bytes summed along one sampled minimal path + its length."""
        total = 0
        hops = 0
        at = src
        while at != dst:
            nxt = self._random_minimal(at, dst)
            total += net.output_queue_bytes(at, nxt)
            at = nxt
            hops += 1
        return total, hops


_POLICIES = {
    "minimal": MinimalRouting,
    "valiant": ValiantRouting,
    "ugal": UGALRouting,
    "ugal-g": UGALGRouting,
}


def make_routing(name: str, tables: RoutingTables, seed=0) -> RoutingPolicy:
    """Factory: ``minimal`` / ``valiant`` / ``ugal``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown routing {name!r}; options {list(_POLICIES)}")
    return cls(tables, seed=seed)
