"""The discrete-event network simulator core.

Model (coarse-grained, mirroring SNAPPR's role in the paper):

* **Store-and-forward packet switching.**  A packet occupies an output port
  for ``size / bandwidth`` ns; each router traversal adds a fixed switch
  latency, each cable a fixed propagation latency.
* **Output-queued routers with per-VC FIFOs** served round-robin.  The VC of
  a packet is its hop count (the paper's increment-per-hop deadlock
  avoidance), capped at the policy's VC budget.
* **Endpoint NICs** serialise injections at link bandwidth; ejection ports
  do the same at the destination router.
* **Buffers are measured, not blocking**: congestion appears as queueing
  delay, and UGAL-L reads the same local output-queue occupancies it reads
  in SNAPPR.  ``SimStats.max_queue_bytes`` reports how deep the 64 KB paper
  buffers would have had to be.

The event loop is a ``heapq`` over flat plain tuples
``(time, seq, kind, *payload)`` — one allocation per event, nothing else on
the hot path.

Hot-path notes (see ``docs/performance.md``): per-port scalar state
(``_port_busy``, ``_port_bytes``, ``_port_rr``, ``_nic_busy``, ``_ej_busy``)
lives in plain Python lists — single-element numpy indexing costs ~3x a
list read and allocates a numpy scalar per access.  One loop in ``run()``
handles every event kind inline for every configuration; the fault,
finite-buffer and lossy-channel branches are guarded by locals that are
``None`` by default.  Config-derived constants (``_ns_per_byte``,
``_switch_ns``, ``_link_ns``) are precomputed once, and the directed-edge
lookup is one dict read from ``RoutingTables.edge_index``.  ``_buf_used``
stays a numpy 2-D array: it is touched only in ``finite_buffers`` mode,
off the default hot path.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultSchedule

from repro.errors import BufferDeadlockError, SimulationError
from repro.routing.algorithms import RoutingPolicy
from repro.routing.tables import RoutingTables
from repro.sim.channel import ChannelConfig, ChannelModel, packet_key
from repro.sim.packet import Packet
from repro.sim.stats import SimStats
from repro.topology.base import Topology

# Event kinds, dispatched inline by ``NetworkSimulator.run``.
# Events are flat tuples: (time, seq, kind, *payload).
_NIC_DONE = 0  # (t, seq, 0, ep, pkt): NIC finished serialising into router
_ARRIVE = 1  # (t, seq, 1, router, pkt, is_source): packet fully at a router
_PORT_DONE = 2  # (t, seq, 2, eid, pkt, next_router, vc): port finished
_EJECT_DONE = 3  # (t, seq, 3, ep, pkt): delivered to the endpoint
_INJECT = 4  # (t, seq, 4, source): open-loop source replays its next row
_FAULT = 5  # (t, seq, 5, idx): apply fault-schedule event ``idx``


@dataclass
class SimConfig:
    """Hardware parameters (defaults follow the paper's Section VI setup).

    Treated as frozen once a :class:`NetworkSimulator` is constructed — the
    simulator precomputes derived constants at init time.
    """

    concentration: int = 4
    link_bandwidth_gbps: float = 100.0  # EDR-class links
    switch_latency_ns: float = 100.0
    link_latency_ns: float = 10.0  # ~2 m cable at 5 ns/m
    packet_bytes: int = 4096
    buffer_bytes: int = 64 * 1024  # per-(link, VC) input buffer
    #: When True, the per-(link, VC) input buffers actually block: a port
    #: may only start transmitting when the downstream buffer has room, and
    #: a packet holds its buffer until it fully departs the router.  This is
    #: the credit-based mode in which virtual-channel deadlock avoidance
    #: (Section V-A) is load-bearing: cyclic buffer dependencies on a single
    #: VC genuinely deadlock (see tests/test_sim_deadlock.py).  Default off
    #: = measured-but-unbounded buffers (see module docstring).
    finite_buffers: bool = False
    #: Optional lossy/jittery link model (``repro.sim.channel``): per-link
    #: extra latency, jitter, loss probability, and bounded
    #: retransmit-with-backoff, applied to every router-to-router crossing
    #: on both engines (feature ``lossy-links``).  ``None`` — the default —
    #: keeps links ideal and every engine hot path untouched.
    channel: "ChannelConfig | None" = None

    @property
    def bytes_per_ns(self) -> float:
        return self.link_bandwidth_gbps / 8.0


class NetworkSimulator:
    """Simulate one topology + routing policy + traffic workload."""

    def __init__(
        self,
        topo: Topology,
        routing: RoutingPolicy,
        config: SimConfig,
        tables: RoutingTables | None = None,
        faults: "FaultSchedule | None" = None,
    ) -> None:
        self.topo = topo
        self.config = config
        self.routing = routing
        self.tables = tables if tables is not None else routing.tables
        g = topo.graph
        self.n_routers = g.n
        self.n_endpoints = g.n * config.concentration
        self.n_vcs = routing.required_vcs()
        # Bind the policy's list views of the flat tables now, so the first
        # hops of a timed run() never pay for building them.
        routing.bind_views()

        n_dir = len(g.indices)
        # Router output ports (one per directed edge); plain lists — see
        # module docstring.
        self._port_busy: list[bool] = [False] * n_dir
        self._port_bytes: list[int] = [0] * n_dir
        self._port_queues: list[list[deque] | None] = [None] * n_dir
        # Packets waiting in _port_queues[eid] across all VCs; lets a
        # finished transmission skip the round-robin VC scan for idle ports.
        self._port_queued: list[int] = [0] * n_dir
        self._port_rr: list[int] = [0] * n_dir
        # Downstream input-buffer occupancy per (directed edge, VC); only
        # enforced when config.finite_buffers.
        self._buf_used = (
            np.zeros((n_dir, self.n_vcs), dtype=np.int64)
            if config.finite_buffers
            else None
        )
        # Endpoint NIC injection and ejection ports.
        n_ep = self.n_endpoints
        self._nic_busy: list[bool] = [False] * n_ep
        self._nic_queues: list[deque] = [deque() for _ in range(n_ep)]
        self._ej_busy: list[bool] = [False] * n_ep
        self._ej_queues: list[deque] = [deque() for _ in range(n_ep)]

        # Lossy-link channel model (None on the default pristine path).
        if config.channel is not None:
            from repro.sim import capabilities

            capabilities.require(
                "event", capabilities.LOSSY_LINKS, context="NetworkSimulator"
            )
            self._channel = ChannelModel(config.channel, config.link_latency_ns)
            # Per-endpoint injection counters composing the cross-engine
            # channel keys (see repro.sim.channel.packet_key).
            self._ch_seq: list[int] = [0] * n_ep
        else:
            self._channel = None

        self._events: list[tuple] = []
        self._seq = itertools.count()
        self._pid = itertools.count()
        self.now = 0.0
        self.stats = SimStats()
        self._sources: list = []  # open-loop traffic sources
        # Set by the first run(), which draws and start()s every source in
        # one bulk predraw_sources call; a started simulator takes no new
        # sources (their schedules would begin behind the clock).
        self._started = False
        self.on_delivery = None  # optional callback(pkt, t)

        # Hot-path constants and lookups, bound once.
        self._ns_per_byte = 1.0 / config.bytes_per_ns
        self._switch_ns = config.switch_latency_ns
        self._link_ns = config.link_latency_ns
        self._conc = config.concentration
        self._packet_bytes = config.packet_bytes
        self._edge_index = self.tables.edge_index
        # Own bound methods are run() locals, never attributes: each would
        # be a cycle keeping a finished simulator alive until a GC pass.

        # Fault-injection state; all None/0 until a schedule is attached
        # (the pristine hot path never reads any of it).
        self._fault_schedule = None
        self._fault_mask = None
        self._edge_head: list[int] | None = None  # directed eid -> upstream router
        self._port_kill: list[int] | None = None  # pending mid-flight losses
        self._ttl = 0
        if faults is not None:
            self.set_fault_schedule(faults)

    def set_fault_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.sim.faults.FaultSchedule` to this run.

        Must happen before any traffic is injected: fault events enter the
        queue now, so their sequence numbers sort below every traffic
        event's — all fault events at one timestamp apply before any packet
        event at that timestamp, making multi-link faults atomic with
        respect to traffic.

        Attaching a schedule (even an empty one) switches every hop to
        fault-aware forwarding (``RoutingPolicy.next_hop_degraded``); see
        ``docs/resilience.md`` for the exact drop/requeue semantics.
        """
        if self._fault_schedule is not None:
            raise SimulationError("a fault schedule is already attached")
        if self._events or self.now > 0.0 or self.stats.n_events:
            raise SimulationError(
                "attach the fault schedule before injecting traffic or running"
            )
        self._fault_schedule = schedule
        self._fault_mask = self.tables.fault_mask()
        g = self.topo.graph
        self._edge_head = np.repeat(
            np.arange(g.n, dtype=np.int64), np.diff(g.indptr)
        ).tolist()
        self._port_kill = [0] * len(g.indices)
        # Hop budget bounding non-minimal fallback walks: a packet that has
        # wandered this far past any shortest path is livelocked.
        self._ttl = 4 * self.tables.diameter + 16
        for i, ev in enumerate(schedule.events):
            heappush(self._events, (ev.t, next(self._seq), _FAULT, i))

    # -- public API --------------------------------------------------------
    def endpoint_router(self, ep: int) -> int:
        """Router hosting endpoint ``ep`` (standard sequential attachment)."""
        return ep // self._conc

    def output_queue_bytes(self, router: int, next_router: int) -> int:
        """Local queue occupancy of the port router->next_router (UGAL-L)."""
        return self._port_bytes[
            self._edge_index[router * self.n_routers + next_router]
        ]

    def send(self, src_ep: int, dst_ep: int, size: int | None = None, tag=None,
             t: float | None = None) -> Packet | None:
        """Enqueue one message at ``src_ep``'s NIC; returns the packet.

        Self-sends complete instantly (no network traversal) and return None
        after invoking the delivery callback.
        """
        t = self.now if t is None else t
        size = self._packet_bytes if size is None else int(size)
        if src_ep == dst_ep:
            if self.on_delivery is not None:
                self.on_delivery(
                    Packet(-1, src_ep, dst_ep, size, t, dst_ep // self._conc,
                           tag=tag),
                    t,
                )
            return None
        pkt = Packet(
            next(self._pid), src_ep, dst_ep, size, t,
            dst_ep // self._conc, tag=tag,
        )
        if self._channel is not None:
            # Per-source injection index -> cross-engine channel key; the
            # batched engine derives the identical key from the packet's
            # position in its source's predrawn schedule.
            i = self._ch_seq[src_ep]
            self._ch_seq[src_ep] = i + 1
            pkt.ch_key = packet_key(src_ep, i)
        stats = self.stats
        stats.n_injected += 1
        if t < stats.t_first_inject:
            stats.t_first_inject = t
        if self._nic_busy[src_ep]:
            self._nic_queues[src_ep].append(pkt)
        else:
            self._nic_busy[src_ep] = True
            heappush(self._events,
                     (t + pkt.size * self._ns_per_byte, next(self._seq),
                      _NIC_DONE, src_ep, pkt))
        return pkt

    def add_open_loop_source(self, source) -> None:
        """Register an open-loop traffic source (see sim.traffic).

        Sources are drawn from t = 0 when ``run()`` starts, so they must all
        be added before it: a source added to a paused run would inject
        behind the simulated clock.
        """
        if self._started:
            raise SimulationError("add open-loop sources before running")
        self._sources.append(source)

    def run(self, until: float | None = None, max_events: int | None = None) -> SimStats:
        """Drain the event queue; returns the stats object.

        ``until`` pauses the simulation after the last event at or before
        that time; the first event past it is left in the queue, so a
        subsequent ``run()`` resumes exactly where the paused run stopped.
        ``max_events`` raises :class:`~repro.errors.SimulationError` once a
        run would process more events than that.

        One inlined loop runs every configuration (one Python frame per
        *run*, not per event).  The fault, finite-buffer and lossy-channel
        branches are each guarded by a local that is ``None`` on the
        default configuration, and an unset bound is a sentinel that never
        trips.

        An unbounded run checks itself once its queue is empty: every
        injected packet was delivered, dropped, or stranded in a port queue,
        and a drained network holds no buffer credit.  Only
        ``finite_buffers`` may strand packets, and then the run has
        genuinely *deadlocked* (cyclic buffer dependencies — exactly what
        Section V-A's VC scheme prevents): a structured
        :class:`~repro.errors.BufferDeadlockError` is raised, naming one
        cyclic (edge, VC) wait-for chain and carrying the partial stats
        (``deadlocked=True``, ``undelivered`` set).  Any other violation
        raises :class:`~repro.errors.SimulationError`.
        """
        # Start the sources exactly once, on the first run: a paused and
        # resumed run keeps the injection chains left in the queue by
        # run(until=...).  One bulk draw covers every source; each then
        # replays its own rows.
        if not self._started:
            self._started = True
            from repro.sim.traffic import predraw_sources

            t_inj, dst_ep, counts = predraw_sources(self._sources, self.config)
            times = t_inj.tolist()
            dsts = dst_ep.tolist()
            at = 0
            for src, k in zip(self._sources, counts.tolist()):
                src.start(self, times[at:at + k], dsts[at:at + k])
                at += k
        t_stop = math.inf if until is None else until
        ev_cap = sys.maxsize if max_events is None else max_events
        events = self._events
        pop = heapq.heappop
        push = heappush
        seq = self._seq
        stats = self.stats
        port_bytes = self._port_bytes
        port_busy = self._port_busy
        port_queues = self._port_queues
        port_queued = self._port_queued
        nic_busy = self._nic_busy
        nic_queues = self._nic_queues
        ej_busy = self._ej_busy
        ej_queues = self._ej_queues
        edge_index = self._edge_index
        routing = self.routing
        next_hop = routing.next_hop
        on_source = routing.on_source
        try_start = self._try_start
        n_routers = self.n_routers
        n_vcs = self.n_vcs
        ns_per_byte = self._ns_per_byte
        switch_ns = self._switch_ns
        link_ns = self._link_ns
        conc = self._conc
        latencies = stats.latencies_ns
        hop_counts = stats.hops
        # Off the default path; each is None on the default configuration.
        mask = self._fault_mask
        kills = self._port_kill
        ttl = self._ttl
        buf_used = self._buf_used
        ch = self._channel
        n_ev = 0
        while events:
            item = pop(events)
            t = item[0]
            if t > t_stop:
                # Not ours to process: re-queue it so a resumed run sees it
                # (popping and dropping would silently lose it).
                push(events, item)
                break
            n_ev += 1
            if n_ev > ev_cap:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.now = t
            kind = item[2]
            if kind == 1:  # _ARRIVE
                router = item[3]
                pkt = item[4]
                if router == pkt.dst_router:
                    if mask is not None and not mask.router_alive(router):
                        self._drop(pkt, t, "router-down")
                        continue
                    ep = pkt.dst_ep
                    if ej_busy[ep]:
                        ej_queues[ep].append(pkt)
                    else:
                        ej_busy[ep] = True
                        push(events,
                             (t + switch_ns + pkt.size * ns_per_byte,
                              next(seq), 3, ep, pkt))
                    continue
                if mask is not None:
                    # Fault-aware forwarding: the router died while the
                    # packet was on the cable, its destination is dead, or
                    # the packet has wandered past the hop budget.
                    if not (mask.router_alive(router)
                            and mask.router_alive(pkt.dst_router)):
                        self._drop(pkt, t, "router-down")
                        continue
                    if pkt.hops >= ttl:
                        self._drop(pkt, t, "ttl")
                        continue
                if item[5]:  # is_source
                    on_source(self, router, pkt)
                    if pkt.intermediate is not None:
                        stats.valiant_choices += 1
                    else:
                        stats.minimal_choices += 1
                if mask is None:
                    nxt = next_hop(self, router, pkt)
                else:
                    nxt = routing.next_hop_degraded(self, router, pkt)
                    if nxt < 0:
                        self._drop(pkt, t, "unreachable")
                        continue
                eid = edge_index[router * n_routers + nxt]
                vc = pkt.hops
                if vc >= n_vcs:
                    vc = n_vcs - 1
                size = pkt.size
                queued = port_bytes[eid] + size
                port_bytes[eid] = queued
                if queued > stats.max_queue_bytes:
                    stats.max_queue_bytes = queued
                if port_busy[eid] or buf_used is not None:
                    qs = port_queues[eid]
                    if qs is None:
                        qs = port_queues[eid] = [
                            deque() for _ in range(n_vcs)
                        ]
                    qs[vc].append((pkt, nxt))
                    port_queued[eid] += 1
                    if not port_busy[eid]:
                        # Finite buffers: start only on a VC with credit.
                        try_start(eid, t + switch_ns)
                else:
                    port_busy[eid] = True
                    push(events,
                         (t + switch_ns + size * ns_per_byte, next(seq),
                          2, eid, pkt, nxt, vc))
            elif kind == 2:  # _PORT_DONE
                eid = item[3]
                pkt = item[4]
                port_bytes[eid] -= pkt.size
                if kills is not None and kills[eid]:
                    # The link died under this packet mid-transmission (its
                    # queue was flushed at the fault event; this lazy token
                    # is how the already-scheduled completion learns of it).
                    kills[eid] -= 1
                    self._lose_on_link(eid, item[6], pkt, t, "link-down")
                    continue
                t_next = t + link_ns
                if ch is not None:
                    # Lossy/jittery crossing: one channel evaluation per
                    # router-to-router link traversal, keyed on (packet,
                    # hop) so the batched engine reaches the same outcome.
                    ok, extra_ns, retrans = ch.crossing(pkt.ch_key, pkt.hops)
                    stats.n_retransmits += retrans
                    if not ok:
                        self._lose_on_link(eid, item[6], pkt, t,
                                           ch.config.drop_cause)
                        continue
                    t_next += extra_ns
                pkt.hops += 1
                if buf_used is not None:
                    # The packet has fully left the previous router: release
                    # the input buffer it held there and occupy the one it
                    # just filled.
                    self._release_buffer(pkt, t)
                    pkt.occupies_edge = eid
                    pkt.occupies_vc = item[6]
                push(events, (t_next, next(seq), 1, item[5], pkt, False))
                port_busy[eid] = False
                if port_queued[eid]:
                    try_start(eid, t)
            elif kind == 4:  # _INJECT
                item[3].fire(self, t)
            elif kind == 0:  # _NIC_DONE
                ep = item[3]
                if mask is not None and not mask.router_alive(ep // conc):
                    # Injection router is down: the packet is lost entering
                    # it.  The NIC keeps (blindly) serialising its queue —
                    # packets injected while the router stays down are
                    # dropped one by one, and queued ones survive a
                    # recovery that beats them out.
                    self._drop(item[4], t, "router-down")
                else:
                    push(events, (t + link_ns, next(seq), 1, ep // conc,
                                  item[4], True))
                q = nic_queues[ep]
                if q:
                    nxt_pkt = q.popleft()
                    push(events, (t + nxt_pkt.size * ns_per_byte,
                                  next(seq), 0, ep, nxt_pkt))
                else:
                    nic_busy[ep] = False
            elif kind == 3:  # _EJECT_DONE
                ep = item[3]
                pkt = item[4]
                if buf_used is not None:
                    self._release_buffer(pkt, t)
                if mask is not None and not mask.router_alive(ep // conc):
                    # Router died while the packet crossed the ejection port.
                    stats.record_drop("router-down")
                else:
                    t_deliver = t + link_ns
                    latencies.append(t_deliver - pkt.t_created)
                    hop_counts.append(pkt.hops)
                    stats.bytes_delivered += pkt.size
                    if t_deliver > stats.t_last_delivery:
                        stats.t_last_delivery = t_deliver
                    if self.on_delivery is not None:
                        self.on_delivery(pkt, t_deliver)
                q = ej_queues[ep]
                if q:
                    nxt_pkt = q.popleft()
                    push(events, (t + nxt_pkt.size * ns_per_byte,
                                  next(seq), 3, ep, nxt_pkt))
                else:
                    ej_busy[ep] = False
            else:  # _FAULT
                self._apply_fault(item[3], t)
        stats.n_events += n_ev
        if until is None and max_events is None:
            self._check_drained()
        return stats

    def _check_drained(self) -> None:
        """Conservation check at the end of an unbounded run (see ``run``)."""
        stats = self.stats
        stranded = sum(self._port_queued)
        delivered = len(stats.latencies_ns)
        buf_used = self._buf_used
        credit = 0 if buf_used is None else int(np.abs(buf_used).sum())
        if (
            stats.n_injected != delivered + stats.n_dropped + stranded
            or (stranded and buf_used is None)
            or (credit and not stranded)
        ):
            raise SimulationError(
                f"event run ended inconsistent: {stats.n_injected} injected, "
                f"{delivered} delivered, {stats.n_dropped} dropped, "
                f"{stranded} stranded in port queues, {credit} B of buffer "
                "credit not returned"
            )
        if stranded:
            stats.deadlocked = True
            stats.undelivered = stranded
            raise BufferDeadlockError.build(
                self._deadlock_witness(), stranded, stranded, stats
            )

    def _deadlock_witness(self) -> tuple:
        """One cyclic (edge, VC) wait-for chain among the blocked packets.

        Each blocked packet holds buffer ``(occupies_edge, occupies_vc)``
        while waiting for credit in ``(eid, vc)`` — the downstream input
        buffer of the port it is queued on.  Following those held->wanted
        arrows yields the deadlock cycle (Dally's channel-dependency
        argument, operationally).  Every queued packet contributes, not
        just queue heads: a buffer-less packet fresh from its NIC can sit
        at the head of a port queue with the chain-forming holders behind
        it.  The cycle is empty when no clean witness exists (e.g. after
        mid-run faults perturbed the queues).
        """
        waits_for: dict = {}
        for eid, n_q in enumerate(self._port_queued):
            if not n_q:
                continue
            for vc, q in enumerate(self._port_queues[eid]):
                for pkt, _nxt in q:
                    if pkt.occupies_edge >= 0:
                        waits_for[
                            (pkt.occupies_edge, pkt.occupies_vc)
                        ] = (eid, vc)
        return BufferDeadlockError.find_cycle(waits_for)

    # -- internals ----------------------------------------------------------
    def _try_start(self, eid: int, t: float) -> None:
        """Start the next transmittable packet on an idle port (RR over VCs).

        With finite buffers a VC whose downstream input buffer is full is
        skipped; if every queued VC is blocked the port stays idle until a
        buffer-release retries it.
        """
        if self._port_busy[eid]:
            return
        qs = self._port_queues[eid]
        if qs is None:
            return
        n_vcs = self.n_vcs
        start = self._port_rr[eid]
        buf_used = self._buf_used
        for off in range(1, n_vcs + 1):
            vc = (start + off) % n_vcs
            q = qs[vc]
            if not q:
                continue
            head_pkt, head_next = q[0]
            if buf_used is not None:
                used = int(buf_used[eid, vc])
                # A buffer always admits at least one packet, even an
                # oversized one.
                if used and used + head_pkt.size > self.config.buffer_bytes:
                    continue
                buf_used[eid, vc] = used + head_pkt.size
            q.popleft()
            self._port_queued[eid] -= 1
            self._port_rr[eid] = vc
            self._port_busy[eid] = True
            heappush(self._events,
                     (t + head_pkt.size * self._ns_per_byte,
                      next(self._seq), _PORT_DONE, eid, head_pkt, head_next,
                      vc))
            return

    def _release_buffer(self, pkt: Packet, t: float) -> None:
        """Free the input buffer the packet held and retry its feeder port."""
        if self._buf_used is None or pkt.occupies_edge < 0:
            return
        self._buf_used[pkt.occupies_edge, pkt.occupies_vc] -= pkt.size
        self._try_start(pkt.occupies_edge, t)
        pkt.occupies_edge = -1

    def _lose_on_link(self, eid: int, vc: int, pkt: Packet, t: float,
                      reason: str) -> None:
        """Drop a packet lost crossing link ``eid`` and free the port.

        Besides the input buffer the packet held upstream, this returns the
        downstream reservation ``(eid, vc)`` taken when its transmission
        started (never transferred to the packet).
        """
        self._port_busy[eid] = False
        if self._buf_used is not None:
            self._buf_used[eid, vc] -= pkt.size
        self._drop(pkt, t, reason)
        if self._port_queued[eid]:
            self._try_start(eid, t)

    # -- fault application ---------------------------------------------------
    def _drop(self, pkt: Packet, t: float, reason: str) -> None:
        """Account one fault-lost packet (releasing any held buffer)."""
        if self._buf_used is not None:
            self._release_buffer(pkt, t)
        self.stats.record_drop(reason)

    def _sever_port(self, eid: int, t: float, requeue: bool) -> None:
        """Apply a directed-edge failure to the port's in-flight state.

        The packet mid-transmission (if any) is lost — consumed lazily by a
        kill token at its already-scheduled ``_PORT_DONE``.  Queued packets
        are pulled out and re-routed at the upstream router (``requeue``),
        or lost with it when the upstream router itself died.
        """
        if self._port_busy[eid] and not self._port_kill[eid]:
            # At most one transmission is ever in flight per port, so at
            # most one token may be pending: a re-failure (down/up/down)
            # before the doomed completion fires must not mint a second
            # token, or it would later kill a healthy transmission.
            self._port_kill[eid] = 1
        if not self._port_queued[eid]:
            return
        qs = self._port_queues[eid]
        head = self._edge_head[eid]
        events = self._events
        stats = self.stats
        port_bytes = self._port_bytes
        for q in qs:
            while q:
                pkt, _nxt = q.popleft()
                port_bytes[eid] -= pkt.size
                if requeue:
                    stats.n_requeued += 1
                    heappush(events,
                             (t, next(self._seq), _ARRIVE, head, pkt, False))
                else:
                    self._drop(pkt, t, "router-down")
        self._port_queued[eid] = 0

    def _apply_fault(self, idx: int, t: float) -> None:
        """Apply fault-schedule event ``idx``: mutate the mask, fix the ports."""
        ev = self._fault_schedule[idx]
        mask = self._fault_mask
        kind = ev.kind
        if kind == "link-down":
            for eid in mask.fail_link(ev.a, ev.b):
                self._sever_port(eid, t, requeue=True)
            label = f"link-down {ev.a}-{ev.b}"
        elif kind == "link-up":
            mask.restore_link(ev.a, ev.b)
            label = f"link-up {ev.a}-{ev.b}"
        elif kind == "router-down":
            for eid in mask.fail_router(ev.a):
                # Ports out of the dead router lose their queues with it;
                # ports into it requeue at the (still live) upstream router.
                self._sever_port(eid, t, requeue=self._edge_head[eid] != ev.a)
            label = f"router-down {ev.a}"
        else:  # router-up
            mask.restore_router(ev.a)
            label = f"router-up {ev.a}"
        self.stats.mark_epoch(t, label)

    # Used by traffic sources to schedule their own firings.
    def schedule_inject(self, t: float, source) -> None:
        heappush(self._events, (t, next(self._seq), _INJECT, source))
