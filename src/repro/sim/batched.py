"""The batch-synchronous (cycle-driven) simulation backend.

Where :class:`~repro.sim.network.NetworkSimulator` processes one heap event
at a time in a Python loop, this engine advances **all in-flight packets one
cycle at a time as numpy array programs** over the same CSR-of-CSR
:class:`~repro.routing.tables.RoutingTables`:

* a *cycle* is one packet-serialization time ``tau = packet_bytes /
  bytes_per_ns`` — the bandwidth quantum.  Every output port (one per
  directed edge) and every ejection port transmits at most one packet per
  cycle, which reproduces the event engine's service rate exactly;
* **injection** comes from one bulk predraw of every source's schedule
  (:func:`~repro.sim.traffic.predraw_sources`): identical Poisson gaps and
  destinations to the event engine at equal seeds, NIC serialization
  resolved by a vectorized max-scan before the cycle loop;
* **routing** is a per-cycle vectorized next-hop lookup: two ``nh_indptr``
  gathers and one ``nh_indices`` gather per arriving batch, uniform
  tie-breaks from one block of uniforms (Valiant/UGAL source decisions are
  vectorized the same way);
* **contention** is resolved per port by a segmented sort: every waiting
  packet carries one packed 64-bit key ``port << 40 | enqueue_cycle << 20
  | random_tiebreak`` and the waiting set is kept sorted by it — new
  arrivals are batch-sorted (segmented argsort) and merged in, and a
  first-of-segment mask picks one winner per port per cycle with no
  per-cycle resort — FIFO with random same-cycle tie-breaks, the batch
  analogue of the event engine's per-VC round-robin;
* **latency** is assembled analytically at drain time: the exact
  uncongested pipeline (NIC + per-hop switch/serialization/cable + eject)
  plus the observed queueing in whole cycles.  An uncontended packet gets
  the event engine's latency to the nanosecond; queueing is quantized to
  the cycle, which is where the two engines statistically diverge (see the
  tolerance table in ``docs/performance.md``).

The two engines are **not** event-for-event identical — equal seeds give
equal injections but different routing tie-break streams and cycle-quantized
queueing.  Their agreement on mean latency, mean hops, throughput, and
delivered counts is pinned statistically by
``tests/test_sim_differential.py``.

Beyond the original open-loop path, this engine covers the two scenario
families the paper's figures need:

* **fault schedules** (:class:`~repro.sim.faults.FaultSchedule`): fault
  events become *epoch boundaries* in the cycle loop.  At a boundary the
  engine mutates a live :class:`~repro.routing.tables.FaultMask` (the same
  failure-count overlay the event engine uses, so recovery is exact) and
  rewrites the **masked CSR-of-CSR next-hop arrays** — a vectorized
  live-candidate filter of the pristine table — in one pass; packets
  queued on newly dead ports are requeued or dropped with the event
  engine's semantics (see ``docs/resilience.md``).  The one semantic
  approximation: the event engine kills exactly the packet mid-flight on
  a failed link, while this engine's cycle-quantized winners have already
  "arrived" downstream — at most one packet per failed port diverges.
* **closed-loop motif workloads** (:meth:`run_closed_loop`): the
  dependency-driven send schedule of ``workloads/runner.py`` vectorized
  into per-cycle frontier arrays — a message's sends become eligible when
  its predecessors' receives land.  Motif messages have *heterogeneous
  sizes*, so this mode keeps exact per-packet times (fractional-cycle
  port clocks; an uncontested packet's latency equals the event engine's
  to float rounding) and uses the cycle grid only to batch contention
  decisions.

The congestion-realism PR added two more scenario families to the
open-loop path (see ``docs/congestion.md``):

* **credit/backpressure finite buffers** (``config.finite_buffers``):
  per-(directed edge, VC) credit counters threaded through the packed-key
  winner pick — a port's FIFO segment is scanned for the *first entry
  whose downstream input buffer has room* (the batch analogue of the
  event engine's round-robin VC skip), winners transfer their credit
  hold-until-departure exactly like ``NetworkSimulator._port_done``, and
  a wedged waiting set with no external work left raises the same
  structured :class:`~repro.errors.BufferDeadlockError` as the event
  engine's drain check;
* **lossy/jittery links** (``config.channel``, :mod:`repro.sim.channel`):
  winners crossing a link evaluate the shared counter-hash channel —
  identical loss/retransmit outcomes to the event engine by construction
  — accumulating exact extra nanoseconds into the drain-time latency and
  deferring congested arrivals by whole cycles when the delay spans them.

Still not supported here (use the event engine): ``run(until=...)``
pause/resume, ad-hoc ``send()`` calls, delivery callbacks, and combining
finite buffers or lossy links with closed-loop motif runs.  Every refusal
goes through the capability matrix (:mod:`repro.sim.capabilities`) and
raises the one canonical :class:`~repro.errors.BackendCapabilityError` —
construction-time errors, not silent fallbacks.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    BackendCapabilityError,
    BufferDeadlockError,
    SimulationError,
)
from repro.routing.algorithms import RoutingPolicy
from repro.routing.tables import RoutingTables
from repro.sim import capabilities
from repro.sim.channel import ChannelModel, packet_key
from repro.sim.stats import SimStats
from repro.sim.traffic import predraw_sources
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SimConfig

#: Closed-loop (motif) cycle quantum, in units of the open-loop cycle
#: ``tau``.  Closed-loop mode tracks exact per-packet and per-port times,
#: so the cycle grid only batches contention decisions and orders
#: same-cycle arrivals (exactly, via the arrival-time tie-break) — a
#: coarser grid costs ordering fidelity only across concurrent
#: quiescence iterations, while shrinking the Python-loop overhead per
#: simulated nanosecond.  Measured: factors past 1 buy little throughput
#: (the cost is per-iteration numpy overhead, not cycle count) while the
#: halo3d latency differential visibly loosens, so the quantum stays at
#: the open-loop cycle.
CLOSED_LOOP_CYCLE_FACTOR = 1

# Packed waiting-set sort key layout: port | enqueue cycle | tie-break.
# 23 bits of port (paper-scale topologies top out around ~60K directed
# edges + endpoints), 20 bits of cycle, 20 bits of random tie-break.
_PORT_SHIFT = 40
_ENQ_SHIFT = 20
_ENQ_MASK = (1 << 20) - 1


class BatchedSimulator:
    """Cycle-driven counterpart of :class:`NetworkSimulator`.

    Mirrors the construction API (topology + routing policy + config +
    shared tables) and the open-loop traffic API
    (:meth:`add_open_loop_source` / :meth:`run` -> :class:`SimStats`), so
    :func:`repro.experiments.common.build_synthetic_sim` can return either
    engine behind the ``backend`` selector.
    """

    backend = "batched"

    def __init__(
        self,
        topo: Topology,
        routing: RoutingPolicy,
        config: "SimConfig",
        tables: RoutingTables | None = None,
        faults=None,
    ) -> None:
        if config.finite_buffers:
            capabilities.require(self.backend, capabilities.FINITE_BUFFERS)
        if config.channel is not None:
            capabilities.require(self.backend, capabilities.LOSSY_LINKS)
        if routing.name not in ("minimal", "valiant", "ugal", "ugal-g"):
            raise SimulationError(
                f"no vectorized implementation of routing {routing.name!r}; "
                "use backend='event'"
            )
        self.topo = topo
        self.config = config
        self.routing = routing
        self.tables = tables if tables is not None else routing.tables
        g = topo.graph
        self.n_routers = g.n
        self.n_endpoints = g.n * config.concentration
        self.stats = SimStats()
        self._sources: list = []
        self.on_delivery = None

        # The flat next-hop table as stored (int64 indptr, int32 indices):
        # the vectorized gathers read it directly, with no per-simulation
        # conversion, and the event engine's list views are never built.
        # Oracle-backed tables skip the O(n^2) flat table entirely: minimal
        # picks go through the oracle's vectorized pick_minimal and UGAL's
        # distance probes through distance_batch.
        if self.tables.is_lazy:
            self._oracle = self.tables.oracle
            self._nh_indptr = None
            self._nh_indices = None
            self._dist = None
        else:
            self._oracle = None
            self._nh_indptr, self._nh_indices = self.tables.next_hop_arrays()
            self._dist = self.tables.dist  # (n, n) int16
        # Directed-edge id lookup: the flat keys u*n + v are globally sorted
        # (heads ascend, CSR rows are sorted), so one searchsorted resolves
        # a whole batch of (u, v) pairs.
        heads = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        self._edge_keys = heads * g.n + np.asarray(g.indices, dtype=np.int64)
        self._n_dir = len(self._edge_keys)
        if self._n_dir + self.n_endpoints >= (1 << (63 - _PORT_SHIFT)):
            raise SimulationError(  # pragma: no cover - paper scale is ~60K
                "topology too large for the packed contention keys; "
                "use backend='event'"
            )

        self._conc = config.concentration
        self._size = config.packet_bytes
        self._tau = config.packet_bytes / config.bytes_per_ns  # ns per cycle
        self._switch = config.switch_latency_ns
        self._link = config.link_latency_ns
        self.rng = routing.rng  # engine draws: tie-breaks, routing uniforms

        # Credit/backpressure finite buffers: per-(directed edge, VC)
        # occupancy, same layout as NetworkSimulator._buf_used so the
        # hold-until-departure semantics line up entry for entry.
        self.n_vcs = routing.required_vcs()
        self._buf_used = (
            np.zeros((self._n_dir, self.n_vcs), dtype=np.int64)
            if config.finite_buffers
            else None
        )
        # Lossy-link channel model (None on the pristine path); the extra
        # per-packet nanoseconds it produces accumulate in _ch_delay and
        # join the analytic latency at drain time.
        self._channel = (
            ChannelModel(config.channel, config.link_latency_ns)
            if config.channel is not None
            else None
        )
        self._ch_keys: np.ndarray | None = None
        self._ch_delay: np.ndarray | None = None

        #: Per-packet byte sizes in closed-loop (motif) mode; ``None`` in
        #: open-loop mode, whose packets all weigh ``config.packet_bytes``.
        self._msg_sizes: np.ndarray | None = None
        # The waiting set (sorted packed keys / packet ids / next routers);
        # also read by fault application before the first cycle runs.
        self._w_comb = np.empty(0, dtype=np.int64)
        self._w_idx = np.empty(0, dtype=np.int64)
        self._w_nxt = np.empty(0, dtype=np.int64)
        # Fault-injection state; all None until a schedule is attached and
        # the run starts (the pristine paths never read any of it).
        self._fault_schedule = faults
        self._mask = None
        self._alive_router: np.ndarray | None = None

    # -- public API (NetworkSimulator parity where meaningful) --------------
    def endpoint_router(self, ep: int) -> int:
        return ep // self._conc

    def add_open_loop_source(self, source) -> None:
        self._sources.append(source)

    def send(self, *args, **kwargs):
        # Ad-hoc open-ended send() has no batch analogue; motif DAGs go
        # through run_closed_loop (the vectorized frontier runner) instead.
        capabilities.require(self.backend, capabilities.ADHOC_SEND)

    def set_fault_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.sim.faults.FaultSchedule` before ``run``.

        Fault events become epoch boundaries of the cycle loop; see the
        module docstring for the exact semantics.
        """
        if self._fault_schedule is not None:
            raise SimulationError("a fault schedule is already attached")
        if self._mask is not None or self.stats.n_events:
            raise SimulationError(
                "attach the fault schedule before running"
            )
        self._fault_schedule = schedule

    # -- helpers -------------------------------------------------------------
    def _edge_ids(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._edge_keys, u * self.n_routers + v)

    def _pick_minimal(self, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """One uniform random minimal next hop per (u, d) pair."""
        if self._oracle is not None:
            # Same draw shape as the flat-table path (one uniform per
            # pair, consumed even at width 1) so the RNG stream — and
            # therefore the whole run — is bit-identical across backends.
            r = self.rng.random(len(u))
            try:
                return self._oracle.pick_minimal(u, d, r)
            except ValueError as e:
                raise SimulationError(str(e)) from None
        k = u * self.n_routers + d
        lo = self._nh_indptr[k]
        width = self._nh_indptr[k + 1] - lo
        if width.size and int(width.min()) <= 0:
            bad = int(np.argmin(width))
            raise SimulationError(
                f"no minimal next hop from {int(u[bad])} to {int(d[bad])}"
            )
        offs = (self.rng.random(len(k)) * width).astype(np.int64)
        # Stored indices are int32; router ids travel as int64 everywhere.
        return self._nh_indices[lo + offs].astype(np.int64)

    def _port_queued_bytes(self) -> np.ndarray:
        """Queued bytes per router output port (UGAL's queue signal).

        Open-loop packets all weigh ``packet_bytes`` (a plain bincount
        times the size, bit-identical to the pre-motif implementation);
        closed-loop motif packets carry their own sizes.
        """
        ports = self._w_comb >> _PORT_SHIFT
        m = ports < self._n_dir
        if self._msg_sizes is None:
            return np.bincount(ports[m], minlength=self._n_dir) * self._size
        return np.bincount(
            ports[m],
            weights=self._msg_sizes[self._w_idx[m]],
            minlength=self._n_dir,
        )

    def _sizes_of(self, p: np.ndarray):
        """Byte size per packet in ``p`` (scalar broadcast in open loop)."""
        if self._msg_sizes is None:
            return self._size
        return self._msg_sizes[p]

    def _path_cost(
        self, src: np.ndarray, dst: np.ndarray, qbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized UGAL-G sampled-path cost: (queued bytes, hops)."""
        q = np.zeros(len(src), dtype=np.int64)
        h = np.zeros(len(src), dtype=np.int64)
        at = src.copy()
        active = np.nonzero(at != dst)[0]
        while active.size:
            nxt = self._pick_minimal(at[active], dst[active])
            eid = self._edge_ids(at[active], nxt)
            q[active] += qbytes[eid].astype(np.int64)
            h[active] += 1
            at[active] = nxt
            active = active[at[active] != dst[active]]
        return q, h

    # -- the run -------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> SimStats:
        if until is not None or max_events is not None:
            capabilities.require(self.backend, capabilities.PAUSE_RESUME)
        if self.on_delivery is not None:
            capabilities.require(self.backend, capabilities.DELIVERY_CALLBACKS)
        n_pkts = self._inject()
        stats = self.stats
        if self._fault_schedule is not None:
            self._init_faults()
        if n_pkts == 0:
            if self._mask is not None:
                # No traffic, but the schedule's epochs must still record
                # (the event engine drains its _FAULT events regardless).
                for ev in self._fault_schedule.events:
                    self._apply_fault_event(ev)
                self._fill_epochs(np.empty(0), np.empty(0), np.empty(0, bool))
            return stats
        self._cycle_loop()
        self._drain()
        return stats

    def _inject(self) -> int:
        """Pre-draw all sources, filter self-sends, resolve NIC queueing.

        Sets the per-packet state arrays and returns the packet count.
        """
        if not self._sources:
            return 0
        eps = [s.endpoint for s in self._sources]
        if len(set(eps)) != len(eps):
            raise SimulationError(
                "batched backend needs one source per endpoint "
                "(NIC serialization is resolved per source)"
            )
        t0, dst_ep, counts = predraw_sources(self._sources, self.config)
        rows = np.repeat(np.arange(len(eps), dtype=np.int64), counts)
        src_ep = np.repeat(np.array(eps, dtype=np.int64), counts)
        # Self-sends complete instantly in the event engine (send() returns
        # before touching any counter) and never occupy the NIC: filter
        # them *before* the serialization scan.
        m = dst_ep != src_ep
        t0, dst_ep, src_ep, rows = t0[m], dst_ep[m], src_ep[m], rows[m]
        n = len(t0)
        if n == 0:
            return 0
        counts = np.bincount(rows, minlength=len(eps))

        # NIC serialization per source: d_i = max(t_i, d_{i-1}) + S, the
        # exact recurrence the event engine's NIC queue realises.  Scatter
        # the (ragged) per-source sequences into an inf-padded 2-D array
        # and iterate over the short per-source packet index with all
        # sources vectorized, using the same float operations as the event
        # path so nic_done is bit-identical.
        S = self._tau
        kmax = int(counts.max())
        cols = np.arange(n, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        t2d = np.full((len(eps), kmax), np.inf)
        t2d[rows, cols] = t0
        nic = np.empty_like(t2d)
        nic[:, 0] = t2d[:, 0] + S
        for j in range(1, kmax):
            nic[:, j] = np.maximum(t2d[:, j], nic[:, j - 1]) + S
        nic_done = nic[rows, cols]

        stats = self.stats
        stats.n_injected = n
        stats.t_first_inject = float(t0.min())

        # Per-packet state.
        self._t0 = t0
        self._nic_done = nic_done
        self._dst_ep = dst_ep
        self._dst_router = dst_ep // self._conc
        self._cur = src_ep // self._conc
        self._hops = np.zeros(n, dtype=np.int64)
        self._inter = np.full(n, -1, dtype=np.int64)
        self._phase = np.zeros(n, dtype=np.int64)
        self._wait = np.zeros(n, dtype=np.int64)  # queueing, in cycles
        self._uncontested = np.zeros(n, dtype=np.int64)  # hops w/o queueing
        self._dropped = np.zeros(n, dtype=bool)  # fault/channel losses
        if self._channel is not None:
            # ``cols`` is each packet's injection index within its source
            # — the same per-endpoint counter the event engine's send()
            # keeps — so the composed keys, and with them every channel
            # draw, coincide across engines.
            self._ch_keys = packet_key(src_ep, cols)
            self._ch_delay = np.zeros(n)

        # Arrival (first contention) cycle at the source router.
        t_arr = nic_done + self._link
        self._c0 = np.ceil(t_arr / self._tau).astype(np.int64)
        return n

    def _cycle_loop(self) -> None:
        n_dir = self._n_dir
        stats = self.stats
        # Injection buckets: packet ids sorted by arrival cycle.
        order = np.argsort(self._c0, kind="stable")
        c0_sorted = self._c0[order]
        inj_ptr = 0
        n = len(order)

        # The waiting set: one row per queued packet, kept **sorted by the
        # packed key** (port, enqueue cycle, tie-break) at all times, so
        # the per-cycle winner pick is a first-of-segment mask with no
        # resort; only each cycle's new arrivals are sorted (a small
        # batch) and merged in.
        self._w_comb = np.empty(0, dtype=np.int64)  # packed sort key
        self._w_idx = np.empty(0, dtype=np.int64)  # packet id
        self._w_nxt = np.empty(0, dtype=np.int64)  # downstream router

        pending: np.ndarray | None = None  # winners arriving next cycle
        faulted = self._mask is not None
        ev_ptr = 0
        n_ev_f = len(self._ev_cycles) if faulted else 0
        events_f = self._fault_schedule.events if faulted else ()
        finite = self._buf_used is not None
        buf = self._buf_used
        B = self.config.buffer_bytes
        size = self._size
        n_vcs = self.n_vcs
        if finite:
            # Hold-until-departure credit state: the (edge, VC) input
            # buffer each packet currently occupies (-1 = none, fresh
            # from its NIC), mirroring Packet.occupies_edge/occupies_vc.
            self._occ_edge = np.full(n, -1, dtype=np.int64)
            self._occ_vc = np.zeros(n, dtype=np.int64)
            self._ejected = np.zeros(n, dtype=bool)
        ch = self._channel
        tau = self._tau
        # Channel-delayed arrivals whose extra nanoseconds span whole
        # cycles: chunks of packet ids filed under their due cycle (the
        # open-loop analogue of the closed-loop arrival heap).
        def_arr: dict[int, list] = {}
        def_heap: list[int] = []
        c = int(c0_sorted[0])
        if n_ev_f:
            c = min(c, int(self._ev_cycles[0]))
        n_moves = 0
        max_q = 0
        while True:
            grew_rq = False
            if faulted and ev_ptr < n_ev_f and self._ev_cycles[ev_ptr] <= c:
                # Epoch boundary: apply every schedule event due at this
                # cycle (mask mutation + waiting-set fix-up per event,
                # matching the event engine's per-event atomicity), then
                # rewrite the masked next-hop arrays once and re-route the
                # requeued packets against them.
                rq_all = []
                while ev_ptr < n_ev_f and self._ev_cycles[ev_ptr] <= c:
                    rq = self._apply_fault_event(events_f[ev_ptr], c)
                    if rq.size:
                        rq_all.append(rq)
                    ev_ptr += 1
                self._rebuild_masked()
                if rq_all:
                    self._arrive(np.concatenate(rq_all), c, at_source=False)
                    grew_rq = True

            # a) arrivals: forwarded packets from last cycle + channel-
            # delayed packets now due + injections.
            hi = int(np.searchsorted(c0_sorted, c, side="right"))
            newly = order[inj_ptr:hi]
            inj_ptr = hi
            grew = bool(
                (pending is not None and pending.size) or newly.size
            ) or grew_rq
            if pending is not None and pending.size:
                self._arrive(pending, c, at_source=False)
            if def_heap and def_heap[0] <= c:
                chunks: list[np.ndarray] = []
                while def_heap and def_heap[0] <= c:
                    chunks.extend(def_arr.pop(heapq.heappop(def_heap)))
                late = (
                    chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
                )
                self._arrive(late, c, at_source=False)
                grew = True
            if newly.size:
                self._arrive(newly, c, at_source=True)
            pending = None

            comb = self._w_comb
            if comb.size == 0:
                if inj_ptr >= n and not def_heap:
                    # Drained.  Remaining schedule events still apply (the
                    # event engine processes its _FAULT events regardless),
                    # so recovery bookkeeping and epoch marks stay exact;
                    # one final rewrite leaves the masked arrays reflecting
                    # the mask's end state (pristine after full recovery).
                    if ev_ptr < n_ev_f:
                        while ev_ptr < n_ev_f:
                            self._apply_fault_event(events_f[ev_ptr])
                            ev_ptr += 1
                        self._rebuild_masked()
                    break
                # Skip idle cycles to the next external work: a pending
                # injection, a channel-deferred arrival, or a fault event.
                c = int(c0_sorted[inj_ptr]) if inj_ptr < n else def_heap[0]
                if def_heap:
                    c = min(c, def_heap[0])
                if ev_ptr < n_ev_f:
                    c = min(c, int(self._ev_cycles[ev_ptr]))
                continue

            ports = comb >> _PORT_SHIFT
            if grew and comb.size > max_q:
                # Queue depth can only grow on cycles that enqueued.
                counts = np.bincount(ports[ports < n_dir], minlength=0)
                if counts.size:
                    max_q = max(max_q, int(counts.max()))

            # b) contention: one winner per port.  Unbounded buffers take
            # the first of each segment of the sorted keys; finite buffers
            # take the first entry of the segment whose downstream input
            # buffer has room at the cycle's opening credits (the batch
            # analogue of the event engine's round-robin VC skip) — a
            # port whose whole segment is blocked stays idle this cycle.
            if not finite:
                first = np.empty(comb.size, dtype=bool)
                first[0] = True
                np.not_equal(ports[1:], ports[:-1], out=first[1:])
            else:
                seg_first = np.empty(comb.size, dtype=bool)
                seg_first[0] = True
                np.not_equal(ports[1:], ports[:-1], out=seg_first[1:])
                is_ej = ports >= n_dir
                vc_e = np.minimum(self._hops[self._w_idx], n_vcs - 1)
                used = buf[np.where(is_ej, 0, ports), vc_e]
                # Ejection ports never gate; a buffer always admits at
                # least one packet, even oversized (event-engine parity).
                elig = is_ej | (used == 0) | (used + size <= B)
                pos = np.nonzero(elig)[0]
                first = np.zeros(comb.size, dtype=bool)
                if pos.size:
                    seg_id = np.cumsum(seg_first)[pos]
                    lead = np.empty(pos.size, dtype=bool)
                    lead[0] = True
                    np.not_equal(seg_id[1:], seg_id[:-1], out=lead[1:])
                    first[pos[lead]] = True
                if not first.any():
                    # No port can move.  Credits only change when a winner
                    # departs, so if external work is still due, nothing
                    # happens until it lands — jump straight there.
                    nxt_c = []
                    if inj_ptr < n:
                        nxt_c.append(int(c0_sorted[inj_ptr]))
                    if def_heap:
                        nxt_c.append(def_heap[0])
                    if ev_ptr < n_ev_f:
                        nxt_c.append(int(self._ev_cycles[ev_ptr]))
                    if nxt_c:
                        c = max(c + 1, min(nxt_c))
                        continue
                    self._raise_deadlock(c)

            widx = self._w_idx[first]
            waited = c - ((comb[first] >> _ENQ_SHIFT) & _ENQ_MASK)
            self._wait[widx] += waited
            self._uncontested[widx] += waited == 0

            eject = ports[first] >= n_dir
            moved = widx[~eject]
            moved_nxt = self._w_nxt[first][~eject]
            if finite:
                # Ejecting winners leave the network: release the input
                # buffer each held (hold-until-departure, the batch mirror
                # of NetworkSimulator._eject_done's _release_buffer).
                ej_ids = widx[eject]
                if ej_ids.size:
                    self._ejected[ej_ids] = True
                    held = ej_ids[self._occ_edge[ej_ids] >= 0]
                    if held.size:
                        np.subtract.at(
                            buf,
                            (self._occ_edge[held], self._occ_vc[held]),
                            size,
                        )
                        self._occ_edge[held] = -1
                moved_eid = ports[first][~eject]
                moved_vc = np.minimum(self._hops[moved], n_vcs - 1)
            extra: np.ndarray | None = None
            if ch is not None and moved.size:
                # Evaluate the lossy crossing at the pre-increment hop
                # index — exactly where NetworkSimulator._port_done draws
                # it — so both engines consume identical substreams.
                ok, extra, retr = ch.crossings(
                    self._ch_keys[moved], self._hops[moved]
                )
                rsum = int(retr.sum())
                if rsum:
                    stats.n_retransmits += rsum
                if not ok.all():
                    # _drop_pkts releases any held buffer; the lost packet
                    # never occupies the downstream one.
                    self._drop_pkts(moved[~ok], ch.config.drop_cause)
                    if finite:
                        moved_eid = moved_eid[ok]
                        moved_vc = moved_vc[ok]
                    moved = moved[ok]
                    moved_nxt = moved_nxt[ok]
                    extra = extra[ok]
            if finite and moved.size:
                # Credit transfer: release the buffer held upstream, occupy
                # the one just filled downstream.  One winner per port per
                # cycle means each (edge, VC) cell gains at most one
                # packet's bytes per cycle, so the opening-credit check
                # above can never oversubscribe a buffer.
                held = moved[self._occ_edge[moved] >= 0]
                if held.size:
                    np.subtract.at(
                        buf, (self._occ_edge[held], self._occ_vc[held]), size
                    )
                np.add.at(buf, (moved_eid, moved_vc), size)
                self._occ_edge[moved] = moved_eid
                self._occ_vc[moved] = moved_vc
            if moved.size:
                self._cur[moved] = moved_nxt
                self._hops[moved] += 1
                n_moves += int(moved.size)
            if extra is not None and moved.size:
                # Exact channel nanoseconds join the drain-time latency;
                # arrivals shift by the whole cycles the delay spans.
                self._ch_delay[moved] += extra
                shift = (extra // tau).astype(np.int64)
                near = shift == 0
                pending = moved[near]
                far = moved[~near]
                if far.size:
                    due_all = c + 1 + shift[~near]
                    for cv in np.unique(due_all).tolist():
                        lst = def_arr.get(cv)
                        if lst is None:
                            lst = def_arr[cv] = []
                            heapq.heappush(def_heap, cv)
                        lst.append(far[due_all == cv])
            else:
                pending = moved

            # c) survivors keep their (still sorted) order.
            keep = ~first
            self._w_comb = comb[keep]
            self._w_idx = self._w_idx[keep]
            self._w_nxt = self._w_nxt[keep]
            c += 1
            if c >= _ENQ_MASK:  # pragma: no cover - absurdly long run
                raise SimulationError(
                    "batched run exceeded the cycle budget; use the event "
                    "backend for simulations this long"
                )

        n = len(self._t0)
        # Event-count analogue for events/s reporting: one unit per
        # injection, per hop transmission, and per delivery.
        stats.n_events = 2 * n + n_moves
        stats.max_queue_bytes = max_q * self._size

    def _arrive(self, p: np.ndarray, c: int, at_source: bool) -> None:
        """Route a batch of packets arriving at their current router."""
        cur = self._cur[p]
        dstr = self._dst_router[p]
        # Eject check first, exactly like the event engine's _arrive (a
        # Valiant packet crossing its destination router ejects early).
        at_dst = cur == dstr
        ej = p[at_dst]
        route = p[~at_dst]
        mask_on = self._mask is not None
        if mask_on:
            alive = self._alive_router
            if ej.size:
                dead = ~alive[self._cur[ej]]
                if dead.any():
                    self._drop_pkts(ej[dead], "router-down")
                    ej = ej[~dead]
        if ej.size:
            self._enqueue(ej, self._n_dir + self._dst_ep[ej], c)
        if not route.size:
            return
        if mask_on:
            # Mirror the event engine's degraded _arrive order: current
            # router dead, destination router dead, TTL, then route.
            dead = ~alive[self._cur[route]] | ~alive[self._dst_router[route]]
            if dead.any():
                self._drop_pkts(route[dead], "router-down")
                route = route[~dead]
                if not route.size:
                    return
            over = self._hops[route] >= self._ttl
            if over.any():
                self._drop_pkts(route[over], "ttl")
                route = route[~over]
                if not route.size:
                    return
        if at_source:
            self._on_source(route)
        if mask_on:
            # A dead Valiant intermediate is abandoned (next_hop_degraded
            # semantics): the packet heads straight for its destination.
            inter = self._inter[route]
            dead_int = (inter >= 0) & ~alive[np.maximum(inter, 0)]
            if dead_int.any():
                self._inter[route[dead_int]] = -1
        # Waypoint (inlined RoutingPolicy._toward, vectorized).
        cur = self._cur[route]
        inter = self._inter[route]
        has = (inter >= 0) & (self._phase[route] == 0)
        reached = has & (cur == inter)
        if reached.any():
            self._phase[route[reached]] = 1
        toward = np.where(has & ~reached, inter, self._dst_router[route])
        if mask_on:
            nxt = self._pick_next_live(cur, toward)
            ok = nxt >= 0
            if not ok.all():
                self._drop_pkts(route[~ok], "unreachable")
                route, cur, nxt = route[ok], cur[ok], nxt[ok]
                if not route.size:
                    return
        else:
            nxt = self._pick_minimal(cur, toward)
        self._enqueue(route, self._edge_ids(cur, nxt), c, nxt)

    def _on_source(self, p: np.ndarray) -> None:
        """Vectorized per-policy source decision (Valiant/UGAL adaptivity)."""
        stats = self.stats
        name = self.routing.name
        if name == "minimal":
            stats.minimal_choices += int(p.size)
            return
        cur = self._cur[p]
        dst = self._dst_router[p]
        inter = (self.rng.random(len(p)) * self.n_routers).astype(np.int64)
        degenerate = (inter == cur) | (inter == dst)
        inter[degenerate] = -1
        if name in ("ugal", "ugal-g"):
            good = np.nonzero(inter >= 0)[0]
            if good.size:
                qbytes = self._port_queued_bytes()
                size = self._sizes_of(p[good])
                bias = getattr(self.routing, "bias_bytes", 0)
                g_cur, g_dst, g_int = cur[good], dst[good], inter[good]
                if name == "ugal":
                    min_hop = self._pick_minimal(g_cur, g_dst)
                    val_hop = self._pick_minimal(g_cur, g_int)
                    q_min = qbytes[self._edge_ids(g_cur, min_hop)].astype(
                        np.int64
                    )
                    q_val = qbytes[self._edge_ids(g_cur, val_hop)].astype(
                        np.int64
                    )
                    if self._dist is None:
                        h_min = self._oracle.distance_batch(g_cur, g_dst)
                        h_val = self._oracle.distance_batch(
                            g_cur, g_int
                        ) + self._oracle.distance_batch(g_int, g_dst)
                    else:
                        h_min = self._dist[g_cur, g_dst].astype(np.int64)
                        h_val = self._dist[g_cur, g_int].astype(
                            np.int64
                        ) + self._dist[g_int, g_dst].astype(np.int64)
                    cost_min = (q_min + size) * h_min
                    cost_val = (q_val + size) * h_val + bias
                else:  # ugal-g: sampled whole-path queue sums
                    q_min, h_min = self._path_cost(g_cur, g_dst, qbytes)
                    q1, h1 = self._path_cost(g_cur, g_int, qbytes)
                    q2, h2 = self._path_cost(g_int, g_dst, qbytes)
                    cost_min = (q_min + size * h_min) * h_min
                    cost_val = (q1 + q2 + size * (h1 + h2)) * (h1 + h2) + bias
                inter[good[cost_min <= cost_val]] = -1
        self._inter[p] = inter
        self._phase[p] = 0
        n_val = int((inter >= 0).sum())
        stats.valiant_choices += n_val
        stats.minimal_choices += int(p.size) - n_val

    def _enqueue(
        self, p: np.ndarray, key: np.ndarray, c: int,
        nxt: np.ndarray | None = None,
    ) -> None:
        """Merge a batch into the sorted waiting set.

        The packed key is ``port << 40 | cycle << 20 | tie-break``: new
        entries sort after every already-waiting entry of the same port
        (their cycle is the largest yet), so a sorted insert preserves the
        FIFO discipline and the global order in one pass.

        Open-loop mode breaks same-cycle ties uniformly at random (the
        batch analogue of the event engine's VC round-robin fairness).
        Closed-loop mode tracks exact per-packet times, so the tie-break
        encodes the packet's *arrival time within the cycle* — serving a
        later arrival first would idle the port against the event engine's
        continuous pipeline and systematically inflate latency.
        """
        if self._msg_sizes is None:
            tie = self.rng.integers(0, _ENQ_MASK, size=len(p))
        else:
            frac = self._t_arr[p] / self._cl_tau - (c - 1)
            # Round, don't truncate: truncation turns the one-ulp float
            # error of the fraction round-trip into off-by-one ties, so
            # two packets with distinct quantized arrivals could collide
            # and their order would depend on merge-batch boundaries
            # (pinned by the permutation-invariance property test).
            tie = np.clip(
                np.rint(frac * (_ENQ_MASK - 1)).astype(np.int64),
                0, _ENQ_MASK - 1,
            )
        comb = (
            (key << _PORT_SHIFT)
            | np.int64(c << _ENQ_SHIFT)
            | tie
        )
        o = np.argsort(comb, kind="stable")
        comb = comb[o]
        if nxt is None:
            nxt = np.full(len(p), -1, dtype=np.int64)
        # Manual sorted merge (np.insert x3 costs ~3x as much): new
        # entries land at searchsorted positions offset by their own rank.
        old = self._w_comb
        new_at = np.searchsorted(old, comb) + np.arange(len(comb))
        total = len(old) + len(comb)
        old_at = np.ones(total, dtype=bool)
        old_at[new_at] = False
        merged = np.empty(total, dtype=np.int64)
        merged[new_at] = comb
        merged[old_at] = old
        self._w_comb = merged
        idx = np.empty(total, dtype=np.int64)
        idx[new_at] = p[o]
        idx[old_at] = self._w_idx
        self._w_idx = idx
        nx = np.empty(total, dtype=np.int64)
        nx[new_at] = nxt[o]
        nx[old_at] = self._w_nxt
        self._w_nxt = nx

    # -- fault epochs --------------------------------------------------------
    def _init_faults(self) -> None:
        """Prepare the epoch machinery for the attached schedule.

        Builds the live :class:`FaultMask` (the same failure-count overlay
        the event engine mutates, so recovery composes exactly), the
        per-entry directed-edge ids of the flat next-hop table (one gather
        per epoch rewrite), and the boundary cycle of every schedule event
        (``ceil(t / tau)`` — events at a cycle's opening edge apply before
        any packet of that cycle, the batch analogue of fault events
        sorting below traffic events at equal timestamps).
        """
        if self.tables.is_lazy:
            raise SimulationError(
                "fault schedules on backend='batched' need the dense "
                "next-hop table; construct RoutingTables without an "
                "on-demand oracle (or use backend='event')"
            )
        g = self.topo.graph
        self._mask = self.tables.fault_mask()
        self._edge_head = np.repeat(
            np.arange(g.n, dtype=np.int64), np.diff(g.indptr)
        )
        self._alive_router = np.ones(g.n, dtype=bool)
        # Same non-minimal walk budget as NetworkSimulator.
        self._ttl = 4 * self.tables.diameter + 16
        indptr = self._nh_indptr
        self._entry_cell = np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
        entry_u = self._entry_cell // self.n_routers
        self._entry_eid = self._edge_ids(entry_u, self._nh_indices)
        self._rebuild_masked()
        tau = self._tau
        self._ev_cycles = np.array(
            [int(np.ceil(ev.t / tau)) for ev in self._fault_schedule.events],
            dtype=np.int64,
        )

    def _rebuild_masked(self) -> None:
        """Rewrite the masked CSR-of-CSR next-hop arrays from the mask.

        A pure function of the mask's failure counts: restoring every
        fault reproduces the pristine arrays bit-for-bit, which is what
        keeps recovery exact.  One boolean gather + bincount + cumsum over
        the flat table per epoch boundary.
        """
        dead = np.asarray(self._mask._dead_edge, dtype=np.int64)
        alive_e = dead[self._entry_eid] == 0
        ncells = len(self._nh_indptr) - 1
        counts = np.bincount(
            self._entry_cell[alive_e], minlength=ncells
        )
        indptr = np.empty(ncells + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        self._m_indptr = indptr
        self._m_indices = self._nh_indices[alive_e]

    def _pick_next_live(self, u: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Masked minimal pick with non-minimal fallback; ``-1`` = drop.

        The masked arrays answer the common case in one vectorized gather;
        pairs whose minimal set is fully severed fall back to the live
        neighbours greedily closest to the destination under the stale
        metric (``FaultMask.fallback_candidates``, counted in
        ``stats.nonminimal_hops``) — rare enough to loop.
        """
        k = u * self.n_routers + d
        lo = self._m_indptr[k]
        width = self._m_indptr[k + 1] - lo
        offs = (self.rng.random(len(k)) * width).astype(np.int64)
        ok = width > 0
        nxt = np.full(len(k), -1, dtype=np.int64)
        if ok.any():
            nxt[ok] = self._m_indices[lo[ok] + offs[ok]]
        fb = np.nonzero(~ok)[0]
        if fb.size:
            mask = self._mask
            rng = self.rng
            stats = self.stats
            for i in fb:
                cands = mask.fallback_candidates(int(u[i]), int(d[i]))
                if cands:
                    stats.nonminimal_hops += 1
                    nxt[i] = cands[int(rng.random() * len(cands))]
        return nxt

    def _drop_pkts(self, p: np.ndarray, reason: str) -> None:
        """Account a batch of lost packets, keyed by cause.

        With finite buffers the doomed packets release the input buffers
        they held (the batch mirror of ``NetworkSimulator._drop`` calling
        ``_release_buffer``) — a leak here would wedge healthy traffic
        behind credits nobody returns.
        """
        k = int(len(p))
        if not k:
            return
        if self._buf_used is not None:
            held = p[self._occ_edge[p] >= 0]
            if held.size:
                np.subtract.at(
                    self._buf_used,
                    (self._occ_edge[held], self._occ_vc[held]),
                    self._size,
                )
                self._occ_edge[held] = -1
        self._dropped[p] = True
        st = self.stats
        st.n_dropped += k
        st.drops[reason] = st.drops.get(reason, 0) + k

    def _raise_deadlock(self, c: int) -> None:
        """The waiting set is wedged with no external work left: raise.

        Mirrors the event engine's drain check — builds the wait-for map
        from the blocked head packets (held (edge, VC) -> wanted
        (edge, VC)), extracts one cycle witness, fills the stats with the
        packets that *did* deliver so the error carries a coherent
        partial picture, and raises :class:`BufferDeadlockError`.
        """
        stats = self.stats
        ports = self._w_comb >> _PORT_SHIFT
        waits_for: dict = {}
        # Every queued packet contributes (buffer-less packets fresh from
        # their NIC can sit ahead of the chain-forming holders).
        for pkt, port in zip(self._w_idx.tolist(), ports.tolist()):
            if self._occ_edge[pkt] >= 0:
                held = (int(self._occ_edge[pkt]), int(self._occ_vc[pkt]))
                wanted = (
                    int(port), int(min(self._hops[pkt], self.n_vcs - 1))
                )
                waits_for[held] = wanted
        cycle = BufferDeadlockError.find_cycle(waits_for)
        blocked = int(self._w_comb.size)
        stats.deadlocked = True
        delivered = self._ejected & ~self._dropped
        undelivered = (
            len(self._t0) - int(delivered.sum()) - int(self._dropped.sum())
        )
        stats.undelivered = undelivered
        self._drain(delivered)
        raise BufferDeadlockError.build(cycle, blocked, undelivered, stats)

    def _apply_fault_event(self, ev, c: int = 0) -> np.ndarray:
        """Apply one schedule event: mutate the mask, fix up the waiting set.

        Returns the packet ids pulled off newly dead ports for requeueing
        (the caller re-routes them after the masked arrays are rebuilt).
        Packets queued on ports *out of* a dead router are lost with it;
        packets on ports *into* it requeue at the still-live upstream
        router; packets crossing the ejection ports of a dead router are
        lost — the event engine's ``_sever_port`` semantics.
        """
        mask = self._mask
        kind = ev.kind
        requeue_eids: np.ndarray | None = None
        drop_eids: np.ndarray | None = None
        dead_router = -1
        if kind == "link-down":
            newly = np.asarray(mask.fail_link(ev.a, ev.b), dtype=np.int64)
            requeue_eids = newly
            label = f"link-down {ev.a}-{ev.b}"
        elif kind == "link-up":
            mask.restore_link(ev.a, ev.b)
            label = f"link-up {ev.a}-{ev.b}"
        elif kind == "router-down":
            newly = np.asarray(mask.fail_router(ev.a), dtype=np.int64)
            self._alive_router[ev.a] = False
            heads = self._edge_head[newly]
            requeue_eids = newly[heads != ev.a]
            drop_eids = newly[heads == ev.a]
            dead_router = ev.a
            label = f"router-down {ev.a}"
        else:  # router-up
            mask.restore_router(ev.a)
            self._alive_router[ev.a] = True
            label = f"router-up {ev.a}"
        rq = np.empty(0, dtype=np.int64)
        if dead_router >= 0 or (requeue_eids is not None and len(requeue_eids)):
            ports = self._w_comb >> _PORT_SHIFT
            bad_rq = (
                np.isin(ports, requeue_eids)
                if requeue_eids is not None and len(requeue_eids)
                else np.zeros(ports.size, dtype=bool)
            )
            bad_dp = (
                np.isin(ports, drop_eids)
                if drop_eids is not None and len(drop_eids)
                else np.zeros(ports.size, dtype=bool)
            )
            if dead_router >= 0:
                ep_lo = self._n_dir + dead_router * self._conc
                bad_dp |= (ports >= ep_lo) & (ports < ep_lo + self._conc)
            if bad_dp.any():
                self._drop_pkts(self._w_idx[bad_dp], "router-down")
            if bad_rq.any():
                rq = self._w_idx[bad_rq]
                self.stats.n_requeued += int(rq.size)
                # Credit the cycles spent queueing on the dead port, which
                # the winner-pick accounting will never see (the packet
                # re-enqueues with a fresh cycle stamp).
                enq = (self._w_comb[bad_rq] >> _ENQ_SHIFT) & _ENQ_MASK
                self._wait[rq] += c - enq
            keep = ~(bad_rq | bad_dp)
            if not keep.all():
                self._w_comb = self._w_comb[keep]
                self._w_idx = self._w_idx[keep]
                self._w_nxt = self._w_nxt[keep]
        # Epoch snapshot; injected/delivered counts are only knowable at
        # drain time (latencies assemble analytically) and are filled in
        # by _fill_epochs.
        self.stats.epochs.append(
            {
                "t": ev.t,
                "label": label,
                "injected": 0,
                "delivered": 0,
                "dropped": self.stats.n_dropped,
                "requeued": self.stats.n_requeued,
                "bytes_delivered": 0,
            }
        )
        return rq

    def _fill_epochs(
        self, t0: np.ndarray, t_del: np.ndarray, delivered: np.ndarray
    ) -> None:
        """Patch the drain-time counters into the recorded epoch snapshots.

        Boundary semantics are strict: the event engine pushes fault
        events into its heap before any traffic exists, so at equal
        timestamps a fault pops first and its epoch snapshot *excludes*
        injections and deliveries landing exactly at the epoch time.  An
        inclusive comparison here diverged from the reference whenever a
        run terminated exactly on an epoch boundary (the last delivery
        cycle coinciding with a recovery event).
        """
        sizes = self._msg_sizes
        for ep in self.stats.epochs:
            t = ep["t"]
            ep["injected"] = int((t0 < t).sum()) if len(t0) else 0
            if len(t_del):
                dm = delivered & (t_del < t)
                ep["delivered"] = int(dm.sum())
                ep["bytes_delivered"] = (
                    int(dm.sum()) * self._size
                    if sizes is None
                    else int(sizes[dm].sum())
                )

    def _drain(self, delivered_mask: np.ndarray | None = None) -> None:
        """Assemble per-packet latencies analytically and fill SimStats.

        Pipeline per packet: NIC (exact, including injection queueing) +
        source cable + per-hop and eject stages of (switch + serialization
        + cable) + the observed queueing in whole cycles.  The switch stage
        is charged only at *uncontested* ports: the event engine schedules
        a queued packet straight off the previous transmission with no
        switch delay (see ``NetworkSimulator._port_done``), and this engine
        mirrors that by folding the switch of contested hops into their
        measured wait.

        ``delivered_mask`` restricts the fill to a subset (the deadlock
        path passes the ejected-and-not-dropped packets); when ``None``
        it is derived from the drop ledger for fault and lossy runs.
        """
        hops = self._hops
        stages = hops + 1  # inter-router traversals + the ejection port
        S = self._tau
        lat = (
            (self._nic_done - self._t0)
            + self._link
            + stages * (S + self._link)
            + self._uncontested * self._switch
            + self._wait * S
        )
        if self._ch_delay is not None:
            # Exact channel nanoseconds (overhead, jitter, retransmit
            # round-trips) on top of the analytic pipeline.
            lat = lat + self._ch_delay
        t_del = self._t0 + lat
        stats = self.stats
        if delivered_mask is None and (
            self._mask is not None
            or (self._channel is not None and self._dropped.any())
        ):
            # Fault/lossy mode: dropped packets never delivered; their
            # lat/t_del entries are meaningless and are excluded here.
            delivered_mask = ~self._dropped
        if delivered_mask is not None:
            keep = delivered_mask
            lat = lat[keep]
            hops = hops[keep]
            t_del_k = t_del[keep]
            order = np.argsort(t_del_k, kind="stable")
            stats.latencies_ns = lat[order].tolist()
            stats.hops = hops[order].tolist()
            stats.bytes_delivered = int(len(lat)) * self._size
            if len(t_del_k):
                stats.t_last_delivery = float(t_del_k.max())
            if self._mask is not None:
                self._fill_epochs(self._t0, t_del, keep)
            return
        order = np.argsort(t_del, kind="stable")  # event-engine-ish order
        stats.latencies_ns = lat[order].tolist()
        stats.hops = hops[order].tolist()
        stats.bytes_delivered = int(len(lat)) * self._size
        stats.t_last_delivery = float(t_del.max())

    # -- closed-loop motif workloads -----------------------------------------
    def run_closed_loop(self, messages, rank_to_ep) -> SimStats:
        """Run a dependency-driven message DAG; returns the filled stats.

        The batch analogue of the event engine's motif runner
        (:func:`repro.workloads.runner.run_motif`): message ``m`` may enter
        the network only after every message in ``m.deps`` is *delivered*,
        plus ``m.compute_ns``.  Instead of delivery callbacks, the engine
        keeps **per-cycle frontier arrays**: each cycle's deliveries
        decrement their dependents' pending-dependency counts in one
        scatter, the newly eligible messages NIC-serialize through the
        exact per-endpoint FIFO recurrence, and their source-router
        arrivals join the packed-key waiting set at the right cycle.

        Motif messages have heterogeneous sizes, so this mode keeps exact
        per-packet times: output ports carry fractional-cycle clocks (a
        port serializes ``size / bandwidth`` exactly, and several small
        messages may cross one port within a single cycle), and the cycle
        grid only batches the contention decisions.  An uncontested
        packet's end-to-end latency therefore equals the event engine's to
        float rounding; under contention the two engines may order
        same-cycle winners differently (FIFO by enqueue cycle with random
        tie-breaks here, exact arrival order + VC round-robin there),
        which is the statistical divergence the differential harness
        bounds (``tests/test_sim_differential.py``).
        """
        if self._sources:
            raise SimulationError(
                "closed-loop runs cannot be mixed with open-loop sources"
            )
        if self._fault_schedule is not None:
            # The matrix covers single features; the motifs+faults *combo*
            # has no API path on either engine (run_motif takes no faults)
            # — this defensive guard still speaks the canonical type.
            raise BackendCapabilityError(
                "the batched backend does not combine 'motifs' with "
                "'faults' in one run; no engine offers faulted motif "
                "runs yet",
                backend="batched",
                feature=capabilities.FAULTS,
            )
        if self._buf_used is not None:
            # Same story for the congestion features: the closed-loop
            # frontier runner has no credit/channel machinery — use the
            # event engine for congested motif studies.
            raise BackendCapabilityError(
                "the batched backend does not combine 'finite-buffers' "
                "with closed-loop motif runs; use backend='event'",
                backend="batched",
                feature=capabilities.FINITE_BUFFERS,
                supported_backends=("event",),
            )
        if self._channel is not None:
            raise BackendCapabilityError(
                "the batched backend does not combine 'lossy-links' "
                "with closed-loop motif runs; use backend='event'",
                backend="batched",
                feature=capabilities.LOSSY_LINKS,
                supported_backends=("event",),
            )
        if self.on_delivery is not None:
            capabilities.require(self.backend, capabilities.DELIVERY_CALLBACKS)
        n_msgs = len(messages)
        stats = self.stats
        self.closed_loop_delivered = 0
        if n_msgs == 0:
            return stats
        mids = np.array([m.mid for m in messages], dtype=np.int64)
        if not np.array_equal(mids, np.arange(n_msgs)):
            raise SimulationError(
                "closed-loop messages must carry ids 0..n-1 in list order"
            )
        r2e = np.asarray(rank_to_ep, dtype=np.int64)
        self._msrc_ep = r2e[[m.src_rank for m in messages]]
        self._dst_ep = r2e[[m.dst_rank for m in messages]]
        self._msg_sizes = np.array([m.size for m in messages], dtype=np.int64)
        self._mcompute = np.array([m.compute_ns for m in messages])
        self._self_send = self._msrc_ep == self._dst_ep

        # Dependents CSR (message d -> the messages waiting on d) and the
        # per-message pending-dependency counters: the frontier arrays.
        n_deps = np.array([len(m.deps) for m in messages], dtype=np.int64)
        dep_from = np.array(
            [d for m in messages for d in m.deps], dtype=np.int64
        )
        dep_to = np.repeat(np.arange(n_msgs, dtype=np.int64), n_deps)
        o = np.argsort(dep_from, kind="stable")
        self._dep_indices = dep_to[o]
        counts = np.bincount(dep_from, minlength=n_msgs)
        self._dep_indptr = np.empty(n_msgs + 1, dtype=np.int64)
        self._dep_indptr[0] = 0
        np.cumsum(counts, out=self._dep_indptr[1:])
        self._pending = n_deps.copy()
        self._released = np.zeros(n_msgs, dtype=bool)

        # Per-message state (same attribute names the shared _arrive /
        # _enqueue / _on_source machinery reads).
        self._t_ready = np.zeros(n_msgs)
        self._t_created = np.zeros(n_msgs)
        self._t_arr = np.zeros(n_msgs)
        self._t_del = np.full(n_msgs, np.inf)
        self._done = np.zeros(n_msgs, dtype=bool)
        self._dst_router = self._dst_ep // self._conc
        self._cur = self._msrc_ep // self._conc
        self._hops = np.zeros(n_msgs, dtype=np.int64)
        self._inter = np.full(n_msgs, -1, dtype=np.int64)
        self._phase = np.zeros(n_msgs, dtype=np.int64)
        self._dropped = np.zeros(n_msgs, dtype=bool)

        # Fractional-cycle clocks: NIC per endpoint, output port per
        # directed edge + ejection port per endpoint.
        self._ns_per_byte = 1.0 / self.config.bytes_per_ns
        self._nic_free = np.zeros(self.n_endpoints)
        self._port_free = np.zeros(self._n_dir + self.n_endpoints)
        self._cl_tau = self._tau * CLOSED_LOOP_CYCLE_FACTOR
        self._arrivals: dict[int, list] = {}
        self._arr_heap: list[int] = []
        self._cl_moves = 0

        self._w_comb = np.empty(0, dtype=np.int64)
        self._w_idx = np.empty(0, dtype=np.int64)
        self._w_nxt = np.empty(0, dtype=np.int64)

        roots = np.nonzero(self._pending == 0)[0]
        self._released[roots] = True
        # Event-runner parity: roots inject in message order, triggered at
        # t = 0 (their compute delay offsets the injection stamp).
        self._send_batch(roots, np.zeros(len(roots)), -1)
        self._cl_cycle_loop()
        self._cl_drain()
        return stats

    def _cl_push(self, ids: np.ndarray, cyc: np.ndarray,
                 at_source: bool) -> None:
        """File a batch of router arrivals under their due cycles."""
        for cv in np.unique(cyc).tolist():
            chunk = ids[cyc == cv]
            lst = self._arrivals.get(cv)
            if lst is None:
                lst = self._arrivals[cv] = []
                heapq.heappush(self._arr_heap, cv)
            lst.append((chunk, at_source))

    def _release_deps(
        self, d_ids: np.ndarray, t_del: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scatter a delivery batch into the frontier arrays.

        Decrements every dependent's pending counter, folds the delivery
        times into ``t_ready`` (the event runner triggers a message at the
        delivery that zeroes its counter — the max over its deps), and
        returns the newly eligible messages with their trigger times.
        """
        indptr = self._dep_indptr
        starts = indptr[d_ids]
        lens = indptr[d_ids + 1] - starts
        total = int(lens.sum())
        empty = np.empty(0, dtype=np.int64)
        if total == 0:
            return empty, np.empty(0)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        dependents = self._dep_indices[np.repeat(starts, lens) + offs]
        np.maximum.at(self._t_ready, dependents, np.repeat(t_del, lens))
        np.subtract.at(self._pending, dependents, 1)
        cand = np.unique(dependents)
        newly = cand[(self._pending[cand] == 0) & ~self._released[cand]]
        if newly.size:
            self._released[newly] = True
        return newly, self._t_ready[newly]

    def _send_batch(self, ids: np.ndarray, t_call: np.ndarray,
                    c: int) -> None:
        """Inject newly eligible messages (the event runner's ``inject``).

        ``t_call`` is each message's trigger time (the delivery that freed
        it); the injection stamp is ``t_call + compute_ns``.  Self-sends
        complete instantly — exactly like ``NetworkSimulator.send`` — and
        may release further messages, so the loop iterates to the closure.
        NIC serialization follows the event engine's recurrence: a NIC
        busy *at the trigger time* chains the message straight off the
        previous completion (even into the compute window); an idle one
        starts at the stamp.
        """
        stats = self.stats
        nspb = self._ns_per_byte
        link = self._link
        tau = self._cl_tau
        sizes = self._msg_sizes
        nic_free = self._nic_free
        t_arr = self._t_arr
        while ids.size:
            t_stamp = t_call + self._mcompute[ids]
            self._t_created[ids] = t_stamp
            selfm = self._self_send[ids]
            net_ids = ids[~selfm]
            if net_ids.size:
                nt_call = t_call[~selfm]
                nt_stamp = t_stamp[~selfm]
                stats.n_injected += int(net_ids.size)
                first = float(nt_stamp.min())
                if first < stats.t_first_inject:
                    stats.t_first_inject = first
                # Per-endpoint FIFO in trigger order (the event engine's
                # send-call order).  The recurrence — a busy NIC chains the
                # next message straight off the previous completion, an
                # idle one starts at the stamp — runs as the same padded
                # 2-D scan _inject uses: one vector op per message *rank
                # within its endpoint*, not one per message.
                order = np.lexsort((net_ids, nt_call))
                oids = net_ids[order]
                eps = self._msrc_ep[oids]
                g = np.argsort(eps, kind="stable")
                oids = oids[g]
                eps = eps[g]
                tc = nt_call[order][g]
                ts = nt_stamp[order][g]
                S = sizes[oids] * nspb
                uniq, idx0, cnt = np.unique(
                    eps, return_index=True, return_counts=True
                )
                kmax = int(cnt.max())
                rows = np.repeat(
                    np.arange(len(uniq), dtype=np.int64), cnt
                )
                cols = np.arange(len(oids), dtype=np.int64) - np.repeat(
                    idx0, cnt
                )
                tc2 = np.full((len(uniq), kmax), -np.inf)
                ts2 = np.full((len(uniq), kmax), -np.inf)
                S2 = np.zeros((len(uniq), kmax))
                tc2[rows, cols] = tc
                ts2[rows, cols] = ts
                S2[rows, cols] = S
                done2 = np.empty_like(tc2)
                prev = nic_free[uniq]
                for j in range(kmax):
                    start = np.where(prev > tc2[:, j], prev, ts2[:, j])
                    done2[:, j] = start + S2[:, j]
                    prev = done2[:, j]
                nic_free[uniq] = done2[rows, cols][
                    np.concatenate([idx0[1:] - 1, [len(oids) - 1]])
                ]
                t0 = done2[rows, cols] + link
                t_arr[oids] = t0
                cyc = np.ceil(t0 / tau).astype(np.int64)
                np.maximum(cyc, max(c, 0), out=cyc)
                self._cl_push(oids, cyc, at_source=True)
            s_ids = ids[selfm]
            if not s_ids.size:
                break
            # Instant completion; dependents may cascade.
            t_del = t_stamp[selfm]
            self._done[s_ids] = True
            self._t_del[s_ids] = t_del
            ids, t_call = self._release_deps(s_ids, t_del)

    def _cl_cycle_loop(self) -> None:
        tau = self._cl_tau
        switch = self._switch
        link = self._link
        nspb = self._ns_per_byte
        n_dir = self._n_dir
        sizes = self._msg_sizes
        t_arr = self._t_arr
        port_free = self._port_free
        max_q = 0
        if not self._arr_heap:
            return
        c = self._arr_heap[0]
        while True:
            # Work the cycle to quiescence: arrivals merge into the waiting
            # set, winners cross their ports, their downstream arrivals may
            # land back *in this same cycle* (a hop takes switch + S + link
            # ≈ a third of tau at paper parameters, so the event engine
            # routinely moves a packet several hops inside one cycle
            # window), deliveries release frontier messages whose NIC
            # completions may also land here.  Only when no step produces
            # work does the cycle advance — this keeps ports work-
            # conserving and arrival-ordered against the event engine.
            progressed = False
            if self._arr_heap and self._arr_heap[0] <= c:
                # Consolidate every chunk due this cycle into at most two
                # _arrive batches (source vs forwarded): the FIFO order
                # inside the waiting set comes from the arrival-time
                # tie-break, not the merge order, so batching is free —
                # and one 500-packet _arrive costs a fraction of ten
                # 50-packet ones.
                src_chunks: list[np.ndarray] = []
                fwd_chunks: list[np.ndarray] = []
                while self._arr_heap and self._arr_heap[0] <= c:
                    for chunk, at_src in self._arrivals.pop(
                        heapq.heappop(self._arr_heap)
                    ):
                        (src_chunks if at_src else fwd_chunks).append(chunk)
                if fwd_chunks:
                    self._arrive(
                        fwd_chunks[0] if len(fwd_chunks) == 1
                        else np.concatenate(fwd_chunks),
                        c, at_source=False,
                    )
                    progressed = True
                if src_chunks:
                    self._arrive(
                        src_chunks[0] if len(src_chunks) == 1
                        else np.concatenate(src_chunks),
                        c, at_source=True,
                    )
                    progressed = True
            if progressed and self._w_comb.size:
                ports = self._w_comb >> _PORT_SHIFT
                m = ports < n_dir
                if m.any():
                    qb = np.bincount(
                        ports[m], weights=sizes[self._w_idx[m]]
                    )
                    if qb.size and int(qb.max()) > max_q:
                        max_q = int(qb.max())

            # Contention: a port serves head-of-queue packets while its
            # fractional clock stays inside the cycle — several small
            # messages may cross one port per cycle, one large message
            # blocks its port for the cycles its serialization spans.
            limit = (c + 1) * tau
            if self._w_comb.size:
                comb = self._w_comb
                ports = comb >> _PORT_SHIFT
                first = np.empty(comb.size, dtype=bool)
                first[0] = True
                np.not_equal(ports[1:], ports[:-1], out=first[1:])
                fpos = np.nonzero(first)[0]
                fports = ports[fpos]
                elig = port_free[fports] < limit
                if elig.any():
                    progressed = True
                    wpos = fpos[elig]
                    wports = fports[elig]
                    widx = self._w_idx[wpos]
                    tp = t_arr[widx]
                    pf = port_free[wports]
                    S = sizes[widx] * nspb
                    # Port idle at the packet's arrival: the event engine
                    # charges the switch stage and starts at the arrival
                    # time; a queued packet chains straight off the
                    # previous transmission with no switch delay.
                    done = np.where(pf <= tp, tp + switch + S, pf + S)
                    port_free[wports] = done
                    eject = wports >= n_dir
                    ej = widx[eject]
                    mv = ~eject
                    moved = widx[mv]
                    if moved.size:
                        self._cur[moved] = self._w_nxt[wpos][mv]
                        self._hops[moved] += 1
                        ta = done[mv] + link
                        t_arr[moved] = ta
                        cyc = np.maximum(
                            c, np.ceil(ta / tau).astype(np.int64)
                        )
                        self._cl_push(moved, cyc, at_source=False)
                        self._cl_moves += int(moved.size)
                    keep = np.ones(comb.size, dtype=bool)
                    keep[wpos] = False
                    self._w_comb = comb[keep]
                    self._w_idx = self._w_idx[keep]
                    self._w_nxt = self._w_nxt[keep]
                    if ej.size:
                        td = done[eject] + link
                        self._done[ej] = True
                        self._t_del[ej] = td
                        newly, t_call = self._release_deps(ej, td)
                        if newly.size:
                            self._send_batch(newly, t_call, c)
            if progressed:
                continue

            # Advance — skipping cycles in which nothing can happen.
            if self._w_comb.size:
                ports = self._w_comb >> _PORT_SHIFT
                first = np.empty(ports.size, dtype=bool)
                first[0] = True
                np.not_equal(ports[1:], ports[:-1], out=first[1:])
                ready_c = int(port_free[ports[first]].min() // tau)
                nxt = max(c + 1, ready_c)
                if self._arr_heap:
                    nxt = min(nxt, self._arr_heap[0])
                c = max(c + 1, nxt)
            elif self._arr_heap:
                c = max(c + 1, self._arr_heap[0])
            else:
                break
            if c >= _ENQ_MASK:  # pragma: no cover - absurdly long run
                raise SimulationError(
                    "batched run exceeded the cycle budget; use the event "
                    "backend for simulations this long"
                )
        self.stats.max_queue_bytes = max_q

    def _cl_drain(self) -> None:
        """Fill SimStats from the per-message arrays, in delivery order."""
        stats = self.stats
        self.closed_loop_delivered = int(self._done.sum())
        d = np.nonzero(self._done & ~self._self_send)[0]
        if not d.size:
            return
        td = self._t_del[d]
        o = np.argsort(td, kind="stable")
        d = d[o]
        lat = self._t_del[d] - self._t_created[d]
        stats.latencies_ns = lat.tolist()
        stats.hops = self._hops[d].tolist()
        stats.bytes_delivered = int(self._msg_sizes[d].sum())
        stats.t_last_delivery = float(self._t_del[d].max())
        stats.n_events = 2 * int(d.size) + self._cl_moves
