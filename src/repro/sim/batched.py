"""The batch-synchronous (cycle-driven) simulation backend.

Where :class:`~repro.sim.network.NetworkSimulator` processes one heap event
at a time in a Python loop, this engine keeps **exact per-packet times**
and takes its **contention decisions batched per cycle**, as numpy array
programs over the same CSR-of-CSR
:class:`~repro.routing.tables.RoutingTables`.  Open-loop traffic and
closed-loop motif DAGs run through one loop: an open-loop schedule is the
degenerate DAG, dependency-free messages of one size, each triggered at
its injection time.

* a *cycle* is one packet-serialization time ``tau = packet_bytes /
  bytes_per_ns``; it only groups decisions.  Every NIC, output port (one
  per directed edge) and ejection port carries an exact clock: it
  serializes ``size`` bytes in ``size * ns_per_byte``, charges the switch
  stage when it is idle at the packet's arrival, and chains a queued
  packet straight off the previous transmission — the event engine's
  recurrences, so an uncontested packet's latency equals the event
  engine's to float rounding;
* **injection**: :meth:`run` takes one bulk predraw of every source's
  schedule (:func:`~repro.sim.traffic.predraw_sources`, the draw the event
  engine's sources replay), and :meth:`run_closed_loop` releases a message
  once every dependency is delivered (per-cycle frontier arrays).  Each
  endpoint's NIC serializes its messages in trigger order;
* **routing** is a vectorized next-hop lookup per batch: two ``indptr``
  gathers and one gather of the stored neighbour slots, which the row
  start of the router turns into directed edge ids, uniform tie-breaks
  from one block of uniforms (Valiant/UGAL source decisions are vectorized
  the same way).  A forwarded packet is routed at its next router as it
  leaves its port, and waits there under the cycle it arrives in;
* **contention** is resolved per port by a segmented sort: every waiting
  packet carries one packed 64-bit key ``port << 40 | enqueue_cycle << 20
  | arrival_within_cycle`` and the waiting set is kept sorted by it — new
  arrivals are batch-sorted and merged in, and a first-of-segment mask
  picks each port's head, FIFO by arrival time.  A port serves its head
  once the head has arrived and the port's clock is inside the cycle, and
  a cycle is passed over again while a pass can land a packet in it;
* **latency** is ``t_delivered - t_created`` per delivered packet.

The two engines are **not** event-for-event identical — equal seeds give
equal injections but different routing tie-break streams, and decisions
inside one cycle are taken in batches rather than in exact event order.
Their agreement on mean latency, mean hops, throughput, and delivered
counts is pinned statistically by ``tests/test_sim_differential.py``.

The scenario families run on the same loop, open- and closed-loop alike:

* **fault schedules** (:class:`~repro.sim.faults.FaultSchedule`): fault
  events become *epoch boundaries* at ``ceil(t / tau)``.  At a boundary
  the engine mutates a live :class:`~repro.routing.tables.FaultMask` (the
  same failure-count overlay the event engine uses, so recovery is exact)
  and rewrites the **masked CSR-of-CSR next-hop arrays** — a vectorized
  live-candidate filter of the pristine table — in one pass; packets
  queued on newly dead ports are requeued or dropped with the event
  engine's semantics (see ``docs/resilience.md``).  The one semantic
  approximation: the event engine kills exactly the packet mid-flight on
  a failed link, while this engine's winners of the boundary cycle have
  already been forwarded — at most one packet per failed port diverges.
* **credit/backpressure finite buffers** (``config.finite_buffers``, see
  ``docs/congestion.md``): per-(directed edge, VC) credit counters
  threaded through the winner pick — a port's FIFO segment is scanned
  for the *first VC head whose downstream input buffer has room* (the
  batch analogue of the event engine's round-robin VC skip), winners hold
  their credit until they depart the next router, a winner that fits only
  after a release later than its port's decision starts no earlier than
  that release, and a wedged waiting set with no external work left
  raises the same structured :class:`~repro.errors.BufferDeadlockError`
  as the event engine's drain check;
* **lossy/jittery links** (``config.channel``, :mod:`repro.sim.channel`):
  winners crossing a link evaluate the shared counter-hash channel at the
  pre-increment hop, keyed by the packet's per-endpoint injection index —
  identical loss/retransmit outcomes to the event engine wherever the
  engines route alike — and the exact extra nanoseconds join the arrival
  time.

Not supported here (use the event engine): ``run(until=...)``
pause/resume, ad-hoc ``send()`` calls, delivery callbacks, and fault
schedules on on-demand oracle tables.  Every refusal goes through the
capability matrix (:mod:`repro.sim.capabilities`) and raises the one
canonical :class:`~repro.errors.BackendCapabilityError` — construction-
or call-time errors, not silent fallbacks.  Every run ends with a
conservation check: delivered plus dropped equals injected, and no packet,
pending arrival or buffer credit is left behind.
"""

from __future__ import annotations

import heapq
import math
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

# Packed waiting-set sort key layout: port | arrival cycle | arrival time
# within the cycle.  23 bits of port, 20 bits of cycle, 20 bits of arrival.
# The port field bounds the engine: directed edges + endpoints must stay
# below 2**23 = 8,388,608.  At concentration 2 the largest LPS(5,q) that
# fits is LPS(5,109) (647,460 routers, 5,179,680 ports); LPS(5,107) and
# LPS(5,113) are refused.
_PORT_SHIFT = 40
_ENQ_SHIFT = 20
_ENQ_MASK = (1 << 20) - 1

# Pairs per on-demand oracle query: the oracle's temporaries grow with the
# pairs of one query, so big arrival batches are routed in slices.  With
# one word walk per pair, slices of 16,384 pairs and unsliced batches ran
# no faster on the 113,460-router LPS(5,61) cell (65,536 packets; medians
# of four alternated rounds of five runs: 0.643 s and 0.640 s, against
# 0.645 s), so the slice stays at the size with the smallest temporaries.
_ORACLE_BATCH = 4096


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
        #: Messages of the closed-loop run delivered, self-sends included.
        self.closed_loop_delivered = 0
        # Set by the first run(); a started simulator takes no new sources
        # or fault schedule.  Once the run has finished, a second run()
        # returns the same stats; after a failed run it raises.
        self._started = False
        self._finished = False

        # The flat next-hop table as stored (int32 or int64 indptr, uint8
        # neighbour slots up to degree 256): the vectorized gathers read it
        # directly, with no per-simulation conversion, and the event
        # engine's views are never built.  A picked slot of router u is
        # the directed edge g.indptr[u] + slot.  Oracle-backed tables skip
        # the O(n^2) flat table entirely: minimal picks go through the
        # oracle's vectorized pick_minimal and UGAL's distance probes
        # through distance_batch.
        if self.tables.is_lazy:
            self._oracle = self.tables.oracle
            self._nh_indptr = None
            self._nh_slots = None
            self._dist = None
        else:
            self._oracle = None
            self._nh_indptr, self._nh_slots = self.tables.next_hop_arrays()
            self._dist = self.tables.dist  # (n, n) int16
        self._row_start = g.indptr  # router -> its first directed edge id
        self._edge_to = g.indices  # directed edge id -> downstream router
        self._n_dir = len(g.indices)
        # Every port id must fit the packed key's 23-bit port field.
        if self._n_dir + self.n_endpoints >= (1 << (63 - _PORT_SHIFT)):
            raise SimulationError(
                "topology too large for the packed contention keys; "
                "use backend='event'"
            )

        self._conc = config.concentration
        self._size = config.packet_bytes
        self._tau = config.packet_bytes / config.bytes_per_ns  # ns per cycle
        self._ns_per_byte = 1.0 / config.bytes_per_ns
        self._switch = config.switch_latency_ns
        self._link = config.link_latency_ns
        self.rng = routing.rng  # engine draws: routing uniforms

        # Credit/backpressure finite buffers: per-(directed edge, VC)
        # occupancy, same layout as NetworkSimulator._buf_used so the
        # hold-until-departure semantics line up entry for entry.
        self.n_vcs = routing.required_vcs()
        self._buf_used = (
            np.zeros((self._n_dir, self.n_vcs), dtype=np.int64)
            if config.finite_buffers
            else None
        )
        # Lossy-link channel model (None on the pristine path).
        self._channel = (
            ChannelModel(config.channel, config.link_latency_ns)
            if config.channel is not None
            else None
        )

        # The waiting set (sorted packed keys / packet ids / next routers);
        # also read by fault application before the first cycle runs.
        self._w_comb = np.empty(0, dtype=np.int64)
        self._w_idx = np.empty(0, dtype=np.int64)
        self._w_nxt = np.empty(0, dtype=np.int64)
        # NIC outputs not yet at their source router: chunks of packet ids
        # filed under the cycle they arrive in, the cycles in a heap.
        self._arrivals: dict[int, list] = {}
        self._arr_heap: list[int] = []
        # Fault-injection state; all None until a schedule is attached and
        # the run starts (the pristine paths never read any of it).
        self._fault_schedule = faults
        self._mask = None
        self._alive_router: np.ndarray | None = None

    # -- public API (NetworkSimulator parity where meaningful) --------------
    def endpoint_router(self, ep: int) -> int:
        return ep // self._conc

    def add_open_loop_source(self, source) -> None:
        if self._started:
            raise SimulationError("add open-loop sources before running")
        self._sources.append(source)

    def send(self, *args, **kwargs):
        # Ad-hoc open-ended send() has no batch analogue; motif DAGs go
        # through run_closed_loop (the vectorized frontier runner) instead.
        capabilities.require(self.backend, capabilities.ADHOC_SEND)

    def set_fault_schedule(self, schedule) -> None:
        """Attach a :class:`~repro.sim.faults.FaultSchedule` before running.

        Fault events become epoch boundaries of the cycle loop; see the
        module docstring for the exact semantics.
        """
        if self._fault_schedule is not None:
            raise SimulationError("a fault schedule is already attached")
        if self._started:
            raise SimulationError(
                "attach the fault schedule before running"
            )
        self._fault_schedule = schedule

    def run(self, until: float | None = None, max_events: int | None = None) -> SimStats:
        """Simulate every open-loop source to completion; returns the stats.

        The sources' schedules are drawn once and self-sends dropped (they
        never touch the network, as in the event engine's ``send()``); the
        packets enter the loop as dependency-free messages of
        ``packet_bytes``, each triggered at its injection time.  A finished
        simulator returns the same stats again without re-simulating.
        """
        if until is not None or max_events is not None:
            capabilities.require(self.backend, capabilities.PAUSE_RESUME)
        if self.on_delivery is not None:
            capabilities.require(self.backend, capabilities.DELIVERY_CALLBACKS)
        if not self._start():
            return self.stats
        # Drawn in endpoint order, so each NIC's packets come out together
        # and in time order (with one source per endpoint).
        sources = sorted(self._sources, key=lambda s: s.endpoint)
        t0, dst_ep, counts = predraw_sources(sources, self.config)
        src_ep = np.repeat(
            np.array([s.endpoint for s in sources], dtype=np.int64), counts
        )
        net = dst_ep != src_ep
        n = int(net.sum())
        self._load(src_ep[net], dst_ep[net],
                   np.broadcast_to(np.int64(self._size), (n,)),
                   np.broadcast_to(0.0, (n,)))
        self._simulate(np.arange(n, dtype=np.int64), t0[net])
        return self.stats

    def run_closed_loop(self, messages, rank_to_ep) -> SimStats:
        """Run a dependency-driven message DAG; returns the filled stats.

        The batch analogue of the event engine's motif runner
        (:func:`repro.workloads.runner.run_motif`): message ``m`` may enter
        the network only after every message in ``m.deps`` is *delivered*,
        plus ``m.compute_ns``.  Instead of delivery callbacks, the engine
        keeps **per-cycle frontier arrays**: each delivery batch decrements
        its dependents' pending-dependency counts in one scatter, and the
        newly eligible messages are sent through the same NIC and loop as
        open-loop packets.  A finished simulator returns the same stats
        again without re-simulating.
        """
        if self._sources:
            raise SimulationError(
                "closed-loop runs cannot be mixed with open-loop sources"
            )
        if self.on_delivery is not None:
            capabilities.require(self.backend, capabilities.DELIVERY_CALLBACKS)
        n_msgs = len(messages)
        mids = np.array([m.mid for m in messages], dtype=np.int64)
        if not np.array_equal(mids, np.arange(n_msgs)):
            raise SimulationError(
                "closed-loop messages must carry ids 0..n-1 in list order"
            )
        if not self._start():
            return self.stats
        r2e = np.asarray(rank_to_ep, dtype=np.int64)
        self._load(
            r2e[np.array([m.src_rank for m in messages], dtype=np.int64)],
            r2e[np.array([m.dst_rank for m in messages], dtype=np.int64)],
            np.array([m.size for m in messages], dtype=np.int64),
            np.array([m.compute_ns for m in messages], dtype=float),
        )
        # Dependents CSR (message d -> the messages waiting on d) and the
        # per-message pending-dependency counters: the frontier arrays.
        n_deps = np.array([len(m.deps) for m in messages], dtype=np.int64)
        if n_deps.any():
            dep_from = np.array(
                [d for m in messages for d in m.deps], dtype=np.int64
            )
            dep_to = np.repeat(np.arange(n_msgs, dtype=np.int64), n_deps)
            self._dep_indices = dep_to[np.argsort(dep_from, kind="stable")]
            self._dep_indptr = np.zeros(n_msgs + 1, dtype=np.int64)
            np.cumsum(np.bincount(dep_from, minlength=n_msgs),
                      out=self._dep_indptr[1:])
            self._pending = n_deps
            self._released = n_deps == 0
            self._t_ready = np.zeros(n_msgs)
            self._nic_free = np.zeros(self.n_endpoints)
        # Event-runner parity: roots inject in message order, triggered at
        # t = 0 (their compute delay offsets the injection stamp).
        roots = np.flatnonzero(n_deps == 0)
        self._simulate(roots, np.zeros(len(roots)))
        self.closed_loop_delivered = int(self._done.sum())
        return self.stats

    # -- helpers -------------------------------------------------------------
    def _start(self) -> bool:
        """Claim the simulator's one run; False once it has finished.

        A run that raised leaves partial state behind, so asking again
        raises instead of returning it.  Fault schedules on on-demand
        oracle tables are refused before the run is claimed.
        """
        if self._started:
            if not self._finished:
                raise SimulationError(
                    "this simulator's run failed; build a new simulator"
                )
            return False
        if self._fault_schedule is not None and self.tables.is_lazy:
            raise BackendCapabilityError(
                "fault schedules on backend='batched' need the dense "
                "next-hop table; construct RoutingTables without an "
                "on-demand oracle (or use backend='event')",
                backend="batched",
                feature=capabilities.FAULTS,
                supported_backends=("event",),
            )
        self._started = True
        return True

    def _pick_minimal(
        self, u: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One uniform random minimal next hop per (u, d) pair.

        Returns ``(hop, eid)``: the hop and the directed edge id of
        ``(u, hop)``.  The oracle hands back the edge it picked; the flat
        table gives the edge's slot in ``u``'s CSR row, so the edge is
        ``indptr[u] + slot`` and its hop one gather away.
        """
        if self._oracle is not None:
            # Same draw shape as the flat-table path (one uniform per
            # pair, consumed even at width 1) so the RNG stream — and
            # therefore the whole run — is bit-identical across backends.
            r = self.rng.random(len(u))
            eid = np.empty(len(u), dtype=np.int64)
            try:
                for lo in range(0, len(u), _ORACLE_BATCH):
                    hi = lo + _ORACLE_BATCH
                    eid[lo:hi] = self._oracle.pick_minimal(
                        u[lo:hi], d[lo:hi], r[lo:hi]
                    )
            except ValueError as e:
                raise SimulationError(str(e)) from None
        else:
            k = u * self.n_routers + d
            lo = self._nh_indptr[k]
            width = self._nh_indptr[k + 1] - lo
            if width.size and int(width.min()) <= 0:
                bad = int(np.argmin(width))
                raise SimulationError(
                    f"no minimal next hop from {int(u[bad])} to "
                    f"{int(d[bad])}"
                )
            offs = (self.rng.random(len(k)) * width).astype(np.int64)
            eid = self._row_start[u] + self._nh_slots[lo + offs]
        # Graph indices are int32; router ids travel as int64 everywhere.
        return self._edge_to[eid].astype(np.int64), eid

    def _port_queued_bytes(self, c: int) -> np.ndarray:
        """Queued bytes per router output port (UGAL's queue signal).

        Packets still on the cable toward a port are not queued there yet.
        """
        comb = self._w_comb
        ports = comb >> _PORT_SHIFT
        m = (ports < self._n_dir) & ((comb >> _ENQ_SHIFT) & _ENQ_MASK <= c)
        return np.bincount(
            ports[m],
            weights=self._msg_sizes[self._w_idx[m]],
            minlength=self._n_dir,
        )

    def _path_cost(
        self, src: np.ndarray, dst: np.ndarray, qbytes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized UGAL-G sampled-path cost: (queued bytes, hops)."""
        q = np.zeros(len(src), dtype=np.int64)
        h = np.zeros(len(src), dtype=np.int64)
        at = src.copy()
        active = np.nonzero(at != dst)[0]
        while active.size:
            nxt, eid = self._pick_minimal(at[active], dst[active])
            q[active] += qbytes[eid].astype(np.int64)
            h[active] += 1
            at[active] = nxt
            active = active[at[active] != dst[active]]
        return q, h

    # -- the run -------------------------------------------------------------
    def _load(self, src_ep: np.ndarray, dst_ep: np.ndarray,
              sizes: np.ndarray, compute: np.ndarray) -> None:
        """Allocate the per-message state of one run (no dependencies)."""
        n = len(src_ep)
        self._msrc_ep = src_ep
        self._dst_ep = dst_ep
        self._msg_sizes = sizes
        self._mcompute = compute
        self._self_send = src_ep == dst_ep
        self._dep_indptr = None
        # Per-endpoint NIC clocks; only a DAG sends in more than one batch.
        self._nic_free = None
        self._t_created = np.full(n, np.inf)
        self._t_arr = np.zeros(n)
        self._t_del = np.full(n, np.inf)
        self._done = np.zeros(n, dtype=bool)
        self._dropped = np.zeros(n, dtype=bool)
        self._dst_router = dst_ep // self._conc
        self._cur = src_ep // self._conc
        self._hops = np.zeros(n, dtype=np.int64)
        self._inter = np.full(n, -1, dtype=np.int32)
        self._phase = np.zeros(n, dtype=np.int8)
        # Exact clocks: output port per directed edge + ejection port per
        # endpoint.
        self._port_free = np.zeros(self._n_dir + self.n_endpoints)
        self._moves = 0
        if self._buf_used is not None:
            # Hold-until-departure credit state, indexed by flat buffer
            # cell ``edge * n_vcs + vc`` into a view of _buf_used: the cell
            # each packet currently occupies (-1 = none, fresh from its
            # NIC), mirroring Packet.occupies_edge/occupies_vc, and per cell
            # the releases a grant may still have to wait for.
            self._buf = self._buf_used.reshape(-1)
            self._occ = np.full(n, -1, dtype=np.int64)
            self._pr_t = np.full((self._buf.size, 1), -np.inf)
            self._pr_sz = np.zeros((self._buf.size, 1), dtype=np.int64)
            self._pr_pick = np.zeros(self._buf.size, dtype=np.int64)
            # The most a buffer may already hold to admit each message; an
            # empty buffer admits anything, even an oversized message.
            self._slack = np.maximum(self.config.buffer_bytes - sizes, 0)
        if self._channel is not None:
            # Per-endpoint injection counters, numbered in send order like
            # the event engine's send(): they compose the channel keys.
            self._ch_keys = np.zeros(n, dtype=np.int64)
            self._ep_sent = np.zeros(self.n_endpoints, dtype=np.int64)

    def _simulate(self, ids: np.ndarray, t_call: np.ndarray) -> None:
        """Send the first messages, run the loop, fill and check the stats."""
        if self._fault_schedule is not None:
            self._init_faults()
        self._send_batch(ids, t_call, -1)
        self._loop()
        self._fill_stats()
        self._check_drained()
        self._finished = True

    def _send_batch(self, ids: np.ndarray, t_call: np.ndarray,
                    c: int) -> None:
        """Inject newly eligible messages (the event runner's ``inject``).

        ``t_call`` is each message's trigger time (an open-loop packet's
        injection time, the delivery that freed a DAG message); the
        injection stamp is ``t_call + compute_ns``.  Self-sends complete
        instantly — exactly like ``NetworkSimulator.send`` — and may
        release further messages, so the loop iterates to the closure.
        """
        while ids.size:
            t_stamp = t_call + self._mcompute[ids]
            self._t_created[ids] = t_stamp
            selfm = self._self_send[ids]
            net = ~selfm
            if net.any():
                self._nic(ids[net], t_call[net], t_stamp[net], c)
            # Instant completion; dependents may cascade.
            s_ids = ids[selfm]
            t_del = t_stamp[selfm]
            self._done[s_ids] = True
            self._t_del[s_ids] = t_del
            ids, t_call = self._release_deps(s_ids, t_del)

    def _nic(self, ids: np.ndarray, tc: np.ndarray, ts: np.ndarray,
             c: int) -> None:
        """NIC-serialize network messages and file their router arrivals.

        Per endpoint in trigger order (the event engine's send-call order)
        the recurrence is the event engine's: a NIC busy *at the trigger
        time* chains the message straight off the previous completion, an
        idle one starts at the stamp — ``d_i = max(t_i, d_{i-1}) + S`` when
        trigger and stamp coincide.  It runs as a padded 2-D scan: one
        vector op per message *rank within its endpoint*, not one per
        message.
        """
        stats = self.stats
        stats.n_injected += len(ids)
        first = float(ts.min())
        if first < stats.t_first_inject:
            stats.t_first_inject = first
        eps = self._msrc_ep[ids]
        n = len(ids)
        # Order by (endpoint, trigger, id); an open-loop schedule drawn in
        # endpoint order with one source per endpoint already is.
        d_ep = np.diff(eps)
        d_tc = np.diff(tc)
        if not ((d_ep > 0) | ((d_ep == 0) & (
                (d_tc > 0) | ((d_tc == 0) & (np.diff(ids) > 0))))).all():
            o = np.lexsort((ids, tc, eps))
            ids, eps, tc, ts = ids[o], eps[o], tc[o], ts[o]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(eps[1:], eps[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        cnt = np.diff(np.append(starts, n))
        uniq = eps[starts]
        S = self._msg_sizes[ids] * self._ns_per_byte
        kmax = int(cnt.max())
        nic_free = self._nic_free
        prev = np.zeros(len(uniq)) if nic_free is None else nic_free[uniq]
        rows = np.repeat(np.arange(len(uniq), dtype=np.int64), cnt)
        cols = np.arange(n, dtype=np.int64) - np.repeat(starts, cnt)
        tc2 = np.full((len(uniq), kmax), -np.inf)
        ts2 = np.full((len(uniq), kmax), -np.inf)
        S2 = np.zeros((len(uniq), kmax))
        tc2[rows, cols] = tc
        ts2[rows, cols] = ts
        S2[rows, cols] = S
        done2 = np.empty_like(tc2)
        for j in range(kmax):
            prev = np.where(prev > tc2[:, j], prev, ts2[:, j]) + S2[:, j]
            done2[:, j] = prev
        done = done2[rows, cols]
        if nic_free is not None:
            nic_free[uniq] = done[starts + cnt - 1]
        if self._channel is not None:
            self._ch_keys[ids] = packet_key(eps, self._ep_sent[eps] + cols)
            self._ep_sent[uniq] += cnt
        t_arr = done + self._link
        self._t_arr[ids] = t_arr
        # File the outputs under the cycles they arrive in.
        cyc = np.ceil(t_arr / self._tau).astype(np.int64)
        np.maximum(cyc, c, out=cyc)
        o = np.argsort(cyc, kind="stable")
        cyc, ids = cyc[o], ids[o]
        cut = (np.flatnonzero(cyc[1:] != cyc[:-1]) + 1).tolist()
        for a, b in zip([0, *cut], [*cut, len(ids)]):
            cv = int(cyc[a])
            if cv not in self._arrivals:
                self._arrivals[cv] = []
                heapq.heappush(self._arr_heap, cv)
            self._arrivals[cv].append(ids[a:b])

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
        empty = np.empty(0, dtype=np.int64)
        if indptr is None:
            return empty, np.empty(0)
        starts = indptr[d_ids]
        lens = indptr[d_ids + 1] - starts
        total = int(lens.sum())
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

    def _loop(self) -> None:
        """The one cycle loop: pass over each cycle while a pass can land work.

        Arrivals merge into the waiting set and each port's head crosses
        it.  A winner's downstream arrival may land back *in this same
        cycle* (a hop takes switch + S + link, about a third of tau at
        paper parameters, so the event engine routinely moves a packet
        several hops inside one cycle window), a served port's next entry
        may too, and deliveries release frontier messages whose NIC
        completions may also land here; each gets the cycle another pass.
        Otherwise the loop advances — to the next cycle after a pass that
        served, else straight to the next cycle in which a port, an
        arrival or a fault event can act.
        """
        tau = self._tau
        nspb = self._ns_per_byte
        link = self._link
        n_dir = self._n_dir
        sizes = self._msg_sizes
        port_free = self._port_free
        arrivals = self._arrivals
        heap = self._arr_heap
        finite = self._buf_used is not None
        faulted = self._mask is not None
        ev_cycles = self._ev_cycles if faulted else ()
        events = self._fault_schedule.events if faulted else ()
        n_ev = len(ev_cycles)
        ev_ptr = 0
        max_q = 0
        c = min(heap[0] if heap else math.inf,
                ev_cycles[0] if n_ev else math.inf)
        while True:
            if not self._w_comb.size and not heap:
                # Drained.  Remaining schedule events still apply (the
                # event engine processes its _FAULT events regardless), so
                # recovery bookkeeping and epoch marks stay exact; one
                # final rewrite leaves the masked arrays reflecting the
                # mask's end state (pristine after full recovery).
                if ev_ptr < n_ev:
                    for ev in events[ev_ptr:]:
                        self._apply_fault_event(ev)
                    self._rebuild_masked()
                break
            c = int(c)
            src: list[np.ndarray] = []
            if ev_ptr < n_ev and ev_cycles[ev_ptr] <= c:
                # Epoch boundary: apply every schedule event due at this
                # cycle (mask mutation + waiting-set fix-up per event,
                # matching the event engine's per-event atomicity), then
                # rewrite the masked next-hop arrays once and re-route the
                # requeued packets against them.
                rq_all = []
                while ev_ptr < n_ev and ev_cycles[ev_ptr] <= c:
                    rq = self._apply_fault_event(events[ev_ptr])
                    if rq.size:
                        rq_all.append(rq)
                    ev_ptr += 1
                self._rebuild_masked()
                if rq_all:
                    self._arrive(np.concatenate(rq_all), c, at_source=False)
            # Packets fresh from their NICs: every chunk due this cycle in
            # one _arrive batch (the FIFO order inside the waiting set
            # comes from the arrival-time tie-break, not the merge order,
            # so batching is free).
            while heap and heap[0] <= c:
                src.extend(arrivals.pop(heapq.heappop(heap)))
            if src:
                self._arrive(np.concatenate(src), c, at_source=True)

            # Contention: each port's head (with finite buffers, its first
            # entry whose downstream buffer has room) is served once it has
            # arrived, while the port's clock stays inside the cycle —
            # several small messages may cross one port per cycle, one
            # large message blocks its port for the cycles its
            # serialization spans.
            limit = (c + 1) * tau
            nxt_c = math.inf
            comb = self._w_comb
            if comb.size:
                ports = comb >> _PORT_SHIFT
                head = np.empty(comb.size, dtype=bool)
                head[0] = True
                np.not_equal(ports[1:], ports[:-1], out=head[1:])
                starts = head.nonzero()[0]
                # Bytes queued per router port: arrived entries only.
                queued = np.where(
                    (ports < n_dir) & ((comb >> _ENQ_SHIFT) & _ENQ_MASK <= c),
                    sizes[self._w_idx], 0,
                )
                max_q = max(max_q, int(np.add.reduceat(queued, starts).max()))
                if finite:
                    fpos = self._credit_heads(ports)
                else:
                    fpos = starts
                fports = ports[fpos]
                pf = port_free[fports]
                hc = (comb[fpos] >> _ENQ_SHIFT) & _ENQ_MASK
                go = (pf < limit) & (hc <= c)
                if go.any():
                    if go.all():
                        wpos, wports = fpos, fports
                    else:
                        wpos, wports, pf = fpos[go], fports[go], pf[go]
                    w_idx = self._w_idx
                    landed = self._serve(wpos, wports, pf, c)
                    # Another pass this cycle only where it can matter: a
                    # packet landed in it, or a served port's next entry
                    # would land at its next hop inside it.  Any other
                    # entry starts at its port's clock (or at the release
                    # that gave it room) in whichever cycle picks it, and
                    # lands in a later cycle either way.
                    after = np.minimum(wpos + 1, comb.size - 1)
                    if landed or (heap and heap[0] <= c) or (
                        (after > wpos) & (ports[after] == wports) & (
                            port_free[wports] + sizes[w_idx[after]] * nspb
                            + link <= c * tau)
                    ).any():
                        continue
                    # Something can usually move next cycle; if nothing
                    # does, that pass jumps ahead from its heads.
                    nxt_c = c + 1
                elif fpos.size:
                    nxt_c = np.maximum(hc, pf // tau).min()
            if heap:
                nxt_c = min(nxt_c, heap[0])
            if ev_ptr < n_ev:
                nxt_c = min(nxt_c, ev_cycles[ev_ptr])
            if nxt_c == math.inf:
                if self._w_comb.size:
                    self._raise_deadlock()
                continue  # drained: the check at the top ends the loop
            c = max(c + 1, int(nxt_c))
        self.stats.max_queue_bytes = max_q

    def _credit_heads(self, ports: np.ndarray) -> np.ndarray:
        """Per port, the first VC head whose downstream buffer has room.

        Positions into the waiting set.  Each (port, VC) queue is FIFO, as
        in the event engine, which only tries each VC's head: an entry
        behind a blocked one of its own VC waits too.  Ejection ports
        never gate; a buffer always admits at least one packet, even an
        oversized one (event-engine parity).  A port whose VC heads are
        all blocked has no entry.
        """
        w_idx = self._w_idx
        is_ej = ports >= self._n_dir
        cell = ports * self.n_vcs + np.minimum(self._hops[w_idx],
                                               self.n_vcs - 1)
        slack = self._slack[w_idx]
        room = is_ej | (self._buf[np.where(is_ej, 0, cell)] <= slack)
        pos = room.nonzero()[0]
        blocked = (~room).nonzero()[0]
        # An entry with room waits behind a blocked one of its own (port,
        # VC) only if that one needs more room, so with one message size
        # none does.
        if blocked.size and pos.size and (
                slack[blocked].min() < slack[pos].max()):
            bkey, first = np.unique(cell[blocked], return_index=True)
            j = np.minimum(np.searchsorted(bkey, cell[pos]), bkey.size - 1)
            pos = pos[(bkey[j] != cell[pos]) | (blocked[first[j]] > pos)]
        if not pos.size:
            return pos
        pp = ports[pos]
        lead = np.empty(pos.size, dtype=bool)
        lead[0] = True
        np.not_equal(pp[1:], pp[:-1], out=lead[1:])
        return pos[lead]

    def _serve(self, wpos: np.ndarray, wports: np.ndarray, pf: np.ndarray,
               c: int) -> bool:
        """Transmit one winner per port.

        Returns whether a forwarded packet lands at its next router inside
        this cycle.

        A port idle at the packet's arrival charges the switch stage and
        starts at the arrival time; a queued packet chains straight off
        the previous transmission with no switch delay (the event engine's
        ``try_start``).  Winners leave the waiting set; ejected ones are
        delivered, forwarded ones cross the link to their next router.
        """
        n_dir = self._n_dir
        landed = False
        widx = self._w_idx[wpos]
        nxt = self._w_nxt[wpos]
        keep = np.ones(self._w_comb.size, dtype=bool)
        keep[wpos] = False
        self._w_comb = self._w_comb[keep]
        self._w_idx = self._w_idx[keep]
        self._w_nxt = self._w_nxt[keep]
        tp = self._t_arr[widx]
        start = np.where(pf <= tp, tp + self._switch, pf)
        eject = wports >= n_dir
        fwd = ~eject
        finite = self._buf_used is not None
        if finite:
            cell = wports[fwd] * self.n_vcs + np.minimum(
                self._hops[widx[fwd]], self.n_vcs - 1
            )
            start[fwd] = self._credit_start(
                cell, widx[fwd], np.maximum(pf[fwd], tp[fwd]), start[fwd]
            )
        done = start + self._msg_sizes[widx] * self._ns_per_byte
        self._port_free[wports] = done
        if finite:
            # Hold until departure: every winner frees the input buffer it
            # held here as its transmission ends (the event engine's eject
            # and port-done branches).
            self._release_credit(widx, done)

        ej = widx[eject]
        if ej.size:
            t_del = done[eject] + self._link
            self._done[ej] = True
            self._t_del[ej] = t_del
        moved = widx[fwd]
        if moved.size:
            nxt = nxt[fwd]
            t_arr = done[fwd] + self._link
            ch = self._channel
            if ch is not None:
                # Evaluate the lossy crossing at the pre-increment hop
                # index — exactly where the event engine's port-done branch
                # draws it — so both engines consume identical substreams.
                ok, extra, retr = ch.crossings(
                    self._ch_keys[moved], self._hops[moved]
                )
                self.stats.n_retransmits += int(retr.sum())
                if not ok.all():
                    # The lost packet never occupies the downstream buffer.
                    self._drop_pkts(moved[~ok], ch.config.drop_cause)
                    moved, nxt = moved[ok], nxt[ok]
                    t_arr, extra = t_arr[ok], extra[ok]
                    if finite:
                        cell = cell[ok]
                t_arr = t_arr + extra
            if finite and moved.size:
                # The downstream buffer is now occupied.  One winner per
                # port per pass means each (edge, VC) cell gains at most one
                # packet per pass, so the opening-credit check can never
                # oversubscribe a buffer.
                self._buf[cell] += self._msg_sizes[moved]
                self._occ[moved] = cell
            if moved.size:
                # Routed at the next router as they leave this one; they
                # wait under their arrival cycle until they get there.
                self._cur[moved] = nxt
                self._hops[moved] += 1
                self._t_arr[moved] = t_arr
                self._moves += int(moved.size)
                self._arrive(moved, c, at_source=False)
                landed = bool((t_arr <= c * self._tau).any())
        if ej.size:
            newly, t_call = self._release_deps(ej, t_del)
            if newly.size:
                self._send_batch(newly, t_call, c)
        return landed

    def _arrive(self, p: np.ndarray, c: int, at_source: bool) -> None:
        """Route a batch of packets arriving at their current router.

        Packets fresh from their NIC (``at_source``) take the policy's
        source decision first.  Ejecting and forwarded packets join the
        waiting set in one merge.
        """
        dstr = self._dst_router[p]
        mask_on = self._mask is not None
        if mask_on:
            # Mirror the event engine's degraded arrive order: router dead
            # (for an ejecting packet its router is its destination), then
            # destination dead, then the hop budget of a forwarded packet.
            alive = self._alive_router
            cur = self._cur[p]
            lost = ~alive[cur] | ~alive[dstr]
            if lost.any():
                self._drop_pkts(p[lost], "router-down")
            over = ~lost & (self._hops[p] >= self._ttl) & (cur != dstr)
            if over.any():
                self._drop_pkts(p[over], "ttl")
                lost |= over
            if lost.any():
                keep = ~lost
                p, dstr = p[keep], dstr[keep]
        cur = self._cur[p]
        # Eject check first, exactly like the event engine's arrive branch
        # (a Valiant packet crossing its destination router ejects early).
        route = np.flatnonzero(cur != dstr)
        key = self._n_dir + self._dst_ep[p]
        nxt = np.full(len(p), -1, dtype=np.int64)
        if route.size:
            r = p[route]
            if at_source:
                self._on_source(r, c)
            if mask_on:
                # A dead Valiant intermediate is abandoned
                # (next_hop_degraded semantics): the packet heads straight
                # for its destination.
                inter = self._inter[r]
                dead_int = (inter >= 0) & ~alive[np.maximum(inter, 0)]
                if dead_int.any():
                    self._inter[r[dead_int]] = -1
            # Waypoint (inlined RoutingPolicy._toward, vectorized).
            cur_r = cur[route]
            toward = dstr[route]
            inter = self._inter[r]
            has = inter >= 0
            if has.any():
                has &= self._phase[r] == 0
                reached = has & (cur_r == inter)
                if reached.any():
                    self._phase[r[reached]] = 1
                toward = np.where(has & ~reached, inter, toward)
            if mask_on:
                hop, eid = self._pick_next_live(cur_r, toward)
            else:
                hop, eid = self._pick_minimal(cur_r, toward)
            key[route] = eid
            nxt[route] = hop
            if mask_on and (hop < 0).any():
                stuck = route[hop < 0]
                self._drop_pkts(p[stuck], "unreachable")
                keep = np.ones(len(p), dtype=bool)
                keep[stuck] = False
                p, key, nxt = p[keep], key[keep], nxt[keep]
        if p.size:
            self._enqueue(p, key, c, nxt)

    def _on_source(self, p: np.ndarray, c: int) -> None:
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
                qbytes = self._port_queued_bytes(c)
                size = self._msg_sizes[p[good]]
                bias = getattr(self.routing, "bias_bytes", 0)
                g_cur, g_dst, g_int = cur[good], dst[good], inter[good]
                if name == "ugal":
                    _, min_eid = self._pick_minimal(g_cur, g_dst)
                    _, val_eid = self._pick_minimal(g_cur, g_int)
                    q_min = qbytes[min_eid].astype(np.int64)
                    q_val = qbytes[val_eid].astype(np.int64)
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

        The packed key is ``port << 40 | cycle << 20 | arrival``: the cycle
        a packet's arrival falls in (never before the current cycle ``c``)
        and its arrival time within that cycle, so each port's segment is
        FIFO by arrival time and a sorted insert keeps the global order in
        one pass.  A packet still on the cable waits under its future
        cycle; serving a later arrival first would idle the port against
        the event engine's continuous pipeline and systematically inflate
        latency.
        """
        x = self._t_arr[p] / self._tau
        cyc = np.ceil(x).astype(np.int64)
        np.maximum(cyc, c, out=cyc)
        if int(cyc.max()) >= _ENQ_MASK:
            raise SimulationError(
                "batched run exceeded the cycle budget; use the event "
                "backend for simulations this long"
            )
        # Round, don't truncate: truncation turns the one-ulp float error
        # of the fraction round-trip into off-by-one ties, so two packets
        # with distinct quantized arrivals could collide and their order
        # would depend on merge-batch boundaries (pinned by the
        # permutation-invariance property test).  An arrival filed into a
        # later cycle than its own sorts first in it.
        tie = np.rint((x - (cyc - 1)) * (_ENQ_MASK - 1)).astype(np.int64)
        np.maximum(tie, 0, out=tie)
        comb = (key << _PORT_SHIFT) | (cyc << _ENQ_SHIFT) | tie
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

    # -- credits, drops and the end of a run ---------------------------------
    def _release_credit(self, p: np.ndarray, t: np.ndarray) -> None:
        """Return the input buffers packets ``p`` hold, freed at times ``t``.

        Each release stays in a slot of its cell while it falls after the
        clock of the port feeding the cell: a later grant there decides no
        earlier than that clock and may have to wait for the release
        (:meth:`_credit_start`).  A cell reuses its oldest slot once that
        has expired, and the slots of every cell double when one has none
        free.  The messages of a cell's kept releases all sat in its buffer
        at the port's clock, so a cell keeps no more releases than messages
        its buffer holds at once.
        """
        held = self._occ[p] >= 0
        p, t = p[held], t[held]
        cell = self._occ[p]
        size = self._msg_sizes[p]
        np.subtract.at(self._buf, cell, size)
        self._occ[p] = -1
        # One release per cell per round, so two releases of one cell take
        # two slots: of the scratch writes to a cell, one survives.
        idx = np.arange(cell.size)
        while cell.size:
            self._pr_pick[cell] = idx
            one = self._pr_pick[cell] == idx
            c = cell[one]
            slots = self._pr_t[c]
            j = slots.argmin(axis=1)
            live = slots.min(axis=1) > self._port_free[c // self.n_vcs]
            if live.any():
                k = slots.shape[1]
                self._pr_t = np.pad(self._pr_t, ((0, 0), (0, k)),
                                    constant_values=-np.inf)
                self._pr_sz = np.pad(self._pr_sz, ((0, 0), (0, k)))
                j[live] = k
            self._pr_t[c, j] = t[one]
            self._pr_sz[c, j] = size[one]
            rest = ~one
            cell, t, size, idx = cell[rest], t[rest], size[rest], idx[rest]

    def _credit_start(self, cell: np.ndarray, w: np.ndarray,
                      dec: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Start times of winners ``w`` granted room in buffers ``cell``.

        The event engine decides at ``dec`` (the port's clock, or the
        packet's arrival on an idle port).  A winner that does not fit the
        buffer then starts no earlier than the release that makes room for
        it: the occupancy just before each kept release after ``dec`` is
        the current one plus the sizes of the releases from it on.  (The
        event engine starts such a packet at the release even inside its
        switch stage; this engine lets the switch stage finish first.)
        """
        t = self._pr_t[cell]
        freed = np.where(t > dec[:, None], self._pr_sz[cell], 0)
        if t.shape[1] > 1:
            # Latest first, so each release's running sum is what it and
            # every later one still hold.
            o = np.argsort(-t, axis=1)
            t = np.take_along_axis(t, o, axis=1)
            freed = np.cumsum(np.take_along_axis(freed, o, axis=1), axis=1)
        wait = self._buf[cell][:, None] + freed > self._slack[w][:, None]
        return np.maximum(np.where(wait, t, -np.inf).max(axis=1), start)

    def _drop_pkts(self, p: np.ndarray, reason: str, t=None) -> None:
        """Account a batch of lost packets, keyed by cause.

        With finite buffers the doomed packets release the input buffers
        they held (at ``t``, their arrival time by default; the batch
        mirror of ``NetworkSimulator._drop`` calling ``_release_buffer``) —
        a leak here would wedge healthy traffic behind credits nobody
        returns.
        """
        k = int(len(p))
        if not k:
            return
        if self._buf_used is not None:
            self._release_credit(p, self._t_arr[p] if t is None else t)
        self._dropped[p] = True
        st = self.stats
        st.n_dropped += k
        st.drops[reason] = st.drops.get(reason, 0) + k

    def _raise_deadlock(self) -> None:
        """The waiting set is wedged with no external work left: raise.

        Mirrors the event engine's drain check — builds the wait-for map
        from the blocked packets (held (edge, VC) -> wanted (edge, VC)),
        extracts one cycle witness, fills the stats with the packets that
        *did* deliver so the error carries a coherent partial picture, and
        raises :class:`BufferDeadlockError`.
        """
        stats = self.stats
        # Every queued packet that holds a buffer contributes (buffer-less
        # packets fresh from their NIC can sit ahead of the chain-forming
        # holders).
        occ = self._occ[self._w_idx]
        held = occ >= 0
        vc = np.minimum(self._hops[self._w_idx], self.n_vcs - 1)[held]
        ports = (self._w_comb >> _PORT_SHIFT)[held]
        waits_for = {divmod(int(h), self.n_vcs): (int(p), int(v))
                     for h, p, v in zip(occ[held], ports, vc)}
        cycle = BufferDeadlockError.find_cycle(waits_for)
        blocked = int(self._w_comb.size)
        stats.deadlocked = True
        self._fill_stats()
        undelivered = (
            stats.n_injected - len(stats.latencies_ns) - stats.n_dropped
        )
        stats.undelivered = undelivered
        raise BufferDeadlockError.build(cycle, blocked, undelivered, stats)

    def _fill_stats(self) -> None:
        """Fill SimStats from the per-message arrays, in delivery order.

        Each delivered network packet contributes ``t_del - t_created``;
        dropped packets never deliver and self-sends never enter the
        network, so neither counts.
        """
        stats = self.stats
        net = ~self._self_send
        d = np.flatnonzero(self._done & net)
        if d.size:
            td = self._t_del[d]
            o = np.argsort(td, kind="stable")
            d, td = d[o], td[o]
            stats.latencies_ns = (td - self._t_created[d]).tolist()
            stats.hops = self._hops[d].tolist()
            stats.bytes_delivered = int(self._msg_sizes[d].sum())
            stats.t_last_delivery = float(td[-1])
        # Event-count analogue for events/s reporting: one unit per
        # injection, per hop transmission, and per delivery.
        stats.n_events = stats.n_injected + self._moves + int(d.size)
        if self._mask is not None:
            self._fill_epochs(
                self._t_created[net], self._t_del[net], self._msg_sizes[net]
            )

    def _check_drained(self) -> None:
        """Conservation check at the end of every run.

        Every injected packet was delivered or dropped, and nothing is
        left behind: no waiting packet, no pending arrival, no buffer
        credit.  A violation raises :class:`SimulationError` naming the
        counts, like the event engine's ``_check_drained``.
        """
        stats = self.stats
        delivered = len(stats.latencies_ns)
        waiting = int(self._w_comb.size)
        pending = len(self._arr_heap)
        buf = self._buf_used
        credit = 0 if buf is None else int(np.abs(buf).sum())
        if (delivered + stats.n_dropped != stats.n_injected or waiting
                or pending or credit):
            raise SimulationError(
                f"batched run ended inconsistent: {stats.n_injected} "
                f"injected, {delivered} delivered, {stats.n_dropped} "
                f"dropped, {waiting} waiting, {pending} arrival cycles "
                f"pending, {credit} B of buffer credit not returned"
            )

    # -- fault epochs --------------------------------------------------------
    def _init_faults(self) -> None:
        """Prepare the epoch machinery for the attached schedule.

        Builds the live :class:`FaultMask` (the same failure-count overlay
        the event engine mutates, so recovery composes exactly), the
        per-entry directed-edge ids of the flat next-hop table (its slots
        offset by their router's row start; one gather per epoch rewrite),
        and the boundary cycle of every schedule event
        (``ceil(t / tau)`` — events at a cycle's opening edge apply before
        any packet of that cycle, the batch analogue of fault events
        sorting below traffic events at equal timestamps).
        """
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
        self._entry_eid = self._row_start[entry_u] + self._nh_slots
        self._rebuild_masked()
        tau = self._tau
        self._ev_cycles = np.array(
            [int(np.ceil(ev.t / tau)) for ev in self._fault_schedule.events],
            dtype=np.int64,
        )

    def _rebuild_masked(self) -> None:
        """Rewrite the masked CSR-of-CSR next-hop arrays from the mask.

        A pure function of the mask's failure counts: restoring every
        fault reproduces the pristine arrays bit-for-bit, dtypes included,
        which is what keeps recovery exact.  One boolean gather + bincount
        + cumsum over the flat table per epoch boundary.
        """
        dead = np.asarray(self._mask._dead_edge, dtype=np.int64)
        alive_e = dead[self._entry_eid] == 0
        ncells = len(self._nh_indptr) - 1
        counts = np.bincount(
            self._entry_cell[alive_e], minlength=ncells
        )
        indptr = np.empty(ncells + 1, dtype=self._nh_indptr.dtype)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        self._m_indptr = indptr
        self._m_slots = self._nh_slots[alive_e]

    def _pick_next_live(
        self, u: np.ndarray, d: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masked minimal pick with non-minimal fallback; ``-1`` = drop.

        Returns ``(hop, eid)`` like :meth:`_pick_minimal`.  The masked
        arrays answer the common case in one vectorized gather; pairs
        whose minimal set is fully severed fall back to the live
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
        eid = np.full(len(k), -1, dtype=np.int64)
        if ok.any():
            e = self._row_start[u[ok]] + self._m_slots[lo[ok] + offs[ok]]
            eid[ok] = e
            nxt[ok] = self._edge_to[e]
        fb = np.nonzero(~ok)[0]
        if fb.size:
            mask = self._mask
            rng = self.rng
            stats = self.stats
            for i in fb:
                cands = mask.fallback_candidates(int(u[i]), int(d[i]))
                if cands:
                    stats.nonminimal_hops += 1
                    v = cands[int(rng.random() * len(cands))]
                    nxt[i] = v
                    eid[i] = self.tables.directed_edge_id(int(u[i]), v)
        return nxt, eid

    def _apply_fault_event(self, ev) -> np.ndarray:
        """Apply one schedule event: mutate the mask, fix up the waiting set.

        Returns the packet ids pulled off newly dead ports for requeueing
        (the caller re-routes them after the masked arrays are rebuilt);
        they re-arrive at their router at the event time.  Packets queued
        on ports *out of* a dead router are lost with it; packets on ports
        *into* it requeue at the still-live upstream router; packets
        crossing the ejection ports of a dead router are lost — the event
        engine's ``_sever_port`` semantics.
        """
        mask = self._mask
        kind = ev.kind
        requeue_eids = drop_eids = np.empty(0, dtype=np.int64)
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
        if dead_router >= 0 or requeue_eids.size:
            ports = self._w_comb >> _PORT_SHIFT
            bad_rq = np.isin(ports, requeue_eids)
            bad_dp = np.isin(ports, drop_eids)
            if dead_router >= 0:
                ep_lo = self._n_dir + dead_router * self._conc
                bad_dp |= (ports >= ep_lo) & (ports < ep_lo + self._conc)
            if bad_dp.any():
                lost = self._w_idx[bad_dp]
                self._drop_pkts(lost, "router-down", np.full(lost.size, ev.t))
            if bad_rq.any():
                rq = self._w_idx[bad_rq]
                self.stats.n_requeued += int(rq.size)
                self._t_arr[rq] = np.maximum(self._t_arr[rq], ev.t)
            keep = ~(bad_rq | bad_dp)
            if not keep.all():
                self._w_comb = self._w_comb[keep]
                self._w_idx = self._w_idx[keep]
                self._w_nxt = self._w_nxt[keep]
        # Epoch snapshot; injected/delivered counts are only known once the
        # run drains and are filled in by _fill_epochs.
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
        self, t0: np.ndarray, t_del: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Patch the end-of-run counters into the recorded epoch snapshots.

        ``t0`` holds each packet's injection time and ``t_del`` its
        delivery time (``inf`` for a packet never injected or never
        delivered).  Boundary semantics are strict: the event engine
        pushes fault events into its heap before any traffic exists, so
        at equal timestamps a fault pops first and its epoch snapshot
        *excludes* injections and deliveries landing exactly at the epoch
        time.
        """
        for ep in self.stats.epochs:
            t = ep["t"]
            ep["injected"] = int((t0 < t).sum())
            dm = t_del < t
            ep["delivered"] = int(dm.sum())
            ep["bytes_delivered"] = int(sizes[dm].sum())
