"""Hypothesis properties of the batched engine's packed-key waiting set.

Two invariants the cycle engine's correctness rests on:

* **Permutation invariance** — the waiting set is maintained by sorted
  merges of arrival batches, so the *final sorted state* (and therefore
  every contention winner) must depend only on the packets' packed keys
  (port, enqueue cycle, tie-break), never on the order in which same-cycle
  batches happened to be merged.  The tie-break field encodes the
  arrival time within the cycle, so the key is a pure function of the
  packet, which makes the property exactly testable: enqueue the same packets as differently
  chunked and permuted batches and demand identical waiting sets and
  identical per-port winners.
* **Conservation across epoch-boundary rewrites** — applying a fault
  schedule rewrites the masked next-hop arrays and surgically edits the
  waiting set (requeues, drops) mid-run.  No packet may be lost or
  duplicated in the process: every injected packet ends either delivered
  or in the drop ledger, exactly once; and once every fault has recovered,
  the masked arrays must equal the pristine ones bit-for-bit (recovery is
  exact because the rewrite is a pure function of the FaultMask counts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import RoutingTables, make_routing
from repro.sim import SimConfig
from repro.sim.batched import _ENQ_MASK, _PORT_SHIFT, BatchedSimulator
from repro.sim.faults import FaultSchedule
from repro.sim.traffic import OpenLoopSource, make_traffic
from repro.topology import build_lps


@pytest.fixture(scope="module")
def parts():
    topo = build_lps(3, 5)
    tables = RoutingTables(topo.graph)
    return topo, tables


def _fresh_engine(parts) -> BatchedSimulator:
    topo, tables = parts
    net = BatchedSimulator(
        topo, make_routing("minimal", tables, seed=0),
        SimConfig(concentration=2), tables=tables,
    )
    # The tie field encodes the arrival time, so the packed key is a
    # deterministic function of the packet.
    n = 128
    net._msg_sizes = np.full(n, 64, dtype=np.int64)
    net._t_arr = np.zeros(n)
    net._w_comb = np.empty(0, dtype=np.int64)
    net._w_idx = np.empty(0, dtype=np.int64)
    net._w_nxt = np.empty(0, dtype=np.int64)
    return net


@st.composite
def _waiting_entries(draw):
    """Distinct packets with ports and unique in-cycle arrival offsets."""
    n = draw(st.integers(min_value=1, max_value=40))
    ports = draw(
        st.lists(st.integers(min_value=0, max_value=7),
                 min_size=n, max_size=n)
    )
    # Globally unique quantized offsets => unique packed keys per port.
    offsets = draw(
        st.lists(st.integers(min_value=0, max_value=_ENQ_MASK - 2),
                 min_size=n, max_size=n, unique=True)
    )
    n_chunks = draw(st.integers(min_value=1, max_value=4))
    perm = draw(st.permutations(list(range(n))))
    return ports, offsets, n_chunks, perm


def _enqueue_all(net, pids, ports, cycle, chunks):
    for chunk in chunks:
        if len(chunk):
            net._enqueue(pids[chunk], ports[chunk], cycle)


def _winners(net):
    """One winner per port: first of each sorted segment."""
    comb = net._w_comb
    if not comb.size:
        return {}
    port = comb >> _PORT_SHIFT
    first = np.empty(comb.size, dtype=bool)
    first[0] = True
    np.not_equal(port[1:], port[:-1], out=first[1:])
    return dict(zip(port[first].tolist(), net._w_idx[first].tolist()))


class TestWaitingSetPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_waiting_entries())
    def test_winners_invariant_under_arrival_permutation(self, parts, data):
        ports_l, offsets, n_chunks, perm = data
        n = len(ports_l)
        cycle = 3
        ports = np.asarray(ports_l, dtype=np.int64)
        pids = np.arange(n, dtype=np.int64)

        def run(order):
            net = _fresh_engine(parts)
            # Arrival time within the cycle encodes the tie-break exactly.
            t0 = (cycle - 1) * net._tau
            for pid, off in zip(range(n), offsets):
                net._t_arr[pid] = t0 + net._tau * (
                    off / (_ENQ_MASK - 1)
                )
            chunks = np.array_split(np.asarray(order, dtype=np.int64),
                                    n_chunks)
            _enqueue_all(net, pids, ports, cycle, chunks)
            return net

        a = run(list(range(n)))
        b = run(perm)

        # Identical waiting sets: same keys, same packets, same order.
        assert a._w_comb.tolist() == b._w_comb.tolist()
        assert a._w_idx.tolist() == b._w_idx.tolist()
        assert a._w_nxt.tolist() == b._w_nxt.tolist()
        # No packet lost or duplicated by the sorted merges.
        assert sorted(a._w_idx.tolist()) == list(range(n))
        # And the contention winners are identical per port.
        assert _winners(a) == _winners(b)

    @settings(max_examples=30, deadline=None)
    @given(_waiting_entries())
    def test_waiting_set_stays_sorted(self, parts, data):
        ports_l, offsets, n_chunks, perm = data
        n = len(ports_l)
        net = _fresh_engine(parts)
        for pid, off in zip(range(n), offsets):
            net._t_arr[pid] = 2 * net._tau * (off / (_ENQ_MASK - 1))
        chunks = np.array_split(np.asarray(perm, dtype=np.int64), n_chunks)
        _enqueue_all(net, np.arange(n, dtype=np.int64),
                     np.asarray(ports_l, dtype=np.int64), 2, chunks)
        comb = net._w_comb
        assert np.all(comb[:-1] <= comb[1:])


# ---------------------------------------------------------------------------
# Epoch-boundary rewrites conserve packets and recover exactly
# ---------------------------------------------------------------------------
def _run_faulted(parts, schedule, seed=5, n_ranks=24, packets_per_rank=6):
    topo, tables = parts
    net = BatchedSimulator(
        topo, make_routing("minimal", tables, seed=seed),
        SimConfig(concentration=2), tables=tables, faults=schedule,
    )
    pattern = make_traffic("random", n_ranks)
    r2e = np.arange(n_ranks, dtype=np.int64) * 2
    for rank in range(n_ranks):
        net.add_open_loop_source(
            OpenLoopSource(rank, int(r2e[rank]), pattern, r2e, 0.5,
                           packets_per_rank, seed=seed * 1_000 + rank)
        )
    stats = net.run()
    return net, stats


@st.composite
def _schedules(draw):
    """A mixed link/router schedule; optionally fully recovered."""
    topo = build_lps(3, 5)
    g = topo.graph
    heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
    n_links = draw(st.integers(min_value=0, max_value=6))
    idx = draw(
        st.lists(st.integers(min_value=0, max_value=len(g.indices) - 1),
                 min_size=n_links, max_size=n_links, unique=True)
    )
    routers = draw(
        st.lists(st.integers(min_value=0, max_value=g.n - 1),
                 min_size=0, max_size=2, unique=True)
    )
    recover_all = draw(st.booleans())
    t_fail = draw(st.floats(min_value=100.0, max_value=20_000.0))
    events = []
    seen_links = set()
    for i in idx:
        a, b = int(heads[i]), int(g.indices[i])
        key = (min(a, b), max(a, b))
        if key in seen_links or a in routers or b in routers:
            continue  # router faults fail incident links themselves
        seen_links.add(key)
        events.append((t_fail, "link-down", a, b))
        if recover_all:
            events.append((t_fail * 2 + 500.0, "link-up", a, b))
    for r in routers:
        events.append((t_fail, "router-down", r))
        if recover_all:
            events.append((t_fail * 2 + 500.0, "router-up", r))
    return FaultSchedule(events), recover_all


class TestEpochRewriteConservation:
    @settings(max_examples=25, deadline=None)
    @given(_schedules())
    def test_no_packet_lost_or_duplicated_across_rewrites(self, parts, data):
        schedule, recover_all = data
        net, stats = _run_faulted(parts, schedule)
        delivered = len(stats.latencies_ns)
        # Conservation: delivered + dropped == injected, each exactly once.
        assert delivered + stats.n_dropped == stats.n_injected
        assert sum(stats.drops.values()) == stats.n_dropped
        assert int(net._dropped.sum()) == stats.n_dropped
        # The waiting set fully drained.
        assert net._w_comb.size == 0
        # Every schedule event produced its epoch mark.
        assert len(stats.epochs) == len(schedule)

    @settings(max_examples=25, deadline=None)
    @given(_schedules())
    def test_full_recovery_restores_the_masked_tables_exactly(
        self, parts, data
    ):
        schedule, recover_all = data
        net, stats = _run_faulted(parts, schedule)
        if not recover_all or len(schedule) == 0:
            return
        # The rewrite is a pure function of the FaultMask counts, so after
        # the last recovery the masked arrays equal the pristine table
        # bit-for-bit — stale-table resilience with exact recovery.
        assert net._mask.pristine
        assert net._m_indptr.dtype == net._nh_indptr.dtype
        assert np.array_equal(net._m_indptr, net._nh_indptr)
        assert net._m_slots.dtype == net._nh_slots.dtype
        assert np.array_equal(net._m_slots, net._nh_slots)
