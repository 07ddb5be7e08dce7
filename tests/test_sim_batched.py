"""Unit contracts of the batch-synchronous backend (``repro.sim.batched``).

The statistical equivalence with the event engine lives in
``test_sim_differential.py``; this module pins the engine's own contracts:

* determinism per seed, and full delivery (open-loop runs always drain);
* **exact** uncongested latency: with no port contention the analytic
  pipeline assembly must equal the event engine's latencies to float
  rounding (1e-12 relative — the two accumulate the same terms in a
  different association order);
* self-sends are excluded from the stats exactly like the event engine;
* unsupported features fail loudly at construction/call time rather than
  silently falling back (closed-loop congestion features, pause/resume,
  send(), delivery callbacks, unknown policies, shared-endpoint sources)
  — the full backend x feature product lives in
  ``tests/test_sim_capabilities.py``;
* fault schedules are *supported* (epoch boundaries) but attach at most
  once and only before the run;
* the engine gathers from the stored next-hop arrays: a batched run,
  faulted or not, never builds the event engine's list views;
* a run past the 2**20-cycle budget, open- or closed-loop, refuses and
  points to the event backend;
* a topology whose ports overflow the packed key's 23-bit port field is
  refused at construction, and LPS(5,109) is the largest LPS(5,q) the
  field admits at concentration 2;
* the scale path (this engine on on-demand Cayley-oracle tables)
  delivers every packet, is deterministic per seed, routes minimal
  packets over exact distances, matches dense tables bit for bit under
  the adaptive policies, and never builds the dense distance matrix.
"""

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.routing import RoutingTables, make_routing
from repro.sim import BatchedSimulator, NetworkSimulator, SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.traffic import OpenLoopSource, make_traffic
from repro.experiments.common import build_synthetic_sim
from repro.topology import build_lps


@pytest.fixture(scope="module")
def parts():
    topo = build_lps(3, 5)  # 120 routers, radix 4
    tables = RoutingTables(topo.graph)
    return topo, tables


def _net(parts, backend, routing="minimal", pattern="random", load=0.5,
         n_ranks=32, packets_per_rank=6, seed=5, concentration=2,
         oracle=None):
    topo, _tables = parts
    return build_synthetic_sim(
        topo,
        routing,
        pattern,
        load,
        concentration=concentration,
        n_ranks=n_ranks,
        packets_per_rank=packets_per_rank,
        seed=seed,
        backend=backend,
        oracle=oracle,
    )


class TestContracts:
    def test_full_delivery_and_injection_parity(self, parts):
        ev = _net(parts, "event", load=0.8).run()
        bt = _net(parts, "batched", load=0.8).run()
        assert bt.n_injected == ev.n_injected > 0
        assert len(bt.latencies_ns) == bt.n_injected
        assert len(ev.latencies_ns) == ev.n_injected
        assert bt.t_first_inject == ev.t_first_inject

    def test_deterministic_per_seed(self, parts):
        a = _net(parts, "batched").run()
        b = _net(parts, "batched").run()
        assert a.latencies_ns == b.latencies_ns
        assert a.hops == b.hops
        assert (a.valiant_choices, a.minimal_choices, a.n_events) == (
            b.valiant_choices, b.minimal_choices, b.n_events
        )

    def test_different_seed_differs(self, parts):
        a = _net(parts, "batched", seed=1).run()
        b = _net(parts, "batched", seed=2).run()
        assert a.latencies_ns != b.latencies_ns

    @pytest.mark.parametrize("seed", [3, 2**62])
    def test_sources_draw_like_default_rng(self, parts, seed):
        # Per-rank generators come from one bulk pass, but each rank's
        # stream is default_rng(seed * 1_000_003 + rank), computed in
        # Python ints (2**62 * 1_000_003 does not fit in 64 bits).
        net = _net(parts, "batched", n_ranks=8, seed=seed)
        assert [s.rank for s in net._sources] == list(range(8))
        for rank, source in enumerate(net._sources):
            ref = np.random.default_rng(seed * 1_000_003 + rank)
            np.testing.assert_array_equal(source.rng.random(4), ref.random(4))

    def test_stats_lists_stay_lists(self, parts):
        stats = _net(parts, "batched").run()
        assert type(stats.latencies_ns) is list
        assert type(stats.hops) is list

    def test_self_sends_excluded_like_event(self, parts):
        # Bit shuffle maps rank 0 (and the all-ones rank) to itself; both
        # engines must skip exactly those packets.
        ev = _net(parts, "event", pattern="shuffle").run()
        bt = _net(parts, "batched", pattern="shuffle").run()
        assert ev.n_injected == bt.n_injected
        assert ev.n_injected < 32 * 6  # some self-sends really occurred


def _assert_latencies_exact(bt, ev):
    """Multiset equality to float rounding (delivery order may differ)."""
    a = sorted(bt.latencies_ns)
    b = sorted(ev.latencies_ns)
    assert len(a) == len(b)
    assert a == pytest.approx(b, rel=1e-12)


class TestExactUncongestedLatency:
    def test_single_packet_latency_is_exact(self, parts):
        # One packet per source: no queueing anywhere, so the batched
        # engine's analytic pipeline must equal the event engine's
        # hop-by-hop accumulation (same terms, different association).
        ev = _net(parts, "event", n_ranks=2, packets_per_rank=1,
                  pattern="neighbor", load=0.5).run()
        bt = _net(parts, "batched", n_ranks=2, packets_per_rank=1,
                  pattern="neighbor", load=0.5).run()
        assert ev.n_injected == bt.n_injected == 2
        # All minimal candidates share the path length, so even different
        # tie-breaks give the same per-packet latency.
        _assert_latencies_exact(bt, ev)
        assert sorted(bt.hops) == sorted(ev.hops)
        assert bt.t_last_delivery == pytest.approx(
            ev.t_last_delivery, rel=1e-12
        )

    def test_sparse_open_loop_latencies_match_exactly(self, parts):
        # Two sources at very low load: packets are far apart, no
        # contention, and every latency must match the event engine to
        # float rounding.
        ev = _net(parts, "event", n_ranks=2, packets_per_rank=8,
                  pattern="neighbor", load=0.02, seed=9).run()
        bt = _net(parts, "batched", n_ranks=2, packets_per_rank=8,
                  pattern="neighbor", load=0.02, seed=9).run()
        _assert_latencies_exact(bt, ev)


class TestUnsupportedFeaturesFailLoudly:
    def _policy(self, parts, name="minimal"):
        topo, tables = parts
        return topo, tables, make_routing(name, tables, seed=0)

    def test_fault_schedule_accepted_but_only_once_and_before_run(self, parts):
        # Fault schedules are supported since the epoch-boundary port; what
        # must still fail loudly: double attachment, and attachment after
        # the run consumed the engine.
        topo, tables, routing = self._policy(parts)
        schedule = FaultSchedule([])
        net = BatchedSimulator(topo, routing, SimConfig(concentration=2),
                               tables=tables, faults=schedule)
        with pytest.raises(SimulationError, match="already attached"):
            net.set_fault_schedule(FaultSchedule([]))
        net2 = BatchedSimulator(topo, routing, SimConfig(concentration=2),
                                tables=tables)
        net2.set_fault_schedule(schedule)
        with pytest.raises(SimulationError, match="already attached"):
            net2.set_fault_schedule(FaultSchedule([]))

    def test_congestion_features_rejected_for_closed_loop(self, parts):
        # Finite buffers and lossy links are open-loop features on this
        # engine; combining either with the closed-loop motif runner must
        # refuse with the canonical error, not wedge or silently ignore.
        from repro.sim import ChannelConfig

        topo, tables, routing = self._policy(parts)
        net = BatchedSimulator(
            topo, routing,
            SimConfig(concentration=2, finite_buffers=True),
            tables=tables,
        )
        with pytest.raises(SimulationError, match="finite-buffers"):
            net.run_closed_loop([], np.arange(4, dtype=np.int64))
        net = BatchedSimulator(
            topo, routing,
            SimConfig(concentration=2, channel=ChannelConfig(loss_prob=0.1)),
            tables=tables,
        )
        with pytest.raises(SimulationError, match="lossy-links"):
            net.run_closed_loop([], np.arange(4, dtype=np.int64))

    def test_send_and_pause_rejected(self, parts):
        topo, tables, routing = self._policy(parts)
        net = BatchedSimulator(topo, routing, SimConfig(concentration=2),
                               tables=tables)
        with pytest.raises(SimulationError, match="adhoc-send"):
            net.send(0, 5)
        with pytest.raises(SimulationError, match="pause"):
            net.run(until=100.0)
        with pytest.raises(SimulationError, match="pause"):
            net.run(max_events=10)

    def test_delivery_callback_rejected(self, parts):
        net = _net(parts, "batched")
        net.on_delivery = lambda pkt, t: None
        with pytest.raises(SimulationError, match="callback"):
            net.run()

    def test_unknown_policy_rejected(self, parts):
        topo, tables, routing = self._policy(parts)
        routing.name = "custom-policy"
        with pytest.raises(SimulationError, match="vectorized"):
            BatchedSimulator(topo, routing, SimConfig(concentration=2),
                             tables=tables)

    def test_shared_endpoint_sources_rejected(self, parts):
        topo, tables, routing = self._policy(parts)
        net = BatchedSimulator(topo, routing, SimConfig(concentration=2),
                               tables=tables)
        pat = make_traffic("random", 4)
        r2e = np.arange(4, dtype=np.int64)
        for rank in (0, 1):
            net.add_open_loop_source(
                OpenLoopSource(rank, 3, pat, r2e, 0.5, 2, seed=rank)
            )
        with pytest.raises(SimulationError, match="one source per endpoint"):
            net.run()

    def test_unknown_backend_rejected(self, parts):
        with pytest.raises(ParameterError, match="unknown simulator backend"):
            _net(parts, "threaded")


class TestCycleBudget:
    """Runs longer than the 2**20-cycle budget refuse with a pointer to the
    event backend instead of wrapping the packed enqueue-cycle field."""

    def test_open_loop_budget(self, parts):
        # A near-idle load spaces three packets per rank far past the
        # budget (2**20 cycles of a few hundred ns each).
        net = _net(parts, "batched", load=1e-6, n_ranks=4, packets_per_rank=3)
        with pytest.raises(SimulationError, match="cycle budget.*event backend"):
            net.run()

    def test_closed_loop_budget(self, parts):
        from repro.workloads.motif import Message

        topo, tables = parts
        net = BatchedSimulator(topo, make_routing("minimal", tables, seed=0),
                               SimConfig(concentration=2), tables=tables)
        chain = [Message(0, 0, 1, 64), Message(1, 1, 2, 64, [0], 1e12)]
        with pytest.raises(SimulationError, match="cycle budget.*event backend"):
            net.run_closed_loop(chain, np.arange(4, dtype=np.int64))


class TestPortLimit:
    def test_topology_past_the_port_field_is_refused(self, parts, monkeypatch):
        import repro.sim.batched as batched_mod

        # LPS(3,5) at concentration 2 has 480 directed edges + 240
        # endpoints; a 9-bit port field (limit 512) cannot hold them.
        monkeypatch.setattr(batched_mod, "_PORT_SHIFT", 63 - 9)
        topo, tables = parts
        with pytest.raises(SimulationError, match="too large"):
            BatchedSimulator(topo, make_routing("minimal", tables, seed=0),
                             SimConfig(concentration=2), tables=tables)

    def test_lps_5_109_is_the_largest_lps_5_q_admitted(self):
        """The bound docs/scaling.md states: at concentration 2 an
        LPS(5,q) instance has ``(5 + 1 + 2) * n`` ports."""
        from repro.nt.primes import is_prime
        from repro.sim.batched import _PORT_SHIFT
        from repro.topology.lps import lps_num_vertices

        limit = 1 << (63 - _PORT_SHIFT)

        def admitted(q):
            return 8 * lps_num_vertices(5, q) < limit

        assert admitted(61) and admitted(101) and admitted(109)
        assert not admitted(107) and not admitted(113)
        # Both group orders grow with q, and from q = 131 on even the
        # smaller (PSL) one overflows, so this scan is exhaustive.
        assert not admitted(131)
        fits = [q for q in range(7, 132) if is_prime(q) and admitted(q)]
        assert max(fits) == 109


LIST_VIEWS = {"nh_indptr", "nh_indices", "dist_flat"}


class TestStoredTables:
    @pytest.mark.parametrize("faulted", [False, True])
    def test_batched_run_builds_no_list_views(self, faulted):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph, use_cache=False)
        schedule = (
            FaultSchedule.random_link_faults(
                topo.graph, 0.3, t_fail=500.0, seed=2
            )
            if faulted
            else None
        )
        net = BatchedSimulator(
            topo, make_routing("ugal", tables, seed=0),
            SimConfig(concentration=2), tables=tables, faults=schedule,
        )
        pat = make_traffic("random", 64)
        r2e = np.arange(64, dtype=np.int64) * 3
        for rank in range(64):
            net.add_open_loop_source(
                OpenLoopSource(rank, int(r2e[rank]), pat, r2e, 0.6, 8,
                               seed=rank)
            )
        stats = net.run()
        assert stats.n_injected > 0
        if faulted:  # the stale-metric fallback ran too
            assert stats.nonminimal_hops > 0
        assert not LIST_VIEWS & vars(tables).keys()
        indptr, indices = tables.next_hop_arrays()
        assert net._nh_indptr is indptr and net._nh_indices is indices

    def test_event_engine_binds_list_views_at_construction(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph, use_cache=False)
        policy = make_routing("ugal", tables, seed=0)
        NetworkSimulator(topo, policy, SimConfig(concentration=2),
                         tables=tables)
        assert LIST_VIEWS <= vars(tables).keys()
        assert policy._nh_indptr is tables.nh_indptr
        assert policy._dist_flat is tables.dist_flat
        assert type(policy._nh_indices) is list


class TestOracleScalePath:
    """The one path past the dense-table wall: this engine on tables routed
    through the on-demand Cayley oracle."""

    def _run(self, parts, **kw):
        net = _net(parts, "batched", oracle="cayley", **kw)
        stats = net.run()
        assert net.tables.is_lazy and net.tables._dist is None
        return stats

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_packet_delivers_exactly_once(self, parts, seed):
        stats = self._run(parts, seed=seed)
        assert stats.n_injected == 32 * 6
        assert len(stats.latencies_ns) == stats.n_injected
        assert len(stats.hops) == stats.n_injected
        # Zero hops is legal: both endpoints on the same router.
        assert min(stats.hops) >= 0
        assert min(stats.latencies_ns) > 0

    def test_valiant_also_conserves(self, parts):
        stats = self._run(parts, routing="valiant", seed=5)
        assert len(stats.latencies_ns) == stats.n_injected > 0
        # Valiant detours must show up as extra hops on average.
        minimal = self._run(parts, seed=5)
        assert np.mean(stats.hops) > np.mean(minimal.hops)

    def test_identical_stats_across_repeat_runs(self, parts):
        a = self._run(parts, seed=11)
        b = self._run(parts, seed=11)
        assert a.latencies_ns == b.latencies_ns
        assert a.hops == b.hops
        assert a.t_last_delivery == b.t_last_delivery

    def test_seed_changes_the_run(self, parts):
        a = self._run(parts, seed=11)
        b = self._run(parts, seed=12)
        assert sorted(a.latencies_ns) != sorted(b.latencies_ns)

    def test_minimal_routing_hop_counts_are_exact_distances(self, parts):
        _topo, dense = parts
        net = _net(parts, "batched", pattern="transpose", packets_per_rank=8,
                   seed=9, oracle="cayley")
        # Transpose fixes each rank's destination, so the hop multiset is
        # the dense-table distances, once per packet; self-sends drop out.
        expected = []
        for src in net._sources:
            dst_ep = int(src.rank_to_endpoint[src.pattern.destination(
                src.rank, None)])
            if dst_ep != src.endpoint:
                expected += [dense.distance(src.endpoint // 2,
                                            dst_ep // 2)] * 8
        stats = net.run()
        assert net.tables._dist is None
        assert len(expected) == stats.n_injected > 0
        assert sorted(stats.hops) == sorted(expected)

    @pytest.mark.parametrize("routing", ["ugal", "ugal-g"])
    def test_adaptive_runs_match_dense_tables_bit_for_bit(self, parts,
                                                          routing):
        # The differential suite's oracle sample runs minimal and valiant
        # on this engine; the adaptive policies also read distances and
        # next hops through the oracle.
        kw = dict(routing=routing, pattern="tornado", load=0.8, seed=3,
                  packets_per_rank=12)
        dense = _net(parts, "batched", **kw).run()
        lazy = self._run(parts, **kw)
        assert lazy.n_injected == dense.n_injected > 0
        # The adaptive branch must actually fire.
        assert lazy.valiant_choices > 0
        assert lazy.latencies_ns == dense.latencies_ns
        assert lazy.hops == dense.hops
        assert (lazy.valiant_choices, lazy.minimal_choices) == (
            dense.valiant_choices, dense.minimal_choices
        )
