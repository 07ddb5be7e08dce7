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
  silently falling back (finite buffers, pause/resume, send(), delivery
  callbacks, unknown policies, shared-endpoint sources) — the full
  backend x feature product lives in ``tests/test_sim_capabilities.py``;
* fault schedules are *supported* (epoch boundaries) but attach at most
  once and only before the run;
* the engine gathers from the stored next-hop arrays: a batched run,
  faulted or not, never builds the event engine's list views.
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
         n_ranks=32, packets_per_rank=6, seed=5, concentration=2):
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

    def test_config_backend_field_is_honoured(self, parts):
        topo, _ = parts
        net = build_synthetic_sim(
            topo, "minimal", "random", 0.5, concentration=2, n_ranks=16,
            packets_per_rank=2, seed=0,
            config=SimConfig(concentration=2, backend="batched"),
        )
        assert isinstance(net, BatchedSimulator)


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
