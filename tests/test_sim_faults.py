"""Dynamic fault injection under live traffic (sim.faults + FaultMask).

Covers the contract in docs/resilience.md: mid-run link/router failures
reroute or drop in-flight traffic, recovery heals the mask exactly,
accounting conserves packets (checked by every unbounded ``run()``), runs
stay deterministic per seed, and finite buffers get every credit back.
"""

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.routing import RoutingTables, make_routing
from repro.sim import (
    FaultEvent,
    FaultSchedule,
    NetworkSimulator,
    SimConfig,
    SimStats,
)
from repro.sim.faults import LINK_DOWN, LINK_UP, ROUTER_DOWN
from repro.topology import build_lps

ROUTINGS = ["minimal", "valiant", "ugal", "ugal-g"]


@pytest.fixture(scope="module")
def parts():
    topo = build_lps(3, 5)  # 120 routers, radix 4, 240 links
    tables = RoutingTables(topo.graph)
    tables.build_fast_path()
    return topo, tables


def _loaded_net(topo, tables, routing="minimal", faults=None, seed=0,
                n_msgs=300):
    net = NetworkSimulator(
        topo, make_routing(routing, tables, seed=seed),
        SimConfig(concentration=2), tables=tables, faults=faults,
    )
    rng = np.random.default_rng(seed + 99)
    for _ in range(n_msgs):
        s, d = rng.integers(0, net.n_endpoints, 2)
        if s != d:
            net.send(int(s), int(d))
    return net


def _conserved(stats) -> bool:
    return stats.n_injected == len(stats.latencies_ns) + stats.n_dropped


class TestFaultSchedule:
    def test_sorted_and_normalised(self):
        s = FaultSchedule([(500.0, LINK_DOWN, 3, 7), (100.0, ROUTER_DOWN, 2)])
        assert [ev.t for ev in s] == [100.0, 500.0]
        assert isinstance(s[0], FaultEvent)

    def test_rejects_bad_events(self):
        with pytest.raises(ParameterError):
            FaultSchedule([(10.0, "meteor-strike", 1, 2)])
        with pytest.raises(ParameterError):
            FaultSchedule([(10.0, LINK_DOWN, 1)])  # missing endpoint
        with pytest.raises(ParameterError):
            FaultSchedule([(-1.0, ROUTER_DOWN, 1)])

    def test_random_link_faults_match_offline_sampler(self, parts):
        # Dynamic schedules damage the same links the Fig. 5 offline study
        # deletes at the same seed.
        from repro.graphs.failures import sample_edge_failures

        topo, _ = parts
        sched = FaultSchedule.random_link_faults(topo.graph, 0.1, 1000.0,
                                                 seed=5)
        offline = {tuple(e) for e in sample_edge_failures(topo.graph, 0.1, 5)}
        assert {(ev.a, ev.b) for ev in sched} == offline
        assert all(ev.kind == LINK_DOWN for ev in sched)

    def test_recover_must_follow_failure(self, parts):
        topo, _ = parts
        with pytest.raises(ParameterError):
            FaultSchedule.random_link_faults(topo.graph, 0.1, 1000.0,
                                             t_recover=1000.0)


class TestFaultInjection:
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_conservation_under_link_faults(self, parts, routing):
        # Every injected packet is eventually delivered or counted dropped,
        # for every routing policy.
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(topo.graph, 0.2, 2000.0,
                                                 seed=3)
        stats = _loaded_net(topo, tables, routing, faults=sched).run()
        assert _conserved(stats)
        assert len(stats.latencies_ns) > 0

    def test_mild_fault_reroutes_everything(self, parts):
        # One failed link on a radix-4 expander: rerouting (not dropping)
        # should deliver every packet that wasn't mid-flight on the link.
        topo, tables = parts
        u = 0
        v = int(topo.graph.neighbors(0)[0])
        sched = FaultSchedule([(1500.0, LINK_DOWN, u, v)])
        stats = _loaded_net(topo, tables, faults=sched).run()
        assert _conserved(stats)
        # At most the single in-flight packet can be lost.
        assert stats.n_dropped <= 1

    def test_severed_minimal_set_uses_fallback(self, parts):
        # Kill every link of router 0 except one: traffic through 0 must
        # take non-minimal hops (or drop), never raise.
        topo, tables = parts
        nbrs = topo.graph.neighbors(0)
        events = [(1000.0, LINK_DOWN, 0, int(v)) for v in nbrs[:-1]]
        stats = _loaded_net(topo, tables, faults=FaultSchedule(events)).run()
        assert _conserved(stats)
        assert stats.nonminimal_hops > 0

    def test_isolated_router_drops_unreachable(self, parts):
        # Sever router 0 completely via link faults: packets for its
        # endpoints can never be delivered and must drop (unreachable at
        # the last live router, or ttl while wandering).
        topo, tables = parts
        nbrs = topo.graph.neighbors(0)
        events = [(0.0, LINK_DOWN, 0, int(v)) for v in nbrs]
        net = _loaded_net(topo, tables, faults=FaultSchedule(events))
        stats = net.run()
        assert _conserved(stats)
        assert stats.n_dropped > 0
        assert set(stats.drops) <= {"ttl", "unreachable", "link-down"}

    def test_refailed_link_does_not_kill_later_traffic(self, parts):
        # Regression: down/up/down/up while ONE transmission is in flight
        # must mint only one kill token — a stale second token used to
        # drop the next healthy transmission over the recovered link.
        topo, tables = parts
        u = 0
        v = int(topo.graph.neighbors(0)[0])
        # ep 2*u -> ep 2*v is a one-hop route pinned to link u-v (the only
        # minimal candidate of a distance-1 pair is the neighbour itself).
        sched = FaultSchedule([
            (500.0, LINK_DOWN, u, v), (520.0, LINK_UP, u, v),
            (540.0, LINK_DOWN, u, v), (560.0, LINK_UP, u, v),
        ])
        net = NetworkSimulator(
            topo, make_routing("minimal", tables), SimConfig(concentration=2),
            tables=tables, faults=sched,
        )
        net.send(2 * u, 2 * v, t=0.0)  # in flight on u-v during the faults
        net.send(2 * u, 2 * v, t=1200.0)  # link long recovered: must arrive
        stats = net.run()
        assert stats.drops == {"link-down": 1}
        assert len(stats.latencies_ns) == 1
        assert _conserved(stats)

    def test_total_loss_summary_has_fault_keys(self, parts):
        # Regression: a run delivering zero packets must still expose the
        # fault-accounting keys (a total-loss resilience cell produces a
        # row, not a KeyError).
        topo, tables = parts
        nbrs = topo.graph.neighbors(0)
        events = [(0.0, LINK_DOWN, 0, int(v)) for v in nbrs]
        net = NetworkSimulator(
            topo, make_routing("minimal", tables), SimConfig(concentration=2),
            tables=tables, faults=FaultSchedule(events),
        )
        net.send(2, 0, t=10.0)  # into the isolated router: can never arrive
        s = net.run().summary()
        assert s["delivered"] == 0
        assert s["delivered_fraction"] == 0.0
        assert s["dropped"] == 1
        assert s["requeued"] >= 0
        assert s["nonminimal_hops"] >= 0

    def test_router_failure_drops_and_recovers(self, parts):
        topo, tables = parts
        sched = FaultSchedule.router_faults([0, 7], 1000.0, t_recover=8000.0)
        net = _loaded_net(topo, tables, "ugal", faults=sched)
        stats = net.run()
        assert _conserved(stats)
        assert stats.drops.get("router-down", 0) > 0
        assert net._fault_mask.pristine  # both routers fully restored

    def test_link_recovery_restores_pristine_mask(self, parts):
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(
            topo.graph, 0.3, t_fail=1500.0, seed=3, t_recover=5000.0
        )
        net = _loaded_net(topo, tables, faults=sched)
        stats = net.run()
        assert _conserved(stats)
        assert net._fault_mask.pristine

    def test_requeued_packets_counted(self, parts):
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(topo.graph, 0.25, 2000.0,
                                                 seed=1)
        stats = _loaded_net(topo, tables, n_msgs=500, faults=sched).run()
        assert stats.n_requeued > 0
        assert _conserved(stats)

    @pytest.mark.parametrize("routing", ["minimal", "ugal"])
    def test_deterministic_per_seed(self, parts, routing):
        topo, tables = parts

        def once():
            sched = FaultSchedule.random_link_faults(topo.graph, 0.2,
                                                     2000.0, seed=3)
            return _loaded_net(topo, tables, routing, faults=sched).run()

        a, b = once(), once()
        assert a.latencies_ns == b.latencies_ns
        assert a.hops == b.hops
        assert a.drops == b.drops
        assert a.n_requeued == b.n_requeued
        assert a.epochs == b.epochs

    def test_empty_schedule_delivers_everything(self, parts):
        # An empty schedule still runs the degraded machinery: it must be
        # lossless and semantically complete on a pristine network.
        topo, tables = parts
        stats = _loaded_net(topo, tables, faults=FaultSchedule()).run()
        assert _conserved(stats)
        assert stats.n_dropped == 0


class TestScheduleAttachment:
    def test_schedule_must_attach_before_traffic(self, parts):
        topo, tables = parts
        net = _loaded_net(topo, tables)  # already has queued sends
        with pytest.raises(SimulationError):
            net.set_fault_schedule(FaultSchedule())

    def test_schedule_attaches_only_once(self, parts):
        topo, tables = parts
        net = NetworkSimulator(
            topo, make_routing("minimal", tables), SimConfig(),
            tables=tables, faults=FaultSchedule(),
        )
        with pytest.raises(SimulationError):
            net.set_fault_schedule(FaultSchedule())


class TestEpochStats:
    def test_epoch_per_fault_event(self, parts):
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(
            topo.graph, 0.1, t_fail=2000.0, seed=2, t_recover=6000.0
        )
        stats = _loaded_net(topo, tables, faults=sched).run()
        assert len(stats.epochs) == len(sched)
        rows = stats.epoch_rows()
        assert len(rows) == len(sched)
        # Deltas reconcile with the cumulative totals.
        pre_delivered = stats.epochs[0]["delivered"]
        assert pre_delivered + sum(r["delivered"] for r in rows) == len(
            stats.latencies_ns
        )
        assert all(r["t_end"] >= r["t_start"] for r in rows)

    def test_no_epochs_without_schedule(self, parts):
        topo, tables = parts
        stats = _loaded_net(topo, tables).run()
        assert stats.epochs == []
        assert stats.epoch_rows() == []

    def test_summary_reports_fault_metrics(self, parts):
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(topo.graph, 0.2, 2000.0,
                                                 seed=3)
        s = _loaded_net(topo, tables, faults=sched).run().summary()
        assert s["dropped"] > 0
        assert 0.0 < s["delivered_fraction"] < 1.0
        assert s["nonminimal_hops"] > 0
        assert s["requeued"] >= 0


class TestFiniteBuffersWithFaults:
    @pytest.mark.parametrize(
        "flap",
        [
            # 64 KB buffers, 300 sends at t=0, links stay down.
            False,
            # 1-packet buffers, 600 sends over 20 us, links recover at 6 us:
            # one leaked credit would block its buffer for good.
            True,
        ],
        ids=["down", "flap-1pkt"],
    )
    def test_conservation_with_finite_buffers(self, parts, flap):
        # Drops must release held buffers, and a packet killed mid-link
        # must return the downstream credit its transmission reserved;
        # otherwise the run deadlocks on buffer space nobody holds.
        topo, tables = parts
        if flap:
            sched = FaultSchedule.random_link_faults(
                topo.graph, 0.15, 2000.0, seed=1, t_recover=6000.0
            )
            cfg = SimConfig(concentration=2, finite_buffers=True,
                            buffer_bytes=4096)
        else:
            sched = FaultSchedule.random_link_faults(topo.graph, 0.15,
                                                     2000.0, seed=4)
            cfg = SimConfig(concentration=2, finite_buffers=True)
        net = NetworkSimulator(
            topo, make_routing("minimal", tables, seed=0), cfg,
            tables=tables, faults=sched,
        )
        rng = np.random.default_rng(99)
        for _ in range(600 if flap else 300):
            s, d = rng.integers(0, net.n_endpoints, 2)
            t = float(rng.uniform(0.0, 20_000.0)) if flap else None
            if s != d:
                net.send(int(s), int(d), t=t)
        stats = net.run()
        assert not stats.deadlocked
        assert _conserved(stats)
        assert stats.drops.get("link-down", 0) > 0
        assert int(net._buf_used.sum()) == 0


class TestRunEndCheck:
    def test_lost_drop_count_raises(self, parts, monkeypatch):
        # A drop that is never counted breaks conservation; the run must
        # say so instead of returning stats that silently lose packets.
        topo, tables = parts
        sched = FaultSchedule.random_link_faults(topo.graph, 0.2, 2000.0,
                                                 seed=3)
        net = _loaded_net(topo, tables, faults=sched)
        monkeypatch.setattr(SimStats, "record_drop", lambda self, reason: None)
        with pytest.raises(SimulationError, match="ended inconsistent"):
            net.run()
