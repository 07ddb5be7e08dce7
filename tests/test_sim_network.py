"""Tests for the discrete-event network simulator."""

import tracemalloc

import numpy as np
import pytest

from repro.routing import RoutingTables, make_routing
from repro.sim import NetworkSimulator, SimConfig
from repro.topology import build_canonical_dragonfly, build_lps


@pytest.fixture(scope="module")
def small_net_parts():
    topo = build_lps(3, 5)  # 120 routers, radix 4
    tables = RoutingTables(topo.graph)
    return topo, tables


def _fresh_net(topo, tables, routing="minimal", **cfg_kw):
    cfg = SimConfig(concentration=2, **cfg_kw)
    policy = make_routing(routing, tables, seed=0)
    return NetworkSimulator(topo, policy, cfg, tables=tables)


class TestSinglePacket:
    def test_latency_decomposition(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        src_ep, dst_ep = 0, 10  # routers 0 and 5
        hops = tables.distance(0, 5)
        net.send(src_ep, dst_ep)
        stats = net.run()
        assert stats.summary()["delivered"] == 1
        cfg = net.config
        ser = cfg.packet_bytes / cfg.bytes_per_ns
        # NIC serialisation + per-hop (switch + serialisation) + ejection.
        expect = (
            ser  # NIC
            + cfg.link_latency_ns
            + hops * (cfg.switch_latency_ns + ser + cfg.link_latency_ns)
            + cfg.switch_latency_ns
            + ser
            + cfg.link_latency_ns
        )
        assert stats.latencies_ns[0] == pytest.approx(expect, rel=1e-9)
        assert stats.hops[0] == hops

    def test_self_send_instant(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        seen = []
        net.on_delivery = lambda pkt, t: seen.append((pkt.dst_ep, t))
        out = net.send(3, 3)
        assert out is None
        assert seen == [(3, 0.0)]

    def test_same_router_different_endpoint(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        net.send(0, 1)  # both on router 0
        stats = net.run()
        assert stats.summary()["delivered"] == 1
        assert stats.hops[0] == 0  # no network hop, straight to ejection


class TestSerialization:
    def test_nic_serialises_back_to_back(self, small_net_parts):
        # Two packets from the same endpoint: second is delayed by one
        # serialisation time at the NIC.
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        net.send(0, 10)
        net.send(0, 10)
        stats = net.run()
        lat = sorted(stats.latencies_ns)
        ser = net.config.packet_bytes / net.config.bytes_per_ns
        assert lat[1] - lat[0] == pytest.approx(ser, rel=1e-6)

    def test_ejection_port_contention(self, small_net_parts):
        # Many senders to one endpoint: deliveries are spaced by the
        # ejection serialisation time.
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        deliveries = []
        net.on_delivery = lambda pkt, t: deliveries.append(t)
        for src in range(2, 30, 2):
            net.send(src, 0)
        net.run()
        deliveries.sort()
        ser = net.config.packet_bytes / net.config.bytes_per_ns
        gaps = np.diff(deliveries)
        assert np.all(gaps >= ser - 1e-6)


class TestQueueAccounting:
    def test_queue_bytes_return_to_zero(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s != d:
                net.send(int(s), int(d))
        net.run()
        assert sum(net._port_bytes) == 0
        assert not any(net._port_busy)

    def test_max_queue_recorded_under_hotspot(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        for src in range(20, 80):
            net.send(src, 0)
        stats = net.run()
        assert stats.max_queue_bytes > 0


class TestRoutingIntegration:
    @pytest.mark.parametrize("routing", ["minimal", "valiant", "ugal"])
    def test_all_policies_deliver(self, small_net_parts, routing):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables, routing=routing)
        rng = np.random.default_rng(1)
        n = 300
        for _ in range(n):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s == d:
                continue
            net.send(int(s), int(d))
        stats = net.run()
        assert stats.summary()["delivered"] == stats.n_injected

    def test_minimal_mean_hops_matches_graph(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables)
        rng = np.random.default_rng(2)
        for _ in range(500):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s // 2 == d // 2:
                continue  # skip same-router pairs for a clean comparison
            net.send(int(s), int(d))
        stats = net.run()
        from repro.graphs.metrics import average_distance

        assert np.mean(stats.hops) == pytest.approx(
            average_distance(topo.graph), rel=0.1
        )

    def test_vc_budget_respected(self, small_net_parts):
        topo, tables = small_net_parts
        net = _fresh_net(topo, tables, routing="valiant")
        assert net.n_vcs == 2 * tables.diameter + 1


class TestDeterminism:
    def test_same_seed_same_results(self, small_net_parts):
        topo, tables = small_net_parts

        def one_run():
            net = _fresh_net(topo, tables, routing="ugal")
            rng = np.random.default_rng(3)
            for _ in range(200):
                s, d = rng.integers(0, net.n_endpoints, 2)
                if s != d:
                    net.send(int(s), int(d))
            return net.run().summary()

        a, b = one_run(), one_run()
        assert a == b


class TestOpenLoopStart:
    def test_starting_a_thousand_sources_stays_small(self):
        # Starting a source is one bulk draw plus its own rows: nothing
        # per source grows with the rank count (a per-source copy of the
        # 1,024-entry rank map once cost ~35 MB here).
        from repro.experiments.common import build_synthetic_sim

        net = build_synthetic_sim(
            build_lps(11, 7), "minimal", "random", 0.7, concentration=8,
            n_ranks=1024, packets_per_rank=5, seed=0,
        )
        tracemalloc.start()
        try:
            net.run(until=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(net._events) == 1024  # every source queued its first
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"
