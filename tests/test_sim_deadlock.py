"""Finite-buffer flow control and the Section V-A deadlock demonstration.

With credit-based finite buffers, cyclic channel dependencies genuinely
deadlock the simulator — and the paper's hop-incremented virtual channels
genuinely fix it.  The ring scenario here is the canonical textbook case:
every router forwards clockwise, buffers hold one packet, and with a single
VC the ring wedges solid.
"""

import numpy as np
import pytest

from repro.errors import BufferDeadlockError, SimulationError
from repro.graphs.generators import cycle_graph
from repro.routing import RoutingTables, make_routing
from repro.routing.algorithms import RoutingPolicy
from repro.sim import BatchedSimulator, NetworkSimulator, SimConfig
from repro.sim.traffic import OpenLoopSource, TrafficPattern
from repro.topology import build_lps
from repro.topology.base import Topology


class ClockwiseRouting(RoutingPolicy):
    """Always forward to (router + 1) mod n — maximally cyclic."""

    name = "clockwise"

    def __init__(self, tables, n_vcs: int, vc_increment: bool) -> None:
        super().__init__(tables, seed=0)
        self._n_vcs = n_vcs
        self.vc_increment = vc_increment

    def required_vcs(self) -> int:
        return self._n_vcs

    def next_hop(self, net, router: int, pkt) -> int:  # noqa: ARG002
        return (router + 1) % self.tables.graph.n


def _ring_topology(n: int) -> Topology:
    return Topology(name=f"ring{n}", family="test", graph=cycle_graph(n))


def _run_ring(n_vcs: int, n: int = 8, packets_per_node: int = 4):
    topo = _ring_topology(n)
    tables = RoutingTables(topo.graph)
    policy = ClockwiseRouting(tables, n_vcs=n_vcs, vc_increment=n_vcs > 1)
    cfg = SimConfig(
        concentration=1,
        finite_buffers=True,
        buffer_bytes=4096,  # one packet per (link, VC) buffer
        packet_bytes=4096,
    )
    net = NetworkSimulator(topo, policy, cfg, tables=tables)
    for src in range(n):
        for _ in range(packets_per_node):
            net.send(src, (src + n // 2) % n)
    return net.run()


class TestRingDeadlock:
    def test_single_vc_deadlocks(self):
        with pytest.raises(BufferDeadlockError) as exc:
            _run_ring(n_vcs=1)
        err = exc.value
        assert err.undelivered > 0
        assert err.blocked > 0
        assert err.stats is not None and err.stats.deadlocked
        assert err.stats.undelivered == err.undelivered
        # The message names the failure and points at the remedy.
        assert "finite-buffer deadlock" in str(err)
        assert "VC budget" in str(err)

    def test_hop_incremented_vcs_complete(self):
        # n/2 hops max -> n/2 + 1 VCs (the paper's d+1 rule).
        stats = _run_ring(n_vcs=8 // 2 + 1)
        assert not stats.deadlocked
        assert stats.summary()["delivered"] == 8 * 4

    def test_more_traffic_still_safe_with_vcs(self):
        stats = _run_ring(n_vcs=5, packets_per_node=20)
        assert not stats.deadlocked
        assert stats.summary()["delivered"] == 8 * 20


class TestFiniteBufferCorrectness:
    @pytest.fixture(scope="class")
    def env(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph)
        return topo, tables

    def _run(self, env, finite: bool, seed: int = 0, n_msgs: int = 400):
        from repro.routing import make_routing

        topo, tables = env
        cfg = SimConfig(concentration=2, finite_buffers=finite,
                        buffer_bytes=2 * 4096)
        net = NetworkSimulator(topo, make_routing("minimal", tables, seed=seed),
                               cfg, tables=tables)
        rng = np.random.default_rng(seed)
        for _ in range(n_msgs):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s != d:
                net.send(int(s), int(d))
        return net.run()

    def test_minimal_routing_with_vcs_never_deadlocks(self, env):
        # diameter+1 hop-incremented VCs: guaranteed deadlock-free.
        stats = self._run(env, finite=True)
        assert not stats.deadlocked
        assert stats.summary()["delivered"] == stats.n_injected

    def test_buffers_fully_released(self, env):
        topo, tables = env
        from repro.routing import make_routing

        cfg = SimConfig(concentration=2, finite_buffers=True)
        net = NetworkSimulator(topo, make_routing("minimal", tables), cfg,
                               tables=tables)
        rng = np.random.default_rng(1)
        for _ in range(300):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s != d:
                net.send(int(s), int(d))
        net.run()
        assert net._buf_used is not None
        assert net._buf_used.sum() == 0

    def test_unreturned_credit_raises(self, env, monkeypatch):
        # 64 KB buffers never fill at this load, so a release that never
        # happens leaves no deadlock — only credit the run end must catch.
        topo, tables = env
        cfg = SimConfig(concentration=2, finite_buffers=True)
        net = NetworkSimulator(topo, make_routing("minimal", tables), cfg,
                               tables=tables)
        rng = np.random.default_rng(1)
        for _ in range(300):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s != d:
                net.send(int(s), int(d))
        monkeypatch.setattr(NetworkSimulator, "_release_buffer",
                            lambda self, pkt, t: None)
        with pytest.raises(SimulationError,
                           match=r", [1-9]\d* B of buffer credit") as exc:
            net.run()
        assert not isinstance(exc.value, BufferDeadlockError)

    def test_backpressure_slows_not_breaks(self, env):
        # Finite buffers may delay deliveries but all packets arrive, and
        # mean latency cannot be lower than the unbounded run.
        free = self._run(env, finite=False, seed=3)
        tight = self._run(env, finite=True, seed=3)
        assert tight.summary()["delivered"] == free.summary()["delivered"]
        assert (
            tight.summary()["mean_latency_ns"]
            >= free.summary()["mean_latency_ns"] - 1e-6
        )


class _OffsetTraffic(TrafficPattern):
    """dst = src + 3 (mod N): on a C8 ring the unique minimal path is three
    clockwise hops, so every packet crosses two intermediate buffers — the
    deterministic cyclic-dependency workload both engines can run."""

    name = "offset3"
    stochastic = False

    def destination(self, src: int, rng) -> int:  # noqa: ARG002
        return (src + 3) % self.n_ranks


def _ring_open_loop(backend: str, n_vcs: int, n: int = 8, load: float = 0.9,
                    packets_per_node: int = 6, seed: int = 0):
    """A C8 ring under offset-3 open-loop traffic with the VC budget forced.

    Unlike the clockwise tests above this uses the stock *minimal* routing
    (the only unique shortest path is the clockwise one), so the identical
    scenario runs on both engines; ``required_vcs`` is overridden to probe
    budgets below the deadlock-free bound.
    """
    topo = Topology(name=f"ring{n}", family="test", graph=cycle_graph(n))
    tables = RoutingTables(topo.graph)
    routing = make_routing("minimal", tables, seed=seed)
    routing.required_vcs = lambda: n_vcs
    cfg = SimConfig(concentration=1, finite_buffers=True,
                    buffer_bytes=4096, packet_bytes=4096)
    cls = {"event": NetworkSimulator, "batched": BatchedSimulator}[backend]
    net = cls(topo, routing, cfg, tables=tables)
    r2e = np.arange(n, dtype=np.int64)
    pattern = _OffsetTraffic(n)
    for rank in range(n):
        net.add_open_loop_source(
            OpenLoopSource(rank, rank, pattern, r2e, load,
                           packets_per_node, seed=seed * 1003 + rank)
        )
    return net


class TestCrossEngineDeadlock:
    """Both engines hit the same genuine deadlock — and the same fix."""

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_single_vc_deadlocks_with_witness(self, backend):
        with pytest.raises(BufferDeadlockError) as exc:
            _ring_open_loop(backend, n_vcs=1).run()
        err = exc.value
        assert err.undelivered > 0
        assert err.stats is not None and err.stats.deadlocked
        # The witness is a genuine cycle through the ring's (edge, VC)
        # buffers: non-empty, unique nodes, all on VC 0.
        assert len(err.cycle) >= 2
        assert len(set(err.cycle)) == len(err.cycle)
        assert all(vc == 0 for _, vc in err.cycle)

    def test_engines_agree_on_the_witness_cycle(self):
        def cycle_of(backend):
            with pytest.raises(BufferDeadlockError) as exc:
                _ring_open_loop(backend, n_vcs=1).run()
            return exc.value.cycle

        ev, bt = cycle_of("event"), cycle_of("batched")
        # Same cyclic dependency up to rotation.
        assert set(ev) == set(bt)

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_enough_vcs_complete(self, backend):
        stats = _ring_open_loop(backend, n_vcs=4).run()
        assert not stats.deadlocked
        assert len(stats.latencies_ns) == stats.n_injected > 0


class TestBatchedBackpressureCorrectness:
    """The batched credit loop against its own invariants and the event
    engine's aggregates (exact statements only; statistical agreement is
    the differential harness's job)."""

    @pytest.fixture(scope="class")
    def env(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph)
        return topo, tables

    def _run(self, env, backend, finite, seed=0, load=0.7):
        from repro.experiments.common import build_synthetic_sim

        topo, _ = env
        cfg = SimConfig(concentration=2, finite_buffers=finite,
                        buffer_bytes=2 * 4096)
        net = build_synthetic_sim(
            topo, "minimal", "random", load, concentration=2, n_ranks=32,
            packets_per_rank=10, seed=seed, config=cfg, backend=backend,
        )
        stats = net.run()
        return net, stats

    def test_buffers_fully_released(self, env):
        net, stats = self._run(env, "batched", finite=True)
        assert len(stats.latencies_ns) == stats.n_injected
        assert net._buf_used is not None
        assert int(net._buf_used.sum()) == 0

    def test_backpressure_does_not_speed_up_the_batched_engine(self, env):
        # Not an exact theorem here: a blocked queue head lets a later
        # *eligible* entry win its port, which can shave sub-cycle charge
        # off the analytic latency.  Bound the effect instead: finite
        # buffers may not make the mean latency meaningfully lower.
        _, free = self._run(env, "batched", finite=False, seed=3)
        _, tight = self._run(env, "batched", finite=True, seed=3)
        assert tight.summary()["delivered"] == free.summary()["delivered"]
        assert (
            tight.summary()["mean_latency_ns"]
            >= free.summary()["mean_latency_ns"] * (1 - 0.005)
        )

    def test_finite_buffer_aggregates_track_the_event_engine(self, env):
        _, ev = self._run(env, "event", finite=True, seed=5)
        _, bt = self._run(env, "batched", finite=True, seed=5)
        evs, bts = ev.summary(), bt.summary()
        assert evs["delivered"] == bts["delivered"]
        assert bts["mean_hops"] == pytest.approx(evs["mean_hops"], rel=0.05)
        assert bts["mean_latency_ns"] == pytest.approx(
            evs["mean_latency_ns"], rel=0.15
        )
