"""Simulator fast-path guarantees: determinism, resume, allocation.

Properties the perf work must never regress:

* fixed seed => byte-identical :class:`SimStats` across fresh runs, for
  every routing policy;
* ``run(until=...)`` then ``run()`` == one uninterrupted ``run()`` (the
  paused run must not lose the event it popped past ``until``) — pinned by
  a *differential harness* that samples ~30 random configurations across
  topology family × routing policy × VC budget × traffic shape × seed,
  plus fixed regression cases (every new event-loop feature must keep the
  paused and the uninterrupted run event-for-event equal over the whole
  sampled space, not one hand-picked cell);
* the hot-path data structures stay allocation-lean (no ``Packet.__dict__``,
  plain-tuple events), and a finished simulator is freed by reference
  counting alone.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.routing import RoutingTables, make_routing
from repro.sim import NetworkSimulator, Packet, SimConfig
from repro.topology import (
    build_canonical_dragonfly,
    build_lps,
    build_paley,
    build_slimfly,
)

ROUTINGS = ["minimal", "valiant", "ugal", "ugal-g"]


@pytest.fixture(scope="module")
def parts():
    topo = build_lps(3, 5)  # 120 routers, radix 4
    tables = RoutingTables(topo.graph)
    return topo, tables


def _loaded_net(topo, tables, routing, seed=0, n_msgs=250):
    cfg = SimConfig(concentration=2)
    net = NetworkSimulator(topo, make_routing(routing, tables, seed=seed),
                           cfg, tables=tables)
    rng = np.random.default_rng(seed + 99)
    for _ in range(n_msgs):
        s, d = rng.integers(0, net.n_endpoints, 2)
        if s != d:
            net.send(int(s), int(d))
    return net


def _stats_tuple(stats):
    """Every per-packet observable, for byte-identical comparison."""
    return (
        stats.latencies_ns,
        stats.hops,
        stats.bytes_delivered,
        stats.n_injected,
        stats.max_queue_bytes,
        stats.valiant_choices,
        stats.minimal_choices,
        stats.t_first_inject,
        stats.t_last_delivery,
        stats.n_events,
    )


class TestDeterminism:
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_same_seed_byte_identical(self, parts, routing):
        topo, tables = parts
        a = _loaded_net(topo, tables, routing).run()
        b = _loaded_net(topo, tables, routing).run()
        assert _stats_tuple(a) == _stats_tuple(b)

    @pytest.mark.parametrize("routing", ["minimal", "ugal"])
    def test_different_seed_differs(self, parts, routing):
        # Sanity: the determinism above is not vacuous.
        topo, tables = parts
        a = _loaded_net(topo, tables, routing, seed=0).run()
        b = _loaded_net(topo, tables, routing, seed=1).run()
        assert a.latencies_ns != b.latencies_ns


class TestRunUntilResume:
    def test_pause_resume_with_open_loop_sources(self, parts):
        # Regression: run() must not re-start() already-started sources on
        # resume (that would schedule a duplicate injection chain).
        from repro.sim import make_traffic, place_ranks
        from repro.sim.traffic import OpenLoopSource

        topo, tables = parts

        def build():
            cfg = SimConfig(concentration=2)
            net = NetworkSimulator(topo, make_routing("minimal", tables),
                                   cfg, tables=tables)
            n_ranks = 64
            r2e = place_ranks(n_ranks, net.n_endpoints, seed=5)
            pat = make_traffic("random", n_ranks)
            for rank in range(n_ranks):
                net.add_open_loop_source(
                    OpenLoopSource(rank, int(r2e[rank]), pat, r2e, 0.4, 6,
                                   seed=rank)
                )
            return net

        reference = build().run()
        paused = build()
        paused.run(until=reference.t_last_delivery / 2.0)
        paused.run()
        assert _stats_tuple(paused.stats) == _stats_tuple(reference)
        assert paused.stats.n_injected == 64 * 6

    def test_until_does_not_lose_the_boundary_event(self, parts):
        # Regression for the popped-then-dropped event: pausing exactly
        # between two events and resuming must still deliver everything.
        topo, tables = parts
        net = _loaded_net(topo, tables, "minimal", n_msgs=40)
        net.run(until=1.0)  # before any packet clears its NIC
        n_before = len(net._events)
        assert n_before > 0
        net.run()
        assert len(net.stats.latencies_ns) == net.stats.n_injected


# ---------------------------------------------------------------------------
# Differential harness: one uninterrupted run vs. the same run paused
# halfway with run(until=...) and resumed.
#
# The pause exercises the one event loop's until branch, which must re-queue
# the first event past the bound and leave every counter resumable.  Instead
# of one hand-picked cell we sample the configuration space (topology family
# x routing policy x VC budget x concentration x traffic shape x seed) from
# a fixed generator seed and assert equality on every per-packet observable
# for each sample.

_FAMILIES = {
    "lps": lambda: build_lps(3, 5),  # 120 routers, radix 4
    "slimfly": lambda: build_slimfly(5),  # 50 routers, radix 7
    "dragonfly": lambda: build_canonical_dragonfly(6),  # 42 routers
    "paley": lambda: build_paley(29),  # 29 routers, radix 14
}
_POW2_PATTERNS = ("shuffle", "reverse", "transpose")


def _sample_diff_configs(n=30, seed=20240731):
    """Deterministically sample ``n`` pause-vs-uninterrupted configurations."""
    rng = np.random.default_rng(seed)
    families = sorted(_FAMILIES)
    configs = []
    for i in range(n):
        traffic = ("sends", "open-loop")[int(rng.integers(2))]
        cfg = {
            "family": families[int(rng.integers(len(families)))],
            "routing": ROUTINGS[int(rng.integers(len(ROUTINGS)))],
            # 0 = the policy's own VC budget; small caps stress the
            # round-robin scan and the hop-capped VC assignment.
            "vc_cap": int(rng.integers(5)),
            "concentration": int((1, 2, 4)[int(rng.integers(3))]),
            "traffic": traffic,
            "seed": int(rng.integers(10_000)),
        }
        if traffic == "sends":
            cfg["n_msgs"] = int(rng.integers(40, 260))
            cfg["size"] = int((512, 4096, 9000)[int(rng.integers(3))])
        else:
            if rng.random() < 0.4:
                cfg["pattern"] = "random"
            else:
                cfg["pattern"] = _POW2_PATTERNS[
                    int(rng.integers(len(_POW2_PATTERNS)))
                ]
            cfg["load"] = float(np.round(0.2 + 0.7 * rng.random(), 2))
            cfg["packets_per_rank"] = int(rng.integers(3, 9))
        configs.append(cfg)
    return configs


# Fixed regression cases: the original hand-picked LPS cell under every
# policy plus corner VC/concentration settings that once had dedicated code
# paths.
_FIXED_CASES = [
    {"family": "lps", "routing": r, "vc_cap": 0, "concentration": 2,
     "traffic": "sends", "n_msgs": 250, "size": 4096, "seed": 0}
    for r in ROUTINGS
] + [
    {"family": "slimfly", "routing": "minimal", "vc_cap": 1,
     "concentration": 1, "traffic": "sends", "n_msgs": 120, "size": 4096,
     "seed": 7},
    {"family": "dragonfly", "routing": "ugal", "vc_cap": 2,
     "concentration": 4, "traffic": "open-loop", "pattern": "shuffle",
     "load": 0.6, "packets_per_rank": 5, "seed": 11},
]


def _config_id(cfg):
    parts = [cfg["family"], cfg["routing"], f"vc{cfg['vc_cap']}",
             f"c{cfg['concentration']}", cfg["traffic"], f"s{cfg['seed']}"]
    return "-".join(parts)


@pytest.fixture(scope="module")
def family_parts():
    built = {}
    for name, build in _FAMILIES.items():
        topo = build()
        built[name] = (topo, RoutingTables(topo.graph))
    return built


def _build_diff_net(family_parts, cfg):
    from repro.sim import make_traffic, place_ranks
    from repro.sim.traffic import OpenLoopSource

    topo, tables = family_parts[cfg["family"]]
    routing = make_routing(cfg["routing"], tables, seed=cfg["seed"])
    if cfg["vc_cap"]:
        # Shadow the bound method: a small VC budget stresses the RR scan.
        base = routing.required_vcs()
        routing.required_vcs = lambda k=min(cfg["vc_cap"], base): k
    net = NetworkSimulator(
        topo, routing, SimConfig(concentration=cfg["concentration"]),
        tables=tables,
    )
    if cfg["traffic"] == "sends":
        rng = np.random.default_rng(cfg["seed"] + 99)
        for _ in range(cfg["n_msgs"]):
            s, d = rng.integers(0, net.n_endpoints, 2)
            if s != d:
                net.send(int(s), int(d), size=cfg["size"])
    else:
        # Largest power of two that fits (bit-permutation patterns need
        # 2^b ranks), capped at 64 to bound runtime.
        n_ranks = min(64, 1 << (net.n_endpoints.bit_length() - 1))
        r2e = place_ranks(n_ranks, net.n_endpoints, seed=cfg["seed"] + 1)
        pattern = make_traffic(cfg["pattern"], n_ranks)
        for rank in range(n_ranks):
            net.add_open_loop_source(
                OpenLoopSource(rank, int(r2e[rank]), pattern, r2e,
                               cfg["load"], cfg["packets_per_rank"],
                               seed=cfg["seed"] * 1_000_003 + rank)
            )
    return net


class TestDifferentialHarness:
    @pytest.mark.parametrize(
        "cfg", _FIXED_CASES + _sample_diff_configs(30),
        ids=_config_id,
    )
    def test_pause_and_resume_matches_uninterrupted(self, family_parts, cfg):
        reference = _build_diff_net(family_parts, cfg).run()
        assert len(reference.latencies_ns) > 0, "degenerate sample: nothing ran"
        paused = _build_diff_net(family_parts, cfg)
        paused.run(until=reference.t_last_delivery / 2.0)
        # The pause must split the run: events on both sides of the cut.
        assert paused.stats.n_events > 0 and paused._events
        assert len(paused.stats.latencies_ns) < len(reference.latencies_ns)
        paused.run()  # drain the rest
        assert _stats_tuple(paused.stats) == _stats_tuple(reference)

    def test_sampler_is_stable(self):
        # The sampled space must not drift run-to-run (that would make a
        # divergence unreproducible); same seed => same configs.
        assert _sample_diff_configs(30) == _sample_diff_configs(30)
        # ... and it genuinely covers the axes.
        cfgs = _sample_diff_configs(30)
        assert {c["family"] for c in cfgs} == set(_FAMILIES)
        assert {c["routing"] for c in cfgs} == set(ROUTINGS)
        assert {c["traffic"] for c in cfgs} == {"sends", "open-loop"}


class TestTrafficPatternContract:
    def test_stochastic_subclass_keeps_per_packet_destinations(self, parts):
        # A pattern written against the old contract (per-packet randomness
        # in destination(), no stochastic/destination_from_u declarations)
        # must NOT get its destination frozen by the fast path.
        from repro.sim import make_traffic, place_ranks
        from repro.sim.traffic import OpenLoopSource, TrafficPattern

        class TwoHotspots(TrafficPattern):
            name = "two-hotspots"

            def destination(self, src, rng):  # noqa: ARG002
                return int(rng.integers(2))  # rank 0 or 1, per packet

        topo, tables = parts
        cfg = SimConfig(concentration=2)
        net = NetworkSimulator(topo, make_routing("minimal", tables), cfg,
                               tables=tables)
        r2e = place_ranks(8, net.n_endpoints, seed=11)
        seen = set()
        net.on_delivery = lambda pkt, t: seen.add(pkt.dst_ep)
        net.add_open_loop_source(
            OpenLoopSource(5, int(r2e[5]), TwoHotspots(8), r2e, 0.5, 40,
                           seed=13)
        )
        net.run()
        assert len(net.stats.latencies_ns) == 40
        assert seen == {int(r2e[0]), int(r2e[1])}  # both hotspots reached


class TestAllocationLean:
    def test_packet_has_no_dict(self):
        pkt = Packet(0, 1, 2, 4096, 0.0, 1)
        assert not hasattr(pkt, "__dict__")
        assert not hasattr(Packet, "__dict__") or "__slots__" in vars(Packet)
        with pytest.raises(AttributeError):
            pkt.some_new_attribute = 1

    def test_event_tuples_are_plain_tuples(self, parts):
        topo, tables = parts
        net = _loaded_net(topo, tables, "minimal", n_msgs=300)
        net.run(until=500.0)  # pause early: events still in flight
        assert net._events, "expected in-flight events"
        for item in net._events:
            assert type(item) is tuple
            assert type(item[0]) is float and type(item[2]) is int

    def test_port_state_is_plain_lists(self, parts):
        # numpy scalar indexing on these would silently reintroduce the
        # slow path; pin the types.
        topo, tables = parts
        net = _loaded_net(topo, tables, "minimal", n_msgs=10)
        for attr in ("_port_busy", "_port_bytes", "_port_rr", "_port_queued",
                     "_nic_busy", "_ej_busy"):
            assert type(getattr(net, attr)) is list, attr


class TestFreedWithoutCyclicGC:
    """A finished event simulator holds no reference cycle through itself.

    Each cycle would keep every finished run (its queues, tables views and
    stats) alive until the cyclic GC happens to run, inflating peak memory
    across a sweep of simulations.
    """

    @pytest.fixture
    def no_gc(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_synthetic_sim_freed_on_last_reference(self, parts, no_gc):
        from repro.experiments.common import build_synthetic_sim

        topo, _tables = parts
        net = build_synthetic_sim(topo, "ugal", "random", 0.5,
                                  concentration=2, n_ranks=32,
                                  packets_per_rank=4, backend="event")
        net.run()
        ref = weakref.ref(net)
        del net
        assert ref() is None

    def test_motif_sim_freed_on_last_reference(self, parts, no_gc,
                                               monkeypatch):
        import repro.workloads.runner as runner
        from repro.workloads import Sweep3DMotif

        topo, tables = parts
        refs = []
        build = runner.NetworkSimulator

        def tracked(*args, **kwargs):
            net = build(*args, **kwargs)
            refs.append(weakref.ref(net))
            return net

        monkeypatch.setattr(runner, "NetworkSimulator", tracked)
        out = runner.run_motif(topo, make_routing("minimal", tables, seed=0),
                               Sweep3DMotif((4, 4), sweeps=1),
                               SimConfig(concentration=2))
        assert out["n_messages"] > 0
        assert len(refs) == 1 and refs[0]() is None
