"""Tests for the Ember-style motifs and the DAG runner."""

import numpy as np
import pytest

from repro.routing import RoutingTables, make_routing
from repro.sim import ChannelConfig, SimConfig
from repro.topology import build_lps
from repro.workloads import (
    FFTMotif,
    Halo3D26Motif,
    Message,
    Sweep3DMotif,
    run_motif,
)
from repro.workloads.halo3d import default_halo_grid


def _dag_is_acyclic(messages):
    indeg = {m.mid: len(m.deps) for m in messages}
    dependents = {}
    for m in messages:
        for d in m.deps:
            dependents.setdefault(d, []).append(m.mid)
    stack = [m.mid for m in messages if not m.deps]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in dependents.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == len(messages)


class TestHalo3D:
    def test_message_count(self):
        m = Halo3D26Motif((4, 4, 4), iterations=1).generate()
        assert len(m) == 64 * 26

    def test_iterations_scale(self):
        one = Halo3D26Motif((4, 4, 4), iterations=1).generate()
        two = Halo3D26Motif((4, 4, 4), iterations=2).generate()
        assert len(two) == 2 * len(one)

    def test_neighbour_classes_sized(self):
        motif = Halo3D26Motif((4, 4, 4), iterations=1, block=8, cell_bytes=8)
        sizes = sorted({m.size for m in motif.generate()})
        assert sizes == [8, 64, 512]  # corner, edge, face

    def test_size_multiplicities(self):
        motif = Halo3D26Motif((4, 4, 4), iterations=1, block=8, cell_bytes=8)
        msgs = motif.generate()
        per_rank = {}
        for m in msgs:
            per_rank.setdefault(m.src_rank, []).append(m.size)
        for sizes in per_rank.values():
            assert sizes.count(512) == 6  # faces
            assert sizes.count(64) == 12  # edges
            assert sizes.count(8) == 8  # corners

    def test_second_iteration_depends_on_first(self):
        msgs = Halo3D26Motif((3, 3, 3), iterations=2).generate()
        later = [m for m in msgs if m.deps]
        assert len(later) == 27 * 26  # all of iteration 2
        assert all(len(m.deps) == 26 for m in later)

    def test_dag_acyclic(self):
        assert _dag_is_acyclic(Halo3D26Motif((3, 3, 3), iterations=3).generate())

    def test_default_grid_factorisation(self):
        assert default_halo_grid(64) == (4, 4, 4)
        assert np.prod(default_halo_grid(512)) == 512
        assert np.prod(default_halo_grid(96)) == 96


class TestSweep3D:
    def test_message_count_one_sweep(self):
        # Each rank sends east and south when in range: 2*p*(p-1) messages.
        msgs = Sweep3DMotif((4, 4), sweeps=1).generate()
        assert len(msgs) == 2 * 4 * 3

    def test_wavefront_depth(self):
        # The dependency chain length grows with px + py.
        msgs = Sweep3DMotif((5, 5), sweeps=1).generate()
        assert _dag_is_acyclic(msgs)
        # corner-to-corner chain exists: at least one message with deps.
        assert any(m.deps for m in msgs)

    def test_multi_sweep_chains(self):
        msgs = Sweep3DMotif((3, 3), sweeps=2).generate()
        assert _dag_is_acyclic(msgs)
        second_half = msgs[len(msgs) // 2 :]
        assert any(m.deps for m in second_half)

    def test_compute_delay_attached(self):
        msgs = Sweep3DMotif((3, 3), sweeps=1, compute_ns=123.0).generate()
        assert all(m.compute_ns == 123.0 for m in msgs)


class TestFFT:
    def test_balanced_grid(self):
        assert FFTMotif.balanced(64).grid == (8, 8)
        # Non-square counts get the most-square factorisation.
        assert FFTMotif.balanced(512).grid == (32, 16)
        assert FFTMotif.balanced(8192).grid == (128, 64)

    def test_unbalanced_grid(self):
        motif = FFTMotif.unbalanced(64, skew=4)
        assert motif.grid == (16, 4)
        nx, ny = FFTMotif.unbalanced(512).grid
        assert nx * ny == 512 and nx / ny > 8

    def test_message_count(self):
        nx, ny = 4, 4
        msgs = FFTMotif((nx, ny)).generate()
        # Phase1: nx rows of ny(ny-1); phase2: ny cols of nx(nx-1).
        assert len(msgs) == nx * ny * (ny - 1) + ny * nx * (nx - 1)

    def test_phase2_depends_on_phase1(self):
        msgs = FFTMotif((3, 3)).generate()
        phase2 = [m for m in msgs if m.deps]
        assert len(phase2) == 3 * 3 * 2
        assert all(len(m.deps) == 2 for m in phase2)  # ny-1 phase-1 receives

    def test_tiny_count_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            FFTMotif.balanced(2)

    def test_dag_acyclic(self):
        assert _dag_is_acyclic(FFTMotif((4, 4)).generate())


class TestRunner:
    @pytest.fixture(scope="class")
    def env(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph)
        return topo, tables

    def test_all_delivered_and_positive_makespan(self, env):
        topo, tables = env
        policy = make_routing("minimal", tables, seed=0)
        motif = Halo3D26Motif((4, 4, 4), iterations=1)
        out = run_motif(topo, policy, motif, SimConfig(concentration=2),
                        placement_seed=1)
        assert out["n_messages"] == 64 * 26
        assert out["makespan_ns"] > 0

    def test_dependencies_enforce_ordering(self, env):
        # Sweep3D's wavefront must take longer than the same messages
        # without dependencies (all-at-once injection).
        topo, tables = env
        policy = make_routing("minimal", tables, seed=0)
        dep_motif = Sweep3DMotif((6, 6), sweeps=1, compute_ns=0.0)

        class FlatSweep(Sweep3DMotif):
            def generate(self):
                msgs = super().generate()
                return [
                    Message(m.mid, m.src_rank, m.dst_rank, m.size, [], 0.0)
                    for m in msgs
                ]

        flat_motif = FlatSweep((6, 6), sweeps=1, compute_ns=0.0)
        cfg = SimConfig(concentration=2)
        dep = run_motif(topo, policy, dep_motif, cfg, placement_seed=2)
        policy2 = make_routing("minimal", tables, seed=0)
        flat = run_motif(topo, policy2, flat_motif, cfg, placement_seed=2)
        assert dep["makespan_ns"] > flat["makespan_ns"]

    def test_compute_delay_extends_makespan(self, env):
        topo, tables = env
        cfg = SimConfig(concentration=2)
        fast = run_motif(
            topo, make_routing("minimal", tables, seed=0),
            Sweep3DMotif((5, 5), sweeps=1, compute_ns=0.0), cfg,
        )
        slow = run_motif(
            topo, make_routing("minimal", tables, seed=0),
            Sweep3DMotif((5, 5), sweeps=1, compute_ns=5000.0), cfg,
        )
        assert slow["makespan_ns"] > fast["makespan_ns"]

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_lossy_stall_names_the_drops(self, env, backend):
        # A message the channel drops never releases its dependents: the
        # error blames the drops, not a dependency cycle.
        topo, tables = env
        cfg = SimConfig(concentration=2,
                        channel=ChannelConfig(loss_prob=0.2, seed=3))
        with pytest.raises(
            RuntimeError,
            match=r"^motif stalled: \d+/48 delivered; \d+ dropped messages "
                  r"\(channel-loss: \d+\) stalled their dependents$",
        ):
            run_motif(topo, make_routing("minimal", tables, seed=0),
                      Sweep3DMotif((4, 4), sweeps=2), cfg, backend=backend)

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_cyclic_dag_is_reported_as_deadlock(self, env, backend):
        topo, tables = env
        messages = [
            Message(0, 0, 1, 1024, [], 0.0),
            Message(1, 1, 2, 1024, [2], 0.0),
            Message(2, 2, 3, 1024, [1], 0.0),
        ]
        with pytest.raises(
            RuntimeError,
            match=r"^motif deadlocked: 1/3 delivered \(cyclic dependencies\?\)$",
        ):
            run_motif(topo, make_routing("minimal", tables, seed=0),
                      Sweep3DMotif((2, 2), sweeps=1),
                      SimConfig(concentration=2), backend=backend,
                      messages=messages)

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_shared_message_list_matches_fresh_lists(self, lps_3_5, sf_7,
                                                     backend):
        # Fig 9 and Fig 10 generate each motif once and hand the same list
        # to every topology, so no engine may change what it was given.
        motif = FFTMotif((4, 4))
        shared = motif.generate()
        cfg = SimConfig(concentration=2)

        def once(topo, messages):
            policy = make_routing("ugal", RoutingTables(topo.graph), seed=0)
            return run_motif(topo, policy, motif, cfg, placement_seed=1,
                             backend=backend, messages=messages)

        for topo in (lps_3_5, sf_7):
            assert once(topo, shared) == once(topo, None)
        assert shared == motif.generate()


#: Every motif family, sized for the live-simulator tests below.
_LIVE_MOTIFS = [
    ("fft", lambda: FFTMotif((4, 4))),
    ("halo3d", lambda: Halo3D26Motif((3, 3, 3), iterations=2)),
    ("sweep3d", lambda: Sweep3DMotif((4, 4), sweeps=2)),
]


class TestLiveSimAllMotifs:
    """Every motif family through the live simulator (not just one).

    Delivery completeness (the DAG drains — every message enters the
    network and arrives) and seed determinism (fixed routing + placement
    seeds reproduce the run byte-for-byte; moving the placement seed
    moves the result) for fft, halo3d, and sweep3d alike.
    """

    @pytest.fixture(scope="class")
    def env(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(topo.graph)
        return topo, tables

    @pytest.mark.parametrize("name,factory", _LIVE_MOTIFS,
                             ids=[m[0] for m in _LIVE_MOTIFS])
    def test_delivery_completeness(self, env, name, factory):
        topo, tables = env
        motif = factory()
        out = run_motif(
            topo, make_routing("ugal", tables, seed=0), motif,
            SimConfig(concentration=2), placement_seed=3,
        )
        n_messages = len(motif.generate())
        assert out["n_messages"] == n_messages
        assert out["delivered"] == n_messages  # nothing lost or stuck
        assert out["delivered_fraction"] == 1.0
        assert out["makespan_ns"] > 0
        assert out["mean_hops"] > 0

    @pytest.mark.parametrize("name,factory", _LIVE_MOTIFS,
                             ids=[m[0] for m in _LIVE_MOTIFS])
    def test_seed_determinism(self, env, name, factory):
        topo, tables = env
        cfg = SimConfig(concentration=2)

        def once(placement_seed):
            return run_motif(
                topo, make_routing("minimal", tables, seed=0), factory(),
                cfg, placement_seed=placement_seed,
            )

        a, b = once(1), once(1)
        assert a == b  # full summary, byte for byte
        moved = once(2)
        assert moved["makespan_ns"] != a["makespan_ns"]
