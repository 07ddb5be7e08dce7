"""Collective schedules through the live simulators, plus drain edges.

The hypothesis file (``test_property_collectives.py``) pins the
generators symbolically; this file runs them: delivery completeness and
identical chunk-ownership end states on both engines, seed determinism,
the exact-boundary drain invariants (chunk-completion times filled when
the run terminates exactly at the last delivery cycle; epoch snapshots
excluding same-instant events), and the capability wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BackendCapabilityError, SimulationError
from repro.routing import RoutingTables, make_routing
from repro.sim import BatchedSimulator, SimConfig
from repro.topology import build_lps
from repro.workloads import CollectiveMotif, run_collective, run_motif
from repro.workloads.collectives import COLLECTIVES


@pytest.fixture(scope="module")
def env():
    topo = build_lps(3, 5)
    tables = RoutingTables(topo.graph)
    return topo, tables


def _run(env, coll, algo, backend, p=8, seed=0, total=4096):
    topo, tables = env
    return run_collective(
        topo, make_routing("minimal", tables, seed=seed),
        CollectiveMotif(coll, algo, p, total_bytes=total),
        SimConfig(concentration=2), placement_seed=seed + 1,
        backend=backend,
    )


_COMBOS = [
    ("allreduce", "ring"),
    ("allreduce", "rabenseifner"),
    ("allgather", "recursive-doubling"),
    ("reduce-scatter", "binary-tree"),
]


class TestBothBackends:
    @pytest.mark.parametrize("coll,algo", _COMBOS,
                             ids=[f"{c}-{a}" for c, a in _COMBOS])
    @pytest.mark.parametrize("p", [8, 11])
    def test_drains_with_identical_ownership(self, env, coll, algo, p):
        ev = _run(env, coll, algo, "event", p=p)
        bt = _run(env, coll, algo, "batched", p=p)
        for out in (ev, bt):
            assert out["delivered"] == out["n_messages"]
            assert out["delivered_fraction"] == 1.0
            assert out["ownership_complete"] is True
            assert len(out["chunk_done_ns"]) == p
        # The chunk-ownership end state must be identical across engines.
        assert ev["final_owners"] == bt["final_owners"]
        assert ev["n_chunks"] == bt["n_chunks"]
        assert ev["n_steps"] == bt["n_steps"]

    @pytest.mark.parametrize("backend", ["event", "batched"])
    def test_completion_filled_at_terminal_delivery_cycle(
        self, env, backend
    ):
        # Exact-boundary drain: every collective run terminates at its
        # last delivery cycle, and the chunk completed by that very
        # delivery must still get a finite completion time — the last
        # chunk completes *exactly* at the makespan, not before, and is
        # not dropped by an exclusive boundary comparison.
        out = _run(env, "allreduce", "ring", backend, p=6)
        assert out["chunk_done_max_ns"] == out["makespan_ns"]
        assert all(np.isfinite(out["chunk_done_ns"]))
        assert all(t <= out["makespan_ns"] for t in out["chunk_done_ns"])

    def test_seed_determinism(self, env):
        a = _run(env, "allgather", "ring", "event", seed=3)
        b = _run(env, "allgather", "ring", "event", seed=3)
        assert a == b
        moved = _run(env, "allgather", "ring", "event", seed=4)
        assert moved["makespan_ns"] != a["makespan_ns"]

    def test_runs_unchanged_through_run_motif(self, env):
        # The lowering is a plain motif DAG: run_motif executes it with
        # no collective-specific support.
        topo, tables = env
        motif = CollectiveMotif("reduce-scatter", "ring", 8)
        out = run_motif(
            topo, make_routing("minimal", tables, seed=0), motif,
            SimConfig(concentration=2), placement_seed=1,
            backend="batched",
        )
        assert out["delivered"] == out["n_messages"] == len(motif.generate())
        assert out["motif"] == "reduce-scatter/ring"


class TestChunkCompletion:
    def test_missing_delivery_detected(self, env):
        motif = CollectiveMotif("allreduce", "ring", 4)
        n = len(motif.generate())
        t_del = np.zeros(n)
        t_del[-1] = np.inf  # the boundary delivery never drained
        with pytest.raises(SimulationError, match="never completed"):
            motif.chunk_completion_times(t_del)

    def test_completion_is_max_over_completing_deps(self, env):
        motif = CollectiveMotif("allgather", "ring", 4)
        t_del = np.arange(len(motif.generate()), dtype=float)
        times = motif.chunk_completion_times(t_del)
        deps = motif.completion_deps()
        assert times == [float(max(d)) for d in deps]

    def test_bigger_payload_takes_longer(self, env):
        small = _run(env, "allreduce", "ring", "event", total=1 << 10)
        big = _run(env, "allreduce", "ring", "event", total=1 << 16)
        assert big["makespan_ns"] > small["makespan_ns"]

    def test_reduce_scatter_owner_contract(self):
        ring = CollectiveMotif("reduce-scatter", "ring", 5)
        assert ring.final_owners() == [4, 0, 1, 2, 3]
        tree = CollectiveMotif("reduce-scatter", "binary-tree", 5)
        assert tree.final_owners() == [0, 1, 2, 3, 4]


class TestEpochBoundary:
    def test_epoch_snapshot_excludes_same_instant_events(self, env):
        # Event-engine parity: fault events enter the heap before any
        # traffic exists, so at equal timestamps the fault pops first and
        # its epoch snapshot excludes an injection or delivery landing
        # exactly at the epoch time.  The batched drain must use the same
        # strict boundary — this is the run(until=)-style edge where a
        # cell terminates exactly at the last delivery cycle.
        topo, tables = env
        net = BatchedSimulator(
            topo, make_routing("minimal", tables, seed=0),
            SimConfig(concentration=2), tables=tables,
        )
        net.stats.epochs.append({
            "t": 100.0, "label": "recover", "injected": 0, "delivered": 0,
            "dropped": 0, "requeued": 0, "bytes_delivered": 0,
        })
        t0 = np.array([50.0, 100.0, 150.0])
        t_del = np.array([100.0, 200.0, 250.0])
        net._fill_epochs(t0, t_del, np.full(3, 4096))
        ep = net.stats.epochs[0]
        assert ep["injected"] == 1  # t0 == 100.0 lands after the boundary
        assert ep["delivered"] == 0  # t_del == 100.0 likewise
        assert ep["bytes_delivered"] == 0


class TestCapabilityWiring:
    def test_collectives_supported_on_both_backends(self):
        from repro.sim import capabilities as cap

        assert cap.supported_backends(cap.COLLECTIVES) == ("event", "batched")

    def test_unknown_backend_refused_at_spec_time(self, env):
        with pytest.raises(BackendCapabilityError, match="unknown"):
            _run(env, "allreduce", "ring", "threaded")

    def test_every_collective_listed(self):
        assert set(COLLECTIVES) == {
            "allreduce", "allgather", "reduce-scatter"
        }
