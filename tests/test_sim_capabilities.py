"""The backend capability matrix, pinned over its full product.

Every ``(backend, feature)`` pair must either *run* (a real, minimal
exercise of the feature on that engine) or raise the **single canonical
error type**, :class:`~repro.errors.BackendCapabilityError` — never a raw
``TypeError``/``AttributeError`` from deep inside an engine, and never a
silent fallback.  Parametrizing over the full product means a future
backend (or a feature added to one engine only) cannot silently regress a
combination: add it to the matrix and this file fails until every cell is
either implemented or properly refused.

The product runs twice: on dense routing tables, and on the scale path's
on-demand Cayley-oracle tables, where a supported pair must also leave the
dense distance matrix unbuilt.
"""

from __future__ import annotations

import pytest

from repro.errors import BackendCapabilityError, SimulationError
from repro.experiments.common import build_synthetic_sim, cached_tables
from repro.routing import RoutingTables, make_routing
from repro.sim import BatchedSimulator, NetworkSimulator, SimConfig
from repro.sim import capabilities as cap
from repro.sim.faults import FaultSchedule
from repro.topology import build_lps
from repro.workloads import (
    CollectiveMotif,
    Sweep3DMotif,
    run_collective,
    run_motif,
)


@pytest.fixture(scope="module")
def parts():
    topo = build_lps(3, 5)
    tables = RoutingTables(topo.graph)
    return topo, tables, None


@pytest.fixture(scope="module")
def oracle_parts():
    # The scale path: the same topology routed through the on-demand
    # Cayley oracle.  ``cached_tables`` hands ``build_synthetic_sim`` this
    # very instance, so every exercise below shares it.
    topo = build_lps(3, 5)
    return topo, cached_tables(topo, oracle="cayley"), "cayley"


def _make_engine(parts, backend):
    topo, tables, _ = parts
    cls = {"event": NetworkSimulator, "batched": BatchedSimulator}[backend]
    return cls(topo, make_routing("minimal", tables, seed=0),
               SimConfig(concentration=2), tables=tables)


# One minimal, *real* exercise per feature.  Each either completes or
# raises; anything else (wrong error type, silent no-op) fails the test.
def _exercise_open_loop(parts, backend):
    topo, _, oracle = parts
    net = build_synthetic_sim(
        topo, "minimal", "random", 0.5, concentration=2, n_ranks=8,
        packets_per_rank=2, seed=0, backend=backend, oracle=oracle,
    )
    stats = net.run()
    assert len(stats.latencies_ns) == stats.n_injected > 0


def _exercise_motifs(parts, backend):
    topo, tables, _ = parts
    out = run_motif(
        topo, make_routing("minimal", tables, seed=0),
        Sweep3DMotif((3, 3), sweeps=1), SimConfig(concentration=2),
        placement_seed=1, backend=backend,
    )
    assert out["delivered_fraction"] == 1.0


def _exercise_collectives(parts, backend):
    topo, tables, _ = parts
    out = run_collective(
        topo, make_routing("minimal", tables, seed=0),
        CollectiveMotif("allreduce", "ring", 4, total_bytes=1024),
        SimConfig(concentration=2), placement_seed=1, backend=backend,
    )
    assert out["ownership_complete"] is True
    assert out["chunk_done_max_ns"] == out["makespan_ns"]


def _exercise_faults(parts, backend):
    topo, _, oracle = parts
    schedule = FaultSchedule.random_link_faults(
        topo.graph, 0.05, t_fail=2000.0, seed=1, t_recover=9000.0
    )
    net = build_synthetic_sim(
        topo, "minimal", "random", 0.5, concentration=2, n_ranks=16,
        packets_per_rank=4, seed=0, faults=schedule, backend=backend,
        oracle=oracle,
    )
    stats = net.run()
    assert len(stats.epochs) == len(schedule)


def _exercise_finite_buffers(parts, backend):
    topo, _, oracle = parts
    net = build_synthetic_sim(
        topo, "minimal", "random", 0.6, concentration=2, n_ranks=16,
        packets_per_rank=4, seed=0,
        config=SimConfig(concentration=2, finite_buffers=True,
                         buffer_bytes=2 * 4096),
        backend=backend, oracle=oracle,
    )
    stats = net.run()
    # Credits must flow: everything delivers and every buffer drains.
    assert len(stats.latencies_ns) == stats.n_injected > 0
    assert net._buf_used is not None and net._buf_used.sum() == 0


def _exercise_lossy_links(parts, backend):
    from repro.sim import ChannelConfig

    topo, _, oracle = parts
    channel = ChannelConfig(loss_prob=0.15, jitter_ns=10.0, max_attempts=2,
                            backoff_ns=20.0, seed=7)
    net = build_synthetic_sim(
        topo, "minimal", "random", 0.5, concentration=2, n_ranks=16,
        packets_per_rank=4, seed=0,
        config=SimConfig(concentration=2, channel=channel),
        backend=backend, oracle=oracle,
    )
    stats = net.run()
    # The channel must actually bite: losses itemized by cause, the rest
    # delivered, nothing silently vanishing.
    assert stats.n_retransmits > 0
    assert stats.drops.get(channel.drop_cause, 0) == stats.n_dropped
    assert len(stats.latencies_ns) + stats.n_dropped == stats.n_injected


def _add_source(net):
    """One tiny open-loop source (works on both engines)."""
    from repro.sim.traffic import OpenLoopSource, make_traffic

    import numpy as np

    r2e = np.arange(4, dtype=np.int64)
    net.add_open_loop_source(
        OpenLoopSource(0, 0, make_traffic("neighbor", 4), r2e, 0.5, 2,
                       seed=3)
    )


def _exercise_pause_resume(parts, backend):
    net = _make_engine(parts, backend)
    _add_source(net)
    net.run(until=1.0)
    # The pause must actually pause: nothing can have delivered by t=1ns.
    assert not net.stats.latencies_ns
    net.run()
    assert net.stats.latencies_ns


def _exercise_delivery_callbacks(parts, backend):
    net = _make_engine(parts, backend)
    seen = []
    net.on_delivery = lambda pkt, t: seen.append(t)
    _add_source(net)
    net.run()
    # The callback must actually fire, once per delivery.
    assert len(seen) == len(net.stats.latencies_ns) > 0


def _exercise_adhoc_send(parts, backend):
    net = _make_engine(parts, backend)
    net.send(0, 5)
    stats = net.run()
    # The send must actually traverse the network and deliver.
    assert stats.n_injected == 1
    assert len(stats.latencies_ns) == 1


_EXERCISES = {
    cap.OPEN_LOOP: _exercise_open_loop,
    cap.MOTIFS: _exercise_motifs,
    cap.COLLECTIVES: _exercise_collectives,
    cap.FAULTS: _exercise_faults,
    cap.FINITE_BUFFERS: _exercise_finite_buffers,
    cap.LOSSY_LINKS: _exercise_lossy_links,
    cap.PAUSE_RESUME: _exercise_pause_resume,
    cap.DELIVERY_CALLBACKS: _exercise_delivery_callbacks,
    cap.ADHOC_SEND: _exercise_adhoc_send,
}


class TestMatrixDeclaration:
    def test_matrix_covers_exactly_the_declared_backends(self):
        assert tuple(cap.CAPABILITIES) == cap.BACKENDS

    def test_every_capability_is_a_declared_feature(self):
        for backend, feats in cap.CAPABILITIES.items():
            assert feats <= set(cap.FEATURES), backend

    def test_event_is_the_reference_and_supports_everything(self):
        assert cap.CAPABILITIES["event"] == frozenset(cap.FEATURES)

    def test_every_feature_has_an_exercise(self):
        # The functional product test below only means something if every
        # declared feature really is exercised.
        assert set(_EXERCISES) == set(cap.FEATURES)

    @pytest.mark.parametrize("feature", cap.FEATURES)
    def test_supported_backends_consistent_with_supports(self, feature):
        good = cap.supported_backends(feature)
        assert good == tuple(
            b for b in cap.BACKENDS if cap.supports(b, feature)
        )
        # Someone must support every feature (the event engine at least).
        assert "event" in good

    def test_unknown_backend_is_rejected_everywhere(self, parts):
        def build(backend):
            return build_synthetic_sim(
                parts[0], "minimal", "random", 0.5, concentration=2,
                n_ranks=16, packets_per_rank=2, backend=backend,
            )

        with pytest.raises(BackendCapabilityError, match="unknown"):
            cap.check_backend("threaded")
        with pytest.raises(BackendCapabilityError, match="unknown"):
            cap.require("threaded", cap.OPEN_LOOP)
        with pytest.raises(BackendCapabilityError, match="unknown"):
            build("threaded")
        # A removed engine's name is just unknown; the options name both.
        with pytest.raises(BackendCapabilityError,
                           match="unknown.*options: event, batched$"):
            build("sharded")

    def test_require_names_the_supported_backends(self):
        with pytest.raises(BackendCapabilityError) as exc:
            cap.require("batched", cap.PAUSE_RESUME)
        assert "event" in str(exc.value)
        assert exc.value.backend == "batched"
        assert exc.value.feature == cap.PAUSE_RESUME
        assert exc.value.supported_backends == ("event",)

    def test_canonical_error_is_both_simulation_and_parameter_error(self):
        # Existing call sites catch either; the canonical type serves both.
        from repro.errors import ParameterError

        assert issubclass(BackendCapabilityError, SimulationError)
        assert issubclass(BackendCapabilityError, ParameterError)


class TestFullProductRunsOrRaisesCanonically:
    @pytest.mark.parametrize("feature", cap.FEATURES)
    @pytest.mark.parametrize("backend", cap.BACKENDS)
    def test_pair_runs_or_raises_the_canonical_error(
        self, parts, backend, feature
    ):
        exercise = _EXERCISES[feature]
        if cap.supports(backend, feature):
            exercise(parts, backend)  # must genuinely run
        else:
            with pytest.raises(BackendCapabilityError) as exc:
                exercise(parts, backend)
            # The message tells the user which backend would work.
            assert any(
                b in str(exc.value) for b in cap.supported_backends(feature)
            )


#: Pairs the matrix lists but the batched engine refuses on oracle tables:
#: fault epochs rewrite the dense next-hop table, which an on-demand oracle
#: never builds.
_DENSE_TABLES_ONLY = {("batched", cap.FAULTS)}


class TestOracleTablesRunOrRaiseCanonically:
    @pytest.mark.parametrize("feature", cap.FEATURES)
    @pytest.mark.parametrize("backend", cap.BACKENDS)
    def test_pair_runs_or_raises_the_canonical_error(
        self, oracle_parts, backend, feature
    ):
        _, tables, _ = oracle_parts
        exercise = _EXERCISES[feature]
        if (cap.supports(backend, feature)
                and (backend, feature) not in _DENSE_TABLES_ONLY):
            exercise(oracle_parts, backend)  # must genuinely run
        else:
            with pytest.raises(BackendCapabilityError) as exc:
                exercise(oracle_parts, backend)
            # The event engine runs every feature on oracle tables, so
            # every refusal points there.
            assert exc.value.supported_backends == ("event",)
            assert "event" in str(exc.value)
        assert tables.is_lazy and tables._dist is None


class TestEveryEngineRoutesAdaptively:
    """The matrix has no routing column because no engine refuses a policy.
    This pins that premise for the two adaptive policies: a backend added
    without them fails here, and the column has to come back."""

    @pytest.mark.parametrize("policy", ["ugal", "ugal-g"])
    @pytest.mark.parametrize("backend", cap.BACKENDS)
    def test_adaptive_policy_runs(self, parts, backend, policy):
        topo, _, _ = parts
        net = build_synthetic_sim(
            topo, policy, "random", 0.5, concentration=2, n_ranks=8,
            packets_per_rank=2, seed=0, backend=backend,
        )
        assert net.routing.name == policy
        stats = net.run()
        assert len(stats.latencies_ns) == stats.n_injected > 0
