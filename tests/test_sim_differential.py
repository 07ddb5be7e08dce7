"""Statistical differential harness: event engine vs batched engine.

The batch-synchronous backend (``repro.sim.batched``) is *not*
event-for-event identical to the discrete-event reference.  Injections are
identical by construction — both engines take every open-loop schedule
from one ``predraw_sources`` draw (``tests/test_property_traffic.py``) —
but routing tie-break streams differ and queueing is quantized to the
cycle.  What must hold is **statistical
agreement**: over a seeded sample of topology family x routing policy x
traffic pattern x offered load configurations, the two engines' headline
metrics agree within the declared per-policy tolerances:

* ``delivered`` — exact (both engines deliver every injected packet, and
  injection counts are bit-identical);
* ``mean_hops`` — tight for minimal (same candidate distribution), looser
  for the adaptive policies whose Valiant decisions read queue state the
  batched engine approximates in whole cycles;
* ``mean_latency_ns`` — the uncongested pipeline is exact; queueing is
  quantized to the serialization cycle;
* ``throughput_gbps`` — driven by the makespan, i.e. one tail packet, so
  it carries the most sampling noise.

The tolerances are documented and justified in ``docs/performance.md``
(they sit at roughly 2x the worst deviation observed over a denser
calibration grid, and within the event engine's own seed-to-seed spread).
Loads are sampled in [0.15, 0.7]: beyond ~0.7 the paper's networks are
saturated and the makespan of these deliberately small test instances
degenerates to a single-packet tail race that neither engine claims to
pin.  Any change to either engine must keep this whole sampled space
green, not one hand-picked cell.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.common import build_synthetic_sim
from repro.routing import RoutingTables, make_routing
from repro.sim import ChannelConfig, SimConfig
from repro.sim.faults import FaultSchedule
from repro.topology import (
    SIM_CONFIGS,
    build_canonical_dragonfly,
    build_lps,
    build_paley,
    build_slimfly,
)
from repro.workloads import (
    CollectiveMotif,
    FFTMotif,
    Halo3D26Motif,
    Sweep3DMotif,
    run_collective,
    run_motif,
)
from repro.workloads.collectives import ALGORITHMS, COLLECTIVES

# The whole module runs in the dedicated CI matrix job (see ci.yml); the
# shard variable lets that job split the config list across matrix entries
# without changing what runs locally (no variable = everything).
pytestmark = pytest.mark.differential


def _shard(configs):
    """Slice a config list for the CI matrix: ``REPRO_DIFF_SHARD=i/n``."""
    spec = os.environ.get("REPRO_DIFF_SHARD")
    if not spec:
        return configs
    i, n = (int(part) for part in spec.split("/"))
    return [c for j, c in enumerate(configs) if j % n == i]

_FAMILIES = {
    "lps": lambda: build_lps(3, 5),  # 120 routers, radix 4
    "slimfly": lambda: build_slimfly(5),  # 50 routers, radix 7
    "dragonfly": lambda: build_canonical_dragonfly(6),  # 42 routers
    "paley": lambda: build_paley(29),  # 29 routers, radix 14
}
_ROUTINGS = ("minimal", "valiant", "ugal", "ugal-g")
_PATTERNS = ("random", "shuffle", "reverse", "transpose", "tornado")

#: Relative tolerance per (policy, metric); ``delivered`` is always exact.
#: Justification and calibration data: docs/performance.md.
TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.10, "mean_hops": 0.02,
                "throughput_gbps": 0.12},
    "valiant": {"mean_latency_ns": 0.12, "mean_hops": 0.10,
                "throughput_gbps": 0.18},
    "ugal": {"mean_latency_ns": 0.15, "mean_hops": 0.12,
             "throughput_gbps": 0.18},
    "ugal-g": {"mean_latency_ns": 0.12, "mean_hops": 0.08,
               "throughput_gbps": 0.15},
}

_N_SAMPLES = 28


def _sample_configs(n=_N_SAMPLES, seed=20260728):
    """Deterministically sample ``n`` event-vs-batched configurations.

    Stratified over routing x family (round-robin) so every policy and
    every topology family appears several times regardless of ``n``;
    pattern, load, seed, and concentration are drawn uniformly.
    """
    rng = np.random.default_rng(seed)
    families = sorted(_FAMILIES)
    configs = []
    for i in range(n):
        configs.append(
            {
                "family": families[i % len(families)],
                "routing": _ROUTINGS[(i // len(families)) % len(_ROUTINGS)],
                "pattern": _PATTERNS[int(rng.integers(len(_PATTERNS)))],
                "load": float(np.round(0.15 + 0.55 * rng.random(), 2)),
                "concentration": int((1, 2, 4)[int(rng.integers(3))]),
                "packets_per_rank": int(rng.integers(6, 11)),
                "seed": int(rng.integers(10_000)),
            }
        )
    return configs


def _config_id(cfg):
    return (
        f"{cfg['family']}-{cfg['routing']}-{cfg['pattern']}"
        f"-l{cfg['load']}-c{cfg['concentration']}-s{cfg['seed']}"
    )


@pytest.fixture(scope="module")
def topos():
    return {name: build() for name, build in _FAMILIES.items()}


def _run_one(topos, cfg, backend):
    topo = topos[cfg["family"]]
    n_eps = topo.n_routers * cfg["concentration"]
    # Largest power of two that fits (bit-permutation patterns need 2^b
    # ranks), capped to bound runtime.
    n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
    net = build_synthetic_sim(
        topo,
        cfg["routing"],
        cfg["pattern"],
        cfg["load"],
        concentration=cfg["concentration"],
        n_ranks=n_ranks,
        packets_per_rank=cfg["packets_per_rank"],
        seed=cfg["seed"],
        backend=backend,
    )
    return net.run()


def _assert_open_loop_agrees(ev, bt, tol, label):
    """Open-loop event-vs-batched contract: injection and delivered counts
    exact, each metric of ``tol`` within its relative tolerance."""
    assert ev.n_injected > 0, "degenerate sample: nothing ran"

    # Injection is bit-identical: both engines take one predrawn schedule.
    assert bt.n_injected == ev.n_injected
    assert bt.t_first_inject == ev.t_first_inject

    se, sb = ev.summary(), bt.summary()
    assert sb["delivered"] == se["delivered"] == ev.n_injected

    for metric, rel_tol in tol.items():
        a, b = se[metric], sb[metric]
        assert a > 0, (metric, a)
        rel = abs(b - a) / a
        assert rel <= rel_tol, (
            f"{metric}: event={a:.2f} batched={b:.2f} "
            f"rel={rel:.3f} > tol={rel_tol} in {label}"
        )


class TestDifferential:
    @pytest.mark.parametrize("cfg", _shard(_sample_configs()), ids=_config_id)
    def test_batched_matches_event_within_tolerance(self, topos, cfg):
        _assert_open_loop_agrees(
            _run_one(topos, cfg, "event"),
            _run_one(topos, cfg, "batched"),
            TOLERANCES[cfg["routing"]],
            _config_id(cfg),
        )

    def test_sampler_is_stable_and_covers_the_axes(self):
        # Same seed => same configs (a divergence must be reproducible)...
        assert _sample_configs() == _sample_configs()
        cfgs = _sample_configs()
        # ... the acceptance floor holds ...
        assert len(cfgs) >= 24
        # ... and the sample genuinely spans every family and policy.
        assert {c["family"] for c in cfgs} == set(_FAMILIES)
        assert {c["routing"] for c in cfgs} == set(_ROUTINGS)
        # Patterns cover both stochastic and deterministic kinds.
        kinds = {c["pattern"] for c in cfgs}
        assert "random" in kinds and len(kinds) >= 3

    def test_batched_is_deterministic(self, topos):
        cfg = _sample_configs()[0]
        a = _run_one(topos, cfg, "batched")
        b = _run_one(topos, cfg, "batched")
        assert a.latencies_ns == b.latencies_ns
        assert a.hops == b.hops
        assert a.t_last_delivery == b.t_last_delivery


# ---------------------------------------------------------------------------
# Closed-loop motif workloads: event DAG runner vs batched frontier runner
# ---------------------------------------------------------------------------
_MOTIF_KINDS = {
    "fft": lambda: FFTMotif((4, 4)),
    "halo3d": lambda: Halo3D26Motif((3, 3, 3), iterations=2),
    "sweep3d": lambda: Sweep3DMotif((4, 4), sweeps=2),
}

#: Relative tolerance per (policy, metric) for motif runs; ``delivered``
#: is always exact.  Justification and calibration: docs/performance.md
#: (the motif rows of the per-scenario tolerance table) — roughly 2x the
#: worst deviation over a 24-config calibration grid.
MOTIF_TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.04, "mean_hops": 0.02,
                "makespan_ns": 0.10},
    "valiant": {"mean_latency_ns": 0.10, "mean_hops": 0.12,
                "makespan_ns": 0.20},
    "ugal": {"mean_latency_ns": 0.08, "mean_hops": 0.26,
             "makespan_ns": 0.16},
    "ugal-g": {"mean_latency_ns": 0.06, "mean_hops": 0.13,
               "makespan_ns": 0.10},
}


def _motif_configs():
    """8 stratified (motif, routing, family, seed) combinations."""
    families = sorted(_FAMILIES)
    kinds = sorted(_MOTIF_KINDS)
    configs = []
    for i in range(8):
        configs.append(
            {
                "motif": kinds[i % len(kinds)],
                "routing": _ROUTINGS[i % len(_ROUTINGS)],
                "family": families[(i // len(kinds)) % len(families)],
                "seed": 11 + 3 * i,
            }
        )
    return configs


def _motif_id(cfg):
    return f"{cfg['motif']}-{cfg['routing']}-{cfg['family']}-s{cfg['seed']}"


def _motif_congestion_configs():
    """The first two motif configs again, each with one congestion feature
    on: 1-packet finite buffers, and a loss-free jittery channel (no loss,
    so the DAG drains).  Checked against the same MOTIF_TOLERANCES."""
    finite, jitter = (dict(c) for c in _motif_configs()[:2])
    finite["sim"] = {"finite_buffers": True, "buffer_bytes": 4096}
    jitter["sim"] = {"channel": ChannelConfig(
        jitter_ns=15.0, extra_latency_ns=4.0, seed=jitter["seed"]
    )}
    return [finite, jitter]


def _motif_congestion_id(cfg):
    kind = "finite" if "finite_buffers" in cfg["sim"] else "jitter"
    return f"{_motif_id(cfg)}-{kind}"


class TestMotifDifferential:
    """Motif DAGs agree across engines within the documented tolerances."""

    def _run(self, topos, cfg, backend):
        topo = topos[cfg["family"]]
        tables = RoutingTables(topo.graph)
        policy = make_routing(cfg["routing"], tables, seed=cfg["seed"])
        return run_motif(
            topo, policy, _MOTIF_KINDS[cfg["motif"]](),
            SimConfig(concentration=2, **cfg.get("sim", {})),
            placement_seed=cfg["seed"] + 1, backend=backend,
        )

    @pytest.mark.parametrize(
        "cfg",
        _shard(_motif_configs() + _motif_congestion_configs()),
        ids=lambda c: (
            _motif_congestion_id(c) if "sim" in c else _motif_id(c)
        ),
    )
    def test_batched_motif_matches_event_within_tolerance(self, topos, cfg):
        ev = self._run(topos, cfg, "event")
        bt = self._run(topos, cfg, "batched")
        # The DAG drains identically: same messages, all delivered.
        assert bt["n_messages"] == ev["n_messages"]
        assert bt["delivered"] == ev["delivered"]
        assert bt["delivered_fraction"] == ev["delivered_fraction"] == 1.0
        tol = MOTIF_TOLERANCES[cfg["routing"]]
        for metric, rel_tol in tol.items():
            a, b = ev[metric], bt[metric]
            assert a > 0, (metric, a)
            rel = abs(b - a) / a
            assert rel <= rel_tol, (
                f"{metric}: event={a:.2f} batched={b:.2f} "
                f"rel={rel:.3f} > tol={rel_tol} in {_motif_id(cfg)}"
            )

    def test_batched_motif_is_deterministic(self, topos):
        cfg = _motif_configs()[0]
        a = self._run(topos, cfg, "batched")
        b = self._run(topos, cfg, "batched")
        assert a == b

    def test_motif_sampler_covers_the_axes(self):
        cfgs = _motif_configs()
        assert len(cfgs) >= 8
        assert {c["motif"] for c in cfgs} == set(_MOTIF_KINDS)
        assert {c["routing"] for c in cfgs} == set(_ROUTINGS)
        assert len({c["family"] for c in cfgs}) >= 3


# ---------------------------------------------------------------------------
# Mid-run fault schedules: per-event faults vs batched epoch boundaries
# ---------------------------------------------------------------------------
#: Per-scenario fault tolerances (same table in docs/performance.md):
#: delivered fraction is compared absolutely (a drop is a discrete event —
#: the engines disagree by at most a few packets per failed port, the
#: documented mid-flight-kill approximation), mean latency relatively.
FAULT_TOLERANCES = {"delivered_fraction_abs": 0.04, "mean_latency_ns": 0.10}


def _fault_configs():
    """8 stratified (family, routing, fraction, recovery, seed) combos."""
    families = sorted(_FAMILIES)
    configs = []
    for i in range(8):
        configs.append(
            {
                "family": families[i % len(families)],
                "routing": _ROUTINGS[i % len(_ROUTINGS)],
                "fraction": (0.05, 0.12)[i % 2],
                "recover": i % 3 != 0,
                "load": 0.45,
                "packets_per_rank": 15,
                "seed": 5 + 7 * i,
            }
        )
    return configs


def _fault_id(cfg):
    return (
        f"{cfg['family']}-{cfg['routing']}-f{cfg['fraction']}"
        f"-{'rec' if cfg['recover'] else 'norec'}-s{cfg['seed']}"
    )


class TestFaultedDifferential:
    """Faulted open-loop runs agree across engines within tolerances."""

    def _run(self, topos, cfg, backend):
        topo = topos[cfg["family"]]
        n_eps = topo.n_routers * 2
        n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
        ppr = cfg["packets_per_rank"]
        # Derive the injection horizon from the config (not hardcoded
        # defaults), so the fault window keeps landing mid-run even if
        # SimConfig's packet size or bandwidth ever change.
        sim_cfg = SimConfig(concentration=2)
        horizon = (
            ppr * sim_cfg.packet_bytes / (cfg["load"] * sim_cfg.bytes_per_ns)
        )
        schedule = FaultSchedule.random_link_faults(
            topo.graph,
            cfg["fraction"],
            t_fail=0.25 * horizon,
            seed=cfg["seed"] * 13 + 1,
            t_recover=0.75 * horizon if cfg["recover"] else None,
        )
        net = build_synthetic_sim(
            topo, cfg["routing"], "random", cfg["load"], concentration=2,
            n_ranks=n_ranks, packets_per_rank=ppr, seed=cfg["seed"],
            faults=schedule, backend=backend,
        )
        return net.run()

    @pytest.mark.parametrize("cfg", _shard(_fault_configs()), ids=_fault_id)
    def test_batched_faults_match_event_within_tolerance(self, topos, cfg):
        ev = self._run(topos, cfg, "event")
        bt = self._run(topos, cfg, "batched")
        assert ev.n_injected == bt.n_injected > 0

        # Packet conservation on both engines: every injected packet is
        # delivered or accounted to a fault, never lost silently.
        se, sb = ev.summary(), bt.summary()
        assert se["delivered"] + ev.n_dropped == ev.n_injected
        assert sb["delivered"] + bt.n_dropped == bt.n_injected

        # Both engines apply every schedule event (epoch parity).
        assert len(bt.epochs) == len(ev.epochs)
        assert [e["label"] for e in bt.epochs] == [
            e["label"] for e in ev.epochs
        ]

        dd = abs(se["delivered_fraction"] - sb["delivered_fraction"])
        assert dd <= FAULT_TOLERANCES["delivered_fraction_abs"], (
            f"delivered_fraction: event={se['delivered_fraction']:.4f} "
            f"batched={sb['delivered_fraction']:.4f} in {_fault_id(cfg)}"
        )
        a = se["mean_latency_ns"]
        b = sb["mean_latency_ns"]
        rel = abs(b - a) / a
        assert rel <= FAULT_TOLERANCES["mean_latency_ns"], (
            f"mean_latency_ns: event={a:.1f} batched={b:.1f} "
            f"rel={rel:.3f} in {_fault_id(cfg)}"
        )

    def test_batched_faulted_is_deterministic(self, topos):
        cfg = _fault_configs()[0]
        a = self._run(topos, cfg, "batched")
        b = self._run(topos, cfg, "batched")
        assert a.latencies_ns == b.latencies_ns
        assert a.drops == b.drops
        assert a.epochs == b.epochs

    def test_fault_sampler_covers_the_axes(self):
        cfgs = _fault_configs()
        assert len(cfgs) >= 8
        assert {c["family"] for c in cfgs} == set(_FAMILIES)
        assert {c["routing"] for c in cfgs} == set(_ROUTINGS)
        assert {c["recover"] for c in cfgs} == {True, False}


# ---------------------------------------------------------------------------
# Chunk-level collectives: event DAG runner vs batched frontier runner
# ---------------------------------------------------------------------------
#: Relative tolerance per (policy, metric) for collective runs (same table
#: in docs/performance.md); ``delivered`` and the chunk-ownership end
#: state are always exact.  Calibrated at roughly 2x the worst deviation
#: over the stratified config grid below plus a denser
#: collective x algorithm x rank-count sweep on the LPS family (worst
#: observed: 10.3% makespan under valiant, 9.1% mean hops under ugal,
#: 6.1% makespan under minimal).  Makespan is a single-chain tail, so it
#: carries more noise than the per-message means; ``chunk_done_mean_ns``
#: averages per-chunk completion instants, sitting between the two.
COLLECTIVE_TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.06, "mean_hops": 0.02,
                "makespan_ns": 0.14, "chunk_done_mean_ns": 0.10},
    "valiant": {"mean_latency_ns": 0.06, "mean_hops": 0.06,
                "makespan_ns": 0.22, "chunk_done_mean_ns": 0.14},
    "ugal": {"mean_latency_ns": 0.06, "mean_hops": 0.20,
             "makespan_ns": 0.16, "chunk_done_mean_ns": 0.10},
    "ugal-g": {"mean_latency_ns": 0.05, "mean_hops": 0.06,
               "makespan_ns": 0.10, "chunk_done_mean_ns": 0.08},
}


def _collective_configs():
    """8 stratified (collective, algorithm, family, routing, p) combos.

    ``i % 3`` x ``i % 4`` walks all eight distinct (collective,
    algorithm) pairs; families, routings, and both rank counts (one a
    power of two, one not — the fold path) rotate underneath.
    """
    families = sorted(_FAMILIES)
    colls = sorted(COLLECTIVES)
    algos = sorted(ALGORITHMS)
    configs = []
    for i in range(8):
        configs.append(
            {
                "collective": colls[i % 3],
                "algorithm": algos[i % 4],
                "family": families[(i // 2) % 4],
                "routing": _ROUTINGS[i % 4],
                "p": (12, 16)[i % 2],
                "seed": 17 + 5 * i,
            }
        )
    return configs


def _collective_id(cfg):
    return (
        f"{cfg['collective']}-{cfg['algorithm']}-{cfg['family']}"
        f"-{cfg['routing']}-p{cfg['p']}-s{cfg['seed']}"
    )


class TestCollectiveDifferential:
    """Collective schedules agree across engines within tolerances."""

    def _run(self, topos, cfg, backend):
        topo = topos[cfg["family"]]
        tables = RoutingTables(topo.graph)
        policy = make_routing(cfg["routing"], tables, seed=cfg["seed"])
        return run_collective(
            topo, policy,
            CollectiveMotif(
                cfg["collective"], cfg["algorithm"], cfg["p"],
                total_bytes=1 << 13,
            ),
            SimConfig(concentration=2),
            placement_seed=cfg["seed"] + 1, backend=backend,
        )

    @pytest.mark.parametrize(
        "cfg", _shard(_collective_configs()), ids=_collective_id
    )
    def test_batched_collective_matches_event_within_tolerance(
        self, topos, cfg
    ):
        ev = self._run(topos, cfg, "event")
        bt = self._run(topos, cfg, "batched")
        # The DAG drains identically: same messages, all delivered, and
        # the chunk-ownership end state matches exactly — both engines
        # finish the *same* collective, not merely similar traffic.
        assert bt["n_messages"] == ev["n_messages"]
        assert bt["delivered"] == ev["delivered"] == ev["n_messages"]
        assert bt["final_owners"] == ev["final_owners"]
        assert bt["ownership_complete"] and ev["ownership_complete"]
        # Exact-boundary drain on both engines: the last chunk completes
        # at the makespan itself, never before, never dropped.
        for out in (ev, bt):
            assert out["chunk_done_max_ns"] == out["makespan_ns"]
        tol = COLLECTIVE_TOLERANCES[cfg["routing"]]
        for metric, rel_tol in tol.items():
            a, b = ev[metric], bt[metric]
            assert a > 0, (metric, a)
            rel = abs(b - a) / a
            assert rel <= rel_tol, (
                f"{metric}: event={a:.2f} batched={b:.2f} "
                f"rel={rel:.3f} > tol={rel_tol} in {_collective_id(cfg)}"
            )

    def test_batched_collective_is_deterministic(self, topos):
        cfg = _collective_configs()[0]
        a = self._run(topos, cfg, "batched")
        b = self._run(topos, cfg, "batched")
        assert a == b

    def test_collective_sampler_covers_the_axes(self):
        cfgs = _collective_configs()
        assert len(cfgs) >= 8
        assert {c["collective"] for c in cfgs} == set(COLLECTIVES)
        assert {c["algorithm"] for c in cfgs} == set(ALGORITHMS)
        assert {c["routing"] for c in cfgs} == set(_ROUTINGS)
        assert len({c["family"] for c in cfgs}) >= 3
        # Both the power-of-two path and the fold path are sampled.
        assert any(c["p"] & (c["p"] - 1) == 0 for c in cfgs)
        assert any(c["p"] & (c["p"] - 1) != 0 for c in cfgs)


# ---------------------------------------------------------------------------
# Congestion realism: credit/backpressure finite buffers and lossy links
# ---------------------------------------------------------------------------
#: Per-policy tolerances for finite-buffer open-loop runs (same table in
#: docs/performance.md).  Calibrated at roughly 2x the worst deviation
#: over a 12-config family x routing x buffer-size x load grid (worst
#: observed: 13.1% mean latency under minimal at one-packet buffers —
#: backpressure stalls quantize to whole cycles — 6.4% throughput under
#: valiant; minimal mean hops are exact, the policies' candidate sets are
#: untouched by buffering).
CONGESTION_TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.26, "mean_hops": 0.01,
                "throughput_gbps": 0.05},
    "valiant": {"mean_latency_ns": 0.08, "mean_hops": 0.06,
                "throughput_gbps": 0.14},
    "ugal": {"mean_latency_ns": 0.10, "mean_hops": 0.06,
             "throughput_gbps": 0.08},
}

#: Lossy-link tolerances under *minimal* routing, where the differential
#: is strongest: equal seeds give equal (packet key, hop) channel-draw
#: sequences on both engines, so drop/retransmit accounting is asserted
#: **identically**, not within a band; only the latency overlay is
#: tolerance-checked (worst observed 3.6% alone, 5.1% with finite
#: buffers stacked on top).
LOSSY_TOLERANCES = {"mean_latency_ns": 0.08, "throughput_gbps": 0.02}
LOSSY_FINITE_TOLERANCES = {"mean_latency_ns": 0.12, "throughput_gbps": 0.02}

#: Adaptive policies take different Valiant detours per engine, so their
#: per-packet (key, hop) draw sequences — and with them the exact drop
#: sets — legitimately diverge; those configs get banded checks only
#: (worst observed: 3.1% latency, identical delivered fractions).
LOSSY_ADAPTIVE_TOLERANCES = {
    "mean_latency_ns": 0.08, "delivered_fraction_abs": 0.02,
}


def _congestion_configs():
    """12 stratified finite-buffer combos: family x routing x buffer x load."""
    families = sorted(_FAMILIES)
    routings = ("minimal", "valiant", "ugal")
    configs = []
    for i in range(12):
        configs.append(
            {
                "family": families[i % 4],
                "routing": routings[i % 3],
                "buffer_packets": (1, 2, 4)[i % 3],
                "load": (0.45, 0.6)[i % 2],
                "seed": 5 + 7 * i,
            }
        )
    return configs


def _lossy_configs():
    """12 minimal-routing lossy combos (exact-accounting eligible) ...

    ... plus 4 with finite buffers stacked on top and 4 adaptive-routing
    combos; ``kind`` routes each to its check.
    """
    families = sorted(_FAMILIES)
    configs = []
    for i in range(12):
        configs.append(
            {
                "kind": "exact",
                "family": families[i % 4],
                "routing": "minimal",
                "loss_prob": (0.02, 0.08)[i % 2],
                "max_attempts": (1, 3)[(i // 2) % 2],
                "finite": False,
                "seed": 3 + 11 * i,
            }
        )
    for i in range(4):
        configs.append(
            {
                "kind": "exact",
                "family": families[i % 4],
                "routing": "minimal",
                "loss_prob": 0.04,
                "max_attempts": 2,
                "finite": True,
                "seed": 29 + 13 * i,
            }
        )
    for i in range(4):
        configs.append(
            {
                "kind": "adaptive",
                "family": families[i % 4],
                "routing": ("valiant", "ugal")[i % 2],
                "loss_prob": 0.03,
                "max_attempts": 3,
                "finite": False,
                "seed": 41 + 17 * i,
            }
        )
    return configs


def _congestion_id(cfg):
    return (
        f"{cfg['family']}-{cfg['routing']}-b{cfg['buffer_packets']}"
        f"-l{cfg['load']}-s{cfg['seed']}"
    )


def _lossy_id(cfg):
    return (
        f"{cfg['family']}-{cfg['routing']}-p{cfg['loss_prob']}"
        f"-a{cfg['max_attempts']}{'-fin' if cfg['finite'] else ''}"
        f"-s{cfg['seed']}"
    )


class TestCongestionDifferential:
    """Finite-buffer open-loop runs agree across engines within tolerances."""

    def _run(self, topos, cfg, backend):
        topo = topos[cfg["family"]]
        n_eps = topo.n_routers * 2
        n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
        sim_cfg = SimConfig(
            concentration=2,
            finite_buffers=True,
            buffer_bytes=cfg["buffer_packets"] * 4096,
        )
        net = build_synthetic_sim(
            topo, cfg["routing"], "random", cfg["load"], concentration=2,
            n_ranks=n_ranks, packets_per_rank=10, seed=cfg["seed"],
            config=sim_cfg, backend=backend,
        )
        stats = net.run()
        # Hold-until-departure invariant: a completed run leaves every
        # credit returned on both engines.
        assert net._buf_used is not None and int(net._buf_used.sum()) == 0
        return stats

    @pytest.mark.parametrize(
        "cfg", _shard(_congestion_configs()), ids=_congestion_id
    )
    def test_batched_finite_buffers_match_event_within_tolerance(
        self, topos, cfg
    ):
        ev = self._run(topos, cfg, "event")
        bt = self._run(topos, cfg, "batched")
        assert bt.n_injected == ev.n_injected > 0
        se, sb = ev.summary(), bt.summary()
        assert sb["delivered"] == se["delivered"] == ev.n_injected
        tol = CONGESTION_TOLERANCES[cfg["routing"]]
        for metric, rel_tol in tol.items():
            a, b = se[metric], sb[metric]
            assert a > 0, (metric, a)
            rel = abs(b - a) / a
            assert rel <= rel_tol, (
                f"{metric}: event={a:.2f} batched={b:.2f} "
                f"rel={rel:.3f} > tol={rel_tol} in {_congestion_id(cfg)}"
            )

    def test_batched_finite_buffers_deterministic(self, topos):
        cfg = _congestion_configs()[0]
        a = self._run(topos, cfg, "batched")
        b = self._run(topos, cfg, "batched")
        assert a.latencies_ns == b.latencies_ns
        assert a.hops == b.hops

    def test_congestion_sampler_covers_the_axes(self):
        cfgs = _congestion_configs()
        assert len(cfgs) >= 12
        assert {c["family"] for c in cfgs} == set(_FAMILIES)
        assert {c["routing"] for c in cfgs} == {"minimal", "valiant", "ugal"}
        assert {c["buffer_packets"] for c in cfgs} == {1, 2, 4}


class TestLossyDifferential:
    """Lossy links: exact cross-engine accounting where the substreams
    coincide, banded agreement where routing legitimately diverges."""

    def _run(self, topos, cfg, backend):
        topo = topos[cfg["family"]]
        n_eps = topo.n_routers * 2
        n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
        channel = ChannelConfig(
            loss_prob=cfg["loss_prob"],
            jitter_ns=15.0,
            extra_latency_ns=4.0,
            max_attempts=cfg["max_attempts"],
            backoff_ns=40.0,
            seed=cfg["seed"],
        )
        sim_cfg = SimConfig(
            concentration=2,
            finite_buffers=cfg["finite"],
            buffer_bytes=2 * 4096,
            channel=channel,
        )
        net = build_synthetic_sim(
            topo, cfg["routing"], "random", 0.5, concentration=2,
            n_ranks=n_ranks, packets_per_rank=10, seed=cfg["seed"],
            config=sim_cfg, backend=backend,
        )
        return net.run()

    @pytest.mark.parametrize("cfg", _shard(_lossy_configs()), ids=_lossy_id)
    def test_lossy_runs_agree_across_engines(self, topos, cfg):
        ev = self._run(topos, cfg, "event")
        bt = self._run(topos, cfg, "batched")
        assert bt.n_injected == ev.n_injected > 0
        se, sb = ev.summary(), bt.summary()
        # Conservation on both engines: delivered + dropped == injected.
        assert len(ev.latencies_ns) + ev.n_dropped == ev.n_injected
        assert len(bt.latencies_ns) + bt.n_dropped == bt.n_injected
        if cfg["kind"] == "exact":
            # Minimal routing: equal path lengths => identical (key, hop)
            # draw sequences => IDENTICAL drop and retransmit accounting,
            # itemized by cause — not a band, an equality.
            assert dict(bt.drops) == dict(ev.drops)
            assert bt.n_retransmits == ev.n_retransmits
            assert sb["delivered"] == se["delivered"]
            assert sorted(bt.hops) == sorted(ev.hops)
            tol = (
                LOSSY_FINITE_TOLERANCES if cfg["finite"] else LOSSY_TOLERANCES
            )
            for metric, rel_tol in tol.items():
                a, b = se[metric], sb[metric]
                assert a > 0, (metric, a)
                rel = abs(b - a) / a
                assert rel <= rel_tol, (
                    f"{metric}: event={a:.2f} batched={b:.2f} "
                    f"rel={rel:.3f} > tol={rel_tol} in {_lossy_id(cfg)}"
                )
        else:
            dd = abs(se["delivered_fraction"] - sb["delivered_fraction"])
            assert dd <= LOSSY_ADAPTIVE_TOLERANCES["delivered_fraction_abs"]
            a, b = se["mean_latency_ns"], sb["mean_latency_ns"]
            rel = abs(b - a) / a
            assert rel <= LOSSY_ADAPTIVE_TOLERANCES["mean_latency_ns"], (
                f"mean_latency_ns: event={a:.1f} batched={b:.1f} "
                f"rel={rel:.3f} in {_lossy_id(cfg)}"
            )

    def test_batched_lossy_is_deterministic(self, topos):
        cfg = _lossy_configs()[0]
        a = self._run(topos, cfg, "batched")
        b = self._run(topos, cfg, "batched")
        assert a.latencies_ns == b.latencies_ns
        assert dict(a.drops) == dict(b.drops)
        assert a.n_retransmits == b.n_retransmits

    def test_lossy_sampler_covers_the_axes(self):
        cfgs = _lossy_configs()
        assert len(cfgs) >= 16
        assert {c["family"] for c in cfgs} == set(_FAMILIES)
        # Single-attempt (bare channel-loss) and bounded-retransmit
        # regimes, bufferless and finite-buffer stacks, and both exact
        # and adaptive check kinds all appear.
        assert {c["max_attempts"] for c in cfgs} >= {1, 2, 3}
        assert {c["finite"] for c in cfgs} == {True, False}
        assert {c["kind"] for c in cfgs} == {"exact", "adaptive"}


# ---------------------------------------------------------------------------
# On-demand oracle routing vs the dense tables, on the same backend
# ---------------------------------------------------------------------------
# The oracle seam (PR 8) must be *invisible* to the simulation: for the
# same (topology, policy, backend, seed), swapping the dense distance
# matrix for a CayleyOracle / LandmarkOracle must leave every delivered
# packet's latency and hop count bit-identical — the oracles answer
# min-next-hop sets in the same order and the policies consume the same
# RNG stream either way.  12 seeded configs: each family under the
# combos that exercise both engines' oracle branches.
_ORACLE_KINDS = {
    "lps": "cayley",
    "slimfly": "cayley",
    "paley": "cayley",
    "dragonfly": "landmark",
}

_ORACLE_COMBOS = (
    ("minimal", "event"),
    ("minimal", "batched"),
    ("valiant", "batched"),
)


def _oracle_configs():
    rng = np.random.default_rng(20260807)

    def choice(opts):
        return opts[int(rng.integers(len(opts)))]

    cfgs = []
    for family in sorted(_ORACLE_KINDS):
        for routing, backend in _ORACLE_COMBOS:
            cfgs.append(
                {
                    "family": family,
                    "oracle": _ORACLE_KINDS[family],
                    "routing": routing,
                    "backend": backend,
                    "pattern": choice(_PATTERNS),
                    "load": choice((0.3, 0.5, 0.7)),
                    "concentration": 2,
                    "packets_per_rank": choice((4, 6)),
                    "seed": int(rng.integers(10_000)),
                }
            )
    return cfgs


def _oracle_id(cfg):
    return (
        f"{cfg['family']}-{cfg['oracle']}-{cfg['routing']}-{cfg['backend']}"
        f"-{cfg['pattern']}-l{cfg['load']}-s{cfg['seed']}"
    )


class TestOracleDifferential:
    def _run(self, topos, cfg, oracle):
        topo = topos[cfg["family"]]
        n_eps = topo.n_routers * cfg["concentration"]
        n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
        net = build_synthetic_sim(
            topo,
            cfg["routing"],
            cfg["pattern"],
            cfg["load"],
            concentration=cfg["concentration"],
            n_ranks=n_ranks,
            packets_per_rank=cfg["packets_per_rank"],
            seed=cfg["seed"],
            backend=cfg["backend"],
            oracle=oracle,
        )
        if oracle is not None:
            assert net.tables.is_lazy
            assert net.tables._dist is None, "oracle run densified"
        return net.run()

    @pytest.mark.parametrize("cfg", _shard(_oracle_configs()), ids=_oracle_id)
    def test_oracle_run_is_bit_identical_to_dense(self, topos, cfg):
        dense = self._run(topos, cfg, None)
        lazy = self._run(topos, cfg, cfg["oracle"])
        assert dense.n_injected > 0, "degenerate sample: nothing ran"
        assert lazy.n_injected == dense.n_injected
        assert lazy.latencies_ns == dense.latencies_ns
        assert lazy.hops == dense.hops
        assert lazy.t_last_delivery == dense.t_last_delivery

    def test_oracle_sampler_is_stable_and_covers_the_matrix(self):
        assert _oracle_configs() == _oracle_configs()
        cfgs = _oracle_configs()
        assert len(cfgs) == 12
        assert {c["family"] for c in cfgs} == set(_ORACLE_KINDS)
        assert {(c["routing"], c["backend"]) for c in cfgs} == set(
            _ORACLE_COMBOS
        )
        assert {c["oracle"] for c in cfgs} == {"cayley", "landmark"}


# ---------------------------------------------------------------------------
# Searched topologies: candidates from the design-space search on both
# engines (PR: spectral design-space search)
# ---------------------------------------------------------------------------
#: The two search moves produce the two searched fixtures: an edge-swap
#: candidate at (60, 4) and a signing-searched 2-lift of Paley(13) at
#: (26, 6).  Both are fully determined by their seeds, so the configs
#: below are as reproducible as the catalog-family ones above.
_SEARCHED_TOPOS = {
    "swap": lambda: __import__(
        "repro.topology.searched", fromlist=["swap_searched_topology"]
    ).swap_searched_topology(60, 4, budget=80, seed=9),
    "lift": lambda: __import__(
        "repro.topology.searched", fromlist=["lifted_topology"]
    ).lifted_topology(build_paley(13), seed=9, restarts=2, passes=1),
}

#: Four seeded configs covering both searched fixtures and all four
#: routing policies.
SEARCHED_CONFIGS = [
    {"topo": "swap", "routing": "minimal", "pattern": "random",
     "load": 0.4, "concentration": 2, "packets_per_rank": 8, "seed": 101},
    {"topo": "swap", "routing": "ugal", "pattern": "shuffle",
     "load": 0.5, "concentration": 2, "packets_per_rank": 7, "seed": 102},
    {"topo": "lift", "routing": "valiant", "pattern": "random",
     "load": 0.35, "concentration": 2, "packets_per_rank": 8, "seed": 103},
    {"topo": "lift", "routing": "ugal-g", "pattern": "transpose",
     "load": 0.45, "concentration": 4, "packets_per_rank": 6, "seed": 104},
]

#: Relative tolerance per (policy, metric) on searched topologies;
#: ``delivered`` is always exact.  Same calibration protocol as the other
#: scenario tables (docs/performance.md, searched-topology section):
#: roughly 2x the worst deviation observed over a 48-config calibration
#: grid (both searched fixtures x 4 policies x 6 sampled configs).  The
#: loose minimal-routing throughput bound is the tail race on the 26-router
#: lift fixture — makespan is one packet, and these instances are the
#: smallest the harness runs.
SEARCHED_TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.06, "mean_hops": 0.02,
                "throughput_gbps": 0.30},
    "valiant": {"mean_latency_ns": 0.12, "mean_hops": 0.08,
                "throughput_gbps": 0.11},
    "ugal": {"mean_latency_ns": 0.12, "mean_hops": 0.14,
             "throughput_gbps": 0.07},
    "ugal-g": {"mean_latency_ns": 0.05, "mean_hops": 0.02,
               "throughput_gbps": 0.05},
}


def _searched_id(cfg):
    return (
        f"{cfg['topo']}-{cfg['routing']}-{cfg['pattern']}"
        f"-l{cfg['load']}-c{cfg['concentration']}-s{cfg['seed']}"
    )


@pytest.fixture(scope="module")
def searched_topos():
    return {name: build() for name, build in _SEARCHED_TOPOS.items()}


class TestSearchedDifferential:
    """A searched candidate must be an ordinary topology to both engines."""

    def _run(self, searched_topos, cfg, backend):
        topo = searched_topos[cfg["topo"]]
        n_eps = topo.n_routers * cfg["concentration"]
        n_ranks = min(64, 1 << (n_eps.bit_length() - 1))
        net = build_synthetic_sim(
            topo,
            cfg["routing"],
            cfg["pattern"],
            cfg["load"],
            concentration=cfg["concentration"],
            n_ranks=n_ranks,
            packets_per_rank=cfg["packets_per_rank"],
            seed=cfg["seed"],
            backend=backend,
        )
        return net.run()

    @pytest.mark.parametrize("cfg", _shard(SEARCHED_CONFIGS),
                             ids=_searched_id)
    def test_batched_matches_event_within_tolerance(self, searched_topos, cfg):
        _assert_open_loop_agrees(
            self._run(searched_topos, cfg, "event"),
            self._run(searched_topos, cfg, "batched"),
            SEARCHED_TOLERANCES[cfg["routing"]],
            _searched_id(cfg),
        )

    def test_configs_cover_both_moves_and_all_policies(self):
        assert {c["topo"] for c in SEARCHED_CONFIGS} == {"swap", "lift"}
        assert {c["routing"] for c in SEARCHED_CONFIGS} == set(_ROUTINGS)
        assert len(SEARCHED_CONFIGS) == 4

    def test_searched_fixtures_are_reproducible(self, searched_topos):
        for name, build in _SEARCHED_TOPOS.items():
            again = build()
            assert (
                again.graph.content_hash()
                == searched_topos[name].graph.content_hash()
            )


# ---------------------------------------------------------------------------
# Paper scale: the 8,192-rank SpectralFly cell of the fig6 paper preset.
# ---------------------------------------------------------------------------
_PAPER = SIM_CONFIGS["paper"]
_PAPER_SPECTRALFLY = _PAPER["topologies"]["SpectralFly"]  # LPS(23,13)

#: The fig6 paper cell the batched engine reproduces at full machine size
#: (random traffic at load 0.7, 5 packets per rank), once per policy.
#: Everything else in this module runs at most 64 ranks.
PAPER_CONFIGS = [
    {"routing": routing, "pattern": "random", "load": 0.7,
     "packets_per_rank": 5, "seed": 3}
    for routing in _ROUTINGS
]

#: Relative tolerance per (policy, metric) at paper scale; ``delivered``
#: and ``t_first_inject`` are always exact.  Same calibration protocol as
#: the other tables (docs/performance.md, "Paper scale"): about 2x the
#: worst deviation over a 144-run grid (4 policies x 4 patterns x 3 loads
#: x seeds 0-2; the configs above use seed 3).  The two loose throughput
#: cells are permutation-pattern tail races (shuffle, tornado); on random
#: traffic every policy's throughput deviated by at most 4%.
PAPER_TOLERANCES = {
    "minimal": {"mean_latency_ns": 0.05, "mean_hops": 0.01,
                "throughput_gbps": 0.38},
    "valiant": {"mean_latency_ns": 0.05, "mean_hops": 0.01,
                "throughput_gbps": 0.12},
    "ugal": {"mean_latency_ns": 0.07, "mean_hops": 0.09,
             "throughput_gbps": 0.18},
    "ugal-g": {"mean_latency_ns": 0.05, "mean_hops": 0.01,
               "throughput_gbps": 0.38},
}


def _paper_id(cfg):
    return f"spectralfly-{cfg['routing']}-{cfg['pattern']}-l{cfg['load']}-s{cfg['seed']}"


@pytest.fixture(scope="module")
def paper_topo():
    return _PAPER_SPECTRALFLY["build"]()


class TestPaperScaleDifferential:
    """The batched engine's paper-scale results against the event engine."""

    def _run(self, topo, cfg, backend):
        net = build_synthetic_sim(
            topo,
            cfg["routing"],
            cfg["pattern"],
            cfg["load"],
            concentration=_PAPER_SPECTRALFLY["concentration"],
            n_ranks=_PAPER["n_ranks"],
            packets_per_rank=cfg["packets_per_rank"],
            seed=cfg["seed"],
            backend=backend,
        )
        return net.run()

    @pytest.mark.parametrize("cfg", _shard(PAPER_CONFIGS), ids=_paper_id)
    def test_batched_matches_event_within_tolerance(self, paper_topo, cfg):
        _assert_open_loop_agrees(
            self._run(paper_topo, cfg, "event"),
            self._run(paper_topo, cfg, "batched"),
            PAPER_TOLERANCES[cfg["routing"]],
            _paper_id(cfg),
        )

    def test_configs_cover_every_policy_at_full_size(self):
        assert [c["routing"] for c in PAPER_CONFIGS] == list(_ROUTINGS)
        assert _PAPER["n_ranks"] == 8192
        assert set(PAPER_TOLERANCES) == set(_ROUTINGS)
