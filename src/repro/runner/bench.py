"""Tracked performance benchmarks: ``python -m repro bench``.

Simulated packets/second is the binding constraint on how many
loads x patterns x topologies x sizes the reproduction can sweep, so the
simulator's speed is a tracked artifact rather than folklore.  This module
measures

* **end-to-end cells** — the small-preset saturation driver's engine
  (:func:`repro.experiments.common.build_synthetic_sim`) across
  topology x routing x pattern cells, timing ``net.run()`` alone and
  reporting packets/s and events/s per cell;
* **micro benchmarks** — the per-hop primitives the fast path is built
  from: directed-edge-id lookup, minimal-next-hop selection, and
  single-draw vs block-drawn RNG.

Results are written to ``BENCH_sim.json``; the committed copy at the repo
root records the perf trajectory (the pre-optimization baseline is stored
in the same file under ``"baseline"``).  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Any

# Presets: which cells the end-to-end sweep runs.  ``smoke`` is sized for
# CI (seconds); ``small`` is the tracked configuration committed in
# BENCH_sim.json; ``full`` is paper scale (slow, opt-in).  Every cell runs
# once per entry in ``backends`` — the event engine rows carry the headline
# summary (comparable to the recorded baseline), the batched rows feed
# ``summary_batched`` and the batched-vs-event speedup.
#
# ``scenarios`` are the capability-gap cells added when the batched engine
# learnt motifs and fault schedules: one closed-loop motif run, one
# mid-run-faulted open-loop run, one chunk-level collective schedule
# (ring allreduce lowered to a motif DAG), one congested run (finite
# credit/backpressure buffers plus a lossy retransmitting channel), and
# one searched-topology open-loop run (an edge-swap-annealed Jellyfish —
# no algebraic structure, so it keeps the routing hot path honest on
# irregular instances; see docs/search.md), each timed per backend
# (engine run only — workload generation, topology construction, and the
# spectral search itself stay outside the timer).  Their batched-vs-event
# speedups land in ``summary_scenarios``.
BENCH_PRESETS: dict[str, dict[str, Any]] = {
    "smoke": {
        "scale": "small",
        "topologies": ("SpectralFly",),
        "cells": (("minimal", "shuffle"), ("ugal", "shuffle")),
        "load": 0.5,
        "n_ranks": 256,
        "packets_per_rank": 5,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 256},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 256,
                        "packets_per_rank": 10, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 64, "total_bytes": 1 << 15},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 256,
                          "packets_per_rank": 8, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 48, "radix": 4, "budget": 40,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 2, "n_ranks": 64,
                         "packets_per_rank": 8},
        },
        "scale_cells": (
            {"name": "LPS(5,23)-sharded2-cayley", "p": 5, "q": 23,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 4096,
             "packets_per_rank": 4, "shard_workers": 2},
        ),
    },
    "small": {
        "scale": "small",
        "topologies": None,  # all topologies of the small size class
        "cells": (
            ("minimal", "shuffle"),
            ("valiant", "shuffle"),
            ("ugal", "shuffle"),
            ("ugal", "random"),
        ),
        "load": 0.5,
        "n_ranks": 512,
        "packets_per_rank": 15,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 512},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 512,
                        "packets_per_rank": 15, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 128, "total_bytes": 1 << 16},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 512,
                          "packets_per_rank": 15, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 98, "radix": 6, "budget": 120,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 2, "n_ranks": 128,
                         "packets_per_rank": 12},
        },
        # Million-node-regime cells: SpectralFly instances far past the
        # dense-table wall (LPS(5,47) has 103,776 routers; its n x n
        # int16 distance matrix alone would be ~21.5 GB), routed through
        # the on-demand Cayley oracle on the process-sharded engine.
        "scale_cells": (
            {"name": "LPS(5,23)-sharded2-cayley", "p": 5, "q": 23,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 4096,
             "packets_per_rank": 4, "shard_workers": 2},
            {"name": "LPS(5,47)-sharded4-cayley", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 16384,
             "packets_per_rank": 4, "shard_workers": 4},
        ),
    },
    "full": {
        "scale": "paper",
        "topologies": None,
        "cells": (
            ("minimal", "shuffle"),
            ("valiant", "shuffle"),
            ("ugal", "shuffle"),
            ("ugal", "random"),
        ),
        "load": 0.5,
        "n_ranks": 8192,
        "packets_per_rank": 15,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 8192},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 8192,
                        "packets_per_rank": 15, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 1024, "total_bytes": 1 << 18},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 8192,
                          "packets_per_rank": 15, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 512, "radix": 8, "budget": 300,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 4, "n_ranks": 2048,
                         "packets_per_rank": 15},
        },
        "scale_cells": (
            {"name": "LPS(5,47)-sharded4-cayley", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 65536,
             "packets_per_rank": 8, "shard_workers": 4},
            {"name": "LPS(5,47)-sharded4-valiant", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "valiant", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 65536,
             "packets_per_rank": 8, "shard_workers": 4},
        ),
    },
}

#: Seed shared by every cell so before/after runs are comparable.
BENCH_SEED = 0


# ---------------------------------------------------------------------------
# End-to-end cells
# ---------------------------------------------------------------------------
def run_cell(
    topo,
    routing: str,
    pattern: str,
    load: float,
    concentration: int,
    n_ranks: int,
    packets_per_rank: int,
    seed: int = BENCH_SEED,
    backend: str = "event",
    faults=None,
) -> dict[str, Any]:
    """Build one synthetic-traffic sim, time ``net.run()``, summarise.

    ``faults`` optionally attaches a :class:`FaultSchedule` — the faulted
    scenario cell times the full degraded run (epoch boundaries on the
    batched engine, handler-path forwarding on the event engine).
    """
    from repro.experiments.common import build_synthetic_sim

    net = build_synthetic_sim(
        topo,
        routing,
        pattern,
        load,
        concentration=concentration,
        n_ranks=n_ranks,
        packets_per_rank=packets_per_rank,
        seed=seed,
        backend=backend,
        faults=faults,
    )
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    summary = stats.summary()
    delivered = int(summary.get("delivered", 0))
    n_events = int(getattr(stats, "n_events", 0))
    return {
        "topology": topo.name,
        "routing": routing,
        "pattern": pattern,
        "load": load,
        "backend": backend,
        "n_ranks": n_ranks,
        "packets_per_rank": packets_per_rank,
        "delivered": delivered,
        "events": n_events,
        "wall_s": round(wall, 4),
        "packets_per_s": round(delivered / wall, 1) if wall > 0 else 0.0,
        "events_per_s": round(n_events / wall, 1) if wall > 0 else 0.0,
        "mean_latency_ns": round(float(summary.get("mean_latency_ns", 0.0)), 2),
        "mean_hops": round(float(summary.get("mean_hops", 0.0)), 4),
    }


def run_end_to_end(
    preset: str,
    repeats: int = 1,
    progress=None,
    backends: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """Run every cell of ``preset`` ``repeats`` times; keep the best wall.

    Each (topology, routing, pattern) cell runs once per backend in
    ``backends`` (default: the preset's list), so the tracked file carries
    event and batched rows for the same work at the same seed.
    """
    from repro.topology import SIM_CONFIGS

    spec = BENCH_PRESETS[preset]
    cfg = SIM_CONFIGS[spec["scale"]]
    names = spec["topologies"] or tuple(cfg["topologies"])
    if backends is None:
        backends = spec.get("backends", ("event",))
    rows = []
    for name in names:
        topo_spec = cfg["topologies"][name]
        topo = topo_spec["build"]()
        for routing, pattern in spec["cells"]:
            for backend in backends:
                best: dict[str, Any] | None = None
                for _ in range(max(1, repeats)):
                    row = run_cell(
                        topo,
                        routing,
                        pattern,
                        spec["load"],
                        concentration=topo_spec["concentration"],
                        n_ranks=spec["n_ranks"],
                        packets_per_rank=spec["packets_per_rank"],
                        backend=backend,
                    )
                    if best is None or row["wall_s"] < best["wall_s"]:
                        best = row
                rows.append(best)
                if progress is not None:
                    progress(
                        f"  {best['topology']:>12} {best['routing']:>8} "
                        f"{best['pattern']:>8} {best['backend']:>8}: "
                        f"{best['packets_per_s']:>10,.0f} pkt/s "
                        f"({best['wall_s']:.2f}s)"
                    )
    return rows


# ---------------------------------------------------------------------------
# Scenario cells: motif workloads and fault schedules, per backend
# ---------------------------------------------------------------------------
def _make_motif(kind: str, n_ranks: int):
    from repro.workloads import FFTMotif, Halo3D26Motif, Sweep3DMotif
    from repro.workloads.halo3d import default_halo_grid

    if kind == "fft-balanced":
        return FFTMotif.balanced(n_ranks)
    if kind == "fft-unbalanced":
        return FFTMotif.unbalanced(n_ranks)
    if kind == "halo3d":
        return Halo3D26Motif(default_halo_grid(n_ranks), iterations=2)
    if kind == "sweep3d":
        import math

        side = int(math.isqrt(n_ranks))
        return Sweep3DMotif((side, side), sweeps=2)
    raise ValueError(f"unknown bench motif {kind!r}")


def run_motif_cell(
    topo,
    routing: str,
    motif_kind: str,
    concentration: int,
    n_ranks: int,
    seed: int = BENCH_SEED,
    backend: str = "event",
) -> dict[str, Any]:
    """Time one closed-loop motif run (workload generation untimed)."""
    from repro.experiments.common import cached_tables
    from repro.routing import make_routing
    from repro.sim import SimConfig
    from repro.workloads import run_motif

    tables = cached_tables(topo)
    policy = make_routing(routing, tables, seed=seed)
    motif = _make_motif(motif_kind, n_ranks)
    messages = motif.generate()
    cfg = SimConfig(concentration=concentration)
    t0 = time.perf_counter()
    out = run_motif(
        topo, policy, motif, cfg, placement_seed=seed + 1,
        backend=backend, messages=messages,
    )
    wall = time.perf_counter() - t0
    n = int(out["n_messages"])
    return {
        "workload": f"motif:{motif_kind}",
        "topology": topo.name,
        "routing": routing,
        "backend": backend,
        "n_ranks": n_ranks,
        "messages": n,
        "delivered": int(out["delivered"]),
        "wall_s": round(wall, 4),
        "messages_per_s": round(n / wall, 1) if wall > 0 else 0.0,
        "makespan_ns": round(float(out["makespan_ns"]), 2),
        "mean_latency_ns": round(float(out["mean_latency_ns"]), 2),
    }


def run_collective_cell(
    topo,
    routing: str,
    collective: str,
    algorithm: str,
    concentration: int,
    n_ranks: int,
    total_bytes: int,
    seed: int = BENCH_SEED,
    backend: str = "event",
) -> dict[str, Any]:
    """Time one chunk-level collective run (schedule build untimed)."""
    from repro.experiments.common import cached_tables
    from repro.routing import make_routing
    from repro.sim import SimConfig
    from repro.workloads import CollectiveMotif, run_collective

    tables = cached_tables(topo)
    policy = make_routing(routing, tables, seed=seed)
    motif = CollectiveMotif(
        collective, algorithm, n_ranks, total_bytes=total_bytes
    )
    motif.generate()  # build the schedule outside the timer
    cfg = SimConfig(concentration=concentration)
    t0 = time.perf_counter()
    out = run_collective(
        topo, policy, motif, cfg, placement_seed=seed + 1, backend=backend,
    )
    wall = time.perf_counter() - t0
    n = int(out["n_messages"])
    return {
        "workload": f"collective:{collective}-{algorithm}",
        "topology": topo.name,
        "routing": routing,
        "backend": backend,
        "n_ranks": n_ranks,
        "messages": n,
        "delivered": int(out["delivered"]),
        "wall_s": round(wall, 4),
        "messages_per_s": round(n / wall, 1) if wall > 0 else 0.0,
        "makespan_ns": round(float(out["makespan_ns"]), 2),
        "chunk_done_p99_ns": round(float(out["chunk_done_p99_ns"]), 2),
    }


def run_faulted_cell(
    topo,
    routing: str,
    pattern: str,
    load: float,
    concentration: int,
    n_ranks: int,
    packets_per_rank: int,
    fail_fraction: float,
    recover: bool = True,
    seed: int = BENCH_SEED,
    backend: str = "event",
) -> dict[str, Any]:
    """Time one open-loop run with a mid-run link-fault schedule."""
    from repro.sim import SimConfig
    from repro.sim.faults import FaultSchedule

    cfg = SimConfig(concentration=concentration)
    horizon = (
        packets_per_rank * cfg.packet_bytes / (load * cfg.bytes_per_ns)
    )
    schedule = FaultSchedule.random_link_faults(
        topo.graph,
        fail_fraction,
        t_fail=0.25 * horizon,
        seed=seed + 1,
        t_recover=0.75 * horizon if recover else None,
    )
    row = run_cell(
        topo,
        routing,
        pattern,
        load,
        concentration=concentration,
        n_ranks=n_ranks,
        packets_per_rank=packets_per_rank,
        seed=seed,
        backend=backend,
        faults=schedule,
    )
    row["workload"] = f"faulted:{fail_fraction}"
    return row


def run_congested_cell(
    topo,
    routing: str,
    pattern: str,
    load: float,
    concentration: int,
    n_ranks: int,
    packets_per_rank: int,
    buffer_packets: int,
    loss_prob: float,
    max_attempts: int = 2,
    seed: int = BENCH_SEED,
    backend: str = "event",
) -> dict[str, Any]:
    """Time one open-loop run under congestion realism.

    Finite credit/backpressure input buffers of ``buffer_packets``
    packets plus a lossy retransmitting channel — the configuration the
    saturation-congestion experiment sweeps, timed per backend so the
    batched credit loop's speedup is a tracked figure.
    """
    from repro.experiments.common import build_synthetic_sim
    from repro.sim import ChannelConfig, SimConfig

    cfg = SimConfig(
        concentration=concentration,
        finite_buffers=buffer_packets > 0,
        buffer_bytes=max(buffer_packets, 1) * 4096,
        channel=ChannelConfig(
            loss_prob=loss_prob, jitter_ns=10.0,
            max_attempts=max_attempts, backoff_ns=30.0, seed=seed,
        ) if loss_prob > 0.0 else None,
    )
    net = build_synthetic_sim(
        topo, routing, pattern, load, concentration=concentration,
        n_ranks=n_ranks, packets_per_rank=packets_per_rank, seed=seed,
        config=cfg, backend=backend,
    )
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    summary = stats.summary()
    delivered = int(summary.get("delivered", 0))
    return {
        "workload": f"congested:b{buffer_packets}-p{loss_prob}",
        "topology": topo.name,
        "routing": routing,
        "pattern": pattern,
        "load": load,
        "backend": backend,
        "n_ranks": n_ranks,
        "packets_per_rank": packets_per_rank,
        "delivered": delivered,
        "dropped": int(stats.n_dropped),
        "retransmits": int(stats.n_retransmits),
        "events": int(getattr(stats, "n_events", 0)),
        "wall_s": round(wall, 4),
        "packets_per_s": round(delivered / wall, 1) if wall > 0 else 0.0,
        "mean_latency_ns": round(
            float(summary.get("mean_latency_ns", 0.0)), 2
        ),
    }


def run_scenarios(
    preset: str,
    repeats: int = 1,
    progress=None,
    backends: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """Run the preset's scenario cells (motif, collective, faulted,
    congested, searched) per backend."""
    from repro.topology import SIM_CONFIGS

    spec = BENCH_PRESETS[preset]
    scenarios = spec.get("scenarios")
    if not scenarios:
        return []
    cfg = SIM_CONFIGS[spec["scale"]]
    if backends is None:
        backends = spec.get("backends", ("event",))
    rows: list[dict[str, Any]] = []
    for kind, sc in scenarios.items():
        if kind == "searched":
            # The spectral search runs once, outside every timer — the
            # cell measures the engines on its irregular output, not the
            # search itself.
            from repro.topology import swap_searched_topology

            topo = swap_searched_topology(
                sc["n_routers"], sc["radix"], budget=sc["budget"],
                seed=BENCH_SEED,
            )
            conc = sc["concentration"]
        else:
            topo_spec = cfg["topologies"][sc["topology"]]
            topo = topo_spec["build"]()
            conc = topo_spec["concentration"]
        for backend in backends:
            best: dict[str, Any] | None = None
            for _ in range(max(1, repeats)):
                if kind == "motif":
                    row = run_motif_cell(
                        topo, sc["routing"], sc["motif"], conc,
                        n_ranks=sc["n_ranks"], backend=backend,
                    )
                elif kind == "collective":
                    row = run_collective_cell(
                        topo, sc["routing"], sc["collective"],
                        sc["algorithm"], conc, n_ranks=sc["n_ranks"],
                        total_bytes=sc["total_bytes"], backend=backend,
                    )
                elif kind == "searched":
                    row = run_cell(
                        topo, sc["routing"], sc["pattern"], sc["load"],
                        concentration=conc, n_ranks=sc["n_ranks"],
                        packets_per_rank=sc["packets_per_rank"],
                        backend=backend,
                    )
                    row["workload"] = f"searched:b{sc['budget']}"
                elif kind == "congested":
                    row = run_congested_cell(
                        topo, sc["routing"], sc["pattern"], sc["load"],
                        concentration=conc, n_ranks=sc["n_ranks"],
                        packets_per_rank=sc["packets_per_rank"],
                        buffer_packets=sc["buffer_packets"],
                        loss_prob=sc["loss_prob"],
                        max_attempts=sc.get("max_attempts", 2),
                        backend=backend,
                    )
                else:
                    row = run_faulted_cell(
                        topo, sc["routing"], sc["pattern"], sc["load"],
                        concentration=conc, n_ranks=sc["n_ranks"],
                        packets_per_rank=sc["packets_per_rank"],
                        fail_fraction=sc["fail_fraction"],
                        recover=sc.get("recover", True),
                        backend=backend,
                    )
                if best is None or row["wall_s"] < best["wall_s"]:
                    best = row
            rows.append(best)
            if progress is not None:
                rate = best.get("messages_per_s") or best.get("packets_per_s")
                progress(
                    f"  {best['workload']:>20} {best['routing']:>8} "
                    f"{best['backend']:>8}: {rate:>10,.0f} units/s "
                    f"({best['wall_s']:.2f}s)"
                )
    return rows


# ---------------------------------------------------------------------------
# Scale cells: oracle-routed SpectralFly on the sharded engine
# ---------------------------------------------------------------------------
def run_scale_cell(sc: dict[str, Any], seed: int = BENCH_SEED) -> dict[str, Any]:
    """Time one oracle-backed open-loop cell on the sharded engine.

    These cells exist to keep the million-node path honest: an LPS
    instance past the dense-table wall is built, routed through the
    on-demand Cayley oracle (no O(n^2) distance matrix is ever
    materialised — asserted, not assumed), and run on the process-sharded
    batched engine.  The timer covers ``net.run()`` only; topology
    construction and oracle setup (one BFS ball) are reported separately
    in ``setup_wall_s``.
    """
    from repro.experiments.common import build_synthetic_sim
    from repro.sim import SimConfig
    from repro.topology import build_lps

    t0 = time.perf_counter()
    topo = build_lps(sc["p"], sc["q"])
    cfg = SimConfig(
        concentration=sc["concentration"],
        backend="sharded",
        shard_workers=sc["shard_workers"],
    )
    net = build_synthetic_sim(
        topo,
        sc["routing"],
        sc["pattern"],
        sc["load"],
        concentration=sc["concentration"],
        n_ranks=sc["n_ranks"],
        packets_per_rank=sc["packets_per_rank"],
        seed=seed,
        config=cfg,
        backend="sharded",
        oracle=sc["oracle"],
    )
    setup_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    stats = net.run()
    wall = time.perf_counter() - t0
    if net.tables._dist is not None:  # pragma: no cover - the whole point
        raise RuntimeError(
            f"scale cell {sc['name']} materialised the dense distance "
            "matrix; the oracle seam leaked"
        )
    summary = stats.summary()
    delivered = int(summary.get("delivered", 0))
    return {
        "name": sc["name"],
        "topology": topo.name,
        "routers": topo.n_routers,
        "routing": sc["routing"],
        "pattern": sc["pattern"],
        "load": sc["load"],
        "backend": "sharded",
        "shard_workers": sc["shard_workers"],
        "oracle": sc["oracle"],
        "n_ranks": sc["n_ranks"],
        "packets_per_rank": sc["packets_per_rank"],
        "delivered": delivered,
        "setup_wall_s": round(setup_wall, 4),
        "wall_s": round(wall, 4),
        "packets_per_s": round(delivered / wall, 1) if wall > 0 else 0.0,
        "mean_latency_ns": round(float(summary.get("mean_latency_ns", 0.0)), 2),
        "mean_hops": round(float(summary.get("mean_hops", 0.0)), 4),
        "dense_table_bytes_avoided": int(topo.n_routers) ** 2 * 2,
    }


def run_scale_cells(
    preset: str, repeats: int = 1, progress=None
) -> list[dict[str, Any]]:
    """Run the preset's ``scale_cells`` (best wall over ``repeats``)."""
    spec = BENCH_PRESETS[preset]
    cells = spec.get("scale_cells")
    if not cells:
        return []
    rows: list[dict[str, Any]] = []
    for sc in cells:
        best: dict[str, Any] | None = None
        for _ in range(max(1, repeats)):
            row = run_scale_cell(sc)
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        rows.append(best)
        if progress is not None:
            progress(
                f"  {best['name']:>26} ({best['routers']:,} routers): "
                f"{best['packets_per_s']:>10,.0f} pkt/s "
                f"({best['wall_s']:.2f}s)"
            )
    return rows


def summarize_scenarios(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-scenario batched-vs-event speedups (same cell, same seed)."""
    out: dict[str, Any] = {}
    by_workload: dict[str, dict[str, float]] = {}
    for r in rows:
        by_workload.setdefault(r["workload"], {})[r["backend"]] = r["wall_s"]
    for workload, walls in sorted(by_workload.items()):
        if "event" in walls and "batched" in walls and walls["batched"] > 0:
            key = workload.split(":", 1)[0] + "_speedup_vs_event"
            out[key] = round(walls["event"] / walls["batched"], 2)
    return out


def summarize(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate cells into the headline packets/s (total work / total wall)."""
    total_pkts = sum(r["delivered"] for r in rows)
    total_events = sum(r["events"] for r in rows)
    total_wall = sum(r["wall_s"] for r in rows)
    return {
        "cells": len(rows),
        "total_packets": total_pkts,
        "total_events": total_events,
        "total_wall_s": round(total_wall, 3),
        "packets_per_s": round(total_pkts / total_wall, 1) if total_wall else 0.0,
        "events_per_s": round(total_events / total_wall, 1) if total_wall else 0.0,
        "median_cell_packets_per_s": round(
            statistics.median(r["packets_per_s"] for r in rows), 1
        )
        if rows
        else 0.0,
    }


# ---------------------------------------------------------------------------
# Micro benchmarks
# ---------------------------------------------------------------------------
def _time_loop(fn, n: int) -> float:
    """Ops/second of ``fn(i)`` over ``n`` iterations."""
    t0 = time.perf_counter()
    for i in range(n):
        fn(i)
    dt = time.perf_counter() - t0
    return n / dt if dt > 0 else 0.0


def run_micro(n_ops: int = 50_000) -> dict[str, float]:
    """Per-hop primitive rates on the small SpectralFly topology."""
    import numpy as np

    from repro.routing import RoutingTables, make_routing
    from repro.topology import build_lps
    from repro.utils.rng import as_rng

    topo = build_lps(11, 7)
    g = topo.graph
    tables = RoutingTables(g)
    policy = make_routing("minimal", tables, seed=0)
    policy.bind_views()  # as a simulator would: outside the timed loops

    rng = np.random.default_rng(12345)
    n = g.n
    # Pre-draw query operands so the timed loops measure lookups only.
    us = rng.integers(0, n, size=n_ops).tolist()
    heads = np.repeat(np.arange(n), np.diff(g.indptr))
    pick = rng.integers(0, len(g.indices), size=n_ops)
    edge_u = heads[pick].tolist()
    edge_v = g.indices[pick].tolist()
    ds = rng.integers(0, n, size=n_ops).tolist()
    pairs = [(u, d) for u, d in zip(us, ds) if u != d]

    out = {
        "edge_id_lookups_per_s": _time_loop(
            lambda i: tables.directed_edge_id(edge_u[i], edge_v[i]), n_ops
        ),
        "min_next_hop_draws_per_s": _time_loop(
            lambda i: policy._random_minimal(*pairs[i % len(pairs)]), n_ops
        ),
    }

    # RNG: one generator call per value vs one refilled block per 2^13 values.
    single = as_rng(7)
    out["rng_single_draws_per_s"] = _time_loop(
        lambda i: int(single.integers(8)), n_ops
    )
    block_rng = as_rng(7)
    state = {"buf": [], "pos": 0}

    def batched(i):
        pos = state["pos"]
        buf = state["buf"]
        if pos >= len(buf):
            buf = state["buf"] = block_rng.random(8192).tolist()
            pos = 0
        state["pos"] = pos + 1
        return int(buf[pos] * 8)

    out["rng_batched_draws_per_s"] = _time_loop(batched, n_ops)
    return {k: round(v, 1) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_bench(
    preset: str = "small",
    out_path: str | Path | None = "BENCH_sim.json",
    repeats: int = 1,
    baseline: dict[str, Any] | None = None,
    micro: bool = True,
    progress=print,
    backends: tuple[str, ...] | None = None,
) -> dict[str, Any]:
    """Run the benchmark suite and (optionally) write ``BENCH_sim.json``.

    ``summary`` aggregates the *event* cells (comparable to the recorded
    baseline across PRs); when batched cells ran, ``summary_batched``
    aggregates those and carries ``speedup_vs_event`` (same cells, same
    seed, total-packets / total-wall of each engine).
    """
    import numpy as np

    if preset not in BENCH_PRESETS:
        raise ValueError(
            f"unknown bench preset {preset!r}; options {list(BENCH_PRESETS)}"
        )
    if progress is not None:
        progress(f"== repro bench — preset {preset!r}, repeats {repeats}")
    t0 = time.perf_counter()
    rows = run_end_to_end(
        preset, repeats=repeats, progress=progress, backends=backends
    )
    scenario_rows = run_scenarios(
        preset, repeats=repeats, progress=progress, backends=backends
    )
    scale_rows = run_scale_cells(preset, repeats=repeats, progress=progress)
    event_rows = [r for r in rows if r["backend"] == "event"]
    batched_rows = [r for r in rows if r["backend"] == "batched"]
    # The headline summary always says which engine(s) it aggregates:
    # event cells when any ran (comparable across PRs), otherwise whatever
    # did — a batched-only run must not masquerade as event numbers.
    summary = summarize(event_rows or rows)
    summary["backend"] = (
        "event" if event_rows
        else ",".join(sorted({r["backend"] for r in rows}))
    )
    result: dict[str, Any] = {
        "schema": 3,
        "kind": "repro-sim-perf",
        "preset": preset,
        "seed": BENCH_SEED,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cells": rows,
        "summary": summary,
    }
    if batched_rows and event_rows:
        # Only alongside event cells — a batched-only run's aggregates are
        # already the (tagged) headline summary, not worth duplicating.
        sb = summarize(batched_rows)
        if summary["packets_per_s"]:
            sb["speedup_vs_event"] = round(
                sb["packets_per_s"] / summary["packets_per_s"], 2
            )
        result["summary_batched"] = sb
    if scenario_rows:
        result["scenario_cells"] = scenario_rows
        ss = summarize_scenarios(scenario_rows)
        if ss:
            result["summary_scenarios"] = ss
    if scale_rows:
        result["scale_cells"] = scale_rows
    if micro:
        if progress is not None:
            progress("  micro benchmarks...")
        result["micro"] = run_micro()
    if baseline:
        result["baseline"] = baseline
        base = float(baseline.get("packets_per_s", 0.0))
        # The recorded baselines are event-engine measurements; comparing
        # a batched-only run against one would fake a ~5x "optimisation".
        if base > 0 and summary["backend"] == "event":
            result["summary"]["speedup_vs_baseline"] = round(
                summary["packets_per_s"] / base, 2
            )
    result["bench_wall_s"] = round(time.perf_counter() - t0, 2)
    if progress is not None:
        progress(
            f"== {summary['backend']}: {summary['total_packets']:,} "
            f"packets in {summary['total_wall_s']:.2f}s of simulation -> "
            f"{summary['packets_per_s']:,.0f} pkt/s, "
            f"{summary['events_per_s']:,.0f} events/s"
        )
        if "summary_batched" in result and event_rows:
            sb = result["summary_batched"]
            progress(
                f"== batched: {sb['total_packets']:,} packets in "
                f"{sb['total_wall_s']:.2f}s -> {sb['packets_per_s']:,.0f} "
                f"pkt/s ({sb.get('speedup_vs_event', 0):.2f}x the event "
                "engine)"
            )
        if "summary_scenarios" in result:
            ss = result["summary_scenarios"]
            progress(
                "== scenarios: "
                + ", ".join(f"{k} {v:.2f}x" for k, v in ss.items())
            )
        if "scale_cells" in result:
            progress(
                "== scale: "
                + ", ".join(
                    f"{r['name']} {r['packets_per_s']:,.0f} pkt/s"
                    for r in result["scale_cells"]
                )
            )
        if "speedup_vs_baseline" in result["summary"]:
            progress(
                f"== speedup vs recorded baseline: "
                f"{result['summary']['speedup_vs_baseline']:.2f}x"
            )
    if out_path is not None:
        path = Path(out_path)
        path.write_text(json.dumps(result, indent=2) + "\n")
        if progress is not None:
            progress(f"== wrote {path}")
    return result


# ---------------------------------------------------------------------------
# Regression check: fresh run vs the committed BENCH_sim.json
# ---------------------------------------------------------------------------
#: ``bench --check`` flags a regression when a fresh throughput figure
#: falls more than this fraction below the committed one.  25% absorbs
#: machine-to-machine and run-to-run noise while still catching a real
#: hot-path regression; being *faster* than the committed file never fails.
CHECK_TOLERANCE = 0.25


def compare_to_committed(
    committed: dict[str, Any], fresh: dict[str, Any],
    tolerance: float = CHECK_TOLERANCE,
) -> list[str]:
    """Regressions of ``fresh`` vs ``committed``; empty list == healthy.

    Compared figures: the event-engine headline packets/s, the batched
    packets/s (when both files carry batched cells), and the batched
    speedup over the event engine — the last one is machine-independent,
    so it is the strongest signal on CI hardware that differs from the
    machine that produced the committed file.
    """
    problems: list[str] = []

    def check(label: str, old: float | None, new: float | None) -> None:
        if not old or new is None:
            return
        if new < (1.0 - tolerance) * old:
            problems.append(
                f"{label}: fresh {new:,.1f} is more than "
                f"{tolerance:.0%} below committed {old:,.1f}"
            )

    old_s = committed.get("summary", {})
    new_s = fresh.get("summary", {})
    # Headline summaries are only comparable when they aggregate the same
    # engine (schema-1 files predate the tag and were event-only).
    if old_s.get("backend", "event") == new_s.get("backend", "event"):
        check(
            f"{old_s.get('backend', 'event')} packets/s",
            old_s.get("packets_per_s"),
            new_s.get("packets_per_s"),
        )
    old_b = committed.get("summary_batched", {})
    new_b = fresh.get("summary_batched", {})
    check(
        "batched packets/s",
        old_b.get("packets_per_s"),
        new_b.get("packets_per_s"),
    )
    check(
        "batched speedup vs event",
        old_b.get("speedup_vs_event"),
        new_b.get("speedup_vs_event"),
    )
    # Scenario speedups (motif + faulted cells) are same-machine ratios
    # like the headline speedup, so they transfer to CI hardware too.
    old_s = committed.get("summary_scenarios", {})
    new_s2 = fresh.get("summary_scenarios", {})
    for key in sorted(set(old_s) & set(new_s2)):
        check(f"scenario {key}", old_s.get(key), new_s2.get(key))
    # Scale cells (oracle + sharded engine past the dense-table wall) are
    # matched by name so presets can gain or drop instances without
    # breaking the check.
    old_sc = {r["name"]: r for r in committed.get("scale_cells", [])}
    new_sc = {r["name"]: r for r in fresh.get("scale_cells", [])}
    for name in sorted(set(old_sc) & set(new_sc)):
        check(
            f"scale cell {name} packets/s",
            old_sc[name].get("packets_per_s"),
            new_sc[name].get("packets_per_s"),
        )
    return problems


def run_check(
    committed_path: str | Path = "BENCH_sim.json",
    repeats: int = 1,
    tolerance: float = CHECK_TOLERANCE,
    progress=print,
) -> int:
    """``python -m repro bench --check``: 0 if healthy, 1 on regression.

    Re-runs the committed file's own preset (never overwriting the file)
    and compares with :func:`compare_to_committed`.  Wired into CI's
    non-gating perf-smoke job.
    """
    path = Path(committed_path)
    if not path.exists():
        if progress is not None:
            progress(f"bench --check: no committed file at {path}")
        return 1
    committed = json.loads(path.read_text())
    preset = committed.get("preset", "small")
    if progress is not None:
        progress(f"== bench --check vs {path} (preset {preset!r})")
    fresh = run_bench(
        preset=preset,
        out_path=None,
        repeats=repeats,
        micro=False,
        progress=progress,
    )
    problems = compare_to_committed(committed, fresh, tolerance=tolerance)
    if progress is not None:
        if problems:
            for p in problems:
                progress(f"REGRESSION {p}")
        else:
            progress(
                f"== check ok: within {tolerance:.0%} of the committed "
                "figures (or faster)"
            )
    return 1 if problems else 0
