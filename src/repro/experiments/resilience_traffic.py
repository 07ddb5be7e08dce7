"""Resilience under live traffic: throughput/latency vs. failed links.

The paper's Section IV-A resilience study (and Aksoy et al.'s spectral-gap
companion) damages graphs *statically* and reports structural metrics.
This experiment family closes the gap dynamically: a fraction of links
fails **mid-simulation** while open-loop traffic is in flight, routing
degrades onto the fault-masked next-hop tables (stale distances,
non-minimal fallback, drops — see ``docs/resilience.md``), and we measure
what the structural curves of Fig. 5 imply but cannot show: delivered
fraction, latency inflation, and throughput retention per topology family
and routing policy.

Timeline of each cell: traffic injects from t=0; at 25% of the nominal
injection horizon the drawn link set fails at once; when ``recover`` is
set, every failed link comes back at 75% of the horizon, so the run ends
on a healed network and the per-epoch stats expose the degraded window.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import (
    ExperimentResult,
    build_synthetic_sim,
    cached,
)
from repro.sim import SimConfig
from repro.sim.faults import FaultSchedule
from repro.topology import SIM_CONFIGS


def _cached_topo(scale: str, family: str):
    spec = SIM_CONFIGS[scale]["topologies"][family]
    return cached(("sim-topo", scale, family), spec["build"]), spec


def _round0(x: float) -> float:
    """``round(x)`` that passes NaN through (total-loss rows carry NaN
    latency aggregates rather than omitting the keys; see SimStats)."""
    return round(x) if x == x else x


def run(
    scale: str = "small",
    families: tuple[str, ...] = ("SpectralFly", "DragonFly", "SlimFly", "BundleFly"),
    routings: tuple[str, ...] = ("minimal", "ugal"),
    fail_fractions: tuple[float, ...] = (0.0, 0.05, 0.15),
    pattern: str = "random",
    offered_load: float = 0.5,
    packets_per_rank: int = 10,
    recover: bool = True,
    seed: int = 0,
    backend: str = "event",
) -> ExperimentResult:
    """Throughput/latency vs. failed-link fraction under live traffic.

    ``fail_fractions`` of the undirected links fail at once mid-run (the
    same sampling primitive as the offline Fig. 5 study, so the damaged
    sets match at equal seeds).  ``fail_fraction = 0.0`` runs the identical
    degraded machinery on a pristine network — the in-family baseline the
    other fractions are normalised against (``max_vs_pristine`` is relative
    to the *first* listed fraction, so keep 0.0 first).  The registry
    splits cells along ``families`` × ``routings`` only, so one cell always
    holds its whole fraction sweep and the normalisation stays inside it.

    Both engines run the full sweep: the event engine applies faults
    per-event in its one event loop, the batched engine as epoch boundaries
    that rewrite its masked next-hop arrays (``backend="batched"``,
    statistically equivalent — see the faulted rows of the tolerance
    table in docs/performance.md).
    """
    cfg = SIM_CONFIGS[scale]
    n_ranks = cfg["n_ranks"]
    rows: list[dict[str, Any]] = []
    for family in families:
        topo, spec = _cached_topo(scale, family)
        for routing_name in routings:
            base_max_latency: float | None = None
            for frac in fail_fractions:
                sim_cfg = SimConfig(concentration=spec["concentration"])
                # Nominal injection horizon: packets_per_rank Poisson gaps
                # at the offered load (per source).
                horizon = (
                    packets_per_rank
                    * sim_cfg.packet_bytes
                    / (offered_load * sim_cfg.bytes_per_ns)
                )
                schedule = FaultSchedule.random_link_faults(
                    topo.graph,
                    frac,
                    t_fail=0.25 * horizon,
                    seed=seed * 7_919 + 1,
                    t_recover=0.75 * horizon if recover else None,
                )
                net = build_synthetic_sim(
                    topo,
                    routing_name,
                    pattern,
                    offered_load,
                    concentration=spec["concentration"],
                    n_ranks=n_ranks,
                    packets_per_rank=packets_per_rank,
                    seed=seed,
                    config=sim_cfg,
                    faults=schedule,
                    backend=backend,
                )
                stats = net.run()
                s = stats.summary()
                if frac == fail_fractions[0] and base_max_latency is None:
                    base_max_latency = s.get("max_latency_ns", 0.0)
                rows.append(
                    {
                        "topology": topo.name,
                        "routing": routing_name,
                        "failed": frac,
                        "delivered_frac": round(s["delivered_fraction"], 4),
                        "dropped": s["dropped"],
                        "requeued": s["requeued"],
                        "nonminimal_hops": s["nonminimal_hops"],
                        "mean_latency_ns": _round0(s.get("mean_latency_ns", 0.0)),
                        "p99_latency_ns": _round0(s.get("p99_latency_ns", 0.0)),
                        "max_vs_pristine": round(
                            s.get("max_latency_ns", 0.0) / base_max_latency, 3
                        )
                        if base_max_latency
                        else 0.0,
                        "throughput_gbps": round(s.get("throughput_gbps", 0.0), 2),
                        "fault_epochs": len(stats.epochs),
                    }
                )
    return ExperimentResult(
        experiment=(
            f"Resilience under live traffic — {pattern} pattern at load "
            f"{offered_load} ({scale} scale"
            + (", with recovery)" if recover else ")")
        ),
        rows=rows,
        notes="expected shape: delivered fraction degrades gracefully with "
        "failed links on the expander families (SpectralFly/SlimFly/"
        "BundleFly) and faster on DragonFly, whose minimal paths concentrate "
        "on few global links; UGAL recovers more of the lost throughput "
        "than minimal because Valiant detours start from live queues",
    )


if __name__ == "__main__":
    print(run().to_text())
