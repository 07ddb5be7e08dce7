"""Figure 6: speedup over DragonFly under UGAL-L routing.

Four synthetic traffic patterns (random, bit shuffle, bit reverse,
transpose) swept over offered load; each topology's figure of merit is the
maximum message time, reported relative to DragonFly at the same load.
The paper's headline: SpectralFly wins everywhere.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    cached_sim_topo,
    run_synthetic_sim,
    speedup,
)
from repro.topology import SIM_CONFIGS

PATTERNS = ("random", "shuffle", "reverse", "transpose")
LOADS = (0.1, 0.2, 0.3, 0.5, 0.6, 0.7)


def run(
    scale: str = "small",
    patterns: tuple[str, ...] = PATTERNS,
    loads: tuple[float, ...] = LOADS,
    routing: str = "ugal",
    packets_per_rank: int = 20,
    seed: int = 0,
    baseline: str = "DragonFly",
    backend: str = "event",
) -> ExperimentResult:
    """Run the Fig. 6 sweep at ``scale`` ("small" default, "paper" full).

    ``backend`` selects the simulation engine (``event`` reference or the
    vectorized ``batched`` engine — see docs/performance.md).
    """
    cfg = SIM_CONFIGS[scale]
    n_ranks = cfg["n_ranks"]
    rows = []
    for pattern in patterns:
        for load in loads:
            results = {}
            for name in cfg["topologies"]:
                topo, spec = cached_sim_topo(scale, name)
                results[name] = run_synthetic_sim(
                    topo,
                    routing,
                    pattern,
                    load,
                    concentration=spec["concentration"],
                    n_ranks=n_ranks,
                    packets_per_rank=packets_per_rank,
                    seed=seed,
                    backend=backend,
                )
            base = results[baseline]
            for name, res in results.items():
                rows.append(
                    {
                        "pattern": pattern,
                        "load": load,
                        "topology": name,
                        "routing": routing,
                        "max_latency_ns": round(res["max_latency_ns"]),
                        "mean_latency_ns": round(res["mean_latency_ns"]),
                        "speedup_vs_df": round(speedup(base, res), 3),
                    }
                )
    return ExperimentResult(
        experiment=f"Fig 6 — speedup vs {baseline}-{routing.upper()} ({scale} scale)",
        rows=rows,
        notes="expected shape: SpectralFly >= 1 across patterns and loads; "
        "BundleFly generally above SlimFly except bit shuffle",
    )


if __name__ == "__main__":
    import sys

    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    print(run(scale=scale).to_text())
