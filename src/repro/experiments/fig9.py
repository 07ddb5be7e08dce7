"""Figure 9: Ember motifs under minimal routing — speedup vs DragonFly.

Halo3D-26, Sweep3D, and the balanced/unbalanced FFT motifs run on all four
topologies with minimal routing; the figure of merit is the motif makespan
relative to DragonFly.  Paper shape: SpectralFly ~1.2x on Halo3D-26,
~1.4x on Sweep3D, DragonFly slightly ahead on balanced FFT (group-structure
alignment), SpectralFly ahead again on unbalanced FFT.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    cached_sim_topo,
    cached_tables,
)
from repro.routing import make_routing
from repro.sim import SimConfig
from repro.topology import SIM_CONFIGS
from repro.workloads import FFTMotif, Halo3D26Motif, Sweep3DMotif, run_motif
from repro.workloads.halo3d import default_halo_grid


def _motifs(n_ranks: int) -> dict:
    import math

    side = int(math.isqrt(n_ranks))
    return {
        "Halo3D-26": Halo3D26Motif(default_halo_grid(n_ranks), iterations=2),
        "Sweep3D": Sweep3DMotif((side, side), sweeps=2),
        "FFT (balanced)": FFTMotif.balanced(n_ranks),
        "FFT (unbalanced)": FFTMotif.unbalanced(n_ranks),
    }


def run(
    scale: str = "small",
    routing: str = "minimal",
    seed: int = 0,
    motif_names: tuple[str, ...] | None = None,
    baseline: str = "DragonFly",
    backend: str = "event",
) -> ExperimentResult:
    """Run the Fig. 9 motif sweep at ``scale``.

    ``backend`` selects the simulation engine for every motif run:
    ``event`` (reference) or ``batched`` (the vectorized frontier runner,
    statistically equivalent — see docs/performance.md).
    """
    cfg = SIM_CONFIGS[scale]
    n_ranks = cfg["n_ranks"]
    motifs = _motifs(n_ranks)
    if motif_names is not None:
        motifs = {k: v for k, v in motifs.items() if k in motif_names}
    rows = []
    for motif_name, motif in motifs.items():
        # Generated once: the engines read the messages and never mutate them.
        messages = motif.generate()
        results = {}
        for name in cfg["topologies"]:
            topo, spec = cached_sim_topo(scale, name)
            tables = cached_tables(topo)
            policy = make_routing(routing, tables, seed=seed)
            sim_cfg = SimConfig(concentration=spec["concentration"])
            results[name] = run_motif(
                topo, policy, motif, sim_cfg, placement_seed=seed + 1,
                backend=backend, messages=messages,
            )
        base_t = results[baseline]["makespan_ns"]
        for name, res in results.items():
            rows.append(
                {
                    "motif": motif_name,
                    "topology": name,
                    "routing": routing,
                    "makespan_us": round(res["makespan_ns"] / 1000.0, 2),
                    "speedup_vs_df": round(base_t / res["makespan_ns"], 3),
                }
            )
    return ExperimentResult(
        experiment=f"Fig 9 — Ember motifs, {routing} routing ({scale} scale)",
        rows=rows,
        notes="expected shape: SpectralFly ahead on Halo3D-26/Sweep3D and "
        "unbalanced FFT; DragonFly competitive on balanced FFT",
    )


if __name__ == "__main__":
    import sys

    print(run(scale=sys.argv[1] if len(sys.argv) > 1 else "small").to_text())
