"""Collectives vs topology — completion-time ranking (extension).

The procurement question the paper's motif figures approximate: which
topology family finishes the collectives that dominate modern workloads
(allreduce/allgather/reduce-scatter) fastest, and does the answer depend
on the algorithm and job size?  Each sweep cell runs one collective ×
algorithm × rank-count combination across all four families on the same
placement/routing seeds and reports the completion time, per-chunk
completion statistics, the within-cell ranking (1 = fastest), and the
speedup over the DragonFly baseline — the same figure of merit as
Fig. 9/10.

Backend-agnostic: the schedules lower to plain motif DAGs
(:mod:`repro.workloads.collectives`), so ``--set backend=batched`` runs
the whole sweep on the vectorized engine.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, cached, cached_tables
from repro.routing import make_routing
from repro.sim import SimConfig
from repro.topology import SIM_CONFIGS
from repro.workloads import CollectiveMotif, run_collective
from repro.workloads.collectives import ALGORITHMS, COLLECTIVES


def _cached_topo(scale: str, family: str):
    spec = SIM_CONFIGS[scale]["topologies"][family]
    return cached(("sim-topo", scale, family), spec["build"]), spec


def run(
    scale: str = "small",
    collectives: tuple[str, ...] = COLLECTIVES,
    algorithms: tuple[str, ...] = ALGORITHMS,
    n_nodes: tuple[int, ...] = (8, 16),
    total_bytes: int = 1 << 14,
    routing: str = "minimal",
    seed: int = 0,
    baseline: str = "DragonFly",
    backend: str = "event",
) -> ExperimentResult:
    """Sweep topology family × collective × algorithm × node count.

    ``n_nodes`` is the collective's rank count (job size); ranks place
    onto the machine with the paper's random-node under-subscription
    protocol, identically across families within a cell.
    """
    cfg = SIM_CONFIGS[scale]
    rows = []
    for coll in collectives:
        for algo in algorithms:
            for p in n_nodes:
                # One schedule for the cell: every family runs the same DAG.
                motif = CollectiveMotif(coll, algo, p, total_bytes=total_bytes)
                results = {}
                for family in cfg["topologies"]:
                    topo, spec = _cached_topo(scale, family)
                    tables = cached_tables(topo)
                    policy = make_routing(routing, tables, seed=seed)
                    results[family] = run_collective(
                        topo, policy, motif,
                        SimConfig(concentration=spec["concentration"]),
                        placement_seed=seed + 1, backend=backend,
                    )
                base_t = results[baseline]["makespan_ns"]
                order = sorted(
                    results, key=lambda f: results[f]["makespan_ns"]
                )
                for family in cfg["topologies"]:
                    res = results[family]
                    rows.append({
                        "collective": coll,
                        "algorithm": algo,
                        "n_nodes": p,
                        "topology": family,
                        "routing": routing,
                        "completion_us": round(
                            res["makespan_ns"] / 1000.0, 2),
                        "chunk_mean_us": round(
                            res["chunk_done_mean_ns"] / 1000.0, 2),
                        "chunk_p99_us": round(
                            res["chunk_done_p99_ns"] / 1000.0, 2),
                        "speedup_vs_df": round(
                            base_t / res["makespan_ns"], 3),
                        "rank": order.index(family) + 1,
                    })
    return ExperimentResult(
        experiment=(
            f"Collectives — completion-time ranking, {routing} routing "
            f"({scale} scale)"
        ),
        rows=rows,
        notes="rank 1 = fastest family within a (collective, algorithm, "
        "n_nodes) cell; speedups are vs DragonFly on identical seeds; "
        "chunk columns summarize per-chunk completion times "
        "(docs/collectives.md)",
    )


if __name__ == "__main__":
    import sys

    print(run(scale=sys.argv[1] if len(sys.argv) > 1 else "small").to_text())
