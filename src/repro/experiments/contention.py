"""Inter-job contention: testing the discrepancy-property claim.

Section II argues that because Ramanujan graphs satisfy the discrepancy
inequality — *any* two vertex subsets are bottleneck-free, not just
bisections — "systems designed around Ramanujan graph topologies will be
less susceptible to performance degradation based on job schedule and
inter-job contention" (citing Bhatele et al. [16] for DragonFly's
sensitivity).  The paper does not design an experiment for this; this
module does:

1. run job A (a permutation workload on a random subset of nodes) alone;
2. run it again while job B (another random subset, uniform-random
   traffic) hammers the network;
3. report the interference slowdown = contended / isolated completion time.

Lower slowdown = better isolation.  SpectralFly's slowdown should be at or
below DragonFly's, whose group structure is exactly the kind of bottleneck
discrepancy forbids.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, cached_tables
from repro.routing import make_routing
from repro.sim import NetworkSimulator, SimConfig, make_traffic
from repro.sim.traffic import OpenLoopSource
from repro.topology import SIM_CONFIGS
from repro.utils.rng import default_rngs


def _run_jobs_tagged(
    topo,
    concentration: int,
    job_a_ranks: int,
    job_b_ranks: int,
    with_interference: bool,
    routing: str,
    load_a: float,
    load_b: float,
    packets_per_rank: int,
    seed: int,
) -> float:
    """Job A's max packet latency, measured via a tagged delivery hook."""
    tables = cached_tables(topo)
    policy = make_routing(routing, tables, seed=seed)
    net = NetworkSimulator(topo, policy, SimConfig(concentration=concentration),
                           tables=tables)
    rng = np.random.default_rng(seed)
    eps = rng.permutation(net.n_endpoints)
    a_eps = np.sort(eps[:job_a_ranks])
    b_eps = np.sort(eps[job_a_ranks : job_a_ranks + job_b_ranks])
    a_set = {int(e) for e in a_eps}

    worst = [0.0]

    def hook(pkt, t):
        if pkt.src_ep in a_set and pkt.dst_ep in a_set:
            worst[0] = max(worst[0], t - pkt.t_created)

    net.on_delivery = hook
    # Both jobs' ranks are numbered in one seed range, A's first: no source
    # of B replays a stream of A, and A's streams do not depend on whether
    # B runs, so the isolated and contended runs inject the same job-A
    # traffic, which the slowdown ratio compares.
    base = seed * 1_000_003
    pat_a = make_traffic("shuffle", job_a_ranks)
    a_rngs = default_rngs(base + r for r in range(job_a_ranks))
    for rank, rng in enumerate(a_rngs):
        net.add_open_loop_source(
            OpenLoopSource(rank, int(a_eps[rank]), pat_a, a_eps, load_a,
                           packets_per_rank, seed=rng)
        )
    if with_interference:
        pat_b = make_traffic("random", job_b_ranks)
        b_rngs = default_rngs(base + job_a_ranks + r for r in range(job_b_ranks))
        for rank, rng in enumerate(b_rngs):
            net.add_open_loop_source(
                OpenLoopSource(rank, int(b_eps[rank]), pat_b, b_eps, load_b,
                               packets_per_rank, seed=rng)
            )
    net.run()
    return worst[0]


def run(
    scale: str = "small",
    job_fraction: float = 0.25,
    load_a: float = 0.3,
    load_b: float = 0.7,
    routing: str = "ugal",
    packets_per_rank: int = 15,
    seed: int = 0,
) -> ExperimentResult:
    """Interference slowdown per topology (job A shuffled, job B random)."""
    cfg = SIM_CONFIGS[scale]
    rows = []
    for name, spec in cfg["topologies"].items():
        topo = spec["build"]()
        n_eps = topo.n_routers * spec["concentration"]
        # Power-of-two rank counts so the bit-permutation pattern applies.
        a_ranks = 1 << int(np.log2(max(4, n_eps * job_fraction)))
        b_ranks = min(a_ranks * 2, n_eps - a_ranks)
        isolated = _run_jobs_tagged(
            topo, spec["concentration"], a_ranks, b_ranks, False,
            routing, load_a, load_b, packets_per_rank, seed,
        )
        contended = _run_jobs_tagged(
            topo, spec["concentration"], a_ranks, b_ranks, True,
            routing, load_a, load_b, packets_per_rank, seed,
        )
        rows.append(
            {
                "topology": name,
                "job_a_ranks": a_ranks,
                "job_b_ranks": b_ranks,
                "isolated_max_us": round(isolated / 1000, 2),
                "contended_max_us": round(contended / 1000, 2),
                "slowdown": round(contended / isolated, 3),
            }
        )
    return ExperimentResult(
        experiment=f"Inter-job contention (discrepancy property, {scale} scale)",
        rows=rows,
        notes="slowdown = job A max latency with job B running / alone; "
        "the discrepancy property predicts SpectralFly stays at or below "
        "the group-structured topologies",
    )


if __name__ == "__main__":
    print(run().to_text())
