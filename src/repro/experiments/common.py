"""Shared experiment machinery: results, metric rows, topology caching."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.graphs.metrics import average_distance, diameter, girth
from repro.partition import bisection_bandwidth
from repro.routing import RoutingTables, make_routing
from repro.sim import capabilities
from repro.sim import (
    BatchedSimulator,
    NetworkSimulator,
    SimConfig,
    make_traffic,
    place_ranks,
)
from repro.sim.traffic import OpenLoopSource
from repro.spectral import mu1
from repro.topology import SIM_CONFIGS, Topology, build_size_class
from repro.utils.rng import default_rngs
from repro.utils.tables import render_table


@dataclass
class ExperimentResult:
    """Rows + metadata for one experiment."""

    experiment: str
    rows: list[dict[str, Any]]
    notes: str = ""
    columns: list[str] | None = None

    def to_text(self) -> str:
        text = render_table(self.rows, columns=self.columns, title=self.experiment)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text


# ---------------------------------------------------------------------------
# Topology construction caching (experiments share instances heavily).
#
# Two tiers: an in-process dict (every call site), and — for deterministic
# constructions — the content-addressed disk cache shared with the runner,
# so repeated CLI invocations and parallel worker processes skip the group
# closures and graph builds entirely.
_TOPO_CACHE: dict[tuple, Any] = {}


def cached(key: tuple, builder: Callable[[], Any], disk: bool = False) -> Any:
    """Memoise expensive constructions across experiments.

    ``disk=True`` additionally persists the value in the process-wide
    :class:`~repro.utils.diskcache.DiskCache`; only pass it for builders
    that are deterministic functions of ``key``.
    """
    if key not in _TOPO_CACHE:
        if disk:
            from repro.utils.diskcache import get_default_cache

            _TOPO_CACHE[key] = get_default_cache().memoize(
                ("experiments.cached",) + key, builder
            )
        else:
            _TOPO_CACHE[key] = builder()
    return _TOPO_CACHE[key]


def cached_size_class(class_id: int) -> dict[str, Topology]:
    return cached(
        ("size-class", class_id), lambda: build_size_class(class_id), disk=True
    )


def cached_sim_topo(scale: str, family: str) -> tuple[Topology, dict]:
    """``SIM_CONFIGS[scale]``'s ``family`` topology, built once per process,
    and its spec (``build``, ``concentration``)."""
    spec = SIM_CONFIGS[scale]["topologies"][family]
    return cached(("sim-topo", scale, family), spec["build"]), spec


def cached_tables(topo: Topology, oracle: str | None = None) -> RoutingTables:
    # RoutingTables itself disk-caches its distance matrix (the expensive
    # part) keyed by the graph hash, so the in-process tier suffices here.
    # ``oracle`` selects an on-demand distance oracle instead of the dense
    # matrix ("auto"/"cayley"/"landmark"/"dense"; see repro.routing.oracles)
    # — the only way to route on topologies too large to materialise O(n^2).
    if oracle is None:
        return cached(("tables", topo.name), lambda: RoutingTables(topo.graph))

    def _build() -> RoutingTables:
        from repro.routing.oracles import oracle_for

        return RoutingTables(topo.graph, oracle=oracle_for(topo, kind=oracle))

    return cached(("tables", topo.name, oracle), _build)


# ---------------------------------------------------------------------------
def structural_row(
    topo: Topology,
    with_bisection: bool = False,
    bisection_repeats: int = 3,
    seed: int = 0,
) -> dict[str, Any]:
    """One Table I row for a topology."""
    g = topo.graph
    vt = topo.vertex_transitive
    row = {
        "topology": topo.name,
        "routers": topo.n_routers,
        "radix": topo.radix,
        "diameter": diameter(g, sample=1 if vt else None),
        "avg_distance": round(average_distance(g), 2),
        "girth": girth(g, assume_vertex_transitive=vt, sample=None if vt else 64),
        "mu1": round(mu1(g), 2),
    }
    if with_bisection:
        row["bisection"] = bisection_bandwidth(g, repeats=bisection_repeats, seed=seed)
    return row


# ---------------------------------------------------------------------------
def build_synthetic_sim(
    topo: Topology,
    routing_name: str,
    pattern_name: str,
    offered_load: float,
    concentration: int,
    n_ranks: int,
    packets_per_rank: int = 20,
    seed: int = 0,
    config: SimConfig | None = None,
    faults=None,
    backend: str | None = None,
    oracle: str | None = None,
) -> NetworkSimulator | BatchedSimulator:
    """Assemble (but do not run) one open-loop synthetic-traffic simulation.

    Split out of :func:`run_synthetic_sim` so the perf benchmarks
    (``repro.runner.bench``) can time ``net.run()`` alone, excluding
    topology construction and table building.  ``faults`` optionally
    attaches a :class:`~repro.sim.faults.FaultSchedule` (the
    ``resilience-traffic`` experiments).

    ``backend`` selects the engine: ``"event"`` (the discrete-event
    reference) or ``"batched"`` (the numpy cycle-driven engine, see
    docs/performance.md); ``None`` means ``"event"``.  The
    backend/feature contract lives in the capability matrix
    (:mod:`repro.sim.capabilities`).  ``oracle`` selects an on-demand
    routing oracle instead of the dense distance matrix (see
    :func:`cached_tables`; docs/scaling.md).
    """
    cfg = config or SimConfig(concentration=concentration)
    if config is None:
        cfg.concentration = concentration
    backend = "event" if backend is None else backend
    capabilities.require(backend, capabilities.OPEN_LOOP)
    tables = cached_tables(topo, oracle=oracle)
    routing = make_routing(routing_name, tables, seed=seed)
    if backend == "batched":
        net = BatchedSimulator(topo, routing, cfg, tables=tables, faults=faults)
    else:
        net = NetworkSimulator(topo, routing, cfg, tables=tables, faults=faults)
    rank_to_ep = place_ranks(n_ranks, net.n_endpoints, seed=seed + 1)
    pattern = make_traffic(pattern_name, n_ranks)
    rngs = default_rngs(seed * 1_000_003 + rank for rank in range(n_ranks))
    for rank, rng in enumerate(rngs):
        net.add_open_loop_source(
            OpenLoopSource(
                rank,
                int(rank_to_ep[rank]),
                pattern,
                rank_to_ep,
                offered_load,
                packets_per_rank,
                seed=rng,
            )
        )
    return net


def run_synthetic_sim(
    topo: Topology,
    routing_name: str,
    pattern_name: str,
    offered_load: float,
    concentration: int,
    n_ranks: int,
    packets_per_rank: int = 20,
    seed: int = 0,
    config: SimConfig | None = None,
    backend: str | None = None,
) -> dict[str, Any]:
    """One open-loop synthetic-traffic simulation; returns the stats summary.

    This is the engine behind Figs. 6-8: a Poisson source per rank at
    ``offered_load`` of the endpoint bandwidth, the named bit-permutation
    (or random) pattern, and the requested routing policy, on either
    simulation ``backend`` (see :func:`build_synthetic_sim`).
    """
    net = build_synthetic_sim(
        topo,
        routing_name,
        pattern_name,
        offered_load,
        concentration=concentration,
        n_ranks=n_ranks,
        packets_per_rank=packets_per_rank,
        seed=seed,
        config=config,
        backend=backend,
    )
    stats = net.run()
    out = stats.summary()
    out.update(
        topology=topo.name,
        routing=routing_name,
        pattern=pattern_name,
        offered_load=offered_load,
        backend="event" if backend is None else backend,
    )
    return out


#: The figure-of-merit the paper compares across topologies: "the maximum
#: time taken across all the messages under a particular offered load".
SPEEDUP_METRIC = "max_latency_ns"


def speedup(baseline: dict, other: dict, metric: str = SPEEDUP_METRIC) -> float:
    """Paper-style speedup: baseline time / other time (>1 = other faster)."""
    return baseline[metric] / other[metric]
