"""Dependency-driven motif execution on the network simulator.

Messages whose dependencies are all delivered become eligible and are
injected at their source rank's endpoint (after any per-message compute
delay).  The run finishes when every message has been delivered; the
returned makespan is the motif completion time — the quantity the paper's
Fig. 9/10 speedups are ratios of.

Two engines can execute the DAG, selected by ``backend`` (validated
against the capability matrix, :mod:`repro.sim.capabilities`):

* ``event`` — the reference: per-packet delivery callbacks drive the
  dependency bookkeeping one message at a time;
* ``batched`` — :meth:`repro.sim.batched.BatchedSimulator.run_closed_loop`,
  which vectorizes the same send schedule into per-cycle frontier arrays.
  Statistically equivalent, pinned by ``tests/test_sim_differential.py``.
"""

from __future__ import annotations

import numpy as np

from repro.routing.algorithms import RoutingPolicy
from repro.sim import capabilities
from repro.sim.batched import BatchedSimulator
from repro.sim.network import NetworkSimulator, SimConfig
from repro.sim.placement import place_ranks
from repro.topology.base import Topology
from repro.workloads.motif import Message, Motif


def run_motif(
    topo: Topology,
    routing: RoutingPolicy,
    motif: Motif,
    config: SimConfig,
    placement_seed: int = 0,
    placement: str = "random-nodes",
    backend: str | None = None,
    messages: list[Message] | None = None,
    collect_delivery_times: bool = False,
) -> dict:
    """Run ``motif`` on ``topo`` and return the stats summary + makespan.

    ``backend`` selects the engine (``None`` means ``"event"``, the
    reference).  ``messages`` optionally passes a pre-generated
    ``motif.generate()`` list — the benchmark harness uses it to keep
    workload generation out of the timed engine run.
    ``collect_delivery_times`` adds ``t_delivered_ns`` to the summary: the
    per-message delivery instant indexed by mid (the collective runner
    assembles per-chunk completion times from it).
    """
    backend = "event" if backend is None else backend
    capabilities.require(backend, capabilities.MOTIFS, context="run_motif")
    if messages is None:
        messages = motif.generate()
    if backend == "batched":
        return _run_batched(topo, routing, motif, messages, config,
                            placement_seed, placement,
                            collect_delivery_times)

    net = NetworkSimulator(topo, routing, config)
    rank_to_ep = place_ranks(
        motif.n_ranks, net.n_endpoints, seed=placement_seed, strategy=placement
    )

    by_id: dict[int, Message] = {m.mid: m for m in messages}
    pending_deps = {m.mid: len(m.deps) for m in messages}
    dependents: dict[int, list[int]] = {}
    for m in messages:
        for d in m.deps:
            dependents.setdefault(d, []).append(m.mid)

    def inject(m: Message, t: float) -> None:
        net.send(
            int(rank_to_ep[m.src_rank]),
            int(rank_to_ep[m.dst_rank]),
            size=m.size,
            tag=m.mid,
            t=t + m.compute_ns,
        )

    delivered_count = 0
    t_deliver = (
        np.full(len(messages), np.inf) if collect_delivery_times else None
    )

    def on_delivery(pkt, t: float) -> None:
        nonlocal delivered_count
        delivered_count += 1
        mid = pkt.tag
        if t_deliver is not None:
            t_deliver[mid] = t
        for dep_mid in dependents.get(mid, ()):
            pending_deps[dep_mid] -= 1
            if pending_deps[dep_mid] == 0:
                inject(by_id[dep_mid], t)

    net.on_delivery = on_delivery
    t0 = 0.0
    roots = [m for m in messages if not m.deps]
    for m in roots:
        inject(m, t0)
    try:
        stats = net.run()
    finally:
        # The callback reaches ``net`` through ``inject``: break the cycle.
        net.on_delivery = None
    if delivered_count != len(messages):
        raise _stall_error(delivered_count, len(messages), stats)
    out = _summarise(stats, motif, messages,
                     float(net.stats.t_last_delivery))
    if t_deliver is not None:
        out["t_delivered_ns"] = t_deliver
    return out


def _run_batched(
    topo: Topology,
    routing: RoutingPolicy,
    motif: Motif,
    messages: list[Message],
    config: SimConfig,
    placement_seed: int,
    placement: str,
    collect_delivery_times: bool = False,
) -> dict:
    """The vectorized frontier path (see ``BatchedSimulator.run_closed_loop``)."""
    net = BatchedSimulator(topo, routing, config, tables=routing.tables)
    rank_to_ep = place_ranks(
        motif.n_ranks, net.n_endpoints, seed=placement_seed, strategy=placement
    )
    stats = net.run_closed_loop(messages, np.asarray(rank_to_ep))
    if net.closed_loop_delivered != len(messages):
        raise _stall_error(net.closed_loop_delivered, len(messages), stats)
    out = _summarise(stats, motif, messages, float(stats.t_last_delivery))
    if collect_delivery_times:
        out["t_delivered_ns"] = net._t_del.copy()
    return out


def _stall_error(delivered: int, n: int, stats) -> RuntimeError:
    """Why a DAG run ended before every message was delivered.

    A dropped message never releases its dependents, so drops are named
    as the cause when there are any; otherwise the DAG must be cyclic.
    """
    if stats.n_dropped:
        causes = ", ".join(f"{k}: {v}" for k, v in sorted(stats.drops.items()))
        return RuntimeError(
            f"motif stalled: {delivered}/{n} delivered; {stats.n_dropped} "
            f"dropped messages ({causes}) stalled their dependents"
        )
    return RuntimeError(
        f"motif deadlocked: {delivered}/{n} delivered (cyclic dependencies?)"
    )


def _summarise(stats, motif: Motif, messages: list[Message],
               makespan: float) -> dict:
    out = stats.summary()
    out["motif"] = motif.name
    out["n_messages"] = len(messages)
    out["makespan_ns"] = makespan
    return out
