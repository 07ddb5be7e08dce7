"""Simulation statistics collection and summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimStats:
    """Per-run accumulators; summarised once the simulation drains."""

    latencies_ns: list[float] = field(default_factory=list)
    hops: list[int] = field(default_factory=list)
    bytes_delivered: int = 0
    t_first_inject: float = float("inf")
    t_last_delivery: float = 0.0
    n_injected: int = 0
    max_queue_bytes: int = 0
    valiant_choices: int = 0
    minimal_choices: int = 0
    deadlocked: bool = False
    undelivered: int = 0
    #: Events processed by ``NetworkSimulator.run`` (perf accounting only;
    #: deliberately kept out of :meth:`summary` so result tables are
    #: unchanged).
    n_events: int = 0
    # -- fault-injection accounting (see docs/resilience.md) ---------------
    #: Packets lost to faults, by cause: ``link-down`` (mid-flight on a
    #: failed link), ``router-down`` (at/into a dead router), ``ttl``
    #: (non-minimal walk exceeded the hop budget), ``unreachable`` (no live
    #: outgoing link).
    n_dropped: int = 0
    drops: dict = field(default_factory=dict)
    #: Link-level retransmissions performed by the channel model
    #: (``repro.sim.channel``): failed attempts that were retried.  A
    #: packet that exhausts ``max_attempts`` is additionally counted in
    #: :attr:`drops` under ``retransmit-exhausted`` (or ``channel-loss``
    #: when retransmit is off).
    n_retransmits: int = 0
    #: Packets pulled out of a failed port's queues and re-routed.
    n_requeued: int = 0
    #: Hops taken through the non-minimal fallback (minimal set severed).
    nonminimal_hops: int = 0
    #: Epoch snapshots appended at every applied fault event; see
    #: :meth:`mark_epoch` / :meth:`epoch_rows`.
    epochs: list = field(default_factory=list)

    # Delivery accounting (latencies_ns/hops appends, bytes_delivered,
    # t_last_delivery) is inlined in the eject branch of
    # NetworkSimulator.run's event loop.

    def record_drop(self, reason: str) -> None:
        """Count one packet lost to a fault, keyed by cause."""
        self.n_dropped += 1
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def mark_epoch(self, t: float, label: str) -> None:
        """Snapshot the cumulative counters at a fault-event boundary.

        The simulator calls this once per applied fault event; consecutive
        snapshots delimit *epochs* of constant topology, and
        :meth:`epoch_rows` differences them into per-epoch rates.
        """
        self.epochs.append(
            {
                "t": t,
                "label": label,
                "injected": self.n_injected,
                "delivered": len(self.latencies_ns),
                "dropped": self.n_dropped,
                "requeued": self.n_requeued,
                "bytes_delivered": self.bytes_delivered,
            }
        )

    def epoch_rows(self) -> list:
        """Per-epoch deltas: one row per constant-topology interval.

        Epoch ``i`` spans from snapshot ``i`` to snapshot ``i + 1`` (the
        final epoch runs to the end of the simulation).  Empty when no
        fault schedule was active.
        """
        if not self.epochs:
            return []
        end = {
            "t": self.t_last_delivery,
            "label": "end",
            "injected": self.n_injected,
            "delivered": len(self.latencies_ns),
            "dropped": self.n_dropped,
            "requeued": self.n_requeued,
            "bytes_delivered": self.bytes_delivered,
        }
        rows = []
        bounds = list(self.epochs) + [end]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            rows.append(
                {
                    "t_start": start["t"],
                    "t_end": stop["t"],
                    "label": start["label"],
                    "injected": stop["injected"] - start["injected"],
                    "delivered": stop["delivered"] - start["delivered"],
                    "dropped": stop["dropped"] - start["dropped"],
                    "requeued": stop["requeued"] - start["requeued"],
                    "bytes_delivered": stop["bytes_delivered"]
                    - start["bytes_delivered"],
                }
            )
        return rows

    def summary(self) -> dict:
        """Headline metrics: the paper's 'maximum time taken across all the
        messages' plus mean/median/p99 latency and delivered throughput."""
        lat = np.asarray(self.latencies_ns, dtype=np.float64)
        if len(lat) == 0:
            # A total-loss cell (every packet killed by faults, channel
            # loss, or retransmit exhaustion) must still produce a
            # *complete* row — every key of the delivered branch, latency
            # aggregates as NaN — plus the per-cause drop itemization, so
            # downstream drivers and tables never KeyError on it.  The
            # delivered branch below is deliberately left byte-identical
            # (the golden corpus pins motif summaries key-for-key).
            nan = float("nan")
            return {
                "deadlocked": self.deadlocked,
                "undelivered": self.undelivered,
                "delivered": 0,
                "max_latency_ns": nan,
                "mean_latency_ns": nan,
                "p50_latency_ns": nan,
                "p99_latency_ns": nan,
                "mean_hops": nan,
                "makespan_ns": nan,
                "throughput_gbps": 0.0,
                "max_queue_bytes": int(self.max_queue_bytes),
                "valiant_fraction": (
                    self.valiant_choices
                    / max(1, self.valiant_choices + self.minimal_choices)
                ),
                "dropped": self.n_dropped,
                "requeued": self.n_requeued,
                "delivered_fraction": 0.0,
                "nonminimal_hops": self.nonminimal_hops,
                "drops": dict(self.drops),
                "retransmits": self.n_retransmits,
            }
        makespan = self.t_last_delivery - self.t_first_inject
        return {
            "deadlocked": self.deadlocked,
            "undelivered": self.undelivered,
            "delivered": int(len(lat)),
            "max_latency_ns": float(lat.max()),
            "mean_latency_ns": float(lat.mean()),
            "p50_latency_ns": float(np.percentile(lat, 50)),
            "p99_latency_ns": float(np.percentile(lat, 99)),
            "mean_hops": float(np.mean(self.hops)),
            "makespan_ns": float(makespan),
            "throughput_gbps": float(
                8.0 * self.bytes_delivered / makespan if makespan > 0 else 0.0
            ),
            "max_queue_bytes": int(self.max_queue_bytes),
            "valiant_fraction": (
                self.valiant_choices
                / max(1, self.valiant_choices + self.minimal_choices)
            ),
            "dropped": self.n_dropped,
            "requeued": self.n_requeued,
            "delivered_fraction": len(lat) / max(1, self.n_injected),
            "nonminimal_hops": self.nonminimal_hops,
        }
