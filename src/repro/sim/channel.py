"""Lossy/jittery link model shared by both simulator backends.

The paper's links are ideal: fixed latency, no loss.  Real cables and
SerDes are not, and the regimes where routing-policy rankings flip only
show up once links can stall and drop (see ``docs/congestion.md``).  This
module adds a per-link *channel* on top of the engines' base link latency:

* ``extra_latency_ns`` — deterministic per-crossing overhead (FEC,
  retimers, longer optics);
* ``jitter_ns`` — uniform per-attempt jitter in ``[0, jitter_ns)``;
* ``loss_prob`` — independent per-attempt corruption/loss probability;
* ``max_attempts``/``backoff_ns`` — bounded link-level retransmit: a lost
  attempt is retried after a linearly growing backoff until the budget is
  exhausted, at which point the packet is dropped and *counted* (cause
  ``retransmit-exhausted``; with ``max_attempts=1`` the cause is the bare
  ``channel-loss``), so lossy runs degrade gracefully instead of silently
  under-delivering.

Every random draw is a **counter-based hash** of ``(seed, packet key,
hop index, attempt, lane)`` — a pure function with no generator state —
so the event and batched engines compute bit-identical loss/jitter
outcomes regardless of their different event orderings.  That is what
makes exact cross-engine drop/retransmit accounting testable (see
``tests/test_sim_differential.py``); it follows the same substream
discipline as ``repro.utils.rng`` uses for the batched engine's
per-source streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

#: Packet keys compose the source endpoint with a per-source injection
#: index: ``key = src_ep << _KEY_SHIFT | seq``.  Both engines number a
#: source's network packets in injection-time order (the event engine via
#: a per-endpoint counter in ``send``, the batched engine by array
#: position within the source's predrawn schedule), so the key — and with
#: it every channel draw — coincides across engines.
_KEY_SHIFT = 24
_SEQ_MASK = (1 << _KEY_SHIFT) - 1

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_INV53 = float(2.0 ** -53)


def packet_key(src_ep, seq):
    """Compose the cross-engine channel key (works on ints and arrays)."""
    return (src_ep << _KEY_SHIFT) | (seq & _SEQ_MASK)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (wraps silently, no state)."""
    x = x ^ (x >> np.uint64(30))
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def _key_hash(seed: int, keys, hops) -> np.ndarray:
    """The ``(seed, key, hop)`` stage of :func:`channel_uniforms`' hash."""
    keys = np.asarray(keys, dtype=np.uint64)
    hops = np.asarray(hops, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        h = np.uint64(seed) * _GOLD
        h = _mix(h ^ (keys * _M1))
        return _mix(h ^ (hops * _M2))


def _attempt_hash(h: np.ndarray, attempt: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _mix(h ^ (np.uint64(attempt) * _GOLD))


def _lane_uniforms(h: np.ndarray, lane: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = _mix(h ^ (np.uint64(lane) + _GOLD))
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


def channel_uniforms(
    seed: int, keys: np.ndarray, hops: np.ndarray, attempt: int, lane: int
) -> np.ndarray:
    """Uniforms in [0, 1): pure counter-hash of the five coordinates.

    ``lane`` separates independent decisions at the same (key, hop,
    attempt) coordinate — lane 0 is the loss draw, lane 1 the jitter
    draw.  All inputs are consumed as uint64; arrays and scalars mix
    freely (scalars broadcast).
    """
    return _lane_uniforms(
        _attempt_hash(_key_hash(seed, keys, hops), attempt), lane
    )


@dataclass(frozen=True)
class ChannelConfig:
    """Per-link transport parameters; the all-defaults config is a no-op.

    Attach one to :class:`~repro.sim.network.SimConfig` via its
    ``channel`` field to enable the model (feature ``lossy-links`` in the
    capability matrix).  Frozen so a config can be shared between the two
    engines of a differential pair without aliasing surprises.
    """

    extra_latency_ns: float = 0.0
    jitter_ns: float = 0.0
    loss_prob: float = 0.0
    max_attempts: int = 1
    backoff_ns: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ParameterError(
                f"loss_prob must be in [0, 1], got {self.loss_prob}"
            )
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("extra_latency_ns", "jitter_ns", "backoff_ns"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be >= 0")

    @property
    def drop_cause(self) -> str:
        """Stats key for packets the channel kills (see ``SimStats.drops``)."""
        return "channel-loss" if self.max_attempts <= 1 else "retransmit-exhausted"


class ChannelModel:
    """Evaluates link crossings for a batch of packets.

    One *crossing* is a packet traversing one router-to-router link; the
    engines charge their base ``link_latency_ns`` for it and ask the
    channel for everything on top.  Injection and ejection cables are
    deliberately exempt — the channel models the switch fabric, and
    keeping NIC timing pristine keeps the analytic latency assembly of
    the batched engine aligned with the event engine.
    """

    def __init__(self, config: ChannelConfig, link_latency_ns: float) -> None:
        self.config = config
        self.link_ns = float(link_latency_ns)

    def crossings(
        self, keys: np.ndarray, hops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate one crossing per packet at the given hop indices.

        Returns ``(delivered, extra_ns, retransmits)``:

        * ``delivered`` — bool; False means every attempt was lost and the
          packet must be dropped with cause :attr:`ChannelConfig.drop_cause`;
        * ``extra_ns`` — delay on top of the engine's base link latency:
          the winning attempt's fixed overhead and jitter, plus one full
          wasted wire time and a linear backoff per failed attempt
          (meaningful only where ``delivered``);
        * ``retransmits`` — failed attempts that were actually retried
          (counted even for packets that exhaust the budget).
        """
        cfg = self.config
        # channel_uniforms, with the (seed, key, hop) stage hashed once.
        base = _key_hash(cfg.seed, keys, hops)
        n = base.shape[0]
        delivered = np.zeros(n, dtype=bool)
        extra = np.zeros(n, dtype=np.float64)
        retrans = np.zeros(n, dtype=np.int64)
        pending = np.arange(n)
        for a in range(cfg.max_attempts):
            if pending.size == 0:
                break
            h = _attempt_hash(base[pending], a)
            if cfg.loss_prob > 0.0:
                ok = _lane_uniforms(h, 0) >= cfg.loss_prob
            else:
                ok = np.ones(pending.size, dtype=bool)
            # Per-attempt wire overhead beyond the base link latency.
            w = np.full(pending.size, cfg.extra_latency_ns)
            if cfg.jitter_ns > 0.0:
                w += _lane_uniforms(h, 1) * cfg.jitter_ns
            succ = pending[ok]
            delivered[succ] = True
            extra[succ] += w[ok]
            fail = pending[~ok]
            if a + 1 < cfg.max_attempts:
                # A retried loss wastes a full crossing (base link + its
                # overhead) and then sits out a linearly growing backoff.
                retrans[fail] += 1
                extra[fail] += self.link_ns + w[~ok] + cfg.backoff_ns * (a + 1)
            pending = fail
        return delivered, extra, retrans

    def crossing(self, key: int, hop: int) -> tuple[bool, float, int]:
        """Scalar convenience for the event engine's per-packet hot path."""
        d, e, r = self.crossings(
            np.asarray([key], dtype=np.uint64), np.asarray([hop], dtype=np.uint64)
        )
        return bool(d[0]), float(e[0]), int(r[0])
