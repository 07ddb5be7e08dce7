"""Synthetic traffic patterns (Section VI-C1).

Each pattern maps a source *rank* to a destination rank by permuting the bit
representation of the source, exactly as the paper describes:

* ``random`` — uniform random destination per packet (irregular/graph apps);
* ``shuffle`` — rotate left by 1 bit (FFT, sorting);
* ``reverse`` — reverse the bits (FFT butterflies);
* ``transpose`` — swap the high and low halves (matrix transpose);
* ``complement`` — flip all bits (worst-case bisection stress, extra).

Open-loop injection draws Poisson interarrivals at ``offered_load`` fraction
of the endpoint link bandwidth, the paper's congestion knob.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np

from repro.errors import ParameterError
from repro.sim.network import _INJECT
from repro.utils.rng import as_rng


def _require_pow2(n_ranks: int) -> int:
    b = n_ranks.bit_length() - 1
    if 1 << b != n_ranks:
        raise ParameterError(f"bit-permutation patterns need 2^b ranks, got {n_ranks}")
    return b


class TrafficPattern:
    """Base: rank-to-rank destination map.

    ``stochastic`` tells :func:`predraw_sources` whether
    :meth:`destination` consumes randomness per packet.  It defaults to
    True — the safe assumption for subclasses, which then get one
    ``destination`` call per packet.  Patterns declaring
    ``stochastic = False`` get their single fixed destination resolved once
    per source; stochastic patterns may additionally override
    :meth:`destinations_from_u` to map pre-drawn uniforms in bulk instead
    of paying one generator call per packet (see ``docs/performance.md``).
    """

    name = "abstract"
    stochastic = True

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks

    def destination(self, src: int, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def destinations_from_u(self, src: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Destinations of the ranks ``src``, given one pre-drawn uniform in
        [0, 1) per packet (equal-length arrays).

        Optional fast path: a stochastic pattern overriding this must map
        each uniform exactly as :meth:`destination` maps a generator whose
        bounded draw realises it.
        """
        raise NotImplementedError

    @property
    def batches_destinations(self) -> bool:
        """True when this pattern is on the bulk destination fast path: it
        is stochastic and overrides :meth:`destinations_from_u`."""
        return (
            self.stochastic
            and type(self).destinations_from_u
            is not TrafficPattern.destinations_from_u
        )


class UniformRandomTraffic(TrafficPattern):
    name = "random"
    stochastic = True

    def destination(self, src: int, rng: np.random.Generator) -> int:
        dst = int(rng.integers(self.n_ranks - 1))
        return dst if dst < src else dst + 1  # uniform over ranks != src

    def destinations_from_u(self, src: np.ndarray, u: np.ndarray) -> np.ndarray:
        dst = (u * (self.n_ranks - 1)).astype(np.int64)
        return dst + (dst >= src)  # uniform over ranks != src


class BitShuffleTraffic(TrafficPattern):
    name = "shuffle"
    stochastic = False

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        self.bits = _require_pow2(n_ranks)

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        b = self.bits
        return ((src << 1) | (src >> (b - 1))) & (self.n_ranks - 1)


class BitReverseTraffic(TrafficPattern):
    name = "reverse"
    stochastic = False

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        self.bits = _require_pow2(n_ranks)
        self._table = np.array(
            [int(format(i, f"0{self.bits}b")[::-1], 2) for i in range(n_ranks)],
            dtype=np.int64,
        )

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        return int(self._table[src])


class TransposeTraffic(TrafficPattern):
    name = "transpose"
    stochastic = False

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        self.bits = _require_pow2(n_ranks)

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        half = self.bits // 2
        lo = src & ((1 << half) - 1)
        hi = src >> half
        return (lo << (self.bits - half)) | hi


class BitComplementTraffic(TrafficPattern):
    name = "complement"
    stochastic = False

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        _require_pow2(n_ranks)

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        return ~src & (self.n_ranks - 1)


class TornadoTraffic(TrafficPattern):
    """dst = (src + ceil(N/2) - 1) mod N — the classic adversarial pattern
    for minimal routing on rings/tori; on expanders it is just another
    permutation, which is part of the SpectralFly story."""

    name = "tornado"
    stochastic = False

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        return (src + (self.n_ranks + 1) // 2 - 1) % self.n_ranks


class NearestNeighborTraffic(TrafficPattern):
    """dst = src + 1 (mod N) — the friendliest permutation; useful as the
    low-stress baseline in sweeps."""

    name = "neighbor"
    stochastic = False

    def destination(self, src: int, rng: np.random.Generator) -> int:  # noqa: ARG002
        return (src + 1) % self.n_ranks


_PATTERNS = {
    cls.name: cls
    for cls in (
        UniformRandomTraffic,
        BitShuffleTraffic,
        BitReverseTraffic,
        TransposeTraffic,
        BitComplementTraffic,
        TornadoTraffic,
        NearestNeighborTraffic,
    )
}


def make_traffic(name: str, n_ranks: int) -> TrafficPattern:
    """Factory over the pattern names above."""
    try:
        return _PATTERNS[name](n_ranks)
    except KeyError:
        raise ParameterError(f"unknown pattern {name!r}; options {list(_PATTERNS)}")


class OpenLoopSource:
    """Poisson open-loop injector for one rank.

    Fires ``packets_per_rank`` packets with exponential interarrivals whose
    mean realises ``offered_load`` (fraction of endpoint link bandwidth).
    The schedule is drawn by :func:`predraw_sources`, the one draw both
    engines share; on the event engine the source only replays its rows.
    """

    def __init__(
        self,
        rank: int,
        endpoint: int,
        pattern: TrafficPattern,
        rank_to_endpoint: np.ndarray,
        offered_load: float,
        packets_per_rank: int,
        seed: int,
    ) -> None:
        if not 0.0 < offered_load <= 1.0:
            raise ParameterError("offered_load must be in (0, 1]")
        self.rank = rank
        self.endpoint = endpoint
        self.pattern = pattern
        self.rank_to_endpoint = rank_to_endpoint
        self.offered_load = offered_load
        self.packets = packets_per_rank
        self.rng = as_rng(seed)

    def predraw(self, config) -> tuple[np.ndarray, np.ndarray]:
        """Draw this source's whole injection schedule up front.

        Returns ``(t_inject, dst_ep)`` for every packet this source will
        ever fire: the one-source call of :func:`predraw_sources`, whose
        contract it shares.  It consumes the source's generator, so a
        source is drawn once: by this call or by the engine it is added to.
        """
        t, dst_ep, _ = predraw_sources([self], config)
        return t, dst_ep

    def start(self, net, times: list[float], dsts: list[int]) -> None:
        """Replay this source's predrawn rows on the event engine: queue
        the first injection (none for a source without packets)."""
        self._times = times
        self._dsts = dsts
        self._next = 0
        if times:
            net.schedule_inject(times[0], self)

    def fire(self, net, t: float) -> None:
        i = self._next
        net.send(self.endpoint, self._dsts[i], t=t)
        i += 1
        if i < len(self._times):
            self._next = i
            # Inlined net.schedule_inject (one call per packet saved).
            heappush(net._events, (self._times[i], next(net._seq),
                                   _INJECT, self))


def predraw_sources(
    sources: list[OpenLoopSource], config
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the whole injection schedule of many open-loop sources at once.

    Returns ``(t_inject, dst_ep, counts)``: absolute injection times and
    destination endpoints of every packet the sources will ever fire,
    source after source in ``sources`` order and in firing order within a
    source, which fires ``counts[i]`` of them.  Self-sends are kept; the
    caller drops them.  This is the only place a schedule is drawn: the
    event engine's first ``run()`` calls it once over all its sources
    (sources added later are refused) and hands each source its rows, and
    the batch-synchronous backend (:mod:`repro.sim.batched`) injects from
    the arrays directly, so at equal seeds both engines inject the same
    packets at the same times toward the same destinations.

    Each source's generator is drawn in a fixed order: one
    ``exponential(size=k)`` block, then one ``random(k)`` block for a
    pattern on the bulk fast path, or the pattern's ``destination()``
    calls otherwise (once for a deterministic pattern, once per packet for
    any other stochastic one).  That per-source draw is the only Python
    loop; the rest runs over all packets at once.  Destinations go through
    :meth:`TrafficPattern.destinations_from_u`.  Injection times are a
    row-wise ``np.cumsum`` of the zero-padded ``(source, packet)`` gap
    matrix; ``cumsum`` adds left to right, so each time is the sum of its
    source's gaps added one at a time (pinned against that sequential
    reference by ``tests/test_property_traffic.py``).  Consumes the
    sources' generators.
    """
    packet_bytes = config.packet_bytes
    bytes_per_ns = config.bytes_per_ns
    gaps: list[np.ndarray] = []
    us: list[np.ndarray] = []
    legacy: list[int] = []
    # Per source: its packet count, its fixed destination rank
    # (deterministic patterns), its kind — the id() of its fast-path
    # pattern, -1 deterministic, -2 per-packet destination() — and the
    # id() of its rank map.
    counts = [0] * len(sources)
    fixed = [0] * len(sources)
    kind = [-1] * len(sources)
    map_of = [0] * len(sources)
    fast: dict[int, TrafficPattern] = {}
    maps: dict[int, np.ndarray | list[int]] = {}
    for i, s in enumerate(sources):
        k = s.packets
        if k <= 0:
            continue
        counts[i] = k
        rng = s.rng
        mean_gap = packet_bytes / (s.offered_load * bytes_per_ns)
        gaps.append(rng.exponential(mean_gap, size=k))
        pattern = s.pattern
        if not pattern.stochastic:
            fixed[i] = pattern.destination(s.rank, rng)
        elif pattern.batches_destinations:
            us.append(rng.random(k))
            kind[i] = id(pattern)
            fast[id(pattern)] = pattern
        else:  # one destination() call per packet, in order
            legacy.extend(pattern.destination(s.rank, rng) for _ in range(k))
            kind[i] = -2
        map_of[i] = id(s.rank_to_endpoint)
        maps[id(s.rank_to_endpoint)] = s.rank_to_endpoint

    counts = np.array(counts, dtype=np.int64)
    n = int(counts.sum())
    if n == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), counts

    kmax = int(counts.max())
    filled = np.arange(kmax) < counts[:, None]
    gap2d = np.zeros((len(sources), kmax))
    gap2d[filled] = np.concatenate(gaps)
    t = np.cumsum(gap2d, axis=1)[filled]

    def per_packet(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=np.int64), counts)

    src_rank = per_packet([s.rank for s in sources])
    dst_rank = per_packet(fixed)
    pkt_kind = per_packet(kind)
    if fast:
        u = np.zeros(n)
        u[pkt_kind >= 0] = np.concatenate(us)
        for key, pattern in fast.items():
            sel = pkt_kind == key
            dst_rank[sel] = pattern.destinations_from_u(src_rank[sel], u[sel])
    if legacy:
        dst_rank[pkt_kind == -2] = legacy
    pkt_map = per_packet(map_of)
    dst_ep = np.empty(n, dtype=np.int64)
    for key, ep_of_rank in maps.items():
        sel = pkt_map == key
        dst_ep[sel] = np.asarray(ep_of_rank, dtype=np.int64)[dst_rank[sel]]
    return t, dst_ep, counts
