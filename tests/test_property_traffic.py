"""Property tests pinning the batched traffic fast path.

Two contracts keep the event and batched engines injecting *identical*
traffic at equal seeds:

1. **Rank-for-rank draw equivalence.**  For every stochastic pattern that
   opts into the batched fast path by overriding ``destination_from_u``,
   mapping one pre-drawn uniform through ``destination_from_u`` must give
   the same destination as ``destination()`` fed a generator whose bounded
   draw realises that same uniform.  (The two code paths must agree on the
   *mapping* from raw draw to destination — the skip-self adjustment, the
   range — for every ``(n_ranks, src, u)``.)
2. **Predraw equals live firing.**  ``OpenLoopSource.predraw`` must emit
   exactly the (injection time, destination endpoint) sequence that
   ``start()`` + ``fire()`` produce against a live simulator, for every
   pattern kind (deterministic, fast-path stochastic, and legacy
   stochastic subclasses without ``destination_from_u``).  The bulk
   ``predraw_sources`` must do the same for every source of a mixed
   batch at once, and its vectorized ``destinations_from_u`` must map
   uniforms exactly like the scalar form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import SimConfig
from repro.sim.traffic import (
    _PATTERNS,
    OpenLoopSource,
    TrafficPattern,
    UniformRandomTraffic,
    make_traffic,
    predraw_sources,
)

#: Every registered stochastic pattern on the batched fast path (today:
#: uniform random; the parametrisation picks up future ones by itself).
FAST_PATH_PATTERNS = [
    cls
    for cls in _PATTERNS.values()
    if cls.stochastic
    and cls.destination_from_u is not TrafficPattern.destination_from_u
]


def test_fast_path_pattern_inventory():
    # The harness below must not silently become vacuous.
    assert UniformRandomTraffic in FAST_PATH_PATTERNS


class _UniformStub:
    """A Generator stand-in whose bounded draws realise given uniforms.

    ``integers(m)`` returns ``int(u * m)`` for the next pre-drawn uniform
    ``u`` — the integer the float fast path derives from the same draw —
    so feeding ``destination()`` this stub asks: do both code paths apply
    the same mapping from raw draw to destination?
    """

    def __init__(self, us):
        self._us = list(us)
        self._i = 0

    def integers(self, m):
        u = self._us[self._i]
        self._i += 1
        return int(u * int(m))


@pytest.mark.parametrize("cls", FAST_PATH_PATTERNS, ids=lambda c: c.name)
@given(
    n_ranks=st.integers(min_value=2, max_value=4096),
    src_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    us=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1,
        max_size=32,
    ),
)
@settings(max_examples=200, deadline=None)
def test_destination_from_u_matches_destination_rank_for_rank(
    cls, n_ranks, src_frac, us
):
    pattern = cls(n_ranks)
    src = int(src_frac * n_ranks)
    stub = _UniformStub(us)
    for u in us:
        via_u = pattern.destination_from_u(src, u)
        via_rng = pattern.destination(src, stub)
        assert via_u == via_rng, (n_ranks, src, u)
        # ... and both land in range, never on the source itself.
        assert 0 <= via_u < n_ranks
        assert via_u != src


@pytest.mark.parametrize("cls", FAST_PATH_PATTERNS, ids=lambda c: c.name)
@given(
    n_ranks=st.integers(min_value=2, max_value=4096),
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        max_size=32,
    ),
)
@settings(max_examples=200, deadline=None)
def test_destinations_from_u_matches_scalar_form(cls, n_ranks, pairs):
    # The bulk predraw's array form against the event engine's per-packet
    # scalar form, element for element (including the empty batch).
    pattern = cls(n_ranks)
    src = np.array([int(f * n_ranks) for f, _ in pairs], dtype=np.int64)
    us = np.array([u for _, u in pairs], dtype=np.float64)
    bulk = pattern.destinations_from_u(src, us)
    assert bulk.dtype == np.int64
    assert bulk.tolist() == [
        pattern.destination_from_u(int(s), float(u))
        for s, u in zip(src, us)
    ]


def test_default_destinations_from_u_maps_the_scalar_form():
    class Offset(TrafficPattern):
        def destination_from_u(self, src, u):
            return (src + 1 + int(u * 3)) % self.n_ranks

    pattern = Offset(8)
    got = pattern.destinations_from_u(
        np.array([0, 7, 3]), np.array([0.0, 0.5, 0.99])
    )
    assert got.tolist() == [1, 1, 6]


@given(
    n_ranks=st.integers(min_value=2, max_value=1024),
    src_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_uniform_random_covers_every_destination(n_ranks, src_frac, u):
    # Surjectivity over the uniform: int(u * (n-1)) with the skip-self
    # shift reaches every rank except src as u sweeps [0, 1).
    pattern = UniformRandomTraffic(n_ranks)
    src = int(src_frac * n_ranks)
    dst = pattern.destination_from_u(src, u)
    assert 0 <= dst < n_ranks and dst != src
    if n_ranks <= 64:
        seen = {
            pattern.destination_from_u(src, k / (4 * n_ranks))
            for k in range(4 * n_ranks)
        }
        assert seen == set(range(n_ranks)) - {src}


# ---------------------------------------------------------------------------
# predraw == start()/fire(): the injection schedules of the two engines.
# ---------------------------------------------------------------------------
class _TwoHotspots(TrafficPattern):
    """Legacy-contract stochastic pattern (no destination_from_u)."""

    name = "two-hotspots"

    def destination(self, src, rng):  # noqa: ARG002
        return int(rng.integers(2))


class _RecordingNet:
    """Just enough of the NetworkSimulator surface to drive one source."""

    def __init__(self, config):
        self.config = config
        self.sent: list[tuple[float, int]] = []
        self._events: list = []
        self._seq = iter(range(10**9))

    def schedule_inject(self, t, source):
        self._events.append((t, source))

    def send(self, src_ep, dst_ep, size=None, tag=None, t=None):  # noqa: ARG002
        self.sent.append((t, dst_ep))

    def drive(self):
        """Fire scheduled injections in order until the source is done.

        ``start()`` goes through ``schedule_inject`` ((t, source) pairs);
        ``fire()`` pushes the simulator's flat ``(t, seq, kind, source)``
        event tuples straight onto ``_events`` — accept both shapes.
        """
        while self._events:
            self._events.sort(key=lambda ev: ev[0])
            ev = self._events.pop(0)
            ev[-1].fire(self, ev[0])


def _pattern_cases():
    return [
        ("random", lambda n: make_traffic("random", n)),  # fast path
        ("shuffle", lambda n: make_traffic("shuffle", n)),  # deterministic
        ("tornado", lambda n: make_traffic("tornado", n)),  # deterministic
        ("legacy-stochastic", lambda n: _TwoHotspots(n)),  # per-call rng
    ]


@pytest.mark.parametrize(
    "name,factory", _pattern_cases(), ids=lambda c: c if isinstance(c, str) else ""
)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_predraw_matches_live_firing(name, factory, seed):
    n_ranks = 16
    rank = 5
    k = 12
    config = SimConfig(concentration=2)
    r2e = np.arange(n_ranks, dtype=np.int64) * 3  # arbitrary placement

    def build():
        return OpenLoopSource(
            rank, int(r2e[rank]), factory(n_ranks), r2e, 0.4, k, seed=seed
        )

    t_pre, dst_pre = build().predraw(config)

    net = _RecordingNet(config)
    src = build()
    src.start(net)
    net.drive()

    assert len(net.sent) == k == len(t_pre)
    live_t = [t for t, _ in net.sent]
    live_dst = [d for _, d in net.sent]
    # Bit-identical times (same draws, same accumulation order) and
    # identical destinations, packet for packet.
    assert live_t == t_pre.tolist()
    assert live_dst == dst_pre.tolist()


def test_predraw_consumes_the_source_rng():
    # predraw replaces start(): it advances the same generator, so calling
    # it twice on one source must NOT replay the schedule (a second call
    # would silently desynchronise the engines).
    n_ranks = 8
    r2e = np.arange(n_ranks, dtype=np.int64)
    src = OpenLoopSource(
        1, 1, make_traffic("random", n_ranks), r2e, 0.4, 6, seed=42
    )
    config = SimConfig()
    t1, _ = src.predraw(config)
    t2, _ = src.predraw(config)
    assert t1.tolist() != t2.tolist()


# ---------------------------------------------------------------------------
# predraw_sources over a mixed batch == every source fired live, one by one.
# ---------------------------------------------------------------------------
_MIXED_N_RANKS = 16


def _mixed_patterns():
    n = _MIXED_N_RANKS
    return {
        "random": make_traffic("random", n),  # fast path
        "random-2": make_traffic("random", n),  # a second fast-path object
        # Deterministic; rank 0 (and the all-ones rank) shuffle to themselves.
        "shuffle": make_traffic("shuffle", n),
        "tornado": make_traffic("tornado", n),  # deterministic
        "legacy-stochastic": _TwoHotspots(n),  # draws ranks 0/1 per packet
    }


def _sequential_times(seed, mean_gap, k):
    """Reference injection times: a fresh generator's gaps, accumulated
    one addition at a time (the event engine's float order)."""
    gaps = np.random.default_rng(seed).exponential(mean_gap, size=k)
    t = []
    acc = 0.0
    for g in gaps.tolist():
        acc += g
        t.append(acc)
    return t


@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(sorted(_mixed_patterns())),
            st.integers(min_value=0, max_value=_MIXED_N_RANKS - 1),  # rank
            st.sampled_from([0, 1, 2, 7]),  # packets_per_rank
            st.integers(min_value=0, max_value=2**31),  # seed
            st.sampled_from([0.1, 0.4, 1.0]),  # offered load
            st.booleans(),  # which rank -> endpoint map
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_bulk_predraw_matches_per_source_live_firing(specs):
    config = SimConfig(concentration=2)
    patterns = _mixed_patterns()
    maps = (
        np.arange(_MIXED_N_RANKS, dtype=np.int64) * 3,
        np.arange(_MIXED_N_RANKS, dtype=np.int64)[::-1] + 100,
    )

    def build(spec):
        name, rank, k, seed, load, which = spec
        r2e = maps[which]
        return OpenLoopSource(
            rank, int(r2e[rank]), patterns[name], r2e, load, k, seed=seed
        )

    t_bulk, dst_bulk, counts = predraw_sources(
        [build(spec) for spec in specs], config
    )
    assert counts.tolist() == [spec[2] for spec in specs]
    assert len(t_bulk) == len(dst_bulk) == int(counts.sum())
    assert t_bulk.dtype == np.float64 and dst_bulk.dtype == np.int64

    at = 0
    for spec, k in zip(specs, counts.tolist()):
        net = _RecordingNet(config)
        src = build(spec)
        src.start(net)
        net.drive()
        assert len(net.sent) == k
        live_t = [t for t, _ in net.sent]
        live_dst = [d for _, d in net.sent]
        # Bit-identical times and identical destinations, packet for
        # packet, self-sends included (the engine filters those).
        assert t_bulk[at : at + k].tolist() == live_t
        assert dst_bulk[at : at + k].tolist() == live_dst
        # The row-wise cumsum is the sequential accumulation.
        mean_gap = config.packet_bytes / (spec[4] * config.bytes_per_ns)
        assert live_t == _sequential_times(spec[3], mean_gap, k)
        at += k


def test_bulk_predraw_keeps_self_sends():
    # Rank 0 shuffles to itself: the predraw reports those packets and
    # leaves the filtering to the engine.
    n = _MIXED_N_RANKS
    r2e = np.arange(n, dtype=np.int64)
    srcs = [
        OpenLoopSource(r, r, make_traffic("shuffle", n), r2e, 0.4, 3, seed=r)
        for r in (0, 1)
    ]
    _, dst, counts = predraw_sources(srcs, SimConfig())
    assert counts.tolist() == [3, 3]
    assert dst.tolist() == [0, 0, 0, 2, 2, 2]


def test_bulk_predraw_of_no_packets():
    r2e = np.arange(4, dtype=np.int64)
    src = OpenLoopSource(1, 1, make_traffic("random", 4), r2e, 0.4, 0, seed=1)
    t, dst, counts = predraw_sources([src], SimConfig())
    assert (len(t), len(dst), counts.tolist()) == (0, 0, [0])
    assert dst.dtype == np.int64
