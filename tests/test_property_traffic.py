"""Property tests pinning the one open-loop traffic draw.

``predraw_sources`` is the only code that draws an open-loop schedule: the
batched engine injects from its arrays and the event engine's sources
replay its rows.  Three contracts pin it:

1. **Rank-for-rank draw equivalence.**  For every stochastic pattern that
   opts into the bulk fast path by overriding ``destinations_from_u``,
   mapping pre-drawn uniforms through ``destinations_from_u`` must give
   the same destinations as ``destination()`` fed a generator whose
   bounded draw realises those same uniforms.  (The two must agree on the
   *mapping* from raw draw to destination — the skip-self adjustment, the
   range — for every ``(n_ranks, src, u)``.)
2. **Predraw equals a sequential reference.**  ``OpenLoopSource.predraw``
   and the bulk ``predraw_sources`` over a mixed batch must emit exactly
   the (injection time, destination endpoint) sequence of a test-local
   reference: a fresh generator per source, its gaps added one at a
   time, then its destinations by pattern kind (deterministic, fast-path
   stochastic, and stochastic subclasses without ``destinations_from_u``).
3. **The event engine replays the predraw.**  The ``send()`` calls of an
   event run are ``predraw_sources`` over identically built sources,
   packet for packet with bit-identical times, self-sends and sources
   added after a ``run(until=...)`` pause included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import RoutingTables, make_routing
from repro.sim.network import NetworkSimulator, SimConfig
from repro.sim.traffic import (
    _PATTERNS,
    OpenLoopSource,
    TrafficPattern,
    UniformRandomTraffic,
    make_traffic,
    predraw_sources,
)
from repro.topology import build_lps

#: Every registered stochastic pattern on the bulk fast path (today:
#: uniform random; the parametrisation picks up future ones by itself).
FAST_PATH_PATTERNS = [
    cls
    for cls in _PATTERNS.values()
    if cls.stochastic
    and cls.destinations_from_u is not TrafficPattern.destinations_from_u
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


_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@pytest.mark.parametrize("cls", FAST_PATH_PATTERNS, ids=lambda c: c.name)
@given(
    n_ranks=st.integers(min_value=2, max_value=4096),
    pairs=st.lists(st.tuples(_UNIT, _UNIT), max_size=32),
)
@settings(max_examples=200, deadline=None)
def test_destinations_from_u_matches_destination_rank_for_rank(
    cls, n_ranks, pairs
):
    # Element for element, per-packet sources included (and the empty
    # batch).
    pattern = cls(n_ranks)
    src = [int(f * n_ranks) for f, _ in pairs]
    us = [u for _, u in pairs]
    bulk = pattern.destinations_from_u(
        np.array(src, dtype=np.int64), np.array(us, dtype=np.float64)
    )
    assert bulk.dtype == np.int64 and len(bulk) == len(pairs)
    stub = _UniformStub(us)
    for s, u, via_u in zip(src, us, bulk.tolist()):
        via_rng = pattern.destination(s, stub)
        assert via_u == via_rng, (n_ranks, s, u)
        # ... and both land in range, never on the source itself.
        assert 0 <= via_u < n_ranks
        assert via_u != s


@given(n_ranks=st.integers(min_value=2, max_value=1024), src_frac=_UNIT, u=_UNIT)
@settings(max_examples=200, deadline=None)
def test_uniform_random_covers_every_destination(n_ranks, src_frac, u):
    # Surjectivity over the uniform: int(u * (n-1)) with the skip-self
    # shift reaches every rank except src as u sweeps [0, 1).
    pattern = UniformRandomTraffic(n_ranks)
    src = int(src_frac * n_ranks)
    dst = int(pattern.destinations_from_u(np.array([src]), np.array([u]))[0])
    assert 0 <= dst < n_ranks and dst != src
    if n_ranks <= 64:
        sweep = np.arange(4 * n_ranks) / (4 * n_ranks)
        seen = pattern.destinations_from_u(np.full(len(sweep), src), sweep)
        assert set(seen.tolist()) == set(range(n_ranks)) - {src}


# ---------------------------------------------------------------------------
# predraw == a sequential reference, one source at a time.
# ---------------------------------------------------------------------------
class _TwoHotspots(TrafficPattern):
    """Stochastic pattern without the fast path: draws ranks 0/1 per packet."""

    name = "two-hotspots"

    def destination(self, src, rng):  # noqa: ARG002
        return int(rng.integers(2))


def _reference_schedule(pattern, rank, r2e, load, k, seed, config):
    """One source's schedule drawn the slow way, independently of
    ``predraw_sources``: a fresh generator, its gaps accumulated one
    addition at a time, then its destinations by pattern kind (fast-path
    uniforms mapped through ``destination()`` and the uniform stub)."""
    rng = np.random.default_rng(seed)
    mean_gap = config.packet_bytes / (load * config.bytes_per_ns)
    times = []
    acc = 0.0
    for gap in rng.exponential(mean_gap, size=k).tolist():
        acc += gap
        times.append(acc)
    if not pattern.stochastic:
        dst = [pattern.destination(rank, rng)] * k
    elif pattern.batches_destinations:
        stub = _UniformStub(rng.random(k).tolist())
        dst = [pattern.destination(rank, stub) for _ in range(k)]
    else:
        dst = [pattern.destination(rank, rng) for _ in range(k)]
    return times, [int(r2e[d]) for d in dst]


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
def test_predraw_matches_sequential_reference(name, factory, seed):
    n_ranks = 16
    rank = 5
    k = 12
    config = SimConfig(concentration=2)
    r2e = np.arange(n_ranks, dtype=np.int64) * 3  # arbitrary placement
    pattern = factory(n_ranks)
    src = OpenLoopSource(rank, int(r2e[rank]), pattern, r2e, 0.4, k, seed=seed)

    t_pre, dst_pre = src.predraw(config)

    ref_t, ref_dst = _reference_schedule(pattern, rank, r2e, 0.4, k, seed, config)
    assert len(t_pre) == k
    # Bit-identical times (same draws, same accumulation order) and
    # identical destinations, packet for packet.
    assert t_pre.tolist() == ref_t
    assert dst_pre.tolist() == ref_dst


def test_predraw_consumes_the_source_rng():
    # predraw advances the source's own generator, so calling it twice on
    # one source must NOT replay the schedule (a second draw of a source
    # is a different schedule, never a copy).
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
# predraw_sources over a mixed batch == every source's reference, in order.
# ---------------------------------------------------------------------------
_MIXED_N_RANKS = 16

#: Two rank -> endpoint maps with disjoint endpoint ranges.
_MAPS = (
    np.arange(_MIXED_N_RANKS, dtype=np.int64) * 3,
    np.arange(_MIXED_N_RANKS, dtype=np.int64)[::-1] + 100,
)


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


def _spec_strategy(**list_kw):
    """(pattern, rank, packets_per_rank, seed, load, which map) tuples."""
    return st.lists(
        st.tuples(
            st.sampled_from(sorted(_mixed_patterns())),
            st.integers(min_value=0, max_value=_MIXED_N_RANKS - 1),  # rank
            st.sampled_from([0, 1, 2, 7]),  # packets_per_rank
            st.integers(min_value=0, max_value=2**31),  # seed
            st.sampled_from([0.1, 0.4, 1.0]),  # offered load
            st.sampled_from([0, 1]),  # which rank -> endpoint map
        ),
        min_size=1,
        max_size=12,
        **list_kw,
    )


def _build(spec, patterns):
    name, rank, k, seed, load, which = spec
    r2e = _MAPS[which]
    return OpenLoopSource(
        rank, int(r2e[rank]), patterns[name], r2e, load, k, seed=seed
    )


@given(specs=_spec_strategy())
@settings(max_examples=60, deadline=None)
def test_bulk_predraw_matches_per_source_sequential_reference(specs):
    config = SimConfig(concentration=2)
    patterns = _mixed_patterns()

    t_bulk, dst_bulk, counts = predraw_sources(
        [_build(spec, patterns) for spec in specs], config
    )
    assert counts.tolist() == [spec[2] for spec in specs]
    assert len(t_bulk) == len(dst_bulk) == int(counts.sum())
    assert t_bulk.dtype == np.float64 and dst_bulk.dtype == np.int64

    at = 0
    for spec, k in zip(specs, counts.tolist()):
        name, rank, _, seed, load, which = spec
        ref_t, ref_dst = _reference_schedule(
            patterns[name], rank, _MAPS[which], load, k, seed, config
        )
        # The row-wise cumsum is the sequential accumulation, bit for bit;
        # destinations agree packet for packet, self-sends included (the
        # engines filter those).
        assert t_bulk[at : at + k].tolist() == ref_t
        assert dst_bulk[at : at + k].tolist() == ref_dst
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


# ---------------------------------------------------------------------------
# The event engine's send() sequence == predraw_sources, packet for packet.
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine_parts():
    topo = build_lps(3, 5)  # 120 routers: 240 endpoints at concentration 2
    return topo, RoutingTables(topo.graph)


def _recording_engine(engine_parts):
    """An event engine whose ``send()`` calls are logged per source
    endpoint as ``(t, dst_ep)``, self-sends included."""
    topo, tables = engine_parts
    net = NetworkSimulator(
        topo, make_routing("minimal", tables, seed=0),
        SimConfig(concentration=2), tables=tables,
    )
    sent: dict[int, list[tuple[float, int]]] = {}
    send = net.send

    def recording(src_ep, dst_ep, size=None, tag=None, t=None):
        sent.setdefault(src_ep, []).append((t, dst_ep))
        return send(src_ep, dst_ep, size=size, tag=tag, t=t)

    net.send = recording
    return net, sent


def _assert_replayed(sent, batches, config):
    """Every source of ``batches`` (lists of identically built twins) sent
    exactly its rows of one ``predraw_sources`` call per batch."""
    n_rows = 0
    for twins in batches:
        t, dst, counts = predraw_sources(twins, config)
        at = 0
        for src, k in zip(twins, counts.tolist()):
            rows = list(zip(t[at : at + k].tolist(), dst[at : at + k].tolist()))
            assert sent.get(src.endpoint, []) == rows, src.rank
            at += k
        n_rows += at
    assert sum(map(len, sent.values())) == n_rows


@given(specs=_spec_strategy(unique_by=lambda spec: spec[1]))
@settings(max_examples=30, deadline=None)
def test_event_run_replays_the_bulk_predraw(engine_parts, specs):
    # One source per rank, so endpoints are distinct; every pattern kind
    # is drawn, and shuffle at ranks 0/15 and two-hotspots at ranks 0/1
    # send to themselves.
    net, sent = _recording_engine(engine_parts)
    patterns = _mixed_patterns()
    for spec in specs:
        net.add_open_loop_source(_build(spec, patterns))
    stats = net.run()

    twins = [_build(spec, _mixed_patterns()) for spec in specs]
    _assert_replayed(sent, [twins], net.config)
    n_self = sum(
        dst == ep for ep, rows in sent.items() for _, dst in rows
    )
    assert stats.n_injected == len(stats.latencies_ns) == (
        sum(map(len, sent.values())) - n_self
    )


def test_source_added_after_a_pause_replays_its_rows(engine_parts):
    net, sent = _recording_engine(engine_parts)
    first = [  # (pattern, rank, packets_per_rank, seed, load, which map)
        ("random", 2, 7, 5, 0.4, 0),
        ("shuffle", 0, 7, 6, 0.4, 0),  # shuffles to itself
        ("tornado", 3, 7, 7, 1.0, 1),
        ("legacy-stochastic", 1, 7, 8, 0.4, 1),
    ]
    later = [("random-2", 5, 7, 9, 0.4, 0), ("shuffle", 15, 2, 10, 0.1, 1)]
    patterns = _mixed_patterns()
    for spec in first:
        net.add_open_loop_source(_build(spec, patterns))
    net.run(until=500.0)
    paused = sum(map(len, sent.values()))
    assert 0 < paused < 4 * 7  # paused mid-schedule
    for spec in later:
        net.add_open_loop_source(_build(spec, patterns))
    net.run()

    twins = _mixed_patterns()
    _assert_replayed(
        sent,
        [[_build(s, twins) for s in first], [_build(s, twins) for s in later]],
        net.config,
    )
    # A resumed run starts the earlier sources once, never twice.
    assert len(sent[int(_MAPS[0][2])]) == 7
