"""Micro benchmarks for the simulator hot-path primitives.

Tracked counterparts of the ``micro`` section of ``BENCH_sim.json``
(``python -m repro bench``): directed-edge-id lookup, minimal-next-hop
selection from the flat table, and block-drawn RNG.  pytest-benchmark
prints ops/s; the assertions only pin correctness, not speed, so CI noise
cannot fail the suite.
"""

import numpy as np
import pytest

from repro.routing import RoutingTables, make_routing
from repro.topology import build_lps


@pytest.fixture(scope="module")
def env():
    topo = build_lps(11, 7)  # the small-preset SpectralFly instance
    tables = RoutingTables(topo.graph)
    policy = make_routing("minimal", tables, seed=0)
    policy.bind_views()  # as a simulator would, before any timed call
    return topo.graph, tables, policy


def test_edge_id_lookup(benchmark, env):
    g, tables, _ = env
    rng = np.random.default_rng(0)
    heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
    pick = rng.integers(0, len(g.indices), size=2048)
    pairs = list(zip(heads[pick].tolist(), g.indices[pick].tolist()))

    def lookups():
        edge_id = tables.directed_edge_id
        return [edge_id(u, v) for u, v in pairs]

    ids = benchmark(lookups)
    assert all(0 <= e < len(g.indices) for e in ids)


def test_min_next_hop_draw(benchmark, env):
    g, tables, policy = env
    rng = np.random.default_rng(1)
    pairs = [
        (int(u), int(d))
        for u, d in rng.integers(0, g.n, size=(2048, 2))
        if u != d
    ]

    def draws():
        pick = policy._random_minimal
        return [pick(u, d) for u, d in pairs]

    hops = benchmark(draws)
    for (u, d), h in zip(pairs, hops):
        assert tables.dist_flat[h * g.n + d] == tables.dist_flat[u * g.n + d] - 1


def test_batched_rand01(benchmark, env):
    _, _, policy = env

    def draws():
        rand01 = policy._rand01
        return [rand01() for _ in range(2048)]

    values = benchmark(draws)
    assert all(0.0 <= v < 1.0 for v in values)
