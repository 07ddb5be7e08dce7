"""Hypothesis property tests for the algebraic routing oracles.

The Cayley oracle's entire correctness argument is *translation
invariance*: distances on a Cayley graph are invariant under left
multiplication, so one BFS ball per canonical source answers every pair.
These properties probe that argument directly on randomly drawn group
elements rather than a fixed sample, plus the two cache/bound contracts
the simulator relies on: LRU eviction never changes an answer, and the
landmark upper bound is admissible.  On LPS graphs the oracle routes a
pair and all its neighbours from one word walk; the properties pin that
form against the general one (a walk per neighbour and one for the
pair), the walk against a per-pair reference, and the edge ids a pick
returns against the routing tables' edge numbering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing.oracles import (
    CayleyOracle,
    DenseOracle,
    LandmarkOracle,
    RoutingOracle,
    WordTranslator,
    translator_for,
)
from repro.routing.tables import RoutingTables
from repro.topology import build_canonical_dragonfly, build_lps, build_paley

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def lps():
    topo = build_lps(3, 5)
    return topo, translator_for(topo), DenseOracle(topo.graph, use_cache=False)


@pytest.fixture(scope="module")
def paley():
    topo = build_paley(29)
    return topo, translator_for(topo), DenseOracle(topo.graph, use_cache=False)


@pytest.fixture(scope="module", params=[(3, 5), (5, 13)], ids=str)
def lps_routing(request):
    """An LPS graph with its three oracles and its routing tables."""
    topo = build_lps(*request.param)
    g = topo.graph
    oracles = {
        "dense": DenseOracle(g, use_cache=False),
        "cayley": CayleyOracle(g, translator_for(topo)),
        "landmark": LandmarkOracle(g, landmarks=4),
    }
    return topo, oracles, RoutingTables(g, use_cache=False)


def _distinct_pairs(data, n, max_size=32):
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=max_size,
        ),
        label="pairs",
    )
    us, ds = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    return us, ds


@pytest.fixture(scope="module")
def dragonfly():
    topo = build_canonical_dragonfly(6)
    return topo, DenseOracle(topo.graph, use_cache=False)


class TestTranslationInvariance:
    """d(u, v) == d(g*u, g*v) for every group element g — the property
    that lets CayleyOracle serve any pair from one ball per canonical
    source."""

    @given(data=st.data())
    @SETTINGS
    def test_lps_left_translation_preserves_distance(self, lps, data):
        topo, tr, dense = lps
        n = topo.n_routers
        u = data.draw(st.integers(0, n - 1), label="u")
        v = data.draw(st.integers(0, n - 1), label="v")
        g = data.draw(st.integers(0, n - 1), label="g")
        gu = int(tr.left_translate(g, np.array([u]))[0])
        gv = int(tr.left_translate(g, np.array([v]))[0])
        assert dense.distance(u, v) == dense.distance(gu, gv)

    @given(data=st.data())
    @SETTINGS
    def test_paley_left_translation_preserves_distance(self, paley, data):
        topo, tr, dense = paley
        n = topo.n_routers
        u = data.draw(st.integers(0, n - 1), label="u")
        v = data.draw(st.integers(0, n - 1), label="v")
        g = data.draw(st.integers(0, n - 1), label="g")
        gu = int(tr.left_translate(g, np.array([u]))[0])
        gv = int(tr.left_translate(g, np.array([v]))[0])
        assert dense.distance(u, v) == dense.distance(gu, gv)

    @given(data=st.data())
    @SETTINGS
    def test_translate_canonicalises_without_changing_distance(
        self, lps, data
    ):
        """The (canonical_source, image) pair the oracle actually looks up
        must be at the same distance as the original pair."""
        topo, tr, dense = lps
        n = topo.n_routers
        us = np.array([data.draw(st.integers(0, n - 1), label="u")])
        ds = np.array([data.draw(st.integers(0, n - 1), label="d")])
        form, z = tr.translate(us, ds)
        assert dense.distance(int(us[0]), int(ds[0])) == dense.distance(
            int(form[0]), int(z[0])
        )


class TestSymmetry:
    @given(data=st.data())
    @SETTINGS
    def test_cayley_distance_is_symmetric(self, lps, data):
        """Undirected Cayley graphs: d(u,v) == d(v,u) through the oracle
        (exercises the inverse-word path in the translator)."""
        topo, tr, _ = lps
        oracle = CayleyOracle(topo.graph, tr, self_check=False)
        n = topo.n_routers
        u = data.draw(st.integers(0, n - 1), label="u")
        v = data.draw(st.integers(0, n - 1), label="v")
        assert oracle.distance(u, v) == oracle.distance(v, u)


class TestLRUEviction:
    @given(data=st.data())
    @SETTINGS
    def test_eviction_never_changes_answers(self, paley, data):
        """A row cache of 2 under a random access sequence must answer
        exactly like an unbounded cache — eviction is a perf knob, never
        a correctness one."""
        topo, tr, dense = paley
        tiny = CayleyOracle(topo.graph, tr, row_cache=2, self_check=False)
        n = topo.n_routers
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=8,
                max_size=24,
            ),
            label="access sequence",
        )
        for u, v in pairs:
            assert tiny.distance(u, v) == dense.distance(u, v)
            if u != v:
                np.testing.assert_array_equal(
                    tiny.min_next_hops(u, v), dense.min_next_hops(u, v)
                )
        assert len(tiny.cached_row_ids()) <= 2

    @given(data=st.data())
    @SETTINGS
    def test_landmark_eviction_never_changes_answers(self, dragonfly, data):
        topo, dense = dragonfly
        tiny = LandmarkOracle(topo.graph, landmarks=4, row_cache=2)
        n = topo.n_routers
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=8,
                max_size=24,
            ),
            label="access sequence",
        )
        for u, v in pairs:
            assert tiny.distance(u, v) == dense.distance(u, v)
        assert len(tiny.cached_row_ids()) <= 2


class TestLandmarkAdmissibility:
    @given(data=st.data())
    @SETTINGS
    def test_upper_bound_admissible_vs_exact_bfs(self, dragonfly, data):
        topo, dense = dragonfly
        lm = LandmarkOracle(topo.graph, landmarks=6)
        n = topo.n_routers
        u = data.draw(st.integers(0, n - 1), label="u")
        v = data.draw(st.integers(0, n - 1), label="v")
        ub = int(lm.upper_bound(np.array([u]), np.array([v]))[0])
        exact = dense.distance(u, v)
        assert ub >= exact
        # Exact rows are exact regardless of the bound.
        assert lm.distance(u, v) == exact


class TestOneWalkRouting:
    """The LPS one-walk form: ``w = d^-1 u`` gives ``d(u, d) = ball[w]``
    and ``d(u*s_j, d) = ball[perms[j][w]]``, read in CSR slot order."""

    @given(data=st.data())
    @SETTINGS
    def test_one_walk_blocks_equal_the_per_neighbour_walks(
        self, lps_routing, data
    ):
        topo, oracles, _ = lps_routing
        cayley = oracles["cayley"]
        us, ds = _distinct_pairs(data, topo.n_routers)
        np.testing.assert_array_equal(
            cayley.minimal_blocks(us, ds),
            RoutingOracle.minimal_blocks(cayley, us, ds),
        )

    @given(data=st.data())
    @SETTINGS
    def test_mask_free_walk_equals_a_per_pair_walk(self, lps_routing, data):
        topo, oracles, _ = lps_routing
        tr = oracles["cayley"].translator
        n = topo.n_routers
        size = data.draw(st.integers(1, 24), label="pairs")
        starts = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                               max_size=size), label="starts"),
            dtype=np.int64,
        )
        ds = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                               max_size=size), label="ds"),
            dtype=np.int64,
        )
        want = []
        for z, d in zip(starts.tolist(), ds.tolist()):
            for j in tr.words[d][: tr.depth[d]].tolist():
                z = int(tr.perms[j][z])
            want.append(z)
        np.testing.assert_array_equal(tr._apply_words(starts, ds), want)

    @pytest.mark.parametrize("kind", ["dense", "cayley", "landmark"])
    @given(data=st.data())
    @SETTINGS
    def test_picked_edge_ids_match_the_routing_tables(
        self, lps_routing, kind, data
    ):
        topo, oracles, tables = lps_routing
        oracle = oracles[kind]
        us, ds = _distinct_pairs(data, topo.n_routers)
        r = np.array(
            data.draw(
                st.lists(st.floats(0.0, 1.0, exclude_max=True),
                         min_size=len(us), max_size=len(us)),
                label="r",
            )
        )
        eids = oracle.pick_minimal(us, ds, r)
        hops = topo.graph.indices[eids]
        for u, d, eid, hop in zip(us.tolist(), ds.tolist(), eids.tolist(),
                                  hops.tolist()):
            assert eid == tables.directed_edge_id(u, hop)
            assert hop in oracles["dense"].min_next_hops(u, d)


def test_permutations_off_the_graph_are_refused():
    """A word translator whose generators do not produce the graph's
    neighbour rows leaves CSR slots without a generator."""
    topo = build_lps(3, 5)
    perms = translator_for(topo).perms
    n = topo.n_routers
    # Relabel every vertex but the identity: the same group, another graph.
    sigma = np.concatenate(
        [[0], 1 + np.random.default_rng(0).permutation(n - 1)]
    )
    inverse = np.argsort(sigma)
    relabelled = WordTranslator(sigma[perms[:, inverse]])
    with pytest.raises(ValueError, match="do not match the graph"):
        CayleyOracle(topo.graph, relabelled, self_check=False)
