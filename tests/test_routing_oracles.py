"""The on-demand routing oracles against the dense reference.

Three contracts are pinned here:

1. **Bit-identity** — for every topology family at seed sizes, the
   family-appropriate oracle (:class:`CayleyOracle` on vertex-transitive
   algebraic constructions, :class:`LandmarkOracle` on the random/graph
   families) answers ``distance`` / ``min_next_hops`` *bit-identically* to
   :class:`DenseOracle`, and oracle-backed :class:`RoutingTables` answer
   ``port_of`` / ``directed_edge_id`` identically to dense tables.  The
   engines were threaded for RNG-parity, so bit-identity here is what makes
   whole oracle-backed simulation runs bit-identical to dense runs
   (``tests/test_sim_differential.py::TestOracleDifferential``).
2. **Laziness** — constructing tables for ``port_of``-style use never
   materialises the O(n^2) distance matrix (the regression this PR fixes),
   and the lazy paths refuse to silently densify (they raise instead).
3. **Memory ceiling** (gating) — routing a 12k-router SpectralFly through
   the Cayley oracle allocates a small fraction of what the dense matrix
   alone would need.
"""

from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest

from repro.graphs.bfs import bfs_distances
from repro.routing.oracles import (
    CAYLEY_FAMILIES,
    CayleyOracle,
    DenseOracle,
    LandmarkOracle,
    WordTranslator,
    oracle_for,
    translator_for,
)
from repro.routing.tables import FaultMask, RoutingTables
from repro.topology import (
    build_bundlefly,
    build_canonical_dragonfly,
    build_jellyfish,
    build_lps,
    build_mms,
    build_paley,
    build_skywalk,
    build_slimfly,
    build_xpander,
)

#: Every topology family at seed size, with the oracle kind the auto
#: selection would use above the dense threshold.
FAMILY_TOPOS = {
    "LPS": (lambda: build_lps(3, 5), "cayley"),
    "Paley": (lambda: build_paley(29), "cayley"),
    "MMS": (lambda: build_mms(5), "cayley"),
    "SlimFly": (lambda: build_slimfly(5), "cayley"),
    "DragonFly": (lambda: build_canonical_dragonfly(6), "landmark"),
    "Jellyfish": (lambda: build_jellyfish(60, 5, seed=3), "landmark"),
    "Xpander": (lambda: build_xpander(6, 60, seed=3), "landmark"),
    "BundleFly": (lambda: build_bundlefly(5, 3), "landmark"),
    "SkyWalk": (lambda: build_skywalk(50, 6, seed=3), "landmark"),
}


@pytest.fixture(scope="module", params=sorted(FAMILY_TOPOS))
def family_case(request):
    build, kind = FAMILY_TOPOS[request.param]
    topo = build()
    return topo, kind


def _sample_pairs(n, rng, k=400):
    us = rng.integers(0, n, size=k)
    ds = rng.integers(0, n, size=k)
    return us, ds


class TestOracleEquivalence:
    def test_distance_and_min_next_hops_bit_identical(self, family_case):
        topo, kind = family_case
        dense = DenseOracle(topo.graph, use_cache=False)
        lazy = oracle_for(topo, kind=kind, use_cache=False)
        assert lazy.kind == kind
        rng = np.random.default_rng(7)
        us, ds = _sample_pairs(topo.n_routers, rng)
        got = lazy.distance_batch(us, ds)
        want = dense.distance_batch(us, ds)
        np.testing.assert_array_equal(got, want)
        for u, d in zip(us[:64].tolist(), ds[:64].tolist()):
            assert lazy.distance(u, d) == dense.distance(u, d)
            if u != d:
                np.testing.assert_array_equal(
                    lazy.min_next_hops(u, d), dense.min_next_hops(u, d)
                )

    def test_pick_minimal_matches_dense_for_equal_draws(self, family_case):
        topo, kind = family_case
        degs = topo.graph.degrees()
        if degs.min() != degs.max():
            pytest.skip("pick_minimal fast path needs a regular graph")
        dense = DenseOracle(topo.graph, use_cache=False)
        lazy = oracle_for(topo, kind=kind, use_cache=False)
        rng = np.random.default_rng(11)
        us, ds = _sample_pairs(topo.n_routers, rng, k=300)
        keep = us != ds
        us, ds = us[keep], ds[keep]
        r = rng.random(len(us))
        np.testing.assert_array_equal(
            lazy.pick_minimal(us, ds, r), dense.pick_minimal(us, ds, r)
        )

    def test_pick_minimal_returns_the_edge_of_the_dense_pick(
        self, family_case
    ):
        """Regular or not, each pick is the CSR edge id of the candidate
        ``int(r * width)`` of the dense minimal set."""
        topo, kind = family_case
        g = topo.graph
        dense = DenseOracle(g, use_cache=False)
        lazy = oracle_for(topo, kind=kind, use_cache=False)
        tables = RoutingTables(g, use_cache=False)
        rng = np.random.default_rng(17)
        us, ds = _sample_pairs(topo.n_routers, rng, k=200)
        keep = us != ds
        us, ds = us[keep], ds[keep]
        r = rng.random(len(us))
        eids = lazy.pick_minimal(us, ds, r)
        for u, d, x, eid in zip(us.tolist(), ds.tolist(), r, eids.tolist()):
            c = dense.min_next_hops(u, d)
            hop = int(c[int(x * len(c))])
            assert eid == tables.directed_edge_id(u, hop)

    def test_diameter_matches_dense(self, family_case):
        topo, kind = family_case
        dense = DenseOracle(topo.graph, use_cache=False)
        lazy = oracle_for(topo, kind=kind, use_cache=False)
        assert lazy.diameter == dense.diameter

    def test_lazy_tables_answer_ports_like_dense_tables(self, family_case):
        topo, kind = family_case
        g = topo.graph
        dense_t = RoutingTables(g, use_cache=False)
        lazy_t = RoutingTables(
            g, use_cache=False, oracle=oracle_for(topo, kind=kind, use_cache=False)
        )
        assert lazy_t.is_lazy
        rng = np.random.default_rng(5)
        heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
        pick = rng.integers(0, len(g.indices), size=200)
        for u, v in zip(heads[pick].tolist(), g.indices[pick].tolist()):
            assert lazy_t.port_of(u, v) == dense_t.port_of(u, v)
            assert lazy_t.directed_edge_id(u, v) == dense_t.directed_edge_id(
                u, v
            )
        us, ds = _sample_pairs(g.n, rng, k=64)
        for u, d in zip(us.tolist(), ds.tolist()):
            assert lazy_t.distance(u, d) == dense_t.distance(u, d)
            if u != d:
                np.testing.assert_array_equal(
                    np.asarray(lazy_t.min_next_hops(u, d)),
                    np.asarray(dense_t.min_next_hops(u, d)),
                )

    def test_fault_mask_candidates_match_dense(self, family_case):
        topo, kind = family_case
        g = topo.graph
        dense_m = FaultMask(RoutingTables(g, use_cache=False))
        lazy_m = FaultMask(
            RoutingTables(
                g,
                use_cache=False,
                oracle=oracle_for(topo, kind=kind, use_cache=False),
            )
        )
        a, b = int(g.neighbors(0)[0]), 0
        for m in (dense_m, lazy_m):
            m.fail_link(b, a)
        rng = np.random.default_rng(3)
        us, ds = _sample_pairs(g.n, rng, k=120)
        for u, d in zip(us.tolist(), ds.tolist()):
            if u == d:
                continue
            assert lazy_m.live_min_candidates(u, d) == list(
                dense_m.live_min_candidates(u, d)
            )


class TestWordTranslator:
    @pytest.mark.parametrize("fixture", ["lps_3_5", "lps_11_7", "lps_23_11"])
    def test_depth_is_the_graph_bfs_from_vertex_0(self, fixture, request):
        # CayleyOracle takes its identity ball from the translator's depth
        # instead of a second BFS; the two must agree.
        topo = request.getfixturevalue(fixture)
        tr = WordTranslator(topo.gen_perms)
        expect = bfs_distances(topo.graph, 0)
        np.testing.assert_array_equal(tr.depth, expect)
        oracle = CayleyOracle(topo.graph, tr)
        np.testing.assert_array_equal(oracle._balls, expect[None, :])


class TestLandmarkBounds:
    @pytest.mark.parametrize(
        "family", [f for f, (_, k) in FAMILY_TOPOS.items() if k == "landmark"]
    )
    def test_upper_bound_is_admissible(self, family):
        topo = FAMILY_TOPOS[family][0]()
        lm = LandmarkOracle(topo.graph, landmarks=8)
        dense = DenseOracle(topo.graph, use_cache=False)
        rng = np.random.default_rng(13)
        us, ds = _sample_pairs(topo.n_routers, rng, k=300)
        ub = lm.upper_bound(us, ds)
        exact = dense.distance_batch(us, ds)
        assert np.all(ub >= exact)
        # Triangle-equality at the landmarks themselves: exact there.
        lid = lm.landmarks[0]
        zs = rng.integers(0, topo.n_routers, size=50)
        np.testing.assert_array_equal(
            lm.upper_bound(np.full(50, lid), zs),
            dense.distance_batch(np.full(50, lid), zs),
        )


class TestLaziness:
    def test_port_only_use_never_builds_the_dense_matrix(self):
        """The PR 8 regression fix: RoutingTables construction + port_of /
        directed_edge_id / next-hop-free use allocates no O(n^2) state."""
        topo = build_lps(5, 23)  # 12,144 routers: dense matrix is ~295 MB
        g = topo.graph
        dense_bytes = g.n * g.n * 2
        tracemalloc.start()
        tables = RoutingTables(g, use_cache=False)
        for v in g.neighbors(0).tolist():
            tables.port_of(0, v)
            tables.directed_edge_id(0, v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert tables._dist is None, "port-only use materialised the matrix"
        # The connectivity BFS and edge maps are O(E): a few MB here,
        # nowhere near the 295 MB int16 matrix.
        assert peak < dense_bytes / 8, (
            f"port-only peak {peak/1e6:.1f} MB vs dense {dense_bytes/1e6:.1f} MB"
        )

    def test_lazy_tables_refuse_to_densify(self):
        topo = build_lps(3, 5)
        tables = RoutingTables(
            topo.graph, use_cache=False, oracle=oracle_for(topo, kind="cayley")
        )
        with pytest.raises(RuntimeError, match="oracle-backed"):
            tables.dist
        with pytest.raises(RuntimeError, match="oracle-backed"):
            tables.build_fast_path()
        # ...but oracle-served queries and diameter still work.
        assert tables.diameter > 0
        assert tables.distance(0, 1) >= 1

    def test_auto_kind_prefers_dense_below_threshold(self):
        topo = build_lps(3, 5)
        assert oracle_for(topo, kind="auto", use_cache=False).kind == "dense"
        assert (
            oracle_for(
                topo, kind="auto", dense_threshold=8, use_cache=False
            ).kind
            == "cayley"
        )

    def test_auto_kind_uses_landmarks_off_the_cayley_families(self):
        topo = build_jellyfish(40, 4, seed=1)
        assert topo.family not in CAYLEY_FAMILIES
        assert (
            oracle_for(
                topo, kind="auto", dense_threshold=8, use_cache=False
            ).kind
            == "landmark"
        )


class TestOracleChoiceLog:
    """``oracle_for`` logs the kind it chose and the rule that chose it."""

    @pytest.mark.parametrize(
        "build, kind, threshold, rule",
        [
            (lambda: build_lps(3, 5), "auto", 4096,
             "auto: at most dense_threshold=4096 routers"),
            (lambda: build_lps(3, 5), "auto", 8,
             "auto: above dense_threshold=8, family has a Cayley translator"),
            (lambda: build_jellyfish(40, 4, seed=1), "auto", 8,
             "auto: above dense_threshold=8, no Cayley translator"),
            (lambda: build_lps(3, 5), "landmark", 4096,
             "kind given by the caller"),
        ],
        ids=["dense", "cayley", "landmark", "forced"],
    )
    def test_choice_is_logged_at_debug(self, caplog, build, kind,
                                       threshold, rule):
        topo = build()
        with caplog.at_level(logging.DEBUG, logger="repro.routing.oracles"):
            oracle = oracle_for(topo, kind=kind, dense_threshold=threshold,
                                use_cache=False)
        (record,) = [r for r in caplog.records
                     if r.name == "repro.routing.oracles"]
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            f"{oracle.kind} oracle for {topo.n_routers} routers, "
            f"family {topo.family} ({rule}"
        )

    def test_library_configures_no_handler(self):
        import repro.routing.oracles  # noqa: F401

        assert logging.getLogger("repro").handlers == []
        assert logging.getLogger("repro.routing.oracles").handlers == []


class TestMemoryCeiling:
    def test_cayley_oracle_routes_12k_routers_in_megabytes(self):
        """Gating scale assertion: LPS(5,23) (12,144 routers) routed via
        the Cayley oracle stays far below the ~295 MB its dense int16
        distance matrix alone would cost."""
        topo = build_lps(5, 23)
        n = topo.n_routers
        dense_bytes = n * n * 2
        tracemalloc.start()
        oracle = CayleyOracle(topo.graph, translator_for(topo), self_check=False)
        rng = np.random.default_rng(2)
        us, ds = _sample_pairs(n, rng, k=2000)
        oracle.distance_batch(us, ds)
        keep = us != ds
        oracle.pick_minimal(us[keep], ds[keep], rng.random(int(keep.sum())))
        for u, d in zip(us[:32].tolist(), ds[:32].tolist()):
            if u != d:
                oracle.min_next_hops(u, d)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < dense_bytes / 4, (
            f"oracle peak {peak/1e6:.1f} MB vs dense {dense_bytes/1e6:.1f} MB"
        )
