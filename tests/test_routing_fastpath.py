"""The routing fast path: flat next-hop tables, edge ids, batched RNG.

The fast path (``RoutingTables.build_fast_path``) must be *set-identical*
to the reference numpy implementation (``min_next_hops``) for every
(router, destination) pair — these tests pin that across one topology per
family plus the generator graphs, for the stored arrays and for both forms
of the event engine's views (Python lists up to ``LIST_CELLS_MAX`` cells,
the arrays themselves past it), and pin the O(1) edge-id lookup to the
CSR-position semantics the simulator's port arrays index by.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.routing.tables as tables_mod
from repro.errors import ConstructionError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import cycle_graph, hypercube_graph
from repro.routing import RoutingTables, make_routing
from repro.topology import (
    build_bundlefly,
    build_canonical_dragonfly,
    build_lps,
    build_slimfly,
)

# One member per topology family (plus structured generator graphs).
FAMILY_GRAPHS = {
    "lps": lambda: build_lps(3, 5).graph,  # 120 routers
    "slimfly": lambda: build_slimfly(5).graph,
    "dragonfly": lambda: build_canonical_dragonfly(6).graph,
    "bundlefly": lambda: build_bundlefly(5, 3).graph,
    "hypercube": lambda: hypercube_graph(4),
    "cycle": lambda: cycle_graph(9),
}


@pytest.fixture(params=[list, np.ndarray], ids=["list", "ndarray"])
def view_type(request, monkeypatch):
    """The event engine's view form under test: ``np.ndarray`` forces the
    past-``LIST_CELLS_MAX`` form on every topology."""
    if request.param is np.ndarray:
        monkeypatch.setattr(tables_mod, "LIST_CELLS_MAX", 0)
    return request.param


class TestNextHopTableParity:
    @pytest.mark.parametrize("family", sorted(FAMILY_GRAPHS))
    def test_set_identical_to_min_next_hops(self, family, view_type):
        g = FAMILY_GRAPHS[family]()
        tables = RoutingTables(g, use_cache=False)
        tables.build_fast_path()
        indptr, indices = tables.next_hop_arrays()
        assert (indptr.dtype, indices.dtype) == (np.int64, np.int32)
        nh_indptr, nh_indices = tables.nh_indptr, tables.nh_indices
        assert type(nh_indptr) is type(nh_indices) is view_type
        for u in range(g.n):
            for d in range(g.n):
                ref = tables.min_next_hops(u, d)
                fast = tables.table_next_hops(u, d)
                assert set(map(int, fast)) == set(map(int, ref)), (
                    f"{family}: mismatch at ({u}, {d})"
                )
                # Same order too: both follow the sorted neighbour row.
                assert list(map(int, fast)) == list(map(int, ref))
                k = u * g.n + d
                view = nh_indices[nh_indptr[k] : nh_indptr[k + 1]]
                assert list(map(int, view)) == list(map(int, ref))

    def test_empty_cell_at_destination(self):
        tables = RoutingTables(hypercube_graph(3), use_cache=False)
        assert len(tables.table_next_hops(5, 5)) == 0

    def test_dist_flat_matches_matrix(self, view_type):
        g = FAMILY_GRAPHS["lps"]()
        tables = RoutingTables(g, use_cache=False)
        assert type(tables.dist_flat) is view_type
        n = g.n
        for u, d in [(0, 0), (0, 1), (3, 77), (n - 1, 0)]:
            assert tables.dist_flat[u * n + d] == tables.distance(u, d)


class TestEdgeIndex:
    def test_matches_csr_positions(self):
        g = FAMILY_GRAPHS["lps"]()
        tables = RoutingTables(g, use_cache=False)
        for u in range(g.n):
            base = int(g.indptr[u])
            for i, v in enumerate(g.neighbors(u)):
                assert tables.directed_edge_id(u, int(v)) == base + i
                assert tables.port_of(u, int(v)) == i

    def test_missing_edge_raises(self):
        tables = RoutingTables(hypercube_graph(4), use_cache=False)
        with pytest.raises(KeyError):
            tables.directed_edge_id(0, 15)
        with pytest.raises(KeyError):
            tables.port_of(0, 15)


class TestUnsortedCSRRejected:
    def test_direct_unsorted_rows_raise(self):
        # Vertex 0 with neighbours (2, 1): unsorted row.
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])
        with pytest.raises(ConstructionError, match="not sorted"):
            CSRGraph(3, indptr, indices)

    def test_from_edges_canonicalizes_any_order(self):
        # from_edges sorts regardless of input edge order.
        edges = np.array([[2, 0], [0, 1], [2, 1]])
        g = CSRGraph.from_edges(3, edges[::-1])
        for v in range(3):
            row = g.neighbors(v)
            assert list(row) == sorted(row)
        RoutingTables(g, use_cache=False)  # and the tables accept it

    def test_descending_pair_across_row_boundary_ok(self):
        # Row boundaries may legitimately "decrease" (end of one sorted row
        # to the start of the next); only within-row order is validated.
        g = CSRGraph.from_edges(4, np.array([[0, 3], [1, 2], [2, 3]]))
        assert g.has_edge(0, 3)


class TestNumpyBackedTables:
    def test_large_topology_fallback_matches_lists(self, monkeypatch):
        # Force the numpy-backed path (as used past LIST_CELLS_MAX) and pin
        # it behaviourally identical to the list-backed one, including the
        # int16 dist_flat reads in UGAL's byte-weighted cost products
        # (int16 would overflow at >32K queued bytes without int()).
        from repro.sim import NetworkSimulator, SimConfig

        g = FAMILY_GRAPHS["lps"]()

        def run_sim(tables):
            topo = build_lps(3, 5)
            net = NetworkSimulator(
                topo, make_routing("ugal", tables, seed=0),
                SimConfig(concentration=2), tables=tables,
            )
            for src in range(0, 100):  # hotspot: big queues at router 0
                net.send(src + 40, 0)
            return net.run()

        list_tables = RoutingTables(g, use_cache=False)
        list_stats = run_sim(list_tables)
        assert type(list_tables.nh_indptr) is list

        monkeypatch.setattr(tables_mod, "LIST_CELLS_MAX", 0)
        np_tables = RoutingTables(g, use_cache=False)
        np_stats = run_sim(np_tables)
        assert type(np_tables.nh_indptr) is np.ndarray
        assert np_stats.latencies_ns == list_stats.latencies_ns
        assert np_stats.hops == list_stats.hops
        assert np_stats.valiant_choices == list_stats.valiant_choices


class TestPolicyViewBinding:
    @pytest.mark.parametrize("name", ["minimal", "valiant", "ugal"])
    def test_policy_without_simulator_binds_views_on_first_use(
        self, name, view_type
    ):
        g = FAMILY_GRAPHS["lps"]()
        tables = RoutingTables(g, use_cache=False)
        lazy = make_routing(name, tables, seed=4)
        assert not {"nh_indptr", "nh_indices", "dist_flat"} & vars(tables).keys()
        assert "_nh_indptr" not in vars(lazy)
        eager = make_routing(name, tables, seed=4)
        eager.bind_views()
        # First use routes straight away and draws exactly what a policy
        # bound up front draws.
        net = SimpleNamespace(output_queue_bytes=lambda router, nxt: 0)
        rng = np.random.default_rng(0)
        for _ in range(300):
            u, d = (int(x) for x in rng.integers(0, g.n, size=2))
            if u == d:
                continue
            hops = []
            for policy in (lazy, eager):
                pkt = SimpleNamespace(
                    dst_router=d, intermediate=None, phase=0, size=256
                )
                policy.on_source(net, u, pkt)
                hops.append((policy.next_hop(net, u, pkt), pkt.intermediate))
            assert hops[0] == hops[1]
        assert lazy._nh_indptr is tables.nh_indptr
        assert lazy._nh_indices is tables.nh_indices
        assert lazy._dist_flat is tables.dist_flat
        assert type(lazy._nh_indices) is view_type
        # Bound, the class's own per-hop method routes (no shim left), and
        # binding again is a no-op.
        assert "next_hop" not in vars(lazy)
        lazy.bind_views()
        assert lazy._nh_indptr is tables.nh_indptr
        # The list-only draw variant is bound with list views.
        assert (lazy._random_minimal == lazy._random_minimal_list) is (
            view_type is list
        )


class TestBatchedRNG:
    def test_rand01_range_and_determinism(self):
        tables = RoutingTables(hypercube_graph(4), use_cache=False)
        a = make_routing("minimal", tables, seed=42)
        b = make_routing("minimal", tables, seed=42)
        draws_a = [a._rand01() for _ in range(20_000)]  # > one refill block
        draws_b = [b._rand01() for _ in range(20_000)]
        assert draws_a == draws_b
        assert all(0.0 <= x < 1.0 for x in draws_a)

    def test_random_minimal_covers_all_candidates(self):
        # Q4: 4 minimal first hops from 0 toward 15; all must be drawable.
        tables = RoutingTables(hypercube_graph(4), use_cache=False)
        policy = make_routing("minimal", tables, seed=7)
        seen = {policy._random_minimal(0, 15) for _ in range(500)}
        assert seen == set(map(int, tables.min_next_hops(0, 15)))

    def test_random_router_in_range(self):
        tables = RoutingTables(hypercube_graph(4), use_cache=False)
        policy = make_routing("valiant", tables, seed=3)
        draws = {policy._random_router() for _ in range(2000)}
        assert min(draws) >= 0 and max(draws) < 16
        assert len(draws) == 16  # every router reachable
