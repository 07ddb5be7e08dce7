"""The routing fast path: flat next-hop tables, edge ids, batched RNG.

The fast path (``RoutingTables.build_fast_path``) must be *set-identical*
to the reference numpy implementation (``min_next_hops``) for every
(router, destination) pair — these tests pin that across one topology per
family plus the generator graphs, for the stored arrays and for both forms
of the event engine's views (Python lists up to ``LIST_CELLS_MAX`` cells,
arrays past it), and pin the O(1) edge-id lookup to the CSR-position
semantics the simulator's port arrays index by.  The blocked, slot-coded
table build is also pinned to the per-router loop that built router-id
tables, kept here as the reference, on graphs chosen for its edge cases:
equal offsets, and slots that decode to the reference's router ids byte
for byte.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import repro.routing.tables as tables_mod
import repro.utils.diskcache as diskcache
from repro.errors import ConstructionError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    cycle_graph,
    hypercube_graph,
    random_regular_graph,
)
from repro.routing import RoutingTables, make_routing
from repro.routing.oracles import DenseOracle
from repro.routing.tables import next_hop_dtypes
from repro.topology import (
    SIM_CONFIGS,
    build_bundlefly,
    build_canonical_dragonfly,
    build_lps,
    build_skywalk,
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
    "skywalk": lambda: build_skywalk(50, 6, seed=3).graph,  # degrees 4-6
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
        indptr, slots = tables.next_hop_arrays()
        assert (indptr.dtype, slots.dtype) == (np.int32, np.uint8)
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


def reference_next_hop_table(tables):
    """The per-router loop the blocked build replaced: one numpy pass per
    router over its neighbours' distance rows, chunks concatenated."""
    g = tables.graph
    n = tables.n
    dist = tables.dist
    counts = np.empty(n * n, dtype=np.int64)
    chunks = []
    for u in range(n):
        row = g.neighbors(u)
        # mask[d, j]: neighbour row[j] is a minimal next hop toward d.
        mask = (dist[row] == dist[u] - np.int16(1)).T
        _, j_idx = np.nonzero(mask)
        chunks.append(row[j_idx])
        counts[u * n : (u + 1) * n] = mask.sum(axis=1)
    indptr = np.empty(n * n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(chunks).astype(np.int32)
        if chunks
        else np.empty(0, dtype=np.int32)
    )
    return indptr, indices


def decode_slots(graph, indptr, slots):
    """The stored slots as router ids: the hop of slot ``j`` of router
    ``u`` is ``graph.indices[graph.indptr[u] + j]``."""
    n = graph.n
    heads = np.repeat(np.arange(n * n, dtype=np.int64) // max(n, 1),
                      np.diff(indptr))
    return graph.indices[graph.indptr[heads] + slots]


def _max_degree(graph) -> int:
    return int(np.diff(graph.indptr).max()) if graph.n else 0


def _complete_bipartite(a: int, b: int) -> CSRGraph:
    left, right = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return CSRGraph.from_edges(a + b, np.stack([left.ravel(), right.ravel()], 1))


#: Every simulated topology, plus graphs chosen for the blocked build's
#: edge cases: uneven degrees (padded slots), cells as wide as a degree of
#: 130, a diameter past int8, and the smallest graphs.
BUILD_GRAPHS = {
    **{
        f"{scale}-{name}": lambda build=spec["build"]: build().graph
        for scale, cfg in SIM_CONFIGS.items()
        for name, spec in cfg["topologies"].items()
    },
    "skywalk-irregular": FAMILY_GRAPHS["skywalk"],
    "K130,130": lambda: _complete_bipartite(130, 130),
    "cycle-301": lambda: cycle_graph(301),
    "one-router": lambda: CSRGraph.from_edges(1, np.empty((0, 2), np.int64)),
    "two-routers": lambda: CSRGraph.from_edges(2, np.array([[0, 1]])),
}


class TestBlockedBuild:
    @pytest.mark.parametrize("name", sorted(BUILD_GRAPHS))
    def test_matches_per_router_loop(self, name, monkeypatch):
        # Array views: the list form is the same decoded array's tolist()
        # (TestNextHopTableParity covers both), and at paper scale it
        # costs hundreds of MB.
        monkeypatch.setattr(tables_mod, "LIST_CELLS_MAX", 0)
        g = BUILD_GRAPHS[name]()
        tables = RoutingTables(g, use_cache=False)
        indptr, slots = tables.next_hop_arrays()
        assert (indptr.dtype, slots.dtype) == next_hop_dtypes(
            g.n, _max_degree(g)
        )
        ref_indptr, ref_indices = reference_next_hop_table(tables)
        assert indptr.shape == ref_indptr.shape
        assert np.array_equal(indptr, ref_indptr)
        hops = decode_slots(g, indptr, slots)
        assert (hops.dtype, hops.shape) == (
            ref_indices.dtype, ref_indices.shape
        )
        assert hops.tobytes() == ref_indices.tobytes()
        # The event engine's view decodes the same router ids.
        assert tables.nh_indices.tobytes() == ref_indices.tobytes()

    def test_edge_case_graphs_have_their_edge_cases(self):
        degrees = np.diff(BUILD_GRAPHS["skywalk-irregular"]().indptr)
        assert (degrees.min(), degrees.max()) == (4, 6)
        tables = RoutingTables(BUILD_GRAPHS["K130,130"](), use_cache=False)
        assert int(np.diff(tables.next_hop_arrays()[0]).max()) == 130
        tables = RoutingTables(BUILD_GRAPHS["cycle-301"](), use_cache=False)
        assert tables.diameter == 150 > np.iinfo(np.int8).max

    def test_build_holds_little_beyond_its_output(self):
        # The stored arrays are written in place: no chunk list, no
        # concatenation, no dtype copy — only one block's temporaries.
        tables = RoutingTables(build_lps(23, 13).graph, use_cache=False)
        tables.dist  # an input of the build, not part of its peak
        tracemalloc.start()
        try:
            indptr, slots = tables._build_next_hop_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (indptr.nbytes + slots.nbytes)


class TestStoredFormat:
    def test_dtype_rule(self):
        # Offsets: int32 while every (router, destination, slot) cell
        # count stays below 2**31, int64 from it on (checked on the rule:
        # no such table is allocated).
        assert next_hop_dtypes(1024, 2047)[0] == np.int32  # 2**31 - 2**20
        assert next_hop_dtypes(1024, 2048)[0] == np.int64  # 2**31
        assert next_hop_dtypes(46341, 1)[0] == np.int64  # 46341**2 > 2**31
        assert next_hop_dtypes(46340, 1)[0] == np.int32
        # Slots: uint8 up to degree 256.
        assert next_hop_dtypes(2, 256)[1] == np.uint8
        assert next_hop_dtypes(2, 257)[1] == np.uint16
        assert next_hop_dtypes(1, 0) == (np.int32, np.uint8)

    @pytest.mark.parametrize(
        "scale,name",
        [(scale, name) for scale, cfg in SIM_CONFIGS.items()
         for name in cfg["topologies"]],
    )
    def test_simulated_topologies_store_int32_offsets_and_uint8_slots(
        self, scale, name
    ):
        g = SIM_CONFIGS[scale]["topologies"][name]["build"]().graph
        assert next_hop_dtypes(g.n, _max_degree(g)) == (np.int32, np.uint8)

    def test_paper_tables_take_at_most_50_mb(self):
        # The four topologies of the paper's Section VI simulations.
        total = 0
        for spec in SIM_CONFIGS["paper"]["topologies"].values():
            tables = RoutingTables(spec["build"]().graph, use_cache=False)
            indptr, slots = tables.next_hop_arrays()
            assert (indptr.dtype, slots.dtype) == (np.int32, np.uint8)
            total += indptr.nbytes + slots.nbytes
        assert total <= 50_000_000  # 128.0 MB as router ids, 45.3 MB as slots

    def test_router_id_table_under_the_old_key_is_never_read(
        self, tmp_path, monkeypatch
    ):
        cache = diskcache.DiskCache(tmp_path, enabled=True)
        monkeypatch.setattr(diskcache, "_default", cache)
        g = FAMILY_GRAPHS["lps"]()
        fresh = RoutingTables(g, use_cache=False).next_hop_arrays()
        # What the router-id format stored under its key.
        old = reference_next_hop_table(RoutingTables(g, use_cache=False))
        cache.put(("next-hop-table", g.content_hash()), old)
        for _ in range(2):  # cold, then from the store
            tables = RoutingTables(g, use_cache=True)
            for got, want in zip(tables.next_hop_arrays(), fresh):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        stored = cache.get(("next-hop-table", g.content_hash()))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stored, old))


class TestDenseDistances:
    def test_matrix_is_built_without_a_copy(self):
        tables = RoutingTables(
            random_regular_graph(4000, 3, seed=1), use_cache=False
        )
        tracemalloc.start()
        try:
            dist = tables.dist
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.dtype == np.int16
        assert peak < 1.6 * dist.nbytes

    def test_dense_oracle_rejects_a_disconnected_graph(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError, match="disconnected"):
            DenseOracle(g, use_cache=False)


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
