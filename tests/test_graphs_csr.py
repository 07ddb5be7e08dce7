"""Tests for the CSR graph container."""

import numpy as np
import pytest

from repro.errors import ConstructionError
from repro.graphs.csr import CSRGraph, sorted_unique


@pytest.fixture
def triangle():
    return CSRGraph.from_edges(3, np.array([[0, 1], [1, 2], [2, 0]]))


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(50, -3, dtype=np.int64),
            np.array([[4, 1], [4, 9]], dtype=np.int32),  # flattened
            np.random.default_rng(0).integers(-50, 50, size=2000),
            np.random.default_rng(1).integers(0, 2**40, size=5000),
        ],
        ids=["empty", "one", "all-duplicate", "2-d", "dense", "sparse"],
    )
    def test_matches_np_unique(self, keys):
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_input_untouched(self):
        keys = np.array([3, 1, 3, 2])
        sorted_unique(keys)
        assert keys.tolist() == [3, 1, 3, 2]


class TestFromEdges:
    def test_basic(self, triangle):
        assert triangle.n == 3
        assert triangle.num_edges == 3
        assert triangle.degree() == 2

    def test_symmetrised(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1]]))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, np.array([[0, 0], [0, 1], [2, 2]]))
        assert g.num_edges == 1

    def test_parallel_deduplicated(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.num_edges == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ConstructionError):
            CSRGraph.from_edges(3, np.array([[0, 3]]))
        with pytest.raises(ConstructionError):
            CSRGraph.from_edges(3, np.array([[-1, 1]]))

    def test_neighbors_sorted(self):
        g = CSRGraph.from_edges(5, np.array([[2, 4], [2, 0], [2, 3], [2, 1]]))
        assert g.neighbors(2).tolist() == [0, 1, 3, 4]

    def test_isolated_vertices_allowed(self):
        g = CSRGraph.from_edges(5, np.array([[0, 1]]))
        assert g.degrees().tolist() == [1, 1, 0, 0, 0]

    def test_parallel_kept_when_allowed(self):
        g = CSRGraph.from_edges(
            3, np.array([[0, 1], [1, 0], [2, 2], [1, 2]]), allow_parallel=True
        )
        assert g.neighbors(1).tolist() == [0, 0, 2]
        assert g.neighbors(0).tolist() == [1, 1]

    def test_peak_allocation_is_a_few_edge_lists(self):
        # The symmetrised keys are built without a reversed or masked copy
        # of the edge list, which sets the LPS build's memory peak at scale.
        import tracemalloc

        n, k = 20_000, 6
        rng = np.random.default_rng(0)
        edges = np.stack(
            [np.repeat(np.arange(n), k), rng.integers(0, n, n * k)], axis=1
        )
        tracemalloc.start()
        try:
            CSRGraph.from_edges(n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * edges.nbytes


class TestAccessors:
    def test_edge_array_each_edge_once(self, triangle):
        e = triangle.edge_array()
        assert len(e) == 3
        assert np.all(e[:, 0] < e[:, 1])

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 2)
        assert not triangle.has_edge(0, 0)

    def test_is_regular(self, triangle):
        assert triangle.is_regular()
        g = CSRGraph.from_edges(3, np.array([[0, 1]]))
        assert not g.is_regular()
        with pytest.raises(ConstructionError):
            g.degree()

    def test_adjacency_matrix(self, triangle):
        a = triangle.adjacency().toarray()
        assert np.array_equal(a, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], float))

    def test_adjacency_cached(self, triangle):
        assert triangle.adjacency() is triangle.adjacency()


class TestMutationByCopy:
    def test_without_edges(self, triangle):
        g = triangle.without_edges(np.array([[1, 0]]))  # orientation ignored
        assert g.num_edges == 2
        assert not g.has_edge(0, 1)

    def test_without_edges_keeps_original(self, triangle):
        _ = triangle.without_edges(np.array([[0, 1]]))
        assert triangle.num_edges == 3

    def test_subgraph(self):
        g = CSRGraph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
        sub = g.subgraph(np.array([1, 2, 3]))
        assert sub.n == 3 and sub.num_edges == 2


class TestNetworkxInterop:
    def test_roundtrip(self, triangle):
        nx_g = triangle.to_networkx()
        back = CSRGraph.from_networkx(nx_g)
        assert back.n == 3 and back.num_edges == 3
