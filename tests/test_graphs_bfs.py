"""Tests for the BFS kernels, including agreement between implementations."""

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from repro.graphs.bfs import (
    UNREACHED,
    bfs_distances,
    distance_matrix,
    distance_profile,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    cycle_graph,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)


class TestSingleSource:
    def test_path_graph(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3]

    def test_cycle(self):
        g = cycle_graph(8)
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, 1, 2, 3, 4, 3, 2, 1]

    def test_disconnected(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        d = bfs_distances(g, 0)
        assert d[2] == UNREACHED and d[3] == UNREACHED

    def test_hypercube_is_hamming(self):
        g = hypercube_graph(6)
        d = bfs_distances(g, 0)
        expect = np.array([bin(v).count("1") for v in range(64)])
        assert np.array_equal(d, expect)


# Graphs for the packed kernel: zero-degree rows where a per-row reduction
# over CSR slices trips (first, between other rows, and last) and several
# components.
def _irregular(isolated):
    n = 130
    rng = np.random.default_rng(len(isolated) + sum(isolated))
    others = np.setdiff1d(np.arange(n), isolated)
    g = CSRGraph.from_edges(n, rng.choice(others, size=(2 * n, 2)))
    assert not g.degrees()[list(isolated)].any()
    assert not g.is_regular()
    return g


def _components():
    cycle = [[i, (i + 1) % 40] for i in range(40)]
    path = [[i, i + 1] for i in range(40, 99)]
    triangle = [[100, 101], [101, 102], [100, 102]]
    return CSRGraph.from_edges(110, np.array(cycle + path + triangle))


GRAPHS = {
    "isolated-first": lambda: _irregular((0,)),
    "isolated-middle": lambda: _irregular((64, 65)),
    "isolated-last": lambda: _irregular((128, 129)),
    "isolated-everywhere": lambda: _irregular((0, 63, 64, 129)),
    "components": _components,
}


def _by_single_source(g, sources):
    rows = np.array([bfs_distances(g, s) for s in sources], np.int64)
    rows = rows.reshape(len(sources), g.n)
    rows[rows == UNREACHED] = -1
    return rows


def _by_scipy(g, sources):
    d = shortest_path(g.adjacency(), unweighted=True, indices=sources)
    d = np.asarray(d).reshape(len(sources), g.n)
    return np.where(np.isinf(d), -1, d).astype(np.int64)


class TestDistanceMatrix:
    @pytest.mark.parametrize("batch", [1, 3, 64, 512])
    def test_agrees_with_single_source(self, batch):
        g = random_regular_graph(60, 4, seed=7)
        dm = distance_matrix(g, batch=batch)
        for s in (0, 17, 59):
            assert np.array_equal(dm[s], bfs_distances(g, s).astype(dm.dtype))

    def test_symmetric(self):
        g = random_regular_graph(50, 3, seed=3)
        dm = distance_matrix(g)
        assert np.array_equal(dm, dm.T)

    def test_subset_of_sources(self):
        g = cycle_graph(10)
        dm = distance_matrix(g, sources=np.array([2, 5]))
        assert dm.shape == (2, 10)
        assert dm[0, 2] == 0 and dm[1, 5] == 0

    def test_disconnected_marked(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        dm = distance_matrix(g)
        assert dm[0, 2] == -1

    # The packed kernel against two independent references: per-source
    # frontier BFS, and scipy's unweighted shortest paths.
    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 512])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_matches_references(self, graph, batch):
        g = GRAPHS[graph]()
        dm = distance_matrix(g, batch=batch)
        assert dm.shape == (g.n, g.n) and dm.dtype == np.int16
        everyone = np.arange(g.n)
        assert np.array_equal(dm, _by_single_source(g, everyone))
        assert np.array_equal(dm, _by_scipy(g, everyone))

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 512])
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_source_subset_int32(self, graph, batch):
        g = GRAPHS[graph]()
        rng = np.random.default_rng(batch)
        # Unsorted, with repeats, and isolated vertices among them.
        sources = np.concatenate([rng.integers(0, g.n, 150), [0, g.n - 1]])
        dm = distance_matrix(g, sources=sources, batch=batch, dtype=np.int32)
        assert dm.shape == (len(sources), g.n) and dm.dtype == np.int32
        assert np.array_equal(dm, _by_single_source(g, sources))
        assert np.array_equal(dm, _by_scipy(g, sources))

    def test_unreachable_pairs_are_minus_one(self):
        g = _components()
        dm = distance_matrix(g, batch=64)
        comp = np.arange(g.n)  # isolated vertices: one component each
        comp[:40], comp[40:100], comp[100:103] = -1, -2, -3
        same = comp[:, None] == comp[None, :]
        assert (dm[~same] == -1).all()
        assert (dm[same] >= 0).all()
        assert (np.diag(dm) == 0).all()

    def test_no_edges_and_no_sources(self):
        g = CSRGraph(3, np.zeros(4, np.int64), np.zeros(0, np.int32))
        assert np.array_equal(distance_matrix(g), np.where(np.eye(3), 0, -1))
        empty = distance_matrix(g, sources=np.array([], np.int64))
        assert empty.shape == (0, 3)


class TestDistanceProfile:
    def test_cycle_profile(self):
        hist, diam, mean = distance_profile(cycle_graph(6))
        # C6: each vertex has 2 at dist 1, 2 at dist 2, 1 at dist 3.
        assert diam == 3
        assert hist[1] == 12 and hist[2] == 12 and hist[3] == 6
        assert mean == pytest.approx((12 + 24 + 18) / 30)

    def test_torus_diameter(self):
        g = torus_graph((4, 4))
        _, diam, _ = distance_profile(g)
        assert diam == 4  # 2 + 2

    def test_raises_on_disconnected(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError):
            distance_profile(g)

    def test_small_batch_streams_correctly(self):
        g = hypercube_graph(5)
        h1, d1, m1 = distance_profile(g, batch=7)
        h2, d2, m2 = distance_profile(g, batch=512)
        assert np.array_equal(h1, h2) and d1 == d2 and m1 == pytest.approx(m2)
