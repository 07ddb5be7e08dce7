"""Tests for the generic Cayley-graph closure builder."""

import numpy as np
import pytest

from repro.algebra.cayley import cayley_graph_closure
from repro.errors import ConstructionError
from repro.graphs.csr import CSRGraph


def _zn_setup(n: int, gens: list[int]):
    """Cayley graph of Z_n with integer 'vectors' of length 1."""

    def multiply(batch, g):
        return (batch + g) % n

    def canonicalize(batch):
        return np.atleast_2d(batch) % n

    def encode(batch):
        return np.atleast_2d(batch)[:, 0]

    identity = np.array([0])
    generators = np.array([[g] for g in gens])
    return identity, generators, multiply, canonicalize, encode


class TestCyclicGroups:
    def test_full_cycle(self):
        ident, gens, mul, canon, enc = _zn_setup(12, [1, 11])
        elements, keys, edges = cayley_graph_closure(ident, gens, mul, canon, enc)
        assert len(elements) == 12
        g = CSRGraph.from_edges(12, edges)
        assert g.degree() == 2  # the 12-cycle

    def test_proper_subgroup(self):
        # <2> inside Z_12 has order 6.
        ident, gens, mul, canon, enc = _zn_setup(12, [2, 10])
        elements, _, edges = cayley_graph_closure(ident, gens, mul, canon, enc)
        assert len(elements) == 6

    def test_identity_is_vertex_zero(self):
        ident, gens, mul, canon, enc = _zn_setup(10, [3, 7])
        elements, _, _ = cayley_graph_closure(ident, gens, mul, canon, enc)
        assert elements[0, 0] == 0

    def test_edge_count(self):
        ident, gens, mul, canon, enc = _zn_setup(9, [1, 8, 3, 6])
        _, _, edges = cayley_graph_closure(ident, gens, mul, canon, enc)
        # One directed edge per (vertex, generator).
        assert len(edges) == 9 * 4

    def test_empty_generators_rejected(self):
        ident, gens, mul, canon, enc = _zn_setup(5, [])
        with pytest.raises(ConstructionError):
            cayley_graph_closure(ident, np.empty((0, 1)), mul, canon, enc)

    def test_max_vertices_guard(self):
        ident, gens, mul, canon, enc = _zn_setup(1000, [1, 999])
        with pytest.raises(ConstructionError):
            cayley_graph_closure(
                ident, gens, mul, canon, enc, max_vertices=10
            )

    def test_circulant_structure(self):
        # Z_8 with generators {1,7,2,6} = circulant C8(1,2).
        ident, gens, mul, canon, enc = _zn_setup(8, [1, 7, 2, 6])
        elements, _, edges = cayley_graph_closure(ident, gens, mul, canon, enc)
        g = CSRGraph.from_edges(8, edges)
        assert g.degree() == 4
        # Vertex labels equal the group elements in BFS order; re-map to
        # group element values and check adjacency differences.
        label = elements[:, 0]
        for u, v in g.edge_array():
            diff = int((label[u] - label[v]) % 8)
            assert diff in (1, 2, 6, 7)


def _lps_setup(p: int, q: int):
    from repro.algebra.mat2 import (
        mat_canonicalize,
        mat_encode,
        mat_identity,
        mat_multiply,
    )
    from repro.topology.lps import lps_generator_matrices

    return (
        mat_identity(q),
        lps_generator_matrices(p, q),
        lambda batch, g: mat_multiply(batch, g[None, :], q),
        lambda batch: mat_canonicalize(batch, q),
        lambda batch: mat_encode(batch, q),
    )


def _reference_closure(identity, generators, multiply, canonicalize, encode):
    """Element-at-a-time BFS with a dict: the vertex numbering contract.

    The identity is vertex 0; each BFS level's new elements take the next
    ids in ascending key order.  Topology pickles and the cached LPS
    generator permutations depend on exactly this numbering.
    """
    gens = canonicalize(np.asarray(generators))

    def step(x, g):
        y = canonicalize(multiply(x[None, :], g))[0]
        return y, int(encode(y[None, :])[0])

    ident = canonicalize(np.asarray(identity)[None, :])[0]
    index = {int(encode(ident[None, :])[0]): 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        level = {}
        for x in frontier:
            for g in gens:
                y, key = step(x, g)
                if key not in index:
                    level.setdefault(key, y)
        frontier = [level[key] for key in sorted(level)]
        for key in sorted(level):
            index[key] = len(index)
        elements.extend(frontier)
    edges = [(v, index[step(x, g)[1]]) for g in gens for v, x in enumerate(elements)]
    return np.array(elements), np.array(edges)


@pytest.mark.parametrize(
    "setup",
    [
        pytest.param(lambda: _lps_setup(3, 5), id="LPS(3,5)"),
        pytest.param(lambda: _lps_setup(5, 13), id="LPS(5,13)"),
        pytest.param(lambda: _zn_setup(12, [1, 11]), id="Z12<1>"),
        pytest.param(lambda: _zn_setup(12, [2, 10]), id="Z12<2>"),
        pytest.param(lambda: _zn_setup(10, [3, 7]), id="Z10<3>"),
        pytest.param(lambda: _zn_setup(9, [1, 8, 3, 6]), id="Z9<1,3>"),
        pytest.param(lambda: _zn_setup(8, [1, 7, 2, 6]), id="C8(1,2)"),
    ],
)
def test_vertex_numbering_matches_reference_bfs(setup):
    args = setup()
    elements, keys, edges = cayley_graph_closure(*args)
    ref_elements, ref_edges = _reference_closure(*args)
    np.testing.assert_array_equal(elements, ref_elements)
    np.testing.assert_array_equal(keys, args[4](ref_elements))
    np.testing.assert_array_equal(edges, ref_edges)
