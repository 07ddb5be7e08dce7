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

    def decode(keys):
        return np.asarray(keys)[:, None]

    identity = np.array([0])
    generators = np.array([[g] for g in gens])
    return identity, generators, multiply, canonicalize, encode, decode, n


def _keyed(identity, generators, multiply, canonicalize, encode, decode, n_keys):
    """The closure's arguments from an element-level setup."""
    gens = canonicalize(np.asarray(generators).reshape(-1, len(identity)))

    def right_multiply(keys):
        x = decode(keys)
        rows = [encode(canonicalize(multiply(x, g))) for g in gens]
        return np.stack(rows) if rows else np.empty((0, len(keys)), np.int64)

    key0 = int(encode(canonicalize(np.asarray(identity)[None, :]))[0])
    return key0, right_multiply, n_keys


def _closure(setup):
    return cayley_graph_closure(*_keyed(*setup))


def _edges(perms):
    """The directed pairs (v, v s_j), generator-major."""
    s, n = perms.shape
    return np.stack([np.tile(np.arange(n), s), perms.ravel()], axis=1)


class TestCyclicGroups:
    def test_full_cycle(self):
        keys, perms = _closure(_zn_setup(12, [1, 11]))
        assert len(keys) == 12
        g = CSRGraph.from_edges(12, _edges(perms))
        assert g.degree() == 2  # the 12-cycle

    def test_proper_subgroup(self):
        # <2> inside Z_12 has order 6.
        keys, _ = _closure(_zn_setup(12, [2, 10]))
        assert len(keys) == 6

    def test_identity_is_vertex_zero(self):
        keys, _ = _closure(_zn_setup(10, [3, 7]))
        assert keys[0] == 0

    def test_edge_count(self):
        _, perms = _closure(_zn_setup(9, [1, 8, 3, 6]))
        # One directed edge per (vertex, generator).
        assert perms.shape == (4, 9) and perms.dtype == np.int32

    def test_empty_generators_rejected(self):
        with pytest.raises(ConstructionError):
            _closure(_zn_setup(5, []))

    def test_max_vertices_guard(self):
        key0, right_multiply, n_keys = _keyed(*_zn_setup(1000, [1, 999]))
        with pytest.raises(ConstructionError):
            cayley_graph_closure(key0, right_multiply, n_keys, max_vertices=10)

    def test_keys_outside_the_range_rejected(self):
        # Keys index a flat table: one past the end must not be written.
        key0, right_multiply, _ = _keyed(*_zn_setup(12, [1, 11]))
        with pytest.raises(ConstructionError):
            cayley_graph_closure(key0, right_multiply, 11)
        with pytest.raises(ConstructionError):
            cayley_graph_closure(12, right_multiply, 12)

    def test_circulant_structure(self):
        # Z_8 with generators {1,7,2,6} = circulant C8(1,2).
        keys, perms = _closure(_zn_setup(8, [1, 7, 2, 6]))
        g = CSRGraph.from_edges(8, _edges(perms))
        assert g.degree() == 4
        # Vertex labels equal the group elements (their keys) in BFS
        # order; check adjacency differences.
        for u, v in g.edge_array():
            diff = int((keys[u] - keys[v]) % 8)
            assert diff in (1, 2, 6, 7)


def _lps_setup(p: int, q: int):
    from repro.algebra.mat2 import (
        mat_canonicalize,
        mat_decode,
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
        lambda keys: mat_decode(keys, q),
        q**3 + q**2,
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
        pytest.param((3, 5), id="LPS(3,5)"),  # PGL
        pytest.param((5, 13), id="LPS(5,13)"),  # PGL
        pytest.param((11, 7), id="LPS(11,7)"),  # PSL
        pytest.param((3, 11), id="LPS(3,11)"),  # PSL
        pytest.param(lambda: _zn_setup(12, [1, 11]), id="Z12<1>"),
        pytest.param(lambda: _zn_setup(12, [2, 10]), id="Z12<2>"),
        pytest.param(lambda: _zn_setup(10, [3, 7]), id="Z10<3>"),
        pytest.param(lambda: _zn_setup(9, [1, 8, 3, 6]), id="Z9<1,3>"),
        pytest.param(lambda: _zn_setup(8, [1, 7, 2, 6]), id="C8(1,2)"),
    ],
)
def test_vertex_numbering_matches_reference_bfs(setup):
    lps = isinstance(setup, tuple)
    args = _lps_setup(*setup) if lps else setup()
    keys, perms = _closure(args)
    ref_elements, ref_edges = _reference_closure(*args[:5])
    np.testing.assert_array_equal(keys, args[4](ref_elements))
    np.testing.assert_array_equal(args[5](keys), ref_elements)
    np.testing.assert_array_equal(_edges(perms), ref_edges)
    if lps:
        # build_lps's own closure (fused product keys) numbers the same.
        from repro.topology.lps import _lps_generator_permutations, build_lps

        np.testing.assert_array_equal(_lps_generator_permutations(*setup), perms)
        np.testing.assert_array_equal(build_lps(*setup).gen_perms, perms)
