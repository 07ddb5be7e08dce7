"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.gf import GF
from repro.algebra.mat2 import (
    mat_canonicalize,
    mat_determinant,
    mat_encode,
    mat_multiply,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.bfs import bfs_distances, UNREACHED
from repro.graphs.metrics import is_connected
from repro.nt.primes import is_prime
from repro.nt.quaternions import Quaternion
from repro.partition import bisect
from repro.partition.weighted import WeightedGraph

PRIMES = [3, 5, 7, 11, 13]


# -- strategies --------------------------------------------------------------
@st.composite
def edge_lists(draw, max_n=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.array(edges, dtype=np.int64)


# -- CSR graph invariants -----------------------------------------------------
class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_dedup(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, edges)
        # symmetry: u in N(v) iff v in N(u)
        for v in range(n):
            for u in g.neighbors(v):
                assert g.has_edge(int(u), v)
        # no self loops
        for v in range(n):
            assert not g.has_edge(v, v)
        # degree sum = 2m
        assert g.degrees().sum() == 2 * g.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_without_edges_subset(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, edges)
        ea = g.edge_array()
        if len(ea) == 0:
            return
        h = g.without_edges(ea[: max(1, len(ea) // 2)])
        assert h.num_edges == g.num_edges - max(1, len(ea) // 2)

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_bfs_triangle_inequality(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, edges)
        d0 = bfs_distances(g, 0)
        for v in range(n):
            for u in g.neighbors(v):
                if d0[v] != UNREACHED and d0[u] != UNREACHED:
                    assert abs(int(d0[v]) - int(d0[int(u)])) <= 1


# -- finite field properties ---------------------------------------------------
class TestGFProperties:
    @given(
        q=st.sampled_from([4, 5, 7, 8, 9, 13]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_field_axioms_random_triples(self, q, data):
        f = GF(q)
        a = data.draw(st.integers(0, q - 1))
        b = data.draw(st.integers(0, q - 1))
        c = data.draw(st.integers(0, q - 1))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


# -- projective matrices -------------------------------------------------------
class TestMatrixProperties:
    @given(
        q=st.sampled_from(PRIMES),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_canonicalization_well_defined(self, q, data):
        entries = data.draw(
            st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
        )
        m = np.array(entries, dtype=np.int64)
        if int(mat_determinant(m, q)) == 0:
            return
        scale = data.draw(st.integers(1, q - 1))
        assert np.array_equal(
            mat_canonicalize(m, q)[0], mat_canonicalize(m * scale % q, q)[0]
        )

    @given(q=st.sampled_from(PRIMES), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_injective_on_canonical(self, q, data):
        a = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)))
        b = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)))
        if int(mat_determinant(a, q)) == 0 or int(mat_determinant(b, q)) == 0:
            return
        ca, cb = mat_canonicalize(a, q)[0], mat_canonicalize(b, q)[0]
        if int(mat_encode(ca, q)[0]) == int(mat_encode(cb, q)[0]):
            assert np.array_equal(ca, cb)

    @given(q=st.sampled_from([3, 5, 13, 61, 101]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_key_is_dense_and_orders_like_base_q_digits(self, q, data):
        mats = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=4, max_size=4),
                    min_size=2, max_size=12,
                )
            )
        )
        mats = mats[mat_determinant(mats, q) != 0]
        canon = mat_canonicalize(mats, q)
        keys = mat_encode(canon, q)
        digits = ((canon[:, 0] * q + canon[:, 1]) * q + canon[:, 2]) * q + canon[:, 3]
        assert np.all((keys >= 0) & (keys < q**3 + q**2))
        for i in range(len(keys)):
            for j in range(len(keys)):
                # Injective on canonical forms, and the same order.
                assert (keys[i] == keys[j]) == np.array_equal(canon[i], canon[j])
                assert (keys[i] < keys[j]) == (digits[i] < digits[j])


# -- quaternions ---------------------------------------------------------------
class TestQuaternionProperties:
    @given(
        st.tuples(*[st.integers(-10, 10)] * 4),
        st.tuples(*[st.integers(-10, 10)] * 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_norm_multiplicative(self, t1, t2):
        q1, q2 = Quaternion(*t1), Quaternion(*t2)
        assert (q1 * q2).norm() == q1.norm() * q2.norm()

    @given(st.tuples(*[st.integers(-10, 10)] * 4))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_gives_norm(self, t):
        q = Quaternion(*t)
        prod = q * q.conjugate()
        assert (prod.a, prod.b, prod.c, prod.d) == (q.norm(), 0, 0, 0)


# -- partitioner invariants ------------------------------------------------------
class TestPartitionProperties:
    @given(edge_lists(max_n=24))
    @settings(max_examples=25, deadline=None)
    def test_bisect_always_balanced(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, edges)
        if g.num_edges == 0 or not is_connected(g):
            return
        labels, cut = bisect(g, seed=0)
        c0, c1 = int((labels == 0).sum()), int((labels == 1).sum())
        assert abs(c0 - c1) <= 1
        assert cut == WeightedGraph.from_csr(g).cut_value(labels)
        assert 0 <= cut <= g.num_edges


# -- primality ------------------------------------------------------------------
class TestPrimalityProperties:
    @given(st.integers(2, 10_000), st.integers(2, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_products_never_prime(self, a, b):
        assert not is_prime(a * b)


# -- 2-lift spectra ---------------------------------------------------------------
class TestLiftProperties:
    @given(st.integers(4, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_lift_spectrum_is_union(self, n, seed):
        """eig(2-lift) = eig(base) ∪ eig(signed adjacency) for any signing."""
        from repro.graphs.generators import complete_graph
        from repro.topology.xpander import two_lift

        g = complete_graph(n)
        rng = np.random.default_rng(seed)
        signs = rng.choice(np.array([-1, 1]), size=g.num_edges)
        lifted = two_lift(g, signs)
        assert lifted.n == 2 * n
        assert lifted.degree() == n - 1
        lift_spec = np.sort(np.linalg.eigvalsh(lifted.adjacency().toarray()))
        base_spec = np.linalg.eigvalsh(g.adjacency().toarray())
        edges = g.edge_array()
        signed = np.zeros((n, n))
        signed[edges[:, 0], edges[:, 1]] = signs
        signed += signed.T
        signed_spec = np.linalg.eigvalsh(signed)
        expect = np.sort(np.concatenate([base_spec, signed_spec]))
        assert np.allclose(lift_spec, expect, atol=1e-8)


# -- traffic patterns ---------------------------------------------------------------
class TestTrafficProperties:
    @given(
        st.sampled_from(["shuffle", "reverse", "transpose", "complement",
                         "tornado", "neighbor"]),
        st.sampled_from([8, 16, 64, 128]),
    )
    @settings(max_examples=50, deadline=None)
    def test_deterministic_patterns_are_permutations(self, name, n):
        from repro.sim.traffic import make_traffic

        pat = make_traffic(name, n)
        rng = np.random.default_rng(0)
        dsts = [pat.destination(s, rng) for s in range(n)]
        assert sorted(dsts) == list(range(n))

    @given(st.sampled_from([4, 8, 32]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_pattern_uniform_support(self, n, seed):
        from repro.sim.traffic import UniformRandomTraffic

        pat = UniformRandomTraffic(n)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            s = int(rng.integers(n))
            d = pat.destination(s, rng)
            assert 0 <= d < n and d != s
