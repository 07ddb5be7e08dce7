"""Tests for the LPS / SpectralFly construction (paper Definition 3)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.metrics import diameter, girth, is_bipartite, is_connected
from repro.nt.modular import legendre_symbol
from repro.spectral import is_ramanujan, lambda_g, ramanujan_bound
from repro.topology.lps import (
    build_lps,
    lps_design_space,
    lps_feasible,
    lps_generator_matrices,
    lps_num_vertices,
)


class TestFeasibility:
    def test_valid_inputs(self):
        assert lps_feasible(3, 5)
        assert lps_feasible(11, 7)
        assert lps_feasible(23, 13)

    def test_q_too_small_fails_ramanujan_guarantee(self):
        assert not lps_feasible(11, 5)  # 5 < 2 sqrt(11)
        # ... but the construction itself is still admissible.
        assert lps_feasible(11, 5, require_ramanujan=False)

    def test_paper_table2_instance_outside_guarantee(self):
        # LPS(19,7) appears in the paper's Table II despite 7 < 2 sqrt(19).
        assert not lps_feasible(19, 7)
        t = build_lps(19, 7)
        assert t.n_routers == 336 and t.radix == 20

    def test_equal_primes(self):
        assert not lps_feasible(7, 7)
        assert not lps_feasible(7, 7, require_ramanujan=False)

    def test_composite(self):
        assert not lps_feasible(9, 7)
        assert not lps_feasible(7, 9)

    def test_even(self):
        assert not lps_feasible(2, 7)

    def test_build_rejects_composite(self):
        with pytest.raises(ParameterError):
            build_lps(9, 7)


class TestVertexCounts:
    @pytest.mark.parametrize(
        "p,q,n",
        [
            (3, 5, 120),
            (11, 7, 168),
            (19, 7, 336),
            (23, 11, 660),
            (23, 13, 1092),
            (29, 13, 1092),
            (53, 17, 2448),
            (71, 17, 4896),
            (89, 19, 6840),
        ],
    )
    def test_closed_form(self, p, q, n):
        assert lps_num_vertices(p, q) == n

    def test_million_router_candidate_is_the_psl_case(self):
        # The largest scale cell of docs/scaling.md: (5/101) = 1, so
        # LPS(5,101) is the PSL case with q(q^2-1)/2 routers, half of the
        # PGL count.  Closed form only; the graph is not built here.
        assert legendre_symbol(5, 101) == 1
        assert lps_num_vertices(5, 101) == 515_100

    def test_smallest_lps_graph_is_120(self):
        # Paper Section IV: "the smallest possible LPS graph is on 120
        # vertices".
        sizes = [r["vertices"] for r in lps_design_space(50, 50)]
        assert min(sizes) == 120


class TestGenerators:
    @pytest.mark.parametrize("p,q", [(3, 5), (5, 13), (11, 7), (13, 17)])
    def test_count_and_determinant(self, p, q):
        gens = lps_generator_matrices(p, q)
        assert len(gens) == p + 1
        dets = (gens[:, 0] * gens[:, 3] - gens[:, 1] * gens[:, 2]) % q
        # det = p (up to projective scaling by squares).
        assert np.all(dets != 0)

    def test_distinct(self):
        from repro.algebra.mat2 import mat_encode

        gens = lps_generator_matrices(11, 7)
        assert len(np.unique(mat_encode(gens, 7))) == 12

    def test_symmetric_set(self):
        # Generator set closed under projective inverse.
        from repro.algebra.mat2 import mat_canonicalize, mat_encode, mat_multiply

        for p, q in [(3, 5), (13, 17), (11, 7)]:
            gens = lps_generator_matrices(p, q)
            keys = set(np.unique(mat_encode(gens, q)).tolist())
            # g^-1 projectively = adjugate [[d,-b],[-c,a]].
            adj = np.stack(
                [gens[:, 3], -gens[:, 1] % q, -gens[:, 2] % q, gens[:, 0]],
                axis=1,
            )
            inv_keys = set(mat_encode(mat_canonicalize(adj, q), q).tolist())
            assert keys == inv_keys


class TestBuiltGraphs:
    def test_example1_lps_3_5(self, lps_3_5):
        # Example 1: PGL(2,5), 120 vertices, 4-regular, bipartite.
        assert lps_3_5.n_routers == 120
        assert lps_3_5.radix == 4
        assert is_bipartite(lps_3_5.graph)
        assert is_connected(lps_3_5.graph)

    def test_psl_case_not_bipartite(self, lps_11_7):
        assert legendre_symbol(11, 7) == 1
        assert not is_bipartite(lps_11_7.graph)

    def test_pgl_case_bipartite(self):
        t = build_lps(19, 7)  # legendre(19,7) = -1
        assert t.n_routers == 336
        assert is_bipartite(t.graph)

    @pytest.mark.parametrize("p,q", [(3, 5), (3, 7), (11, 7), (23, 11)])
    def test_ramanujan_property(self, p, q):
        t = build_lps(p, q)
        assert is_ramanujan(t.graph)
        assert lambda_g(t.graph) <= ramanujan_bound(p + 1) + 1e-6

    def test_regularity(self, lps_23_11):
        assert np.all(lps_23_11.graph.degrees() == 24)

    def test_vertex_transitive_flag(self, lps_11_7):
        assert lps_11_7.vertex_transitive

    def test_lps_3_17_girth(self):
        # Fig. 3: a shortest cycle in LPS(3,17) uses vertices at distance 6
        # from the centre -> girth > 6 (large-girth regime of LPS).
        t = build_lps(3, 17)
        assert girth(t.graph, assume_vertex_transitive=True) >= 7

    def test_deterministic(self):
        a = build_lps(11, 7).graph.edge_array()
        b = build_lps(11, 7).graph.edge_array()
        assert np.array_equal(a, b)


class TestDesignSpace:
    def test_rows_feasible(self):
        rows = lps_design_space(60, 60)
        for r in rows:
            assert lps_feasible(r["p"], r["q"])
            assert r["radix"] == r["p"] + 1

    def test_multiple_sizes_per_radix(self):
        # Paper: arbitrarily large LPS graphs exist for a fixed radix.
        rows = lps_design_space(20, 200)
        sizes_for_radix_12 = {r["vertices"] for r in rows if r["radix"] == 12}
        assert len(sizes_for_radix_12) > 10
