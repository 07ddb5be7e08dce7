"""Property-based tests (hypothesis) for the design-space search moves.

The search subsystem's correctness rests on structural invariants, not on
any particular trajectory: double-edge swaps must preserve the degree
sequence and edge count and never disconnect an accepted state, and
2-lifts must realise the Marcus–Spielman–Srivastava spectrum
decomposition exactly.  These properties are checked over randomly drawn
regular graphs, budgets, seeds, and signings.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.metrics import is_connected
from repro.search.lift import search_signing, signed_adjacency, two_lift
from repro.search.swap import edge_swap_search, replay_swaps


@st.composite
def regular_graphs(draw, max_n=36):
    """A random regular graph: (n, k) with n*k even, k >= 3.

    Usually connected, but the configuration model can split it into
    components (seed 385 at n=8, k=3 gives two K4s).
    """
    k = draw(st.integers(min_value=3, max_value=6))
    # Keep n comfortably above k: the configuration-model repair loop is
    # only guaranteed to converge quickly for sparse-ish instances.
    n = draw(st.integers(min_value=2 * k + 2, max_value=max_n + 2 * k))
    if (n * k) % 2:
        n += 1
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_regular_graph(n, k, seed=seed)


def connected_regular_graphs():
    """:func:`regular_graphs` restricted to connected draws: the swap search
    rejects a disconnected seed (pinned in tests/test_search.py)."""
    return regular_graphs().filter(is_connected)


# -- double-edge swaps -------------------------------------------------------
class TestSwapInvariants:
    @given(connected_regular_graphs(), st.integers(0, 60),
           st.integers(0, 2**31 - 1), st.sampled_from(["hill", "anneal"]))
    @settings(max_examples=30, deadline=None)
    def test_degree_and_edges_preserved_connectivity_kept(
        self, g, budget, seed, schedule
    ):
        """Every accepted state is k-regular, same edge count, connected."""
        result = edge_swap_search(
            g, budget=budget, seed=seed, schedule=schedule
        )
        degs = g.degrees()
        for state in replay_swaps(g, result.accepted_swaps):
            assert np.array_equal(state.degrees(), degs)
            assert state.num_edges == g.num_edges
            assert is_connected(state)
        # The returned best graph obeys the same invariants.
        assert np.array_equal(result.graph.degrees(), degs)
        assert result.graph.num_edges == g.num_edges
        assert is_connected(result.graph)

    @given(connected_regular_graphs(), st.integers(1, 60),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_best_never_worse_than_seed(self, g, budget, seed):
        result = edge_swap_search(g, budget=budget, seed=seed)
        assert result.best_fitness >= result.seed_fitness
        assert result.improvement >= 0.0

    @given(connected_regular_graphs(), st.integers(1, 40),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_hill_climb_curve_is_monotone(self, g, budget, seed):
        """Hill-climbing accepts only improvements: the curve never drops."""
        result = edge_swap_search(g, budget=budget, seed=seed, schedule="hill")
        assert np.all(np.diff(result.fitness_curve) >= 0.0)


# -- 2-lifts -----------------------------------------------------------------
@st.composite
def graph_and_signs(draw):
    g = draw(regular_graphs(max_n=20))
    bits = draw(
        st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges)
    )
    signs = np.where(np.array(bits), 1, -1)
    return g, signs


class TestLiftInvariants:
    @given(graph_and_signs())
    @settings(max_examples=30, deadline=None)
    def test_doubles_vertices_preserves_degree(self, g_signs):
        g, signs = g_signs
        lifted = two_lift(g, signs)
        assert lifted.n == 2 * g.n
        assert lifted.num_edges == 2 * g.num_edges
        assert np.array_equal(
            lifted.degrees(), np.concatenate([g.degrees(), g.degrees()])
        )

    @given(graph_and_signs())
    @settings(max_examples=25, deadline=None)
    def test_spectrum_is_base_union_signed(self, g_signs):
        """eig(lift) = eig(A) ∪ eig(A_s) — the MSS interlacing identity."""
        g, signs = g_signs
        lifted = two_lift(g, signs)
        lift_spec = np.sort(np.linalg.eigvalsh(lifted.adjacency().toarray()))
        base_spec = np.linalg.eigvalsh(g.adjacency().toarray())
        signed_spec = np.linalg.eigvalsh(signed_adjacency(g, signs).toarray())
        expect = np.sort(np.concatenate([base_spec, signed_spec]))
        assert np.allclose(lift_spec, expect, atol=1e-8)

    @given(regular_graphs(max_n=20))
    @settings(max_examples=20, deadline=None)
    def test_all_plus_signing_is_two_disjoint_copies(self, g):
        lifted = two_lift(g, np.ones(g.num_edges))
        have = {tuple(e) for e in lifted.edge_array()}
        want = set()
        for u, v in g.edge_array():
            want.add((int(u), int(v)))
            want.add((int(u) + g.n, int(v) + g.n))
        assert have == want
        assert not is_connected(lifted)

    @given(st.integers(4, 8), st.integers(0, 2**31 - 1),
           st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=10, deadline=None)
    def test_signing_search_beats_trivial_signing(self, n, seed, restarts, passes):
        """The searched signing's score is within the trivial bound k."""
        g = complete_graph(n)
        res = search_signing(g, seed=seed, restarts=restarts, passes=passes)
        # The all-(+1) signing scores exactly k (A_s = A); any search
        # result must do strictly better on K_n, whose signed spectra
        # are well below k for balanced signings.
        assert res.score < g.degree()
        assert res.signs.shape == (g.num_edges,)
        assert is_connected(res.graph) or res.score == pytest.approx(
            g.degree()
        )
