"""Unit + determinism-pinning tests for the spectral design-space search.

The pinning class is the contract the golden corpus and the experiment
presets rely on: identical ``(seed, budget, schedule)`` must reproduce the
swap trajectory, candidate edge list, and fitness curve bit-identically,
on every platform and run.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.graphs.metrics import is_connected
from repro.search import (
    Annealing,
    HillClimb,
    edge_swap_search,
    make_schedule,
    replay_swaps,
    search_signing,
    two_lift,
)
from repro.spectral.eigen import lambda_g, spectral_gap
from repro.topology import (
    SEARCH_METHODS,
    SearchedTopology,
    Topology,
    build_jellyfish,
    build_paley,
    build_searched,
    lifted_topology,
    swap_searched_topology,
)


# -- schedules ---------------------------------------------------------------
class TestSchedules:
    def test_make_schedule_resolves_names(self):
        assert isinstance(make_schedule("hill"), HillClimb)
        assert isinstance(make_schedule("anneal"), Annealing)
        custom = make_schedule("anneal", t0=0.2, alpha=0.9)
        assert custom.t0 == 0.2 and custom.alpha == 0.9
        inst = Annealing(t0=0.1)
        assert make_schedule(inst) is inst

    def test_invalid_specs_rejected(self):
        with pytest.raises(ParameterError):
            make_schedule("tabu")
        with pytest.raises(ParameterError):
            make_schedule("hill", t0=0.5)
        with pytest.raises(ParameterError):
            Annealing(t0=-1.0)

    def test_hill_accepts_only_improvements(self):
        rng = np.random.default_rng(0)
        hill = HillClimb()
        assert hill.accept(0.1, 0, rng)
        assert not hill.accept(0.0, 0, rng)
        assert not hill.accept(-0.1, 0, rng)

    def test_annealing_cools(self):
        sched = Annealing(t0=0.5, alpha=0.9)
        assert sched.temperature(10) < sched.temperature(0)
        rng = np.random.default_rng(0)
        # A huge regression is effectively never accepted when cold.
        assert not any(
            sched.accept(-50.0, 1000, rng) for _ in range(100)
        )


# -- swap search -------------------------------------------------------------
class TestEdgeSwapSearch:
    def test_rejects_bad_inputs(self):
        g = random_regular_graph(12, 3, seed=0)
        with pytest.raises(ParameterError):
            edge_swap_search(g, budget=-1)
        with pytest.raises(ParameterError):
            edge_swap_search(g, budget=5, objective="girth")
        two_triangles = CSRGraph.from_edges(
            6, np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
        )
        with pytest.raises(ParameterError):
            edge_swap_search(two_triangles, budget=5)

    def test_zero_budget_returns_seed(self):
        g = random_regular_graph(16, 3, seed=1)
        result = edge_swap_search(g, budget=0, seed=3)
        assert np.array_equal(result.graph.edge_array(), g.edge_array())
        assert result.best_fitness == result.seed_fitness
        assert result.accepted_swaps == []
        assert len(result.fitness_curve) == 0

    def test_trajectory_is_bit_deterministic(self):
        """Identical (seed, budget, schedule) → identical trajectory,
        candidate edge list, and fitness curve."""
        g = random_regular_graph(30, 4, seed=7)
        runs = [
            edge_swap_search(g, budget=120, seed=11, schedule="anneal")
            for _ in range(2)
        ]
        assert runs[0].accepted_swaps == runs[1].accepted_swaps
        assert np.array_equal(runs[0].fitness_curve, runs[1].fitness_curve)
        assert np.array_equal(
            runs[0].graph.edge_array(), runs[1].graph.edge_array()
        )
        assert runs[0].graph.content_hash() == runs[1].graph.content_hash()
        assert runs[0].counters == runs[1].counters

    def test_different_seed_different_trajectory(self):
        g = random_regular_graph(30, 4, seed=7)
        a = edge_swap_search(g, budget=120, seed=11)
        b = edge_swap_search(g, budget=120, seed=12)
        assert a.accepted_swaps != b.accepted_swaps

    def test_replay_reconstructs_accepted_states(self):
        g = random_regular_graph(24, 4, seed=2)
        result = edge_swap_search(g, budget=80, seed=5, schedule="hill")
        states = list(replay_swaps(g, result.accepted_swaps))
        assert len(states) == result.counters["accepted"]
        # Hill-climbing: the last accepted state IS the best state.
        if states:
            assert (
                states[-1].content_hash() == result.graph.content_hash()
            )

    def test_replay_rejects_corrupt_trajectory(self):
        g = cycle_graph(8)
        with pytest.raises(ParameterError):
            list(replay_swaps(g, [(0, 1, 0, 1)]))

    def test_curve_tracks_objective(self):
        g = random_regular_graph(20, 4, seed=4)
        result = edge_swap_search(g, budget=60, seed=9, objective="lambda")
        assert result.best_fitness == pytest.approx(
            -lambda_g(result.graph), abs=1e-9
        )
        assert len(result.fitness_curve) == 60

    def test_improves_jellyfish_seed(self):
        """The acceptance-criterion property at experiment-preset scale."""
        topo = build_jellyfish(44, 6, seed=3)
        result = edge_swap_search(topo.graph, budget=200, seed=1)
        assert result.best_fitness > result.seed_fitness
        assert spectral_gap(result.graph) > spectral_gap(topo.graph)


# -- signing search ----------------------------------------------------------
class TestSearchSigning:
    def test_deterministic(self):
        g = random_regular_graph(14, 4, seed=0)
        a = search_signing(g, seed=3, restarts=2, passes=2)
        b = search_signing(g, seed=3, restarts=2, passes=2)
        assert np.array_equal(a.signs, b.signs)
        assert a.score == b.score
        assert a.graph.content_hash() == b.graph.content_hash()
        assert np.array_equal(a.restart_scores, b.restart_scores)

    def test_score_matches_reported_signing(self):
        from repro.search.lift import signed_adjacency_extreme

        g = random_regular_graph(12, 3, seed=5)
        res = search_signing(g, seed=1, restarts=2, passes=1)
        assert res.score == pytest.approx(
            signed_adjacency_extreme(g, res.signs), abs=1e-12
        )
        assert res.graph.n == 2 * g.n

    def test_rejects_bad_parameters(self):
        g = cycle_graph(6)
        with pytest.raises(ParameterError):
            search_signing(g, restarts=0)
        with pytest.raises(ParameterError):
            search_signing(g, passes=0)
        with pytest.raises(ParameterError):
            two_lift(g, np.array([1, -1]))
        with pytest.raises(ParameterError):
            two_lift(g, np.zeros(g.num_edges))


# -- topology wrappers + catalog registration --------------------------------
class TestSearchedTopology:
    def test_swap_builder_roundtrip(self):
        topo = swap_searched_topology(26, 4, budget=50, seed=2)
        assert isinstance(topo, SearchedTopology)
        assert isinstance(topo, Topology)
        assert topo.family == "Searched"
        assert topo.n_routers == 26 and topo.radix == 4
        assert is_connected(topo.graph)
        assert topo.provenance["best_fitness"] >= topo.provenance["seed_fitness"]
        # The params dict is a complete recipe: rebuilding reproduces the
        # graph bit-identically.
        p = dict(topo.params)
        again = swap_searched_topology(
            p["n"], p["radix"], budget=p["budget"], seed=p["seed"],
            schedule=p["schedule"], objective=p["objective"],
        )
        assert again.graph.content_hash() == topo.graph.content_hash()

    def test_swap_builder_validates_seed_topology(self):
        wrong = build_jellyfish(20, 4, seed=0)
        with pytest.raises(ParameterError):
            swap_searched_topology(26, 4, budget=10, seed_topology=wrong)

    def test_lift_builder(self):
        base = build_paley(13)
        topo = lifted_topology(base, seed=4, restarts=2, passes=1)
        assert topo.n_routers == 26
        assert topo.radix == base.radix
        assert topo.params["method"] == "two-lift"
        assert topo.provenance["signed_extreme"] == pytest.approx(
            min(topo.provenance["restart_scores"])
        )

    def test_catalog_build_searched(self):
        assert SEARCH_METHODS == ("edge-swap", "two-lift")
        swap = build_searched("edge-swap", n_routers=26, radix=4,
                              budget=40, seed=1)
        assert isinstance(swap, SearchedTopology)
        lift = build_searched("two-lift", base=("SF", {"q": 5}), seed=1,
                              restarts=1, passes=1)
        assert lift.n_routers == 100  # 2 * SlimFly(5)'s 50 routers
        assert lift.params["base_params"]["q"] == 5
        with pytest.raises(ParameterError):
            build_searched("genetic")
        with pytest.raises(ParameterError):
            build_searched("two-lift", base=42)

    def test_searched_flows_through_sim_engines(self):
        """A searched candidate runs unchanged on both engines."""
        from repro.experiments.common import run_synthetic_sim

        topo = swap_searched_topology(26, 4, budget=40, seed=6)
        out = {}
        for backend in ("event", "batched"):
            out[backend] = run_synthetic_sim(
                topo, "minimal", "random", 0.4, concentration=2,
                n_ranks=16, packets_per_rank=4, seed=0, backend=backend,
            )
        assert out["event"]["delivered"] == out["batched"]["delivered"] > 0


# -- the registry experiment -------------------------------------------------
class TestSpectralSearchExperiment:
    def test_small_preset_beats_seed_and_is_deterministic(self):
        """Acceptance pinning: at small-preset parameters, at least one
        searched candidate strictly beats its Jellyfish seed on spectral
        gap at equal n and radix — and re-runs reproduce identical rows."""
        from repro.experiments.spectral_search import run

        kwargs = dict(
            seed_families=("jellyfish",), radixes=(6,), budgets=(200,),
            n_routers=44, restarts=1, passes=1, n_ranks=32,
            packets_per_rank=4,
        )
        result = run(**kwargs)
        swap_rows = [r for r in result.rows if r["role"] == "swap"]
        seed_rows = {r["budget"]: r for r in result.rows
                     if r["role"] == "seed"}
        assert any(
            r["beats_seed"] is True
            and r["spectral_gap"] > seed_rows[r["budget"]]["spectral_gap"]
            for r in swap_rows
        )
        assert result.rows == run(**kwargs).rows

    def test_infeasible_combo_yields_skip_row(self):
        from repro.experiments.spectral_search import run

        result = run(seed_families=("paley",), radixes=(4,), budgets=(10,))
        assert [r["role"] for r in result.rows] == ["skipped"]

    def test_unknown_family_rejected(self):
        from repro.experiments.spectral_search import run

        with pytest.raises(ParameterError):
            run(seed_families=("mobius",))

    def test_lift_rows_double_routers(self):
        from repro.experiments.spectral_search import run

        result = run(
            seed_families=("paley",), radixes=(6,), budgets=(10,),
            restarts=1, passes=1, n_ranks=16, packets_per_rank=3,
        )
        by_role = {r["role"]: r for r in result.rows}
        assert by_role["lift"]["routers"] == 2 * by_role["seed"]["routers"]
        assert by_role["jellyfish-2n-ref"]["routers"] == \
            by_role["lift"]["routers"]

    def test_registry_entry(self):
        from repro.runner.registry import get_experiment

        exp = get_experiment("spectral-search")
        assert exp.cell_axes == ("seed_families", "radixes", "budgets")
        spec = exp.spec("small")
        assert len(exp.cells(spec)) == 8
        assert "event" in exp.supported_backends
        assert "batched" in exp.supported_backends
