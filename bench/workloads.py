"""The five benchmark workloads: what each one sets up and what it runs.

Every workload is a closed loop with one caller.  ``setup`` builds, before
the timed call, every topology and routing table (or oracle) the call will
use, so the call itself finds them in memory.  ``call`` runs the workload
once against a fresh result store and returns its result rows.  The seed is
the only input that changes between runs; the sizes are fixed here, and
why each workload was chosen is recorded in ``BENCHMARK.json``.

Four workloads drive whole registry experiments through
``repro.runner.executor.run_experiment`` (the path ``repro run`` takes) with
``jobs=1``; ``scale-oracle`` calls the library directly, because no registry
experiment routes through an oracle on one process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class SetupCheckError(RuntimeError):
    """A workload's set-up produced state the workload must not run on."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulations one call runs (the ``attempted`` count per call).
    sims: int
    #: Result rows one call returns.
    rows: int
    #: ``setup()`` -> state handed to ``call``.
    setup: Callable[[], Any]
    #: ``call(seed, result_cache, state)`` -> result rows.
    call: Callable[[int, Any, Any], list[dict]]
    #: A changed result digest fails the run (the event engine is
    #: golden-pinned); on the other workloads it is only reported, because
    #: the differential harness, not a digest, governs batched semantics.
    golden: bool = False
    #: Modules imported before set-up starts (their import is timed as
    #: ``process.import``, not as set-up work).
    modules: tuple[str, ...] = ()


def _setup_dense(scale: str) -> Callable[[], Any]:
    """Build every ``scale`` topology with its dense tables and fast path."""

    def setup() -> None:
        from repro.experiments.common import cached_tables
        from repro.topology import SIM_CONFIGS

        for spec in SIM_CONFIGS[scale]["topologies"].values():
            cached_tables(spec["build"]()).build_fast_path()

    return setup


def _registry_call(experiment: str, overrides: dict[str, Any]):
    def call(seed: int, result_cache, state) -> list[dict]:  # noqa: ARG001
        from repro.runner.executor import run_experiment

        reports = run_experiment(
            experiment,
            preset="small",
            overrides={**overrides, "seed": seed},
            jobs=1,
            cache=result_cache,
        )
        return [row for report in reports for row in report.result.rows]

    return call


#: LPS(5, 61): 113,460 routers (PSL, since 5 is a square mod 61).  The
#: 515,100-router LPS(5, 101) takes ~6 s to build in every fresh process,
#: too long to set up at least six times per run inside the time budget.
SCALE_LPS = (5, 61)
SCALE_SIM = dict(
    routing_name="minimal",
    pattern_name="random",
    offered_load=0.3,
    concentration=2,
    n_ranks=16384,
    packets_per_rank=4,
    backend="batched",
    oracle="cayley",
)


def _setup_scale():
    from repro.experiments.common import cached_tables
    from repro.topology.lps import build_lps

    topo = build_lps(*SCALE_LPS)
    tables = cached_tables(topo, oracle="cayley")
    if not tables.is_lazy:
        raise SetupCheckError("scale-oracle tables materialised a dense matrix")
    return topo


def _scale_call(seed: int, result_cache, topo) -> list[dict]:
    from repro.experiments.common import build_synthetic_sim

    def simulate() -> list[dict]:
        net = build_synthetic_sim(topo, seed=seed, **SCALE_SIM)
        return [net.run().summary()]

    # The same get-miss / run / put cycle the executor runs per cell.
    return result_cache.memoize(("bench-scale-oracle", SCALE_LPS, seed), simulate)


_DENSE_MODULES = ("repro.runner.executor", "repro.experiments.common")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig6-small-event",
            sims=16,
            rows=16,
            setup=_setup_dense("small"),
            call=_registry_call(
                "fig6",
                {"backend": "event", "loads": (0.5,), "packets_per_rank": 8},
            ),
            golden=True,
            modules=_DENSE_MODULES + ("repro.experiments.fig6",),
        ),
        Workload(
            name="fig6-paper-batched",
            sims=4,
            rows=4,
            setup=_setup_dense("paper"),
            call=_registry_call(
                "fig6",
                {
                    "scale": "paper",
                    "patterns": ("random",),
                    "loads": (0.7,),
                    "packets_per_rank": 5,
                    "backend": "batched",
                },
            ),
            modules=_DENSE_MODULES + ("repro.experiments.fig6",),
        ),
        Workload(
            name="collectives-batched",
            sims=16,
            rows=16,
            setup=_setup_dense("small"),
            call=_registry_call(
                "collectives",
                {
                    "collectives": ("allreduce",),
                    "n_nodes": (32,),
                    "backend": "batched",
                },
            ),
            modules=_DENSE_MODULES + ("repro.experiments.collectives",),
        ),
        Workload(
            name="congestion-batched",
            sims=48,
            rows=16,
            setup=_setup_dense("small"),
            call=_registry_call(
                "saturation-congestion",
                {"packets_per_rank": 6, "backend": "batched"},
            ),
            modules=_DENSE_MODULES + ("repro.experiments.saturation_congestion",),
        ),
        Workload(
            name="scale-oracle",
            sims=1,
            rows=1,
            setup=_setup_scale,
            call=_scale_call,
            modules=(
                "repro.experiments.common",
                "repro.topology.lps",
                "repro.routing.oracles",
            ),
        ),
    )
}
