"""The experiment registry: every paper figure/table/ablation as a named spec.

Each :class:`ExperimentDef` declares

* the driver function (dotted path into ``repro.experiments``),
* ``small`` and ``full`` parameter presets (laptop-scale vs paper-scale —
  the same configurations the tier-2 benchmark harness uses),
* *cell axes*: tuple-valued parameters along which the experiment factors
  into independent cells.  The executor splits the cross product of the
  axes into single-value cells, runs them in parallel, caches each cell by
  spec hash, and concatenates the rows back in deterministic order — so a
  sweep that overlaps a previous run only computes the new cells.

Composite entries (``parts``) bundle several drivers under one name, e.g.
``fig4`` runs all four panels of Figure 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import BackendCapabilityError
from repro.runner.spec import ExperimentSpec, resolve_callable
from repro.sim import capabilities

#: The paper's Table II LPS/SlimFly size pairs, duplicated here as literals
#: so registry import does not pull in the experiment modules.
_TABLE2_PAIRS = (((11, 7), 9), ((19, 7), 13), ((23, 11), 17), ((29, 13), 23))
_PATTERNS = ("random", "shuffle", "reverse", "transpose")
_MOTIFS = ("Halo3D-26", "Sweep3D", "FFT (balanced)", "FFT (unbalanced)")


def _nesting_depth(value: Any) -> int:
    """Tuple/list nesting depth (first-element convention for ragged data)."""
    depth = 0
    while isinstance(value, (tuple, list)) and len(value) > 0:
        depth += 1
        value = value[0]
    return depth + (1 if isinstance(value, (tuple, list)) else 0)


@dataclass(frozen=True)
class ExperimentDef:
    """A registered experiment: driver + presets + parallelization axes."""

    name: str
    title: str
    fn: str = ""
    presets: dict[str, dict[str, Any]] = field(default_factory=dict)
    cell_axes: tuple[str, ...] = ()
    parts: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    runtime: str = ""  # human expectation for the small preset
    #: Simulation features (``repro.sim.capabilities``) the driver needs
    #: from its ``backend`` parameter.  Declaring them lets the registry
    #: validate ``--set backend=...`` at spec time — before any topology
    #: is built — with the canonical error naming the backends that work.
    #: Empty for experiments that never touch a simulation engine.
    features: tuple[str, ...] = ()

    @property
    def is_composite(self) -> bool:
        return bool(self.parts)

    @property
    def supported_backends(self) -> tuple[str, ...]:
        """Backends implementing every feature this experiment needs."""
        return capabilities.supported_backends(*self.features)

    def validate_backend(self, backend: Any) -> None:
        """Raise the canonical error unless ``backend`` can run this spec.

        Called from :meth:`params` on every resolved parameter set, so an
        invalid ``--set backend=...`` fails here — at registry/spec time
        with the supported backends in the message — instead of surfacing
        a raw engine error from deep inside a sweep cell.
        """
        if not self.features:
            raise BackendCapabilityError(
                f"experiment {self.name!r} does not take a backend "
                "parameter (it declares no simulation capability "
                "features)",
                backend=backend,
            )
        capabilities.require_all(backend, self.features, context=self.name)

    def params(self, preset: str = "small", overrides: dict[str, Any] | None = None) -> dict[str, Any]:
        """Resolved kwargs for the driver at ``preset`` (+ CLI overrides).

        An override for a tuple-valued preset parameter may be given as one
        element of that tuple (``--set loads=0.5``, a sweep-axis value, or
        ``--set instances=(3,7)`` for a nested parameter); it is wrapped in
        one-element tuples until its nesting depth matches the preset's, so
        drivers that iterate the parameter keep working.
        """
        if preset not in self.presets:
            raise KeyError(
                f"{self.name} has no preset {preset!r} "
                f"(available: {sorted(self.presets)})"
            )
        params = dict(self.presets[preset])
        for key, value in (overrides or {}).items():
            target = _nesting_depth(params[key]) if key in params else 0
            while target > 0 and _nesting_depth(value) < target:
                value = (value,)
            params[key] = value
        if "backend" in params:
            self.validate_backend(params["backend"])
        return params

    def resolve(self) -> Callable[..., Any]:
        """The driver callable itself (for direct/benchmark use)."""
        return resolve_callable(self.fn)

    def accepted_params(self) -> frozenset[str]:
        """Parameter names the driver's signature accepts.

        Composite experiments forward each part only the overrides its
        driver takes; the executor unions these sets to reject override
        keys that *no* part accepts (a silent typo otherwise).
        """
        import inspect

        return frozenset(inspect.signature(self.resolve()).parameters)

    def spec(self, preset: str = "small", overrides: dict[str, Any] | None = None) -> ExperimentSpec:
        if self.is_composite:
            raise ValueError(f"{self.name} is composite; build specs per part")
        return ExperimentSpec.make(self.name, self.fn, self.params(preset, overrides))

    def cells(self, spec: ExperimentSpec) -> list[ExperimentSpec]:
        """Split ``spec`` into independent single-value cells.

        Only axes whose parameter is a tuple/list with more than one value
        are split; everything else passes through unchanged.  The cross
        product iterates the axes in declaration order (first axis
        outermost), matching each driver's own loop nesting so concatenated
        cell rows reproduce the unsplit row order exactly.
        """
        kwargs = spec.kwargs
        split_axes = [
            ax
            for ax in self.cell_axes
            if isinstance(kwargs.get(ax), (tuple, list)) and len(kwargs[ax]) > 1
        ]
        if not split_axes:
            return [spec]
        cells = []
        for combo in itertools.product(*(kwargs[ax] for ax in split_axes)):
            cell_kwargs = dict(kwargs)
            label = []
            for ax, value in zip(split_axes, combo):
                cell_kwargs[ax] = (value,)
                label.append(f"{ax}={value}")
            cells.append(
                ExperimentSpec.make(
                    f"{spec.name}[{','.join(label)}]", spec.fn, cell_kwargs
                )
            )
        return cells


def _exp(*args: ExperimentDef) -> dict[str, ExperimentDef]:
    return {d.name: d for d in args}


EXPERIMENTS: dict[str, ExperimentDef] = _exp(
    ExperimentDef(
        name="table1",
        title="Table I — structural properties across the five size classes",
        fn="repro.experiments.table1:run",
        presets={"small": {"classes": (1, 2, 3)}, "full": {"classes": (1, 2, 3, 4, 5)}},
        cell_axes=("classes",),
        tags=("table", "structural"),
        runtime="~10 s",
    ),
    ExperimentDef(
        name="table2",
        title="Table II — wire length and energy efficiency of laid-out topologies",
        fn="repro.experiments.table2:run",
        presets={
            "small": {"pairs": _TABLE2_PAIRS[:2], "skywalk_instances": 3},
            "full": {"pairs": _TABLE2_PAIRS, "skywalk_instances": 3},
        },
        cell_axes=("pairs",),
        tags=("table", "layout"),
        runtime="~30 s",
    ),
    ExperimentDef(
        name="fig3",
        title="Fig 3 — LPS neighbourhood structure (tree-likeness, girth)",
        fn="repro.experiments.fig3:run",
        presets={"small": {"instances": ((3, 7), (3, 17))}, "full": {"instances": ((3, 7), (3, 17))}},
        cell_axes=("instances",),
        tags=("figure", "structural"),
        runtime="~1 s",
    ),
    ExperimentDef(
        name="fig4.design_space",
        title="Fig 4 (upper left) — feasible LPS (p, q) design space",
        fn="repro.experiments.fig4:run_design_space",
        presets={"small": {"max_pq": 300}, "full": {"max_pq": 300}},
        tags=("figure", "structural"),
        runtime="<1 s",
    ),
    ExperimentDef(
        name="fig4.normalized_bisection",
        title="Fig 4 (upper right) — normalized bisection bandwidth of LPS",
        fn="repro.experiments.fig4:run_normalized_bisection",
        presets={
            "small": {"max_p": 12, "max_q": 14, "repeats": 3},
            "full": {"max_p": 24, "max_q": 20, "repeats": 3},
        },
        tags=("figure", "structural"),
        runtime="~10 s",
    ),
    ExperimentDef(
        name="fig4.feasible_sizes",
        title="Fig 4 (lower left) — feasible topology sizes per radix",
        fn="repro.experiments.fig4:run_feasible_sizes",
        presets={"small": {"max_vertices": 10_000}, "full": {"max_vertices": 10_000}},
        tags=("figure", "structural"),
        runtime="<1 s",
    ),
    ExperimentDef(
        name="fig4.bisection_comparison",
        title="Fig 4 (lower right) — bisection bandwidth across families",
        fn="repro.experiments.fig4:run_bisection_comparison",
        presets={
            "small": {"classes": (1, 2), "repeats": 3},
            "full": {"classes": (1, 2, 3), "repeats": 3},
        },
        cell_axes=("classes",),
        tags=("figure", "structural"),
        runtime="~30 s",
    ),
    ExperimentDef(
        name="fig4",
        title="Fig 4 — all four panels (design space + bisection)",
        parts=(
            "fig4.design_space",
            "fig4.normalized_bisection",
            "fig4.feasible_sizes",
            "fig4.bisection_comparison",
        ),
        tags=("figure", "structural"),
        runtime="~1 min",
    ),
    ExperimentDef(
        name="fig5",
        title="Fig 5 — structural properties under random link failures",
        fn="repro.experiments.fig5:run",
        presets={
            "small": {
                "class_id": 1,
                "proportions": (0.0, 0.1, 0.2, 0.3),
                "max_trials_per_batch": 2,
                "families": ("LPS", "SlimFly", "BundleFly", "DragonFly"),
            },
            "full": {
                "class_id": 2,
                "proportions": (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                "max_trials_per_batch": 10,
                "families": ("LPS", "SlimFly", "BundleFly", "DragonFly"),
            },
        },
        cell_axes=("families", "proportions"),
        tags=("figure", "structural", "resilience"),
        runtime="~1 min",
    ),
    ExperimentDef(
        name="fig6",
        title="Fig 6 — synthetic traffic speedup vs DragonFly under UGAL-L",
        fn="repro.experiments.fig6:run",
        presets={
            "small": {
                "scale": "small",
                "patterns": _PATTERNS,
                "loads": (0.1, 0.3, 0.5, 0.7),
                "packets_per_rank": 15,
                # Simulation engine: "event" (reference) or "batched" (the
                # vectorized cycle-driven backend; statistically, not
                # event-for-event, equivalent — docs/performance.md).
                # Override with --set backend=batched.
                "backend": "event",
            },
            "full": {
                "scale": "paper",
                "patterns": _PATTERNS,
                "loads": (0.1, 0.2, 0.3, 0.5, 0.6, 0.7),
                "packets_per_rank": 20,
                "backend": "event",
            },
        },
        cell_axes=("patterns", "loads"),
        tags=("figure", "simulation"),
        runtime="~1 min",
        features=(capabilities.OPEN_LOOP,),
    ),
    ExperimentDef(
        name="fig7",
        title="Fig 7 — random traffic under minimal routing",
        fn="repro.experiments.fig7:run",
        presets={
            "small": {"scale": "small", "loads": (0.1, 0.3, 0.5, 0.7),
                      "packets_per_rank": 15, "backend": "event"},
            "full": {
                "scale": "paper",
                "loads": (0.1, 0.2, 0.3, 0.5, 0.6, 0.7),
                "packets_per_rank": 20,
                "backend": "event",
            },
        },
        cell_axes=("loads",),
        tags=("figure", "simulation"),
        runtime="~30 s",
        features=(capabilities.OPEN_LOOP,),
    ),
    ExperimentDef(
        name="fig8",
        title="Fig 8 — Valiant vs minimal routing on SpectralFly",
        fn="repro.experiments.fig8:run",
        presets={
            "small": {
                "scale": "small",
                "patterns": _PATTERNS,
                "loads": (0.1, 0.3, 0.5, 0.7),
                "packets_per_rank": 15,
                "backend": "event",
            },
            "full": {
                "scale": "paper",
                "patterns": _PATTERNS,
                "loads": (0.1, 0.2, 0.3, 0.5, 0.6, 0.7),
                "packets_per_rank": 20,
                "backend": "event",
            },
        },
        cell_axes=("patterns", "loads"),
        tags=("figure", "simulation"),
        runtime="~1 min",
        features=(capabilities.OPEN_LOOP,),
    ),
    ExperimentDef(
        name="fig9",
        title="Fig 9 — Ember motifs under minimal routing",
        fn="repro.experiments.fig9:run",
        presets={
            # backend: "event" (reference) or "batched" (vectorized
            # frontier runner) — override with --set backend=batched.
            "small": {"scale": "small", "motif_names": _MOTIFS,
                      "backend": "event"},
            "full": {"scale": "paper", "motif_names": _MOTIFS,
                     "backend": "event"},
        },
        cell_axes=("motif_names",),
        tags=("figure", "simulation", "motifs"),
        runtime="~2 min",
        features=(capabilities.MOTIFS,),
    ),
    ExperimentDef(
        name="fig10",
        title="Fig 10 — Ember motifs under UGAL routing",
        fn="repro.experiments.fig10:run",
        presets={
            "small": {"scale": "small", "motif_names": _MOTIFS,
                      "backend": "event"},
            "full": {"scale": "paper", "motif_names": _MOTIFS,
                     "backend": "event"},
        },
        cell_axes=("motif_names",),
        tags=("figure", "simulation", "motifs"),
        runtime="~2 min",
        features=(capabilities.MOTIFS,),
    ),
    ExperimentDef(
        name="fig11",
        title="Fig 11 — end-to-end latency relative to SkyWalk",
        fn="repro.experiments.fig11:run",
        presets={
            "small": {"pairs": _TABLE2_PAIRS[:2], "skywalk_instances": 3},
            "full": {"pairs": _TABLE2_PAIRS, "skywalk_instances": 3},
        },
        cell_axes=("pairs",),
        tags=("figure", "layout"),
        runtime="~30 s",
    ),
    ExperimentDef(
        name="survey",
        title="Spectral survey — distance of classical topologies from Ramanujan",
        fn="repro.experiments.survey:run",
        presets={"small": {"seed": 0, "with_xpander": True}, "full": {"seed": 0, "with_xpander": True}},
        tags=("extension", "structural"),
        runtime="~30 s",
    ),
    ExperimentDef(
        name="saturation",
        title="Saturation sweep — where each topology stops absorbing load",
        fn="repro.experiments.saturation:run",
        presets={
            "small": {"scale": "small", "packets_per_rank": 15,
                      "backend": "event"},
            "full": {"scale": "paper", "packets_per_rank": 20,
                     "backend": "event"},
        },
        tags=("extension", "simulation"),
        runtime="~2 min",
        features=(capabilities.OPEN_LOOP,),
    ),
    ExperimentDef(
        name="saturation-congestion",
        title="Saturation under congestion — routing rankings with finite buffers and lossy links",
        fn="repro.experiments.saturation_congestion:run",
        presets={
            "small": {
                "scale": "small",
                "families": ("SpectralFly", "DragonFly", "SlimFly",
                             "BundleFly"),
                "routings": ("minimal", "valiant", "ugal"),
                "load": 0.55,
                "packets_per_rank": 10,
                # Both engines implement finite buffers and lossy links;
                # the batched one is the fast path (--set backend=batched,
                # tolerances in docs/performance.md).
                "backend": "event",
            },
            "full": {
                "scale": "paper",
                "families": ("SpectralFly", "DragonFly", "SlimFly",
                             "BundleFly"),
                "routings": ("minimal", "valiant", "ugal"),
                "load": 0.55,
                "packets_per_rank": 20,
                "backend": "event",
            },
        },
        # The ranking and its inversion flag are computed inside a family
        # cell (across routings and regimes), so only families split.
        cell_axes=("families",),
        tags=("extension", "simulation", "congestion"),
        runtime="~2 min",
        features=(capabilities.OPEN_LOOP, capabilities.FINITE_BUFFERS,
                  capabilities.LOSSY_LINKS),
    ),
    ExperimentDef(
        name="resilience-traffic",
        title="Resilience under live traffic — mid-run link failures vs throughput/latency",
        fn="repro.experiments.resilience_traffic:run",
        presets={
            "small": {
                "scale": "small",
                "families": ("SpectralFly", "DragonFly", "SlimFly", "BundleFly"),
                "routings": ("minimal", "ugal"),
                "fail_fractions": (0.0, 0.05, 0.15),
                "packets_per_rank": 10,
                "recover": True,
                # Either engine runs the faulted sweep; the batched one
                # applies the schedule as epoch boundaries (--set
                # backend=batched, see docs/performance.md).
                "backend": "event",
            },
            "full": {
                "scale": "paper",
                "families": ("SpectralFly", "DragonFly", "SlimFly", "BundleFly"),
                "routings": ("minimal", "valiant", "ugal"),
                "fail_fractions": (0.0, 0.05, 0.1, 0.2, 0.3),
                "packets_per_rank": 20,
                "recover": True,
                "backend": "event",
            },
        },
        # fail_fractions deliberately stays inside the cell: the driver
        # normalises each (family, routing) group against its first
        # fraction, which a per-fraction split would break.
        cell_axes=("families", "routings"),
        tags=("extension", "simulation", "resilience"),
        runtime="~1 min",
        features=(capabilities.OPEN_LOOP, capabilities.FAULTS),
    ),
    ExperimentDef(
        name="collectives",
        title="Collectives — allreduce/allgather/reduce-scatter completion ranking",
        fn="repro.experiments.collectives:run",
        presets={
            "small": {
                "scale": "small",
                "collectives": ("allreduce", "allgather", "reduce-scatter"),
                "algorithms": ("ring", "recursive-doubling",
                               "binary-tree", "rabenseifner"),
                "n_nodes": (8, 16),
                "total_bytes": 1 << 14,
                "routing": "minimal",
                # Chunk DAGs run unchanged on either engine (--set
                # backend=batched, see docs/collectives.md).
                "backend": "event",
            },
            "full": {
                "scale": "paper",
                "collectives": ("allreduce", "allgather", "reduce-scatter"),
                "algorithms": ("ring", "recursive-doubling",
                               "binary-tree", "rabenseifner"),
                "n_nodes": (32, 64),
                "total_bytes": 1 << 16,
                "routing": "minimal",
                "backend": "event",
            },
        },
        # n_nodes splits with the other axes: ranking/normalisation
        # happen inside a (collective, algorithm, n_nodes) cell, across
        # the topology families.
        cell_axes=("collectives", "algorithms", "n_nodes"),
        tags=("extension", "simulation", "motifs", "collectives"),
        runtime="~1 min",
        features=(capabilities.MOTIFS, capabilities.COLLECTIVES),
    ),
    ExperimentDef(
        name="spectral-search",
        title="Spectral design-space search — edge-swap annealing + 2-lifts vs the catalog",
        fn="repro.experiments.spectral_search:run",
        presets={
            "small": {
                "seed_families": ("jellyfish", "paley"),
                "radixes": (4, 6),
                "budgets": (80, 200),
                "n_routers": 44,
                "schedule": "anneal",
                "restarts": 2,
                "passes": 2,
                "routing": "minimal",
                "load": 0.5,
                "packets_per_rank": 6,
                # Candidates run through the same engines as fig6
                # (--set backend=batched works; docs/search.md).
                "backend": "event",
            },
            "full": {
                "seed_families": ("jellyfish", "paley", "lps", "slimfly"),
                "radixes": (4, 6, 7, 14),
                "budgets": (200, 500, 1000),
                "n_routers": 64,
                "schedule": "anneal",
                "restarts": 3,
                "passes": 2,
                "routing": "minimal",
                "load": 0.5,
                "packets_per_rank": 10,
                "backend": "event",
            },
        },
        # Every (seed_family, radix, budget) combination is an independent
        # search; infeasible pairs are skipped inside their cell, keeping
        # the cross product rectangular for the executor.
        cell_axes=("seed_families", "radixes", "budgets"),
        tags=("extension", "search", "spectral", "simulation"),
        runtime="~1 min",
        features=(capabilities.OPEN_LOOP,),
    ),
    ExperimentDef(
        name="contention",
        title="Inter-job contention — the discrepancy-property claim",
        fn="repro.experiments.contention:run",
        presets={
            "small": {"scale": "small"},
            "full": {"scale": "paper"},
        },
        tags=("extension", "simulation"),
        runtime="~1 min",
    ),
)


def get_experiment(name: str) -> ExperimentDef:
    """Look up one experiment; raises KeyError with the available names."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None


def list_experiments(tag: str | None = None, include_composite: bool = True) -> list[ExperimentDef]:
    """All registered experiments, optionally filtered by tag."""
    defs = [
        d
        for d in EXPERIMENTS.values()
        if (tag is None or tag in d.tags) and (include_composite or not d.is_composite)
    ]
    return defs
