"""The per-backend capability matrix: which engine implements which feature.

Before this module existed, every backend/feature mismatch was a scattered
guard — a constructor ``raise`` here, a driver-level ``ParameterError``
there, and a raw ``TypeError`` from deep inside an engine when nothing
checked at all.  The matrix below is now the **single source of truth**:

* the engines consult it: :class:`~repro.sim.network.NetworkSimulator`
  at build time, :class:`~repro.sim.batched.BatchedSimulator` in ``run``,
  ``run_closed_loop`` and ``send``;
* :func:`repro.experiments.common.build_synthetic_sim` and
  :func:`repro.workloads.runner.run_motif` validate their ``backend``
  argument through it;
* the experiment registry (:mod:`repro.runner.registry`) validates
  ``--set backend=...`` overrides against each experiment's declared
  feature needs at *spec time*, before any topology is built.

Every violation raises the one canonical error type,
:class:`~repro.errors.BackendCapabilityError`, whose message names the
backends that *do* support the requested feature.  A test parametrized
over the full ``BACKENDS x FEATURES`` product pins the matrix, so a future
backend cannot silently regress a combination
(``tests/test_sim_capabilities.py``).
"""

from __future__ import annotations

from repro.errors import BackendCapabilityError

#: The registered simulation engines, in preference order (the first entry
#: is the reference implementation every other backend is pinned against).
BACKENDS: tuple[str, ...] = ("event", "batched")

#: Feature identifiers.  Each is a *scenario family* a simulation run may
#: need, not an implementation detail: experiments declare which features
#: they require and the matrix answers which backends qualify.
OPEN_LOOP = "open-loop"  # Poisson open-loop synthetic traffic
MOTIFS = "motifs"  # closed-loop dependency-driven motif DAGs
COLLECTIVES = "collectives"  # chunk-level collective schedules on motif DAGs
FAULTS = "faults"  # mid-run FaultSchedule (link/router down/up)
FINITE_BUFFERS = "finite-buffers"  # credit-based blocking buffers
LOSSY_LINKS = "lossy-links"  # per-link loss/jitter channel (sim.channel)
PAUSE_RESUME = "pause-resume"  # run(until=...) / max_events bounds
DELIVERY_CALLBACKS = "delivery-callbacks"  # per-packet on_delivery hooks
ADHOC_SEND = "adhoc-send"  # caller-driven send() outside the motif runner

FEATURES: tuple[str, ...] = (
    OPEN_LOOP,
    MOTIFS,
    COLLECTIVES,
    FAULTS,
    FINITE_BUFFERS,
    LOSSY_LINKS,
    PAUSE_RESUME,
    DELIVERY_CALLBACKS,
    ADHOC_SEND,
)

#: The matrix itself.  The event engine is the reference and supports
#: everything; the batched engine covers the scenario families the
#: paper's figures and the workload suite need (open-loop synthetic,
#: motif workloads, collective schedules, fault schedules, and — since
#: the congestion-realism PR — credit/backpressure finite buffers and
#: the lossy-link channel model) and refuses the interactive/debugging
#: features whose semantics are inherently per-event (pause/resume,
#: per-packet callbacks, ad-hoc sends).
CAPABILITIES: dict[str, frozenset[str]] = {
    "event": frozenset(FEATURES),
    "batched": frozenset(
        {OPEN_LOOP, MOTIFS, COLLECTIVES, FAULTS, FINITE_BUFFERS, LOSSY_LINKS}
    ),
}

assert tuple(CAPABILITIES) == BACKENDS  # keep the two declarations in sync


def is_backend(backend: str) -> bool:
    """True iff ``backend`` names a registered engine."""
    return backend in CAPABILITIES


def supports(backend: str, feature: str) -> bool:
    """True iff ``backend`` implements ``feature`` (False for unknowns)."""
    return feature in CAPABILITIES.get(backend, frozenset())


def supported_backends(*features: str) -> tuple[str, ...]:
    """The backends implementing *all* of ``features``, in registry order."""
    return tuple(
        b for b in BACKENDS if all(supports(b, f) for f in features)
    )


def check_backend(backend: str, context: str = "") -> None:
    """Raise the canonical error when ``backend`` is not a known engine."""
    if backend not in CAPABILITIES:
        where = f" for {context}" if context else ""
        raise BackendCapabilityError(
            f"unknown simulator backend {backend!r}{where}; "
            f"options: {', '.join(BACKENDS)}",
            backend=backend,
            supported_backends=BACKENDS,
        )


def require(backend: str, feature: str, context: str = "") -> None:
    """Raise unless ``backend`` implements ``feature``.

    The error message names the backends that do support the feature, so
    the fix (``backend='event'`` etc.) is always in the message itself.
    ``context`` optionally names the call site ("fig9", "run_motif", ...)
    for sweep-sized error output.
    """
    check_backend(backend, context)
    if feature not in CAPABILITIES[backend]:
        good = supported_backends(feature)
        where = f" (in {context})" if context else ""
        raise BackendCapabilityError(
            f"the {backend!r} backend does not support {feature!r}{where}; "
            f"supported backends: {', '.join(good) if good else 'none'}",
            backend=backend,
            feature=feature,
            supported_backends=good,
        )


def require_all(backend: str, features: tuple[str, ...] | list[str],
                context: str = "") -> None:
    """:func:`require` over a feature list (first failure wins)."""
    check_backend(backend, context)
    for feature in features:
        require(backend, feature, context)
