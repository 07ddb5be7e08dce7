"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ReproError, ValueError):
    """A topology/experiment parameter is invalid or infeasible."""


class ConstructionError(ReproError, RuntimeError):
    """A graph construction failed an internal consistency check."""


class SimulationError(ReproError, RuntimeError):
    """The network simulator reached an inconsistent state."""


class BackendCapabilityError(SimulationError, ParameterError):
    """A simulation backend was asked for a feature it does not implement.

    The **single** error type every backend/feature mismatch funnels
    through — engine constructors, :func:`repro.sim.capabilities.require`,
    and registry/spec-time validation all raise this, so callers (and
    tests) match one type instead of scattered guards.  Subclasses both
    :class:`SimulationError` and :class:`ParameterError` because the
    mismatch is simultaneously a simulator refusal and a bad parameter
    choice; existing ``except`` sites of either kind keep working.

    ``backend`` and ``feature`` carry the offending pair;
    ``supported_backends`` names the engines that *do* implement the
    feature (also spelled out in the message).
    """

    def __init__(
        self,
        message: str,
        backend: str | None = None,
        feature: str | None = None,
        supported_backends: tuple = (),
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.feature = feature
        self.supported_backends = tuple(supported_backends)


class BufferDeadlockError(SimulationError):
    """A finite-buffer run wedged on a cyclic (edge, VC) dependency.

    Raised by both engines when the event queue (or batched waiting set)
    still holds packets but no port can make progress: every blocked head
    packet waits for credit in a downstream input buffer held by another
    blocked packet.  This is the *genuine* deadlock the virtual-channel
    scheme of Section V-A exists to prevent — reaching it means the run
    was configured with too few VCs (or a routing function whose channel
    dependency graph is cyclic; see ``repro.routing.vc``).

    ``cycle`` is a tuple of ``(edge_id, vc)`` pairs tracing one cyclic
    wait-for chain through the input buffers (empty when the wedge has no
    clean cycle witness, e.g. after mid-run faults); ``blocked`` counts
    the packets stuck in port queues; ``undelivered`` is the total
    shortfall (blocked plus in-flight); ``stats`` carries the partial
    :class:`~repro.sim.stats.SimStats` at the moment of the wedge, with
    ``deadlocked=True`` already set.
    """

    def __init__(
        self,
        message: str,
        cycle: tuple = (),
        blocked: int = 0,
        undelivered: int = 0,
        stats=None,
    ) -> None:
        super().__init__(message)
        self.cycle = tuple(cycle)
        self.blocked = blocked
        self.undelivered = undelivered
        self.stats = stats

    @classmethod
    def build(
        cls, cycle: tuple, blocked: int, undelivered: int, stats
    ) -> "BufferDeadlockError":
        """Construct the error with the canonical message both engines use."""
        chain = (
            " -> ".join(f"(edge {e}, vc {v})" for e, v in cycle)
            + f" -> (edge {cycle[0][0]}, vc {cycle[0][1]})"
            if cycle
            else "no clean single-cycle witness"
        )
        return cls(
            f"finite-buffer deadlock: {undelivered} packets undelivered "
            f"({blocked} blocked in port queues); cyclic (edge, VC) "
            f"dependency: {chain}. The VC budget is too small for this "
            "routing (see repro.routing.vc and docs/congestion.md).",
            cycle=cycle,
            blocked=blocked,
            undelivered=undelivered,
            stats=stats,
        )

    @staticmethod
    def find_cycle(waits_for: dict) -> tuple:
        """Extract one cycle from a wait-for map of (edge, vc) -> (edge, vc).

        ``waits_for[held] = wanted`` means the packet holding buffer
        ``held`` is blocked on credit in buffer ``wanted``.  Follows the
        chain from each start node until a node repeats; returns the
        repeating segment, or ``()`` when every chain dead-ends (the
        blocked packet at the front holds no buffer yet, or the wedge is
        not a clean single cycle).
        """
        for start in waits_for:
            seen: dict = {}
            node = start
            while node in waits_for and node not in seen:
                seen[node] = len(seen)
                node = waits_for[node]
            if node in seen:
                chain = list(seen)
                return tuple(chain[seen[node]:])
        return ()


class CellExecutionError(ReproError, RuntimeError):
    """A sweep cell's driver raised.

    Carries the failing cell's :class:`~repro.runner.spec.ExperimentSpec`
    as ``spec`` so callers can tell exactly which point of a sweep died;
    the original exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, spec=None) -> None:
        super().__init__(message)
        self.spec = spec
