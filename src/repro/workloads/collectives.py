"""Collective-communication workloads as chunk-level send DAGs.

The payload of a collective over ``p`` ranks is split into ``p`` chunks
(rank ``r`` contributes chunk ``r``).  A schedule generator emits a list
of **policy entries** — the CCL-simulator representation: each entry is
keyed ``(chunk_id, src)``, carries an explicit byte size, and fires only
once ``src`` owns the chunk version it transmits.  Ownership is the
dependency trigger: the entry's ``deps`` name the earlier entries whose
*delivery* established that ownership at ``src`` (fan-in for reductions,
a single predecessor for store-and-forward), so multiple entries per key
express fan-out.

The entry list lowers 1:1 onto the motif DAG representation
(:class:`~repro.workloads.motif.Message`, ids ``0..n-1`` in list order),
so a collective runs unchanged on both engines via
:func:`~repro.workloads.runner.run_motif` — the event engine's delivery
callbacks or the batched engine's ``run_closed_loop`` frontier arrays.

Three collectives × four algorithms:

* ``ring`` — any ``p``; allreduce is the classic 2(p−1)-step
  reduce-scatter + allgather pipeline.
* ``recursive-doubling`` — pairwise exchange over a power-of-two core
  group (log₂ p rounds); allreduce ships the full vector each round,
  reduce-scatter uses recursive halving, allgather doubles the owned
  block each round.
* ``binary-tree`` — any ``p``; reduce/gather up the complete binary tree
  rooted at rank 0, then broadcast/scatter down.
* ``rabenseifner`` — recursive-halving reduce-scatter followed by a
  recursive-doubling allgather (bandwidth-optimal allreduce).  Its
  reduce-scatter/allgather halves coincide with the
  ``recursive-doubling`` schedules for those collectives.

Non-power-of-two ``p`` under the doubling/halving algorithms folds the
``p − core`` extra ranks into a core power-of-two group: a pre-step ships
each extra rank's contribution to its core partner, the core executes the
power-of-two schedule over all ``p`` chunks, and a post-step ships results
back out — two extra schedule steps, any ``p``.

The generator replays every schedule symbolically (per-rank, per-chunk
contribution sets), so chunk conservation — every required rank ends
owning the fully reduced/gathered payload — is *checked*, not assumed,
and per-chunk completion times fall out of the same bookkeeping
(:meth:`CollectiveMotif.chunk_completion_times`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.workloads.motif import Message, Motif

COLLECTIVES: tuple[str, ...] = ("allreduce", "allgather", "reduce-scatter")
ALGORITHMS: tuple[str, ...] = (
    "ring", "recursive-doubling", "binary-tree", "rabenseifner"
)


@dataclass(frozen=True)
class ChunkSend:
    """One chunk-level policy entry: ``src`` sends ``chunk_id`` to ``dst``.

    ``deps`` are the entry ids whose delivery established ``src``'s
    ownership of the transmitted chunk version — the dependency trigger.
    ``step`` is the schedule round the entry belongs to (for round-count
    properties and docs; execution is triggered by ``deps`` alone).
    """

    entry_id: int
    chunk_id: int
    src: int
    dst: int
    size: int
    step: int
    deps: tuple[int, ...]

    @property
    def key(self) -> tuple[int, int]:
        """The CCL policy key this entry is installed at."""
        return (self.chunk_id, self.src)


@dataclass(frozen=True)
class _Own:
    """A rank's current version of one chunk.

    ``deps``: entry ids whose delivery established this version locally;
    ``contrib``: the set of ranks whose contributions it incorporates.
    """

    deps: tuple[int, ...]
    contrib: frozenset


def chunk_sizes(total_bytes: int, n_chunks: int) -> list[int]:
    """Split ``total_bytes`` into ``n_chunks`` near-equal chunk sizes.

    The remainder spreads over the leading chunks; every chunk is at
    least one byte so tiny payloads still exercise every entry.
    """
    base, rem = divmod(total_bytes, n_chunks)
    return [max(1, base + (1 if c < rem else 0)) for c in range(n_chunks)]


class _Builder:
    """Accumulates policy entries round by round, replaying ownership."""

    def __init__(self, n_ranks: int, sizes: list[int],
                 collective: str) -> None:
        self.p = n_ranks
        self.sizes = sizes
        self.entries: list[ChunkSend] = []
        self.step = 0
        self.own: dict[tuple[int, int], _Own] = {}
        if collective == "allgather":
            for r in range(n_ranks):
                self.own[(r, r)] = _Own((), frozenset((r,)))
        else:  # reductions: every rank holds a full local input vector
            for r in range(n_ranks):
                for c in range(n_ranks):
                    self.own[(r, c)] = _Own((), frozenset((r,)))

    def round(self, transfers: list[tuple[int, int, int]],
              reduce: bool) -> None:
        """Emit one schedule round of ``(src, dst, chunk)`` transfers.

        All sends capture the *pre-round* ownership at their source (the
        pairwise-exchange algorithms send both directions in one round),
        then all receives apply: reductions merge contribution sets and
        accumulate establishing deps, gathers replace the local copy.
        """
        emitted = []
        for src, dst, chunk in transfers:
            if src == dst:
                raise SimulationError(
                    f"self-send of chunk {chunk} at rank {src} "
                    f"(step {self.step})"
                )
            o = self.own.get((src, chunk))
            if o is None:
                raise SimulationError(
                    f"rank {src} does not own chunk {chunk} at "
                    f"step {self.step}"
                )
            eid = len(self.entries)
            self.entries.append(ChunkSend(
                eid, chunk, src, dst, self.sizes[chunk], self.step, o.deps
            ))
            emitted.append((eid, dst, chunk, o))
        for eid, dst, chunk, o in emitted:
            old = self.own.get((dst, chunk))
            if reduce:
                if old is None:
                    raise SimulationError(
                        f"rank {dst} cannot reduce into missing chunk "
                        f"{chunk} (step {self.step})"
                    )
                if old.contrib & o.contrib:
                    raise SimulationError(
                        f"double-counted contributions {sorted(old.contrib & o.contrib)} "
                        f"for chunk {chunk} at rank {dst} (step {self.step})"
                    )
                self.own[(dst, chunk)] = _Own(
                    tuple(dict.fromkeys(old.deps + (eid,))),
                    old.contrib | o.contrib,
                )
            else:
                self.own[(dst, chunk)] = _Own((eid,), o.contrib)
        self.step += 1


# -- schedule generators ----------------------------------------------------

def _ring(b: _Builder, collective: str, p: int) -> None:
    nxt = [(r + 1) % p for r in range(p)]
    if collective != "allgather":
        # Reduce-scatter pipeline: after p−1 steps rank r fully owns
        # chunk (r+1) mod p.
        for s in range(p - 1):
            b.round([(r, nxt[r], (r - s) % p) for r in range(p)],
                    reduce=True)
    if collective == "allreduce":
        # Allgather pipeline over the fully reduced chunks.
        for s in range(p - 1):
            b.round([(r, nxt[r], (r + 1 - s) % p) for r in range(p)],
                    reduce=False)
    if collective == "allgather":
        for s in range(p - 1):
            b.round([(r, nxt[r], (r - s) % p) for r in range(p)],
                    reduce=False)


def _core_count(p: int) -> int:
    """The largest power of two ≤ ``p`` (the fold's core group size)."""
    return 1 << (p.bit_length() - 1)


def _chunk_owner(p: int, core: int) -> list[int]:
    """Core rank responsible for each chunk under the fold.

    Chunks of folded extra ranks are reduced/gathered by their core
    partner and shipped back out in the post-step.
    """
    return [c if c < core else c - core for c in range(p)]


def _fold_pre(b: _Builder, collective: str, p: int, core: int) -> None:
    if collective == "allgather":
        b.round([(e, e - core, e) for e in range(core, p)], reduce=False)
    else:
        b.round([(e, e - core, c)
                 for e in range(core, p) for c in range(p)], reduce=True)


def _fold_post(b: _Builder, collective: str, p: int, core: int) -> None:
    if collective == "reduce-scatter":
        b.round([(e - core, e, e) for e in range(core, p)], reduce=False)
    else:
        b.round([(e - core, e, c)
                 for e in range(core, p) for c in range(p)], reduce=False)


def _rd_allreduce_core(b: _Builder, core: int, p: int) -> None:
    f = core.bit_length() - 1
    for k in range(f):
        b.round([(r, r ^ (1 << k), c)
                 for r in range(core) for c in range(p)], reduce=True)


def _halving_rs_core(b: _Builder, core: int, p: int) -> None:
    # Recursive halving: exchange with the farthest partner first, each
    # round shipping the half of the chunk space the partner's side will
    # end up owning.
    f = core.bit_length() - 1
    owner = _chunk_owner(p, core)
    for k in range(f):
        sh = f - 1 - k
        b.round([
            (r, r ^ (1 << sh), c)
            for r in range(core)
            for c in range(p)
            if owner[c] >> sh == (r ^ (1 << sh)) >> sh
        ], reduce=True)


def _doubling_ag_core(b: _Builder, core: int, p: int) -> None:
    # Recursive doubling: exchange with the nearest partner first, the
    # fully owned chunk block doubling each round.
    f = core.bit_length() - 1
    owner = _chunk_owner(p, core)
    for k in range(f):
        b.round([
            (r, r ^ (1 << k), c)
            for r in range(core)
            for c in range(p)
            if owner[c] >> k == r >> k
        ], reduce=False)


def _recursive_doubling(b: _Builder, collective: str, p: int) -> None:
    core = _core_count(p)
    if core != p:
        _fold_pre(b, collective, p, core)
    if collective == "allreduce":
        _rd_allreduce_core(b, core, p)
    elif collective == "reduce-scatter":
        _halving_rs_core(b, core, p)
    else:
        _doubling_ag_core(b, core, p)
    if core != p:
        _fold_post(b, collective, p, core)


def _rabenseifner(b: _Builder, collective: str, p: int) -> None:
    core = _core_count(p)
    if core != p:
        _fold_pre(b, collective, p, core)
    if collective != "allgather":
        _halving_rs_core(b, core, p)
    if collective != "reduce-scatter":
        _doubling_ag_core(b, core, p)
    if core != p:
        _fold_post(b, collective, p, core)


def _tree_levels(p: int) -> list[list[int]]:
    """Ranks grouped by depth in the complete binary tree rooted at 0."""
    depth = [0] * p
    levels: list[list[int]] = [[0]]
    for i in range(1, p):
        depth[i] = depth[(i - 1) // 2] + 1
        if depth[i] == len(levels):
            levels.append([])
        levels[depth[i]].append(i)
    return levels


def _subtree_chunks(p: int) -> list[set]:
    sub = [{i} for i in range(p)]
    for i in range(p - 1, 0, -1):
        sub[(i - 1) // 2] |= sub[i]
    return sub


def _binary_tree(b: _Builder, collective: str, p: int) -> None:
    levels = _tree_levels(p)
    sub = _subtree_chunks(p)
    everything = list(range(p))
    # Up: deepest level first; reductions carry the full chunk space,
    # gathers carry the sender's subtree chunks.
    for level in reversed(levels[1:]):
        if collective == "allgather":
            b.round([(i, (i - 1) // 2, c)
                     for i in level for c in sorted(sub[i])], reduce=False)
        else:
            b.round([(i, (i - 1) // 2, c)
                     for i in level for c in everything], reduce=True)
    # Down: root outward; reduce-scatter forwards each child only its
    # subtree's chunks, the all-* collectives broadcast everything.
    for level in levels[1:]:
        if collective == "reduce-scatter":
            b.round([((i - 1) // 2, i, c)
                     for i in level for c in sorted(sub[i])], reduce=False)
        else:
            b.round([((i - 1) // 2, i, c)
                     for i in level for c in everything], reduce=False)


_GENERATORS = {
    "ring": _ring,
    "recursive-doubling": _recursive_doubling,
    "binary-tree": _binary_tree,
    "rabenseifner": _rabenseifner,
}


class CollectiveMotif(Motif):
    """A collective schedule lowered onto the motif DAG representation."""

    def __init__(self, collective: str, algorithm: str, n_ranks: int,
                 total_bytes: int = 1 << 16,
                 compute_ns: float = 0.0) -> None:
        if collective not in COLLECTIVES:
            raise ParameterError(
                f"unknown collective {collective!r}; "
                f"options: {', '.join(COLLECTIVES)}"
            )
        if algorithm not in ALGORITHMS:
            raise ParameterError(
                f"unknown collective algorithm {algorithm!r}; "
                f"options: {', '.join(ALGORITHMS)}"
            )
        if n_ranks < 2:
            raise ParameterError("collectives need at least 2 ranks")
        if total_bytes < 1:
            raise ParameterError("total_bytes must be positive")
        super().__init__(n_ranks)
        self.collective = collective
        self.algorithm = algorithm
        self.total_bytes = total_bytes
        self.compute_ns = compute_ns
        self.name = f"{collective}/{algorithm}"
        self.chunk_sizes = chunk_sizes(total_bytes, n_ranks)
        self._builder: _Builder | None = None

    def _build(self) -> _Builder:
        if self._builder is None:
            b = _Builder(self.n_ranks, self.chunk_sizes, self.collective)
            _GENERATORS[self.algorithm](b, self.collective, self.n_ranks)
            self._builder = b
        return self._builder

    def schedule(self) -> list[ChunkSend]:
        """The chunk-level policy entries, in emission (= id) order."""
        return list(self._build().entries)

    @property
    def n_steps(self) -> int:
        """Schedule rounds emitted (ring allreduce: 2(p−1), ...)."""
        return self._build().step

    def generate(self) -> list[Message]:
        return [
            Message(e.entry_id, e.src, e.dst, e.size, list(e.deps),
                    self.compute_ns)
            for e in self._build().entries
        ]

    # -- terminal-state bookkeeping ------------------------------------

    def final_owners(self) -> list[int]:
        """Designated final owner rank per chunk (reduce-scatter contract).

        For allreduce/allgather every rank owns every chunk and the map
        is the identity.  The ring pipeline parks chunk ``c`` at rank
        ``(c−1) mod p`` (rank ``r`` ends the reduce-scatter phase fully
        owning chunk ``(r+1) mod p``); every other algorithm scatters
        chunk ``c`` to rank ``c``.
        """
        p = self.n_ranks
        if self.collective == "reduce-scatter" and self.algorithm == "ring":
            return [(c - 1) % p for c in range(p)]
        return list(range(p))

    def required_ownership(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """``(rank, chunk) -> establishing entry ids`` for the end state.

        Verifies chunk conservation: raises unless every required rank
        ends owning the complete (fully reduced or origin) version of
        every chunk the collective promises it.
        """
        b = self._build()
        p = self.n_ranks
        full = frozenset(range(p))
        if self.collective == "reduce-scatter":
            need = [(owner, c) for c, owner in enumerate(self.final_owners())]
        else:
            need = [(r, c) for r in range(p) for c in range(p)]
        out = {}
        for r, c in need:
            want = frozenset((c,)) if self.collective == "allgather" else full
            o = b.own.get((r, c))
            if o is None or o.contrib != want:
                raise SimulationError(
                    f"{self.name} over {p} ranks leaves rank {r} without "
                    f"the complete chunk {c}"
                )
            out[(r, c)] = o.deps
        return out

    def completion_deps(self) -> list[tuple[int, ...]]:
        """Per chunk: the entry ids whose delivery completes it everywhere.

        A chunk is complete when every rank the collective promises it to
        holds the final version; the returned ids are the union of those
        ranks' establishing deps.
        """
        per_chunk: list[dict] = [{} for _ in range(self.n_ranks)]
        for (_, c), deps in self.required_ownership().items():
            for d in deps:
                per_chunk[c][d] = None
        return [tuple(d) for d in per_chunk]

    def chunk_completion_times(self, t_delivered) -> list[float]:
        """Per-chunk completion instants from per-message delivery times.

        Inclusive of the run's final delivery: a chunk completed exactly
        at the last delivery cycle still gets a finite completion time
        (the `run(until=)`-style boundary the regression tests pin).
        Raises when any completing delivery is missing.
        """
        t = np.asarray(t_delivered, dtype=float)
        times = []
        for c, deps in enumerate(self.completion_deps()):
            if not deps:
                times.append(0.0)
                continue
            td = t[list(deps)]
            if not np.isfinite(td).all():
                raise SimulationError(
                    f"chunk {c} of {self.name} never completed: a "
                    "completing delivery is missing from the drain"
                )
            times.append(float(td.max()))
        return times


def run_collective(
    topo,
    routing,
    motif: CollectiveMotif,
    config,
    placement_seed: int = 0,
    placement: str = "random-nodes",
    backend: str | None = None,
) -> dict:
    """Run one collective on either engine; summary + per-chunk stats.

    Adds to the :func:`~repro.workloads.runner.run_motif` summary the
    collective identity, the verified chunk-ownership end state, and the
    per-chunk completion-time statistics.  The last chunk completes
    exactly at the run's final delivery (every entry is an ancestor of
    some completing delivery), which doubles as the exact-boundary drain
    check: an engine that dropped or excluded the boundary-cycle delivery
    fails here.
    """
    from repro.sim import capabilities
    from repro.workloads.runner import run_motif

    backend = "event" if backend is None else backend
    capabilities.require(backend, capabilities.COLLECTIVES,
                         context="run_collective")
    messages = motif.generate()
    out = run_motif(
        topo, routing, motif, config, placement_seed=placement_seed,
        placement=placement, backend=backend, messages=messages,
        collect_delivery_times=True,
    )
    t_del = out.pop("t_delivered_ns")
    done = motif.chunk_completion_times(t_del)
    if max(done) != out["makespan_ns"]:
        raise SimulationError(
            f"collective drain inconsistency: last chunk completes at "
            f"{max(done)} ns but the run's last delivery is at "
            f"{out['makespan_ns']} ns"
        )
    out["collective"] = motif.collective
    out["algorithm"] = motif.algorithm
    out["n_ranks"] = motif.n_ranks
    out["n_chunks"] = motif.n_ranks
    out["n_steps"] = motif.n_steps
    out["total_bytes"] = motif.total_bytes
    out["final_owners"] = motif.final_owners()
    out["ownership_complete"] = True  # required_ownership() raised otherwise
    out["chunk_done_ns"] = done
    out["chunk_done_mean_ns"] = float(np.mean(done))
    out["chunk_done_p99_ns"] = float(np.percentile(done, 99))
    out["chunk_done_max_ns"] = float(max(done))
    return out
