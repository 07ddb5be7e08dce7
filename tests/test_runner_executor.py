"""Executor failure paths: a raising cell must fail loud, clean, and cheap.

Contract (enforced in ``repro.runner.executor._run_cells``):

* the error surfaces as :class:`CellExecutionError` with the failing
  cell's :class:`ExperimentSpec` attached (and the original exception
  chained as ``__cause__``);
* the disk cache is never poisoned — no entry is written for the failed
  cell, and the cells that did complete remain individually cached;
* the process pool shuts down instead of hanging (pending cells are
  cancelled; the run returns promptly).
"""

from __future__ import annotations

import pytest

from repro.errors import CellExecutionError
from repro.runner import run_experiment
from repro.runner.registry import ExperimentDef
from repro.utils.diskcache import DiskCache

# A registry-shaped experiment whose driver raises for one cell: fig5's
# driver looks families up in the size-class dict, so an unknown family
# KeyErrors.  Dotted-path drivers keep the pool workers importable.
_BROKEN = ExperimentDef(
    name="broken-sweep",
    title="sweep with one poisoned cell",
    fn="repro.experiments.fig5:run",
    presets={
        "small": {
            "class_id": 1,
            "proportions": (0.0,),
            "max_trials_per_batch": 1,
            "families": ("LPS", "NOT-A-FAMILY"),
        }
    },
    cell_axes=("families",),
)

_OK = ExperimentDef(
    name="ok-sweep",
    title="the same sweep without the poisoned cell",
    fn="repro.experiments.fig5:run",
    presets={
        "small": {
            "class_id": 1,
            "proportions": (0.0,),
            "max_trials_per_batch": 1,
            "families": ("LPS",),
        }
    },
    cell_axes=("families",),
)


def _deadlocking_cell(families=("ring",)):  # noqa: ARG001 (cell-axis shape)
    """A driver that genuinely deadlocks: C8 ring, one VC, 1-packet buffers.

    Offset-3 minimal traffic on a single-VC ring wedges solid (the
    Section V-A scenario, see ``tests/test_sim_deadlock.py``); the run
    raises :class:`BufferDeadlockError` instead of returning a result.
    """
    from repro.graphs.generators import cycle_graph
    from repro.routing import RoutingTables, make_routing
    from repro.sim import NetworkSimulator, SimConfig
    from repro.topology.base import Topology

    topo = Topology(name="ring8", family="test", graph=cycle_graph(8))
    tables = RoutingTables(topo.graph)
    routing = make_routing("minimal", tables, seed=0)
    routing.required_vcs = lambda: 1
    cfg = SimConfig(concentration=1, finite_buffers=True,
                    buffer_bytes=4096, packet_bytes=4096)
    net = NetworkSimulator(topo, routing, cfg, tables=tables)
    for src in range(8):
        for _ in range(6):
            net.send(src, (src + 3) % 8)
    return net.run()


#: Resolvable in-process only (jobs=1): the tests directory is on
#: ``sys.path`` under pytest's default import mode.
_DEADLOCK = ExperimentDef(
    name="deadlock-sweep",
    title="congested sweep whose only cell genuinely deadlocks",
    fn="test_runner_executor:_deadlocking_cell",
    presets={"small": {"families": ("ring",)}},
    cell_axes=("families",),
)


@pytest.fixture()
def cache(tmp_path):
    return DiskCache(tmp_path / "cache", enabled=True)


def _entries(cache: DiskCache) -> int:
    return sum(1 for p in cache.root.rglob("*") if p.is_file())


@pytest.mark.parametrize("jobs", [1, 2])
def test_raising_cell_surfaces_with_spec(cache, jobs):
    with pytest.raises(CellExecutionError) as exc_info:
        run_experiment(_BROKEN, preset="small", jobs=jobs, cache=cache)
    err = exc_info.value
    assert err.spec is not None
    assert "NOT-A-FAMILY" in err.spec.name
    assert err.spec.kwargs["families"] == ("NOT-A-FAMILY",)
    assert err.spec.fn == "repro.experiments.fig5:run"
    if jobs == 1:
        # In-process execution chains the original exception; pool
        # execution reconstructs it across the process boundary.
        assert isinstance(err.__cause__, KeyError)


def test_failed_cell_does_not_poison_cache(cache):
    from repro.runner.executor import _result_key

    with pytest.raises(CellExecutionError) as exc_info:
        run_experiment(_BROKEN, preset="small", jobs=1, cache=cache)
    failing_spec = exc_info.value.spec
    # Nothing was stored under the failing cell's key...
    assert cache.get(_result_key(failing_spec)) is None
    # ...and retrying still fails (no stale poisoned entry served).
    with pytest.raises(CellExecutionError):
        run_experiment(_BROKEN, preset="small", jobs=1, cache=cache)


def test_surviving_cells_stay_cached_after_failure(cache):
    with pytest.raises(CellExecutionError):
        run_experiment(_BROKEN, preset="small", jobs=1, cache=cache)
    # The healthy LPS cell completed before the poisoned one and was
    # cached: running the healthy subset is a pure cache hit.
    reports = run_experiment(_OK, preset="small", jobs=1, cache=cache)
    assert reports[0].n_cached_cells == reports[0].n_cells


def test_buffer_deadlock_surfaces_as_cell_error_and_is_not_cached(cache):
    # A finite-buffer deadlock inside a cell is a *diagnosis*, not a
    # result: it must surface as CellExecutionError with the structured
    # BufferDeadlockError (witness cycle included) chained underneath,
    # and nothing may reach the disk cache — a poisoned entry would
    # replay the deadlock's partial stats as a legitimate result forever.
    from repro.errors import BufferDeadlockError
    from repro.runner.executor import _result_key

    with pytest.raises(CellExecutionError) as exc_info:
        run_experiment(_DEADLOCK, preset="small", jobs=1, cache=cache)
    err = exc_info.value
    assert isinstance(err.__cause__, BufferDeadlockError)
    assert err.__cause__.cycle  # the (edge, VC) witness travels along
    assert "finite-buffer deadlock" in str(err)
    assert cache.get(_result_key(err.spec)) is None
    # Retrying really deadlocks again — no stale entry was served.
    with pytest.raises(CellExecutionError):
        run_experiment(_DEADLOCK, preset="small", jobs=1, cache=cache)


def test_pool_failure_returns_promptly_and_cleans_up(cache):
    # jobs=2 with the failure in the sweep: the run must terminate (no
    # hung pool) and leave the cache no bigger than the successful cells.
    before = _entries(cache)
    with pytest.raises(CellExecutionError):
        run_experiment(_BROKEN, preset="small", jobs=2, cache=cache)
    after = _entries(cache)
    # At most the healthy cell (plus its derived topology artifacts) was
    # written; the failing cell added nothing.
    assert after >= before
    ok = run_experiment(_OK, preset="small", jobs=1, cache=cache)
    assert ok[0].result.rows


# ---------------------------------------------------------------------------
# Merge semantics: notes and columns across cells.


def _notes_cell(families=("a",)):
    """One row per family; families starting with 's' share one note."""
    from repro.experiments.common import ExperimentResult

    fam = families[0]
    note = "" if fam == "quiet" else (
        "shared note" if fam.startswith("s") else f"note-{fam}"
    )
    return ExperimentResult(
        experiment="notes-sweep", rows=[{"family": fam}], notes=note
    )


_NOTES = ExperimentDef(
    name="notes-sweep",
    title="sweep whose cells carry (partly duplicated) notes",
    fn="test_runner_executor:_notes_cell",
    presets={"small": {"families": ("a", "s1", "quiet", "s2", "b")}},
    cell_axes=("families",),
)


def _columns_cell(families=("a",)):
    """Cells disagree on column order — the merge must refuse to guess."""
    from repro.experiments.common import ExperimentResult

    fam = families[0]
    columns = ["family", "x"] if fam == "a" else ["x", "family"]
    return ExperimentResult(
        experiment="cols-sweep",
        rows=[{"family": fam, "x": 1}],
        columns=columns,
    )


_COLS = ExperimentDef(
    name="cols-sweep",
    title="sweep whose cells disagree on columns",
    fn="test_runner_executor:_columns_cell",
    presets={"small": {"families": ("a", "b")}},
    cell_axes=("families",),
)


def test_notes_merged_deduplicated_in_cell_order(cache):
    # Every cell's notes survive the merge (not just cell 0's), empties
    # are dropped, duplicates collapse, and cell order is preserved.
    reports = run_experiment(_NOTES, preset="small", jobs=1, cache=cache)
    assert reports[0].result.notes == "note-a\nshared note\nnote-b"


def test_notes_merge_stable_through_cache(cache):
    run_experiment(_NOTES, preset="small", jobs=1, cache=cache)
    rerun = run_experiment(_NOTES, preset="small", jobs=1, cache=cache)
    assert rerun[0].result.notes == "note-a\nshared note\nnote-b"


def test_column_disagreement_raises(cache):
    with pytest.raises(ValueError, match="column disagreement"):
        run_experiment(_COLS, preset="small", jobs=1, cache=cache)


# ---------------------------------------------------------------------------
# Composite override forwarding: typos fail loud, valid keys route.

_MINI_COMPOSITE = ExperimentDef(
    name="mini-composite",
    title="two cheap fig4 panels under one name",
    parts=("fig4.design_space", "fig4.feasible_sizes"),
)


def test_composite_rejects_override_no_part_accepts(cache):
    from repro.errors import ParameterError

    with pytest.raises(ParameterError) as exc_info:
        run_experiment(
            _MINI_COMPOSITE, preset="small", overrides={"nope": 1}, cache=cache
        )
    message = str(exc_info.value)
    assert "nope" in message
    # The error names the parts and the keys that *would* be accepted.
    assert "fig4.design_space" in message
    assert "max_pq" in message


def test_composite_rejects_before_running_anything(cache):
    with pytest.raises(Exception):
        run_experiment(
            _MINI_COMPOSITE, preset="small", overrides={"nope": 1}, cache=cache
        )
    assert _entries(cache) == 0


def test_plain_experiment_rejects_unknown_override_before_running(cache):
    from repro.errors import ParameterError

    with pytest.raises(ParameterError) as exc_info:
        run_experiment(
            _OK, preset="small", overrides={"nope": 1, "families": ("LPS",)},
            cache=cache,
        )
    message = str(exc_info.value)
    assert "'ok-sweep'" in message and "nope" in message
    assert "families" not in message.split(";")[0]  # only the bad key
    assert "max_trials_per_batch" in message  # the accepted keys
    assert _entries(cache) == 0


def test_composite_forwards_valid_override_to_accepting_part(cache):
    # max_pq is a design_space parameter; feasible_sizes must still run.
    reports = run_experiment(
        _MINI_COMPOSITE, preset="small", overrides={"max_pq": 20}, cache=cache
    )
    assert [r.name.split("[")[0] for r in reports] == [
        "fig4.design_space",
        "fig4.feasible_sizes",
    ]
    assert all(r.result.rows for r in reports)


# ---------------------------------------------------------------------------
# The process pool: results arrive out of order, rows merge in cell order.


def _slow_cell(families=("a",), delay=0.05):
    import time as _time

    from repro.experiments.common import ExperimentResult

    _time.sleep(delay)
    return ExperimentResult(
        experiment="slow-sweep", rows=[{"family": families[0]}]
    )


_SLOW = ExperimentDef(
    name="slow-sweep",
    title="four cells that each take a beat",
    fn="test_runner_executor:_slow_cell",
    presets={"small": {"families": ("a", "b", "c", "d"), "delay": 0.05}},
    cell_axes=("families",),
)


def test_pool_run_matches_inline_run(tmp_path):
    inline = run_experiment(
        _SLOW, preset="small", jobs=1, cache=DiskCache(tmp_path / "inline")
    )[0]
    pooled_cache = DiskCache(tmp_path / "pooled")
    pooled = run_experiment(_SLOW, preset="small", jobs=2, cache=pooled_cache)[0]
    assert pooled.result.rows == inline.result.rows
    assert [r["family"] for r in pooled.result.rows] == ["a", "b", "c", "d"]
    assert pooled.n_cells == 4 and pooled.n_cached_cells == 0
    # Every cell and the merged result reached the cache, no tempfile left.
    assert pooled_cache.stats()["entries"] == 5
    assert list(pooled_cache.root.glob("*/*.tmp")) == []
    rerun = run_experiment(_SLOW, preset="small", jobs=2, cache=pooled_cache)[0]
    assert rerun.from_cache and rerun.result.rows == inline.result.rows


# ---------------------------------------------------------------------------
# Runs that share one cache root: every cell is computed once, wherever it
# is first asked for, and re-asking is served from disk.

_TINY_CALLS: list[tuple] = []


def _tiny_run(values=(1, 2, 3)):
    """One row per value; records each in-process call for the dedup checks."""
    from repro.experiments.common import ExperimentResult

    _TINY_CALLS.append(tuple(values))
    return ExperimentResult(
        experiment="tiny-sweep", rows=[{"v": v, "sq": v * v} for v in values]
    )


_TINY = ExperimentDef(
    name="tiny-sweep",
    title="one cheap cell per value",
    fn="test_runner_executor:_tiny_run",
    presets={"small": {"values": (1, 2, 3)}},
    cell_axes=("values",),
)


@pytest.fixture()
def tiny_calls():
    _TINY_CALLS.clear()
    yield _TINY_CALLS
    _TINY_CALLS.clear()


def test_progress_reports_each_cell_in_order(cache, tiny_calls):
    lines: list[str] = []
    report = run_experiment(_TINY, cache=cache, progress=lines.append)[0]
    assert [r["v"] for r in report.result.rows] == [1, 2, 3]
    assert [line.split(":")[0].strip() for line in lines] == [
        "[1/3] tiny-sweep[values=1]",
        "[2/3] tiny-sweep[values=2]",
        "[3/3] tiny-sweep[values=3]",
    ]
    assert not any(line.endswith("cached") for line in lines)
    # A run that reuses some cells labels exactly those as cached.
    lines.clear()
    run_experiment(
        _TINY, overrides={"values": (2, 3, 4)}, cache=cache, progress=lines.append
    )
    assert [line.endswith("cached") for line in lines] == [True, True, False]


def test_identical_rerun_is_full_hit(cache, tiny_calls):
    first = run_experiment(_TINY, cache=cache)[0]
    lines: list[str] = []
    again = run_experiment(_TINY, cache=cache, progress=lines.append)[0]
    assert again.from_cache and again.n_cells == 0
    assert again.result.rows == first.result.rows
    assert again.summary_line().startswith("tiny-sweep: cached")
    # The merged result short-circuits: no cell is looked up or reported.
    assert lines == []
    assert len(tiny_calls) == 3


def test_overlapping_runs_compute_only_new_cells(cache, tiny_calls):
    run_experiment(_TINY, overrides={"values": (1, 2, 3)}, cache=cache)
    report = run_experiment(_TINY, overrides={"values": (2, 3, 4)}, cache=cache)[0]
    assert report.n_cells == 3 and report.n_cached_cells == 2
    assert [r["v"] for r in report.result.rows] == [2, 3, 4]
    assert tiny_calls == [(1,), (2,), (3,), (4,)]


def test_list_and_tuple_overrides_share_cells(cache, tiny_calls):
    # A list (what JSON or a caller's own code yields) splits into the same
    # cells as the tuple the CLI builds, and both hash to one cache entry.
    listed = run_experiment(_TINY, overrides={"values": [7, 8, 9]}, cache=cache)[0]
    assert listed.n_cells == 3
    tupled = run_experiment(_TINY, overrides={"values": (7, 8, 9)}, cache=cache)[0]
    assert tupled.from_cache and tupled.result.rows == listed.result.rows
    # A scalar for the tuple-valued axis is a one-cell spec, whose hash is
    # its cell's: the entry the three-value run stored serves it whole.
    single = run_experiment(_TINY, overrides={"values": 7}, cache=cache)[0]
    assert single.from_cache and single.result.rows == [{"v": 7, "sq": 49}]
    assert len(tiny_calls) == 3


def test_concurrent_runs_share_one_cache_root(tmp_path, tiny_calls):
    # Eight runs at once, each through its own DiskCache on one root (as
    # separate `repro run` processes would be): overlapping cells
    # ((0,1) and (1,2) share 1, ...) are computed at least once and
    # otherwise served from the root, and no run tears another's entry.
    import threading

    root = tmp_path / "shared"
    reports: dict[int, object] = {}
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        try:
            reports[i] = run_experiment(
                _TINY, overrides={"values": (i, i + 1)}, cache=DiskCache(root)
            )[0]
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert sorted(reports) == list(range(8))
    for i, report in reports.items():
        assert [r["v"] for r in report.result.rows] == [i, i + 1]
    cached = sum(r.n_cached_cells for r in reports.values())
    computed = sum(r.n_cells - r.n_cached_cells for r in reports.values())
    assert computed + cached == 16
    assert computed == len(tiny_calls) >= 9
    stats = DiskCache(root).stats()
    assert stats["entries"] == 9 + 8  # every distinct cell, every merge
    assert stats["tmp_files"] == 0


def test_unknown_preset_rejected_before_running(cache, tiny_calls):
    with pytest.raises(KeyError) as exc_info:
        run_experiment(_TINY, preset="huge", cache=cache)
    message = str(exc_info.value)
    assert "huge" in message and "small" in message  # the presets it has
    assert tiny_calls == [] and _entries(cache) == 0


def test_disabled_cache_runs_every_cell_and_stores_nothing(tmp_path, tiny_calls):
    cache = DiskCache(tmp_path / "off", enabled=False)
    first = run_experiment(_TINY, cache=cache)[0]
    again = run_experiment(_TINY, cache=cache)[0]
    assert not again.from_cache and again.n_cached_cells == 0
    assert again.result.rows == first.result.rows
    assert len(tiny_calls) == 6
    assert not (tmp_path / "off").exists()


def test_composite_rerun_serves_every_part_from_cache(cache):
    first = run_experiment(_MINI_COMPOSITE, preset="small", cache=cache)
    again = run_experiment(_MINI_COMPOSITE, preset="small", cache=cache)
    assert [r.name for r in again] == [r.name for r in first]
    assert all(r.from_cache for r in again)
    assert [r.result.rows for r in again] == [r.result.rows for r in first]
