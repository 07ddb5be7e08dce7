"""Cell-parallel, cache-aware execution of experiment specs.

``run_experiment`` is the one entry point: it resolves a registry name (or
:class:`ExperimentDef`) into fully-parameterized specs, serves previously
computed results straight from the content-addressed disk cache, splits
cache misses into independent cells along the experiment's declared axes,
fans the cells across a process pool, and writes every cell *and* the
merged result back to the cache.  Overlapping sweeps therefore only pay for
the cells they have not seen before.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable

from repro.errors import CellExecutionError, ParameterError
from repro.experiments.common import ExperimentResult
from repro.runner.registry import ExperimentDef, get_experiment
from repro.runner.spec import CellOutcome, ExperimentSpec, RunReport
from repro.utils.diskcache import DiskCache, configure_cache, get_default_cache

_RESULT_KEY = "experiment-result"

Progress = Callable[[str], None] | None


def _result_key(spec: ExperimentSpec) -> tuple[str, str]:
    return (_RESULT_KEY, spec.spec_hash())


# ---------------------------------------------------------------------------
# Worker-side entry points (must be importable, hence module top level).
def _worker_init(cache_root: str, cache_enabled: bool, extra_path: list[str]) -> None:
    for p in reversed(extra_path):
        if p not in sys.path:
            sys.path.insert(0, p)
    configure_cache(cache_root, enabled=cache_enabled)


def _execute_payload(payload: tuple[str, str, tuple]) -> tuple[ExperimentResult, float]:
    """Run one cell in a worker process; returns (result, seconds)."""
    name, fn, params = payload
    spec = ExperimentSpec(name=name, fn=fn, params=params)
    t0 = time.perf_counter()
    result = spec.execute()
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
def _merge_cells(spec: ExperimentSpec, results: list[ExperimentResult]) -> ExperimentResult:
    """Concatenate cell rows back into one result (deterministic order).

    Notes from *every* cell are kept, de-duplicated in cell order — a cell
    that observed something (a deadlock warning, a fallback) must not have
    its note silently dropped because it was not the first cell.  Columns
    must agree across cells; a disagreement means the cells did not come
    from the same driver configuration and concatenating their rows under
    the first cell's header would mislabel data, so it raises instead.
    """
    first = results[0]
    columns = first.columns
    for res in results[1:]:
        if res.columns != columns:
            raise ValueError(
                f"cannot merge cells of {spec.name}: column disagreement "
                f"({columns!r} vs {res.columns!r})"
            )
    rows: list[dict[str, Any]] = []
    notes: list[str] = []
    for res in results:
        rows.extend(res.rows)
        if res.notes and res.notes not in notes:
            notes.append(res.notes)
    return ExperimentResult(
        experiment=first.experiment,
        rows=rows,
        notes="\n".join(notes),
        columns=columns,
    )


def _run_cells(
    cells: list[ExperimentSpec],
    jobs: int,
    cache: DiskCache,
    force: bool,
    progress: Progress,
) -> tuple[list[ExperimentResult], list[CellOutcome]]:
    """Execute the cell list, serving cached cells and pooling the misses."""
    results: list[ExperimentResult | None] = [None] * len(cells)
    outcomes: list[CellOutcome | None] = [None] * len(cells)
    n = len(cells)

    def serve(i: int, result: ExperimentResult, from_cache: bool, seconds: float) -> None:
        results[i] = result
        outcomes[i] = CellOutcome(cells[i], from_cache=from_cache, seconds=seconds)
        if progress:
            label = "cached" if from_cache else f"{seconds:.1f}s"
            progress(f"  [{i + 1}/{n}] {cells[i].name}: {label}")

    misses: list[int] = []
    for i, cell in enumerate(cells):
        hit = None if force else cache.get(_result_key(cell))
        if hit is not None:
            serve(i, hit, from_cache=True, seconds=0.0)
        else:
            misses.append(i)

    def record(i: int, result: ExperimentResult, seconds: float) -> None:
        cache.put(_result_key(cells[i]), result)
        serve(i, result, from_cache=False, seconds=seconds)

    # Failure contract (tests/test_runner_executor.py): a cell whose driver
    # raises must never reach cache.put (a poisoned entry would be served as
    # a result forever), must not leave the pool hanging (pending cells are
    # cancelled; in-flight ones finish with the context manager), and must
    # surface as a CellExecutionError carrying the failing cell's spec.
    def fail(i: int, exc: BaseException) -> CellExecutionError:
        return CellExecutionError(
            f"cell {cells[i].name} failed: {exc!r}", spec=cells[i]
        )

    if misses and jobs > 1:
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(misses)),
            initializer=_worker_init,
            initargs=(str(cache.root), cache.enabled, [src_root]),
        ) as pool:
            futures = {
                pool.submit(
                    _execute_payload, (cells[i].name, cells[i].fn, cells[i].params)
                ): i
                for i in misses
            }
            try:
                for fut in as_completed(futures):
                    try:
                        result, seconds = fut.result()
                    except Exception as exc:
                        raise fail(futures[fut], exc) from exc
                    record(futures[fut], result, seconds)
            except BaseException:
                # Drop queued cells; the context manager waits out
                # in-flight ones, whose results are discarded unrecorded.
                for fut in futures:
                    fut.cancel()
                raise
    else:
        for i in misses:
            t0 = time.perf_counter()
            try:
                result = cells[i].execute()
            except Exception as exc:
                raise fail(i, exc) from exc
            record(i, result, time.perf_counter() - t0)

    return list(results), list(outcomes)  # type: ignore[arg-type]


def _run_single(
    exp: ExperimentDef,
    spec: ExperimentSpec,
    jobs: int,
    cache: DiskCache,
    force: bool,
    progress: Progress,
) -> RunReport:
    t0 = time.perf_counter()
    if not force:
        hit = cache.get(_result_key(spec))
        if hit is not None:
            return RunReport(
                name=spec.name,
                result=hit,
                seconds=time.perf_counter() - t0,
                from_cache=True,
            )
    cells = exp.cells(spec)
    cell_results, outcomes = _run_cells(cells, jobs, cache, force, progress)
    merged = _merge_cells(spec, cell_results)
    if len(cells) > 1:
        # Unsplit specs share their spec hash with their single cell, which
        # _run_cells already stored — don't write the same pickle twice.
        cache.put(_result_key(spec), merged)
    return RunReport(
        name=spec.name,
        result=merged,
        seconds=time.perf_counter() - t0,
        cells=outcomes,
    )


def run_experiment(
    experiment: str | ExperimentDef,
    preset: str = "small",
    overrides: dict[str, Any] | None = None,
    jobs: int = 1,
    cache: DiskCache | None = None,
    force: bool = False,
    progress: Progress = None,
) -> list[RunReport]:
    """Run one registered experiment (or composite) and return its reports.

    Parameters
    ----------
    experiment:
        Registry name (``"fig6"``) or an :class:`ExperimentDef`.
    preset:
        ``"small"`` (laptop-scale defaults) or ``"full"`` (paper-scale).
    overrides:
        Parameter overrides applied on top of the preset (CLI ``--set``).
        A key the driver does not accept (for a composite: that no part
        accepts) raises :class:`ParameterError` before any cell runs.
    jobs:
        Worker processes for independent cells; 1 runs everything inline.
    cache:
        Result cache; defaults to the process-wide disk cache.
    force:
        Recompute even when cached results exist (results are re-stored).
    progress:
        Optional callable receiving one human-readable line per cell.

    Returns one :class:`RunReport` per driver — a single report for plain
    experiments, one per part for composites like ``fig4``.
    """
    exp = get_experiment(experiment) if isinstance(experiment, str) else experiment
    cache = cache if cache is not None else get_default_cache()
    overrides = overrides or {}
    if exp.is_composite:
        # Parts have different signatures; forward only the overrides each
        # driver actually accepts.  A key no part accepts is a user error
        # (a typo would otherwise be silently ignored) — raise before
        # running anything.
        parts = [get_experiment(p) for p in exp.parts]
        accepted_by_part = {p.name: p.accepted_params() for p in parts}
        all_accepted = set().union(*accepted_by_part.values())
        unknown = sorted(set(overrides) - all_accepted)
        if unknown:
            raise ParameterError(
                f"composite {exp.name!r}: override key(s) "
                f"{', '.join(unknown)} accepted by none of its parts "
                f"({', '.join(exp.parts)}); accepted keys: "
                f"{', '.join(sorted(all_accepted))}"
            )
        reports = []
        for part in parts:
            part_overrides = {
                k: v for k, v in overrides.items() if k in accepted_by_part[part.name]
            }
            spec = part.spec(preset, part_overrides)
            reports.append(_run_single(part, spec, jobs, cache, force, progress))
        return reports
    # The spec comes first so that an unusable `backend` override keeps
    # its own canonical message; then no key the driver does not accept
    # may reach a cell (it would die there with a TypeError).
    spec = exp.spec(preset, overrides)
    accepted = exp.accepted_params()
    unknown = sorted(set(overrides) - accepted)
    if unknown:
        raise ParameterError(
            f"experiment {exp.name!r}: unknown override key(s) "
            f"{', '.join(unknown)}; accepted keys: {', '.join(sorted(accepted))}"
        )
    return [_run_single(exp, spec, jobs, cache, force, progress)]
