"""``python -m repro`` — the unified experiment command line.

Subcommands
-----------

``list``
    Show every registered experiment (name, title, cells, expected runtime).
``run``
    Run one or more experiments (or ``all``) at the small or full preset,
    with ``--jobs N`` parallelism, ``--set key=value`` overrides, and
    transparent result caching (``--force`` recomputes, ``--no-cache``
    bypasses the cache entirely).
``sweep``
    Cross-product parameter sweeps over one experiment: every ``--set``
    with a comma-separated value list becomes a sweep axis, ``--seeds``
    sweeps the seed.  Cells shared between sweep points are computed once.
``report``
    Run every experiment and write the tables + an index to a results
    directory (the successor of ``scripts/collect_results.py``).
``bench``
    Measure simulator throughput (packets/s, events/s) across
    topology x routing x pattern cells — on the event and batched engines
    — plus per-hop micro benchmarks, and write ``BENCH_sim.json``.
    ``--check`` instead compares a fresh run against the committed file
    and exits nonzero on a >25% regression (see ``docs/performance.md``).
``cache``
    Inspect (``cache stats``) or clear (``cache clear``) the on-disk
    result/artifact cache; ``stats`` also reaps tempfiles that interrupted
    writes left behind more than an hour ago.

Examples
--------

::

    python -m repro list
    python -m repro run fig4 --small
    python -m repro run fig6 fig8 --jobs 8
    python -m repro run fig6 --set loads=0.1,0.2 --set routing=minimal
    python -m repro sweep fig7 --seeds 0,1,2 --jobs 4
    python -m repro report -o results
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import pathlib
import sys
import time
from typing import Any

from repro.errors import BackendCapabilityError, ParameterError
from repro.runner.executor import run_experiment
from repro.runner.registry import (
    EXPERIMENTS,
    _nesting_depth,
    get_experiment,
    list_experiments,
)
from repro.utils.diskcache import (
    DiskCache,
    configure_cache,
    default_cache_dir,
    get_default_cache,
)
from repro.utils.tables import render_table


# ---------------------------------------------------------------------------
def _parse_value(text: str) -> Any:
    """Parse a ``--set`` value: python literal, comma list, or bare string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part != "")
    return text


def _parse_sets(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = _parse_value(value)
    return out


def _check_axis_shapes(exp, preset: str, axes: dict[str, tuple]) -> None:
    """Refuse a sweep axis whose points are not shaped like the elements of
    the parameter's preset value, before any cell runs.

    Every tuple-valued ``--set`` becomes a sweep axis, so one nested value
    such as ``instances=(3,7)`` would otherwise sweep ``3`` and ``7``, and
    each cell would fail inside the driver.
    """
    defs = [exp, *(get_experiment(p) for p in exp.parts)]
    for key, points in axes.items():
        for d in defs:
            default = d.presets.get(preset, {}).get(key)
            if not isinstance(default, (tuple, list)):
                continue
            depth = _nesting_depth(default) - 1
            for point in points:
                if _nesting_depth(point) < depth:
                    raise SystemExit(
                        f"sweep axis {key!r}: the point {point!r} is not "
                        "shaped like an element of the default "
                        f"{key}={default!r}; a tuple-valued --set is split "
                        "into sweep points, so pass one tuple-valued "
                        f"setting as a one-point axis: --set "
                        f"'{key}=({points!r},)'"
                    )


def _select_cache(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return configure_cache(default_cache_dir(), enabled=False)
    if getattr(args, "cache_dir", None):
        return configure_cache(args.cache_dir, enabled=True)
    return get_default_cache()


def _resolve_names(names: list[str]) -> list[str]:
    if names == ["all"]:
        return [d.name for d in list_experiments(include_composite=False)]
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}\navailable: "
                + ", ".join(sorted(EXPERIMENTS))
            )
    return names


def _emit(report, args, out_dir: pathlib.Path | None) -> None:
    if not args.quiet:
        print(report.result.to_text())
        print()
    print(report.summary_line())
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        safe = report.name.replace("/", "_")
        (out_dir / f"{safe}.txt").write_text(report.result.to_text() + "\n")


# ---------------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for d in list_experiments(tag=args.tag):
        row = {
            "name": d.name,
            "kind": "composite" if d.is_composite else "experiment",
            "cells": "-" if d.is_composite else len(d.cells(d.spec("small"))),
            "runtime (small)": d.runtime or "?",
            "tags": ",".join(d.tags),
            "title": d.title,
        }
        rows.append(row)
    print(render_table(rows, title="registered experiments"))
    if args.verbose:
        print()
        for d in list_experiments(tag=args.tag, include_composite=False):
            print(f"{d.name}: {d.fn}")
            for preset, params in d.presets.items():
                print(f"  {preset}: {params}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cache = _select_cache(args)
    overrides = _parse_sets(args.set)
    preset = "full" if args.full else "small"
    out_dir = pathlib.Path(args.out) if args.out else None
    progress = None if args.quiet else print
    t0 = time.time()
    for name in _resolve_names(args.experiments):
        for report in run_experiment(
            name,
            preset=preset,
            overrides=overrides,
            jobs=args.jobs,
            cache=cache,
            force=args.force,
            progress=progress,
        ):
            _emit(report, args, out_dir)
    summary = (
        f"{cache.hits} hits, {cache.misses} misses ({cache.root})"
        if cache.enabled
        else "disabled"
    )
    print(f"total {time.time() - t0:.1f}s — cache: {summary}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cache = _select_cache(args)
    if args.experiment == "all":
        raise SystemExit("sweep takes one experiment name, not `all`")
    exp = get_experiment(_resolve_names([args.experiment])[0])
    preset = "full" if args.full else "small"
    out_dir = pathlib.Path(args.out) if args.out else None

    sets = _parse_sets(args.set)
    axes: dict[str, tuple] = {}
    fixed: dict[str, Any] = {}
    for key, value in sets.items():
        if isinstance(value, tuple):
            axes[key] = value
        else:
            fixed[key] = value
    if args.seeds:
        axes["seed"] = _parse_value(args.seeds)
        if not isinstance(axes["seed"], tuple):
            axes["seed"] = (axes["seed"],)
    if not axes:
        raise SystemExit(
            "sweep needs at least one multi-valued axis "
            "(--set key=v1,v2,... or --seeds 0,1,2)"
        )
    _check_axis_shapes(exp, preset, axes)

    names = sorted(axes)
    summary = []
    t0 = time.time()
    for combo in itertools.product(*(axes[k] for k in names)):
        overrides = dict(fixed)
        overrides.update(dict(zip(names, combo)))
        label = ",".join(f"{k}={v}" for k, v in zip(names, combo))
        print(f"== {exp.name} [{label}]")
        for report in run_experiment(
            exp,
            preset=preset,
            overrides=overrides,
            jobs=args.jobs,
            cache=cache,
            force=args.force,
            progress=None if args.quiet else print,
        ):
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                safe = f"{report.name}__{label}".replace("/", "_").replace(" ", "")
                (out_dir / f"{safe}.txt").write_text(report.result.to_text() + "\n")
            summary.append(
                {
                    "point": label,
                    "experiment": report.name,
                    "rows": len(report.result.rows),
                    "seconds": round(report.seconds, 2),
                    "cached": "full"
                    if report.from_cache
                    else f"{report.n_cached_cells}/{report.n_cells} cells",
                }
            )
    print(render_table(summary, title=f"sweep of {exp.name} ({len(summary)} points)"))
    print(f"total {time.time() - t0:.1f}s")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cache = _select_cache(args)
    preset = "full" if args.full else "small"
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    t0 = time.time()
    for d in list_experiments(tag=args.tag, include_composite=False):
        print(f"== {d.name}")
        try:
            reports = run_experiment(
                d, preset=preset, jobs=args.jobs, cache=cache, force=args.force
            )
        except Exception as exc:  # keep collecting the rest
            (out_dir / f"{d.name}.txt").write_text(f"FAILED: {exc}\n")
            index.append({"experiment": d.name, "status": f"FAILED: {exc}", "seconds": "-"})
            print(f"   FAILED: {exc}")
            continue
        for report in reports:
            safe = report.name.replace("/", "_")
            (out_dir / f"{safe}.txt").write_text(report.result.to_text() + "\n")
            index.append(
                {
                    "experiment": report.name,
                    "status": "cached" if report.from_cache else "ok",
                    "seconds": round(report.seconds, 2),
                }
            )
            print(f"   {report.summary_line()}")
    lines = [
        f"# Experiment report ({preset} preset)",
        "",
        "| experiment | status | seconds |",
        "|---|---|---|",
    ]
    for row in index:
        lines.append(f"| {row['experiment']} | {row['status']} | {row['seconds']} |")
    (out_dir / "INDEX.md").write_text("\n".join(lines) + "\n")
    print(f"\nwrote {len(index)} tables to {out_dir}/ in {time.time() - t0:.1f}s")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner.bench import run_bench, run_check, run_scale_cells

    _select_cache(args)
    if args.scale_smoke:
        # CI's non-gating scale-smoke step: just the smoke preset's
        # oracle-backed scale cell (12,144-router SpectralFly on the batched
        # engine), no JSON written — a fast end-to-end liveness probe of the
        # path past the dense-table wall.
        if args.check:
            raise SystemExit("--scale-smoke and --check are exclusive")
        rows = run_scale_cells(
            args.preset or "smoke",
            repeats=args.repeats,
            progress=None if args.quiet else print,
        )
        ok = bool(rows) and all(r["delivered"] > 0 for r in rows)
        if not args.quiet:
            print("scale-smoke:", "ok" if ok else "FAILED")
        return 0 if ok else 1
    if args.check:
        # The check re-runs exactly the committed file's cells (its own
        # preset, both engines) — honouring a different preset or backend
        # list would compare apples to oranges, so explicit flags error
        # instead of being silently discarded.
        if args.preset is not None or args.backends is not None:
            raise SystemExit(
                "bench --check always re-runs the committed file's own "
                "preset and backends; drop --preset/--backends"
            )
        if args.baseline is not None or args.baseline_from:
            raise SystemExit(
                "bench --check compares against the committed file itself; "
                "drop --baseline/--baseline-from"
            )
        return run_check(
            committed_path=args.out,
            repeats=args.repeats,
            progress=None if args.quiet else print,
        )
    baseline = None
    if args.baseline_from:
        prior = json.loads(pathlib.Path(args.baseline_from).read_text())
        # Carry an existing file's baseline forward, or use its own summary
        # as the baseline (first measurement after an optimisation).
        baseline = prior.get("baseline") or {
            "packets_per_s": prior["summary"]["packets_per_s"],
            "events_per_s": prior["summary"].get("events_per_s"),
            "preset": prior.get("preset"),
            "note": args.baseline_note or "previous BENCH_sim.json summary",
        }
    elif args.baseline is not None:
        baseline = {
            "packets_per_s": args.baseline,
            "note": args.baseline_note or "recorded pre-change measurement",
        }
    run_bench(
        preset=args.preset or "small",
        out_path=args.out,
        repeats=args.repeats,
        baseline=baseline,
        micro=not args.no_micro,
        progress=None if args.quiet else print,
        backends=tuple(args.backends.split(",")) if args.backends else None,
    )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = DiskCache(args.cache_dir or default_cache_dir())
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached files from {cache.root}")
        return 0
    reaped = cache.reap_tmp()
    # This process has looked nothing up, so its session counters read 0.
    rows = [
        {"key": k, "value": v}
        for k, v in cache.stats().items()
        if not k.startswith("session_")
    ]
    rows.append({"key": "reaped_tmp", "value": reaped})
    print(render_table(rows, title=f"repro cache ({cache.root})"))
    return 0


# ---------------------------------------------------------------------------
def _add_common_run_args(p: argparse.ArgumentParser) -> None:
    scale = p.add_mutually_exclusive_group()
    scale.add_argument(
        "--small", action="store_true", help="laptop-scale preset (default)"
    )
    scale.add_argument(
        "--full", action="store_true", help="paper-scale preset (slow)"
    )
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes for independent cells (default 1)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override an experiment parameter (repeatable)")
    p.add_argument("--force", action="store_true",
                   help="recompute even if a cached result exists")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk cache entirely")
    p.add_argument("--cache-dir", metavar="DIR",
                   help=f"cache root (default {default_cache_dir()})")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="suppress result tables and per-cell progress")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpectralFly reproduction: unified experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list registered experiments")
    p.add_argument("--tag", help="only experiments with this tag")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="also print driver paths and preset parameters")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("run", help="run experiments (cached, parallel)")
    p.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                   help="registry names (see `list`), or `all`")
    _add_common_run_args(p)
    p.add_argument("--out", "-o", metavar="DIR",
                   help="also write each result table to DIR/<name>.txt")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="cross-product parameter sweep")
    p.add_argument("experiment", metavar="EXPERIMENT")
    _add_common_run_args(p)
    p.add_argument("--seeds", metavar="S1,S2,...",
                   help="sweep the seed parameter over these values")
    p.add_argument("--out", "-o", metavar="DIR",
                   help="write each sweep point's table to DIR")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="run everything, write a results directory")
    p.add_argument("--out", "-o", default="results", metavar="DIR",
                   help="output directory (default: results)")
    p.add_argument("--tag", help="only experiments with this tag")
    _add_common_run_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench", help="measure simulator packets/s and write BENCH_sim.json"
    )
    p.add_argument("--preset", choices=("smoke", "small", "full"), default=None,
                   help="cell set: smoke (CI seconds), small (tracked, default), "
                        "full (paper scale); incompatible with --check")
    p.add_argument("--out", "-o", default="BENCH_sim.json", metavar="FILE",
                   help="output JSON path (default BENCH_sim.json)")
    p.add_argument("--repeats", type=int, default=1, metavar="N",
                   help="runs per cell, best wall time kept (default 1)")
    p.add_argument("--backends", metavar="B1,B2",
                   help="simulation engines to bench (default: the preset's "
                        "list, normally event,batched)")
    p.add_argument("--check", action="store_true",
                   help="re-run the committed file's preset and exit nonzero "
                        "if throughput regressed by more than 25%% "
                        "(compares against --out, never overwrites it)")
    p.add_argument("--scale-smoke", action="store_true",
                   help="run only the preset's oracle-backed scale cells "
                        "on the batched engine (default preset: smoke) as a "
                        "liveness probe; writes no JSON")
    p.add_argument("--baseline", type=float, metavar="PKT_PER_S",
                   help="pre-change packets/s to record and compare against")
    p.add_argument("--baseline-from", metavar="FILE",
                   help="carry the baseline (or summary) of an existing "
                        "BENCH_sim.json forward")
    p.add_argument("--baseline-note", metavar="TEXT",
                   help="provenance note stored with the baseline")
    p.add_argument("--no-micro", action="store_true",
                   help="skip the micro benchmarks")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk cache entirely")
    p.add_argument("--cache-dir", metavar="DIR",
                   help=f"cache root (default {default_cache_dir()})")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="suppress progress output")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("cache", help="inspect or clear the on-disk cache")
    p.add_argument("action", nargs="?", choices=("stats", "clear"),
                   default="stats",
                   help="show cache stats (default) or delete every entry")
    p.add_argument("--cache-dir", metavar="DIR",
                   help=f"cache root (default {default_cache_dir()})")
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (BackendCapabilityError, ParameterError) as exc:
        # Spec-time validation (`--set backend=...` on an experiment the
        # backend cannot run, a `--set` key no composite part accepts) is
        # a usage error, not a crash: print the message — it names the
        # supported backends / accepted keys — without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
