"""Tests for the unified experiment runner: spec hashing, caching, CLI."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentResult
from repro.runner import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.runner.registry import ExperimentDef
from repro.utils.diskcache import DiskCache, stable_hash

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def cache(tmp_path):
    return DiskCache(tmp_path / "cache", enabled=True)


# ---------------------------------------------------------------------------
# stable_hash / spec hashing
def test_stable_hash_order_insensitive():
    assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})


def test_stable_hash_tuple_list_identified():
    assert stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])


def test_stable_hash_distinguishes_values():
    assert stable_hash({"a": 1}) != stable_hash({"a": 2})
    assert stable_hash({"a": 1}) != stable_hash({"a": "1"})
    assert stable_hash(1.0) != stable_hash(1)


def test_stable_hash_known_value_pinned():
    # Guards against accidental canonicalization changes: this hash must be
    # identical across processes, platforms, and sessions, or every
    # previously cached result silently invalidates.
    assert stable_hash({"x": (1, 2)}) == stable_hash({"x": [1, 2]})
    assert (
        stable_hash("spectralfly")
        == "febaae38bd3674414c4b773bb432e8a0f450ed7e259b3f6fdfe3436bcb992446"
    )


def test_stable_hash_sets_are_order_insensitive():
    assert stable_hash({3, 1, 2}) == stable_hash(frozenset((2, 3, 1)))
    assert stable_hash({1, 2}) != stable_hash((1, 2))
    assert stable_hash(b"\x01") != stable_hash("01")


def test_stable_hash_rejects_unhashable_component():
    # An object without a canonical form must not hash by its repr (an
    # address would make every cache key unique per process).
    with pytest.raises(TypeError, match="object"):
        stable_hash({"k": object()})


def test_spec_hash_ignores_name_and_param_order():
    a = ExperimentSpec.make("x", "m:f", {"p": 1, "q": 2})
    b = ExperimentSpec.make("y", "m:f", {"q": 2, "p": 1})
    assert a.spec_hash() == b.spec_hash()
    c = ExperimentSpec.make("x", "m:f", {"p": 1, "q": 3})
    assert a.spec_hash() != c.spec_hash()


# ---------------------------------------------------------------------------
# disk cache behaviour
def test_diskcache_roundtrip_and_counters(cache):
    assert cache.get(("k", 1)) is None
    assert cache.misses == 1
    cache.put(("k", 1), {"rows": [1, 2]})
    assert cache.get(("k", 1)) == {"rows": [1, 2]}
    assert cache.hits == 1


def test_diskcache_memoize_builds_once(cache):
    calls = []

    def builder():
        calls.append(1)
        return 42

    assert cache.memoize("key", builder) == 42
    assert cache.memoize("key", builder) == 42
    assert len(calls) == 1


def test_diskcache_disabled_never_stores(tmp_path):
    cache = DiskCache(tmp_path / "c", enabled=False)
    cache.put("k", 1)
    assert cache.get("k") is None
    assert cache.stats()["entries"] == 0


def test_diskcache_clear(cache):
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.clear() == 2
    assert cache.get("a") is None


# ---------------------------------------------------------------------------
# registry consistency
def test_every_preset_binds_to_its_driver():
    import inspect

    for exp in list_experiments(include_composite=False):
        fn = exp.resolve()
        sig = inspect.signature(fn)
        for preset in exp.presets:
            sig.bind_partial(**exp.params(preset))  # raises on bad kwargs


def test_composite_parts_exist():
    for exp in EXPERIMENTS.values():
        for part in exp.parts:
            assert part in EXPERIMENTS


def test_scalar_override_for_tuple_param_is_wrapped():
    # `--set loads=0.5` (or one sweep-axis value) must not hand the driver
    # a bare float to iterate.
    exp = get_experiment("fig6")
    params = exp.params("small", {"loads": 0.5, "seed": 3})
    assert params["loads"] == (0.5,)
    assert params["seed"] == 3  # non-tuple preset params stay scalar
    assert exp.params("small", {"loads": (0.1, 0.3)})["loads"] == (0.1, 0.3)
    # nested tuple parameters wrap to the preset's nesting depth
    fig3 = get_experiment("fig3")
    assert fig3.params("small", {"instances": (3, 7)})["instances"] == ((3, 7),)
    fig11 = get_experiment("fig11")
    one_pair = ((11, 7), 9)
    assert fig11.params("small", {"pairs": one_pair})["pairs"] == (one_pair,)


def test_backend_overrides_validate_at_spec_time():
    # Regression: `--set backend=batched` on an experiment whose features
    # the backend lacks (or an unknown backend) used to surface a raw
    # engine/driver error deep inside the first sweep cell.  The registry
    # now consults the capability matrix in params()/spec(), so the error
    # is the canonical type, arrives before any topology is built, and
    # names the backends that would work.
    from repro.errors import BackendCapabilityError

    # Every open-loop simulation experiment accepts both engines.
    for name in ("fig6", "fig7", "fig8", "fig9", "fig10", "saturation",
                 "resilience-traffic", "saturation-congestion"):
        exp = get_experiment(name)
        for backend in exp.supported_backends:
            assert exp.params("small", {"backend": backend})[
                "backend"
            ] == backend
        assert set(exp.supported_backends) == {"event", "batched"}, name

    # ... an unknown backend is rejected by name, with the options listed.
    with pytest.raises(BackendCapabilityError, match="event, batched"):
        get_experiment("fig6").params("small", {"backend": "threaded"})
    with pytest.raises(BackendCapabilityError, match="unknown"):
        get_experiment("fig6").spec("small", {"backend": "threaded"})

    # ... and a non-simulation experiment refuses the override outright
    # instead of passing an unexpected kwarg to its driver.
    for name in ("table1", "table2", "fig3", "survey"):
        with pytest.raises(BackendCapabilityError, match="backend"):
            get_experiment(name).params("small", {"backend": "batched"})


def test_simulation_experiments_declare_features():
    # Every experiment with a backend parameter must declare its feature
    # needs, or the spec-time validation cannot protect it.
    for exp in list_experiments(include_composite=False):
        for preset in exp.presets:
            if "backend" in exp.presets[preset]:
                assert exp.features, (
                    f"{exp.name} has a backend preset but declares no "
                    "capability features"
                )


def test_cell_axes_are_preset_params():
    for exp in list_experiments(include_composite=False):
        for axis in exp.cell_axes:
            for preset, params in exp.presets.items():
                assert axis in params, (exp.name, preset, axis)


def test_cells_cover_cross_product():
    exp = get_experiment("fig6")
    spec = exp.spec("small")
    cells = exp.cells(spec)
    kwargs = spec.kwargs
    assert len(cells) == len(kwargs["patterns"]) * len(kwargs["loads"])
    # every cell pins each axis to a single value
    for cell in cells:
        ck = cell.kwargs
        assert len(ck["patterns"]) == 1 and len(ck["loads"]) == 1


# ---------------------------------------------------------------------------
# executor: cache hit/miss and merge correctness
def test_run_experiment_cache_miss_then_hit(cache):
    rep1 = run_experiment("fig3", cache=cache)[0]
    assert not rep1.from_cache
    assert rep1.n_cells == 2 and rep1.n_cached_cells == 0
    assert isinstance(rep1.result, ExperimentResult) and rep1.result.rows

    rep2 = run_experiment("fig3", cache=cache)[0]
    assert rep2.from_cache
    assert rep2.result.rows == rep1.result.rows
    assert rep2.seconds < rep1.seconds


def test_run_experiment_overlapping_sweep_reuses_cells(cache):
    run_experiment("fig3", overrides={"instances": ((3, 7),)}, cache=cache)
    rep = run_experiment("fig3", cache=cache)[0]  # (3,7) + (3,17)
    assert rep.n_cells == 2 and rep.n_cached_cells == 1


def test_run_experiment_merged_rows_match_direct(cache):
    from repro.experiments import fig3

    rep = run_experiment("fig3", cache=cache)[0]
    assert rep.result.rows == fig3.run().rows


def test_run_experiment_force_recomputes(cache):
    rep1 = run_experiment("fig3", cache=cache)[0]
    rep2 = run_experiment("fig3", cache=cache, force=True)[0]
    assert not rep2.from_cache and rep2.n_cached_cells == 0
    assert rep2.result.rows == rep1.result.rows


def test_run_experiment_composite(cache):
    reports = run_experiment("fig4.feasible_sizes", cache=cache)
    assert len(reports) == 1
    fig4 = get_experiment("fig4")
    assert fig4.is_composite and len(fig4.parts) == 4


def test_run_experiment_unknown_name():
    with pytest.raises(KeyError):
        run_experiment("fig99")


# ---------------------------------------------------------------------------
# CLI smoke tests (subprocess, isolated cache)
def _cli(tmp_path, *args, **env):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC,
            "REPRO_CACHE_DIR": str(tmp_path / "cli-cache"),
            **env,
        },
    )


def test_cli_list(tmp_path):
    proc = _cli(tmp_path, "list")
    assert proc.returncode == 0, proc.stderr
    for name in EXPERIMENTS:
        assert name in proc.stdout


def test_cli_run_fig4_small_completes(tmp_path):
    proc = _cli(tmp_path, "run", "fig4", "--small", "--quiet")
    assert proc.returncode == 0, proc.stderr
    # all four panels report completion
    for part in get_experiment("fig4").parts:
        assert part in proc.stdout
    # second invocation is served from the cache
    proc2 = _cli(tmp_path, "run", "fig4", "--small", "--quiet")
    assert proc2.returncode == 0, proc2.stderr
    assert proc2.stdout.count("cached") >= 4


def test_cli_bad_backend_fails_cleanly_before_running(tmp_path):
    # Regression for the late-raw-error bug: an unusable `--set backend=`
    # must exit nonzero at spec time with the supported backends named and
    # no traceback spilled (the canonical error is printed, not raised).
    proc = _cli(tmp_path, "run", "fig6", "--small", "--quiet",
                "--set", "backend=threaded")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "event, batched" in proc.stderr
    assert "Traceback" not in proc.stderr

    proc = _cli(tmp_path, "run", "table1", "--small", "--quiet",
                "--set", "backend=batched")
    assert proc.returncode == 2
    assert "does not take a backend parameter" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_run_writes_output_dir(tmp_path):
    out = tmp_path / "results"
    proc = _cli(tmp_path, "run", "fig3", "--quiet", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    text = (out / "fig3.txt").read_text()
    assert "LPS(3,7)" in text


def test_cli_rejects_unknown_experiment(tmp_path):
    proc = _cli(tmp_path, "run", "fig99")
    assert proc.returncode != 0
    assert "unknown experiment" in proc.stderr


def test_cli_sweep_rejects_all(tmp_path):
    proc = _cli(tmp_path, "sweep", "all", "--seeds", "0,1")
    assert proc.returncode != 0
    assert "one experiment name" in proc.stderr


def test_cli_sweep_scalar_axis_over_tuple_param(tmp_path):
    # regression: sweep axes hand scalar values to tuple-typed parameters
    proc = _cli(
        tmp_path, "sweep", "fig3", "--set", "instances=(3,7),(3,13)", "--quiet"
    )
    assert proc.returncode == 0, proc.stderr
    assert "2 points" in proc.stdout


def test_cli_unknown_override_fails_cleanly_before_running(tmp_path):
    proc = _cli(tmp_path, "run", "fig3", "--set", "nope=1")
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "nope" in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list((tmp_path / "cli-cache").glob("*/*.pkl"))


# ---------------------------------------------------------------------------
# `repro cache stats|clear` on the plain disk cache
def _plant_tmp(root: Path, name: str, age_s: float) -> Path:
    path = root / "ab" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"partial")
    old = time.time() - age_s
    os.utime(path, (old, old))
    return path


def _stat(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == key:
            return fields[1]
    raise AssertionError(f"no {key!r} row in:\n{stdout}")


def test_cli_cache_stats_reports_run_entries(tmp_path):
    assert _cli(tmp_path, "run", "fig3", "--quiet").returncode == 0
    entries = len(list((tmp_path / "cli-cache").glob("*/*.pkl")))
    assert entries > 0
    proc = _cli(tmp_path, "cache", "stats")
    assert proc.returncode == 0, proc.stderr
    assert _stat(proc.stdout, "entries") == str(entries)


def test_cli_cache_stats_reaps_stale_tempfiles_only(tmp_path):
    root = tmp_path / "cli-cache"
    stale = _plant_tmp(root, "stale.tmp", age_s=7200.0)
    fresh = _plant_tmp(root, "fresh.tmp", age_s=0.0)
    proc = _cli(tmp_path, "cache", "stats")
    assert proc.returncode == 0, proc.stderr
    assert _stat(proc.stdout, "reaped_tmp") == "1"
    assert _stat(proc.stdout, "tmp_files") == "1"
    assert not stale.exists() and fresh.exists()


def test_cli_cache_clear_removes_entries_and_tempfiles(tmp_path):
    root = tmp_path / "cli-cache"
    assert _cli(tmp_path, "run", "fig3", "--quiet").returncode == 0
    _plant_tmp(root, "orphan.tmp", age_s=0.0)
    # A root an older store wrote carries a metrics sidecar beside the
    # entry directories; both verbs ignore it.
    (root / "store_metrics.json").write_text('{"hits": 3}\n')
    proc = _cli(tmp_path, "cache", "clear")
    assert proc.returncode == 0, proc.stderr
    assert not list(root.glob("*/*.pkl")) and not list(root.glob("*/*.tmp"))
    assert (root / "store_metrics.json").exists()
    proc = _cli(tmp_path, "cache", "stats")
    assert proc.returncode == 0, proc.stderr
    assert _stat(proc.stdout, "entries") == "0"


def test_cli_help_names_only_the_experiment_verbs(tmp_path):
    proc = _cli(tmp_path, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "{list,run,sweep,report,bench,cache}" in proc.stdout
    for verb in ("serve", "submit", "status", "cancel", "stream"):
        assert verb not in proc.stdout


# ---------------------------------------------------------------------------
# Where `repro run` keeps its cells: the default root, another root, none.
def _pkl(root: Path) -> list[Path]:
    return list(root.glob("*/*.pkl"))


def test_cli_run_no_cache_writes_nothing(tmp_path):
    proc = _cli(tmp_path, "run", "fig3", "--quiet", "--no-cache")
    assert proc.returncode == 0, proc.stderr
    # The summary names no cache directory it neither read nor wrote.
    assert proc.stdout.rstrip().endswith("— cache: disabled")
    assert not _pkl(tmp_path / "cli-cache")


def test_cli_run_cache_dir_overrides_environment(tmp_path):
    other = tmp_path / "other"
    proc = _cli(tmp_path, "run", "fig3", "--quiet", "--cache-dir", str(other))
    assert proc.returncode == 0, proc.stderr
    assert _pkl(other) and not _pkl(tmp_path / "cli-cache")
    assert str(other) in proc.stdout


def test_cli_run_repro_cache_0_disables_the_cache(tmp_path):
    for _ in range(2):
        proc = _cli(tmp_path, "run", "fig3", "--quiet", REPRO_CACHE="0")
        assert proc.returncode == 0, proc.stderr
        assert "fig3: done" in proc.stdout  # never "cached"
        assert proc.stdout.rstrip().endswith("— cache: disabled")
    assert not _pkl(tmp_path / "cli-cache")


def test_cli_set_without_equals_fails(tmp_path):
    proc = _cli(tmp_path, "run", "fig3", "--set", "instances")
    assert proc.returncode != 0
    assert "--set expects key=value" in proc.stderr
    assert not _pkl(tmp_path / "cli-cache")


def test_cli_sweep_needs_a_multi_valued_axis(tmp_path):
    proc = _cli(tmp_path, "sweep", "fig3", "--quiet")
    assert proc.returncode != 0
    assert "at least one multi-valued axis" in proc.stderr
    assert not _pkl(tmp_path / "cli-cache")


def test_cli_sweep_refuses_to_split_one_tuple_value(tmp_path):
    # fig3's instances are (p, q) pairs: `instances=(3,7)` is one setting,
    # not an axis sweeping 3 and 7, and no cell may run with either.
    proc = _cli(tmp_path, "sweep", "fig3", "--set", "instances=(3,7)",
                "--quiet")
    assert proc.returncode != 0
    assert "sweep axis 'instances': the point 3" in proc.stderr
    assert "--set 'instances=((3, 7),)'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not _pkl(tmp_path / "cli-cache")
    # The spelling the message suggests runs that one setting.
    proc = _cli(tmp_path, "sweep", "fig3", "--set", "instances=((3, 7),)",
                "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert "instances=(3, 7)" in proc.stdout
    assert "sweep of fig3 (1 points)" in proc.stdout


# ---------------------------------------------------------------------------
# The `--set` grammar and name resolution, in-process.
@pytest.mark.parametrize(
    "text, value",
    [
        ("1", 1),
        ("0.25", 0.25),
        ("True", True),
        ("minimal", "minimal"),
        ("1,2", (1, 2)),
        ("a,b", ("a", "b")),
        ("x,1", ("x", 1)),
        ("LPS,", ("LPS",)),
        ("(3,7),(3,13)", ((3, 7), (3, 13))),
    ],
)
def test_set_value_grammar(text, value):
    from repro.runner.cli import _parse_value

    assert _parse_value(text) == value


def test_parse_sets_strips_keys_and_last_one_wins():
    from repro.runner.cli import _parse_sets

    assert _parse_sets(["a=1", " b =x", "a=2", "c=k=v"]) == {
        "a": 2, "b": "x", "c": "k=v",
    }


def test_all_resolves_to_every_plain_experiment():
    from repro.runner.cli import _resolve_names

    names = _resolve_names(["all"])
    assert names == [d.name for d in list_experiments(include_composite=False)]
    assert "fig4" not in names and "fig4.design_space" in names


def test_cli_list_filters_by_tag(capsys):
    from repro.runner.cli import main

    assert main(["list", "--tag", "table", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "table2" in out and "fig6" not in out
    # --verbose adds each driver path and its preset parameters.
    assert get_experiment("table1").fn in out
    assert "small:" in out and "full:" in out


# ---------------------------------------------------------------------------
# `sweep` and `report` in-process, on drivers that take no time.
def _rows_run(values=(1, 2)):
    return ExperimentResult(experiment="rows", rows=[{"v": v} for v in values])


def _raising_run(values=(1,)):
    raise RuntimeError(f"driver failed on {values}")


_ROWS = ExperimentDef(
    name="rows",
    title="one row per value",
    fn="test_runner:_rows_run",
    presets={"small": {"values": (1, 2)}},
    cell_axes=("values",),
    tags=("cli-test",),
)

_RAISING = ExperimentDef(
    name="raising",
    title="a driver that always raises",
    fn="test_runner:_raising_run",
    presets={"small": {"values": (1,)}},
    cell_axes=("values",),
    tags=("cli-test",),
)


@pytest.fixture()
def cli_registry(monkeypatch):
    """Register the test drivers and restore the process-wide cache after.

    ``--cache-dir`` replaces the default cache for the whole process.
    """
    from repro.utils import diskcache

    monkeypatch.setattr(diskcache, "_default", diskcache._default)
    monkeypatch.setitem(EXPERIMENTS, "rows", _ROWS)
    monkeypatch.setitem(EXPERIMENTS, "raising", _RAISING)


def test_cli_sweep_points_share_cells(tmp_path, capsys, cli_registry):
    from repro.runner.cli import main

    argv = ["sweep", "rows", "--set", "values=(1,2),(2,3)", "--quiet",
            "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 points" in out
    # The second point's cell values=2 came from the first point.
    assert "0/2 cells" in out and "1/2 cells" in out
    assert main(argv) == 0
    assert capsys.readouterr().out.count("full") == 2


def test_cli_report_records_failures_and_keeps_going(tmp_path, capsys, cli_registry):
    from repro.runner.cli import main

    out_dir = tmp_path / "results"
    argv = ["report", "--tag", "cli-test", "-o", str(out_dir),
            "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    index = (out_dir / "INDEX.md").read_text()
    assert "| rows | ok |" in index
    assert "| raising | FAILED:" in index and "driver failed" in index
    assert (out_dir / "rows.txt").read_text().count("\n") > 2
    assert (out_dir / "raising.txt").read_text().startswith("FAILED:")
    assert "wrote 2 tables" in capsys.readouterr().out
    # A second report serves the good experiment from the cache.
    assert main(argv) == 0
    assert "| rows | cached |" in (out_dir / "INDEX.md").read_text()
