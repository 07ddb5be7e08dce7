"""Tests for the unified experiment runner: spec hashing, caching, CLI."""

from __future__ import annotations

import subprocess
import sys
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
def _cli(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC,
            "REPRO_CACHE_DIR": str(tmp_path / "cli-cache"),
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
