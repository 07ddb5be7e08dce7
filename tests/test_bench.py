"""Unit tests for the benchmark harness (``repro.runner.bench``).

Timing *numbers* are machine noise and are never asserted; what is pinned
here is the machinery: cells run the work they claim (delivered counts,
backends, workload labels), the scenario cells (motif, collective,
faulted, congested, searched) exist per backend, the summaries aggregate what they say they
aggregate, and
``compare_to_committed`` flags exactly the regressions it documents —
including the new per-scenario speedups.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import bench
from repro.runner.bench import (
    BENCH_PRESETS,
    compare_to_committed,
    run_bench,
    run_cell,
    run_collective_cell,
    run_congested_cell,
    run_faulted_cell,
    run_motif_cell,
    run_scenarios,
    summarize,
    summarize_scenarios,
)
from repro.topology import SIM_CONFIGS

#: A micro preset: same shape as the real ones, sized for unit tests.
_TINY = {
    "scale": "small",
    "topologies": ("SpectralFly",),
    "cells": (("minimal", "shuffle"),),
    "load": 0.5,
    "n_ranks": 16,
    "packets_per_rank": 2,
    "backends": ("event", "batched"),
    "scenarios": {
        "motif": {"topology": "SpectralFly", "routing": "minimal",
                  "motif": "sweep3d", "n_ranks": 16},
        "faulted": {"topology": "SpectralFly", "routing": "minimal",
                    "pattern": "random", "load": 0.5, "n_ranks": 16,
                    "packets_per_rank": 3, "fail_fraction": 0.05,
                    "recover": True},
        "collective": {"topology": "SpectralFly", "routing": "minimal",
                       "collective": "allreduce", "algorithm": "ring",
                       "n_ranks": 8, "total_bytes": 1 << 10},
        "congested": {"topology": "SpectralFly", "routing": "minimal",
                      "pattern": "random", "load": 0.5, "n_ranks": 16,
                      "packets_per_rank": 3, "buffer_packets": 1,
                      "loss_prob": 0.05, "max_attempts": 2},
        "searched": {"n_routers": 20, "radix": 4, "budget": 10,
                     "routing": "minimal", "pattern": "random", "load": 0.5,
                     "concentration": 2, "n_ranks": 16,
                     "packets_per_rank": 3},
    },
}


@pytest.fixture
def tiny_preset(monkeypatch):
    monkeypatch.setitem(BENCH_PRESETS, "tiny", _TINY)
    return "tiny"


@pytest.fixture(scope="module")
def topo():
    return SIM_CONFIGS["small"]["topologies"]["SpectralFly"]["build"]()


class TestCells:
    def test_run_cell_reports_work_done(self, topo):
        row = run_cell(topo, "minimal", "shuffle", 0.5, concentration=4,
                       n_ranks=16, packets_per_rank=2, backend="event")
        assert row["backend"] == "event"
        assert row["delivered"] > 0
        assert row["wall_s"] >= 0 and row["packets_per_s"] > 0

    def test_run_motif_cell_per_backend(self, topo):
        rows = {
            be: run_motif_cell(topo, "minimal", "sweep3d", 4, n_ranks=16,
                               backend=be)
            for be in ("event", "batched")
        }
        for be, row in rows.items():
            assert row["workload"] == "motif:sweep3d"
            assert row["backend"] == be
            assert row["delivered"] == row["messages"] > 0
        # Identical DAG on both engines.
        assert rows["event"]["messages"] == rows["batched"]["messages"]

    def test_run_motif_cell_unknown_kind(self, topo):
        with pytest.raises(ValueError, match="unknown bench motif"):
            run_motif_cell(topo, "minimal", "nope", 4, n_ranks=16)

    def test_run_faulted_cell_applies_the_schedule(self, topo):
        row = run_faulted_cell(
            topo, "minimal", "random", 0.5, concentration=4, n_ranks=16,
            packets_per_rank=3, fail_fraction=0.05, backend="batched",
        )
        assert row["workload"] == "faulted:0.05"
        assert row["backend"] == "batched"
        assert row["delivered"] > 0

    def test_run_collective_cell_per_backend(self, topo):
        rows = {
            be: run_collective_cell(
                topo, "minimal", "allreduce", "ring", 4, n_ranks=8,
                total_bytes=1 << 10, backend=be,
            )
            for be in ("event", "batched")
        }
        for be, row in rows.items():
            assert row["workload"] == "collective:allreduce-ring"
            assert row["backend"] == be
            assert row["delivered"] == row["messages"] > 0
            assert row["chunk_done_p99_ns"] <= row["makespan_ns"]
        # Identical schedule DAG on both engines.
        assert rows["event"]["messages"] == rows["batched"]["messages"]

    def test_run_congested_cell_per_backend(self, topo):
        rows = {
            be: run_congested_cell(
                topo, "minimal", "random", 0.5, concentration=4, n_ranks=16,
                packets_per_rank=3, buffer_packets=1, loss_prob=0.3,
                max_attempts=1, backend=be,
            )
            for be in ("event", "batched")
        }
        for be, row in rows.items():
            assert row["workload"] == "congested:b1-p0.3"
            assert row["backend"] == be
            assert row["delivered"] > 0
            assert row["delivered"] + row["dropped"] > row["delivered"]
        # Counter-hash channel: identical drop accounting on both engines.
        assert rows["event"]["dropped"] == rows["batched"]["dropped"] > 0
        assert rows["event"]["delivered"] == rows["batched"]["delivered"]

    def test_make_motif_kinds(self):
        for kind in ("fft-balanced", "fft-unbalanced", "halo3d", "sweep3d"):
            m = bench._make_motif(kind, 16)
            assert m.generate()


class TestScenarios:
    def test_run_scenarios_covers_workloads_and_backends(self, tiny_preset):
        rows = run_scenarios(tiny_preset)
        assert {r["workload"].split(":")[0] for r in rows} == {
            "motif", "faulted", "collective", "congested", "searched"
        }
        assert {r["backend"] for r in rows} == {"event", "batched"}
        assert len(rows) == 10

    def test_searched_scenario_runs_a_searched_topology(self, tiny_preset):
        rows = [r for r in run_scenarios(tiny_preset)
                if r["workload"].startswith("searched:")]
        assert len(rows) == 2  # one per backend
        for row in rows:
            assert row["workload"] == "searched:b10"
            assert row["topology"].startswith("Searched(")
            assert row["delivered"] > 0

    def test_run_scenarios_empty_without_section(self, monkeypatch):
        monkeypatch.setitem(
            BENCH_PRESETS, "bare", {k: v for k, v in _TINY.items()
                                    if k != "scenarios"}
        )
        assert run_scenarios("bare") == []

    def test_summarize_scenarios_speedups(self):
        rows = [
            {"workload": "motif:fft", "backend": "event", "wall_s": 3.0},
            {"workload": "motif:fft", "backend": "batched", "wall_s": 1.0},
            {"workload": "faulted:0.1", "backend": "event", "wall_s": 4.0},
            {"workload": "faulted:0.1", "backend": "batched", "wall_s": 2.0},
        ]
        out = summarize_scenarios(rows)
        assert out == {
            "motif_speedup_vs_event": 3.0,
            "faulted_speedup_vs_event": 2.0,
        }

    def test_summarize_scenarios_needs_both_backends(self):
        rows = [{"workload": "motif:fft", "backend": "event", "wall_s": 3.0}]
        assert summarize_scenarios(rows) == {}


class TestRunBench:
    def test_run_bench_writes_scenario_sections(self, tiny_preset, tmp_path):
        out = tmp_path / "bench.json"
        result = run_bench(preset=tiny_preset, out_path=out, micro=False,
                           progress=None)
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk["preset"] == tiny_preset
        for payload in (result, on_disk):
            assert payload["summary"]["backend"] == "event"
            assert "summary_batched" in payload
            assert "scenario_cells" in payload
            ss = payload["summary_scenarios"]
            assert set(ss) == {
                "motif_speedup_vs_event", "faulted_speedup_vs_event",
                "collective_speedup_vs_event", "congested_speedup_vs_event",
                "searched_speedup_vs_event",
            }

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown bench preset"):
            run_bench(preset="nope", out_path=None, progress=None)

    def test_summarize_aggregates(self):
        rows = [
            {"delivered": 10, "events": 100, "wall_s": 1.0,
             "packets_per_s": 10.0},
            {"delivered": 30, "events": 300, "wall_s": 1.0,
             "packets_per_s": 30.0},
        ]
        s = summarize(rows)
        assert s["total_packets"] == 40
        assert s["packets_per_s"] == 20.0
        assert s["median_cell_packets_per_s"] == 20.0


class TestCompareToCommitted:
    def _base(self):
        return {
            "summary": {"backend": "event", "packets_per_s": 100.0},
            "summary_batched": {"packets_per_s": 400.0,
                                "speedup_vs_event": 4.0},
            "summary_scenarios": {"motif_speedup_vs_event": 3.0,
                                  "faulted_speedup_vs_event": 4.0},
        }

    def test_healthy_within_tolerance(self):
        committed = self._base()
        fresh = self._base()
        fresh["summary"]["packets_per_s"] = 80.0  # -20% < 25% tolerance
        assert compare_to_committed(committed, fresh) == []

    def test_faster_never_fails(self):
        committed = self._base()
        fresh = self._base()
        fresh["summary_scenarios"]["motif_speedup_vs_event"] = 9.0
        assert compare_to_committed(committed, fresh) == []

    def test_scenario_speedup_regression_is_flagged(self):
        committed = self._base()
        fresh = self._base()
        fresh["summary_scenarios"]["motif_speedup_vs_event"] = 1.0
        problems = compare_to_committed(committed, fresh)
        assert any("motif_speedup_vs_event" in p for p in problems)

    def test_headline_regression_is_flagged(self):
        committed = self._base()
        fresh = self._base()
        fresh["summary"]["packets_per_s"] = 10.0
        problems = compare_to_committed(committed, fresh)
        assert any("packets/s" in p for p in problems)

    def test_mismatched_headline_backends_not_compared(self):
        committed = self._base()
        fresh = self._base()
        fresh["summary"] = {"backend": "batched", "packets_per_s": 1.0}
        problems = compare_to_committed(committed, fresh)
        assert not any(p.startswith("event packets/s") for p in problems)


#: A micro scale cell: the smallest LPS instance, forced through the
#: oracle + batched path so unit tests exercise the real machinery.
_TINY_SCALE = {
    "name": "LPS(3,5)-cayley", "p": 3, "q": 5,
    "oracle": "cayley", "routing": "minimal", "pattern": "random",
    "load": 0.3, "concentration": 2, "n_ranks": 64,
    "packets_per_rank": 2,
}


class TestScaleCells:
    def test_run_scale_cell_reports_the_work_done(self):
        from repro.runner.bench import run_scale_cell

        row = run_scale_cell(_TINY_SCALE)
        assert row["name"] == _TINY_SCALE["name"]
        assert row["backend"] == "batched"
        assert row["oracle"] == "cayley"
        assert row["routers"] == 120
        assert row["delivered"] == 64 * 2
        assert row["packets_per_s"] > 0
        assert row["wall_s"] > 0 and row["setup_wall_s"] > 0
        assert row["dense_table_bytes_avoided"] == 120 * 120 * 2

    def test_run_scale_cell_refuses_dense_tables(self, monkeypatch):
        from repro.experiments import common
        from repro.routing import RoutingTables
        from repro.runner.bench import run_scale_cell

        # A leak in the oracle seam: the cell gets dense tables.
        monkeypatch.setattr(
            common, "cached_tables",
            lambda topo, oracle=None: RoutingTables(topo.graph),
        )
        with pytest.raises(RuntimeError, match=r"LPS\(3,5\)-cayley"):
            run_scale_cell(_TINY_SCALE)

    def test_run_scale_cells_respects_preset_section(self, monkeypatch):
        from repro.runner.bench import run_scale_cells

        monkeypatch.setitem(
            BENCH_PRESETS, "tiny-scale",
            {**_TINY, "scale_cells": (_TINY_SCALE,)},
        )
        lines = []
        rows = run_scale_cells("tiny-scale", progress=lines.append)
        assert [r["name"] for r in rows] == [_TINY_SCALE["name"]]
        assert lines and "pkt/s" in lines[0]
        # No section -> no rows (the tiny preset has none).
        monkeypatch.setitem(BENCH_PRESETS, "tiny", _TINY)
        assert run_scale_cells("tiny") == []

    def test_run_bench_writes_scale_section(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            BENCH_PRESETS, "tiny-scale",
            {**_TINY, "scale_cells": (_TINY_SCALE,)},
        )
        out = tmp_path / "bench.json"
        run_bench(preset="tiny-scale", out_path=out, micro=False,
                  progress=None)
        result = json.loads(out.read_text())
        assert result["schema"] == 3
        names = [r["name"] for r in result["scale_cells"]]
        assert names == [_TINY_SCALE["name"]]

    def test_scale_cell_regression_is_flagged(self):
        committed = {"scale_cells": [
            {"name": "LPS(5,23)-cayley", "packets_per_s": 40000.0},
        ]}
        fresh = {"scale_cells": [
            {"name": "LPS(5,23)-cayley", "packets_per_s": 10000.0},
        ]}
        problems = compare_to_committed(committed, fresh)
        assert any("scale cell" in p for p in problems)
        # Within tolerance (or faster) passes.
        fresh["scale_cells"][0]["packets_per_s"] = 38000.0
        assert compare_to_committed(committed, fresh) == []
        fresh["scale_cells"][0]["packets_per_s"] = 90000.0
        assert compare_to_committed(committed, fresh) == []

    def test_presets_with_scale_cells_use_the_oracle_path(self):
        for preset in ("smoke", "small", "full"):
            for sc in BENCH_PRESETS[preset].get("scale_cells", ()):
                assert sc["oracle"] in ("cayley", "landmark")
                # Past the smoke tier the instances sit beyond the dense
                # wall: the q=23/q=47 LPS cells must never densify.
                assert sc["q"] >= 23

    def test_preset_scale_cells_fit_the_batched_port_field(self):
        # Checked without building: the largest cell has 515,100 routers.
        from repro.sim.batched import _PORT_SHIFT
        from repro.topology.lps import lps_num_vertices

        cells = [sc for preset in BENCH_PRESETS.values()
                 for sc in preset.get("scale_cells", ())]
        assert cells
        for sc in cells:
            ports = ((sc["p"] + 1 + sc["concentration"])
                     * lps_num_vertices(sc["p"], sc["q"]))
            assert ports < 1 << (63 - _PORT_SHIFT), sc["name"]
