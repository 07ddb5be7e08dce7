"""Self-tests of the benchmark harness: ``python -m pytest bench -q``.

They sit outside the repository's test paths, so the tier-1 suite does not
collect them.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_and_workload_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name) and len(name) <= 64, name


def _traced_reports() -> tuple[dict, dict]:
    """Main and warm worker reports made by a tracer on stand-in calls."""
    tracer = tracing.Tracer()
    leaf = lambda: None  # noqa: E731

    def engine():
        for _ in range(3):
            tracer.call("traffic.gen", leaf, (), {})
        return "stats"

    def call():
        tracer.call("sim.assemble", lambda: tracer.call("sim.init", leaf, (), {}), (), {})
        return tracer.call("engine.run", engine, (), {})

    spawn = tracing.now()
    tracer.add_span("process.import", spawn, tracing.now())
    tracer.call("topology.build", leaf, (), {}, "topology.builds")
    ready = tracing.now()
    ledger = {"sims": 1, "failed": 0, "delivered": 10, "injected": 10,
              "dropped": 0, "retransmits": 0, "events": 40}
    calls = []
    for k in range(4):
        tracer.run = f"call-{k}"
        t0 = tracing.now()
        tracer.call("driver", call, (), {})
        calls.append({"run": tracer.run, "traced": k % 2 == 1, "wall": tracing.now() - t0,
                      "ledger": ledger, "put_bytes": 100})
    main = {"spawn": spawn, "t_ready": ready, "calls": calls, "spans": tracer.spans,
            "counts": tracer.counts, "unreached": [], "setup_put_bytes": 1000}
    warm_tracer = tracing.Tracer()
    warm_tracer.run = "warm"
    warm_tracer.call("topology.build", leaf, (), {}, "topology.builds")
    warm = {"spans": warm_tracer.spans, "counts": warm_tracer.counts, "setup_put_bytes": 0}
    return main, warm


def test_per_layer_emits_exactly_the_declared_metrics():
    main, warm = _traced_reports()
    metrics = run.per_layer(main, warm)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["topology.builds"] == 2.0  # cold + warm set-up
    assert metrics["sim.runs"] == 1.0


def test_span_self_times_are_nonnegative_and_children_nest():
    main, _ = _traced_reports()
    spans = main["spans"]
    assert tracing.nesting_errors(spans) == []
    assert all(t >= 0 for t in tracing.self_times(spans).values())
    # Hot calls fold into their parent instead of adding records.
    engine = [s for s in spans if s["name"] == "engine.run"]
    assert engine and all(s["agg"]["traffic.gen"][0] == 3 for s in engine)
    assert not any(s["name"] == "traffic.gen" for s in spans)
    assert "traffic.gen" in tracing.layer_times(spans, "call-1")


def test_nesting_errors_flag_a_child_outside_its_parent():
    spans = [
        {"id": 1, "name": "driver", "start": 0.0, "end": 1.0, "parent": None, "run": "r", "agg": {}},
        {"id": 2, "name": "engine.run", "start": 0.5, "end": 2.5, "parent": 1, "run": "r", "agg": {}},
    ]
    errors = tracing.nesting_errors(spans)
    assert any("outside its parent" in e for e in errors)
    assert any("self time" in e for e in errors)


def test_conservation_wrapper_fails_doctored_stats():
    from repro.sim.stats import SimStats

    good = SimStats(latencies_ns=[1.0, 2.0], n_injected=3, n_dropped=1)
    doctored = SimStats(latencies_ns=[1.0, 2.0], n_injected=4, n_dropped=1)
    ledger = tracing.SimLedger()
    run_engine = ledger.open_loop(lambda net, stats: stats)
    run_engine(None, good)
    assert ledger.failed == 0
    run_engine(None, doctored)
    assert (ledger.sims, ledger.failed) == (2, 1)

    class Net:
        closed_loop_delivered = 2

    closed = ledger.closed_loop(lambda net, messages: good)
    closed(Net(), ["m0", "m1", "m2"])  # one message never delivered
    assert ledger.failed == 2


def test_digest_check_flags_one_perturbed_row():
    rows = [{"topology": "SpectralFly", "max_latency_ns": 812},
            {"topology": "DragonFly", "max_latency_ns": 905}]
    digest = worker.rows_digest(rows)
    baseline = {"digests": {"w": {"0": digest}}}
    assert run.check_digest("w", 0, digest, baseline) == "ok"
    assert run.check_digest("w", 3, digest, baseline) == "unknown"
    rows[1]["max_latency_ns"] = 906
    assert run.check_digest("w", 0, worker.rows_digest(rows), baseline) == "changed"


@pytest.mark.parametrize("name,fails", [("fig6-small-event", True), ("scale-oracle", False)])
def test_changed_digest_fails_only_golden_workloads(name, fails):
    w = workloads.WORKLOADS[name]
    ledger = {"sims": w.sims, "failed": 0}
    main = {"calls": [
        {"run": "call-0", "error": None, "rows": w.rows, "digest": "abc", "ledger": ledger}]}
    baseline = {"digests": {name: {"0": "def"}}}
    correct, attempted, failed, notes = run.judge_calls(name, 0, main, baseline)
    assert "digest_changed" in notes
    assert correct is not fails
    assert failed == (attempted if fails else 0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(48) == 79
    assert run.tail_percentile(12) == 50


PARENT = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]


@pytest.mark.parametrize("change,better,expected", [
    ([v * 0.8 for v in PARENT], "lower", "win"),
    ([v * 1.2 for v in PARENT], "lower", "regression"),
    ([v * 1.2 for v in PARENT], "higher", "win"),
    ([v * 0.8 for v in PARENT], "higher", "regression"),
    ([5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0], "lower", "unresolved"),
    (list(PARENT), "lower", "same"),
])
def test_compare_verdicts(change, better, expected):
    assert compare.verdict(PARENT, change, 0.1, better)[0] == expected


def test_compare_flags_a_rising_failed_share():
    def result(failed):
        return {"attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    rows = compare.compare(
        {"w": [result(0)] * 3},
        {"w": [result(0), result(1), result(0)]},
        [{"name": "wall_s", "better": "lower", "bound": 0.1}],
    )
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "wall_s": "same", "failed_frac": "regression"}


def test_instrumentation_patches_every_alias_and_restores_them(tmp_path, monkeypatch):
    import importlib

    from repro.utils import diskcache

    monkeypatch.setattr(diskcache, "_default", diskcache.DiskCache(tmp_path))
    for module in worker.BASE_MODULES + ("repro.experiments.saturation_congestion",):
        importlib.import_module(module)
    from repro.experiments import common, saturation_congestion
    from repro.topology import SIM_CONFIGS

    original = common.build_synthetic_sim
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(tracer)
    inst.install()
    try:
        assert saturation_congestion.build_synthetic_sim is common.build_synthetic_sim
        assert common.build_synthetic_sim is not original
        assert inst.unreached() == []
        topo = SIM_CONFIGS["small"]["topologies"]["SpectralFly"]["build"]()
        net = saturation_congestion.build_synthetic_sim(
            topo, "minimal", "random", 0.3, concentration=4, n_ranks=64,
            packets_per_rank=2, backend="batched")
        net.run()
    finally:
        inst.uninstall()
    assert saturation_congestion.build_synthetic_sim is original
    names = {s["name"] for s in tracer.spans}
    assert {"topology.build", "routing.build", "sim.assemble", "sim.init",
            "engine.run", "store.get", "store.put"} <= names
    assert tracing.nesting_errors(tracer.spans) == []
