"""The repository's benchmark: whole experiments, timed from outside.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
                         [--runs N] [--jsonl FILE]

One run of a workload starts fresh processes against throwaway stores under
``bench/out/`` (never the user's ``~/.cache/repro``), one at a time:

* a *main* process sets up on an empty store, then times workload calls
  for ``--seconds`` (each call on a cold result store);
* a *warm* process sets up again on the store the main process left;
* more cold/warm pairs for another ``--seconds``, at least three in all, so
  set-up is measured several times each way.

It prints every end-to-end metric with its unit, checks the outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` instead runs one traced main process (alternating untraced
and traced calls) plus one traced warm process, reports the per-layer
metrics, and writes the spans to ``bench/out/<workload>-<seed>.trace.json``.
``--jsonl FILE`` appends ``{"workload", "seed", "trace", "result", "notes",
"samples"}`` per run, the input of ``bench/compare.py``.  Without
``--workload`` every workload runs in turn, each ending with its own JSON
line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import layer_times, nesting_errors, now
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BASELINE = BENCH / "baseline.json"

#: Cold/warm set-up pairs an untraced run measures at least.
SETUPS = 3
#: A run ends, child processes included, within this many seconds.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "setup_warm_s": "s",
    "wall_s": "s",
    "pkts_per_s": "pkt/s",
    "peak_rss_mb": "MB",
}

#: Per-layer self-time metrics and the span layer each one sums.
LAYER_TIMES = {
    "process.import_s": "process.import",
    "driver.self_s": "driver",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "topology.build_s": "topology.build",
    "routing.build_s": "routing.build",
    "sim.assemble_s": "sim.assemble",
    "sim.init_s": "sim.init",
    "traffic.gen_s": "traffic.gen",
    "engine.run_s": "engine.run",
}
#: Per-layer counters recorded by the wrappers.
LAYER_COUNTS = (
    "executor.cells",
    "store.gets",
    "store.hits",
    "store.puts",
    "topology.builds",
    "routing.tables",
    "routing.oracle_pairs",
    "workloads.messages",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in LAYER_TIMES},
    **{m: "count" for m in LAYER_COUNTS},
    "store.hit_ratio": "ratio",
    "store.put_mb": "MB",
    "routing.oracle_share": "ratio",
    "engine.us_per_pkt": "us",
    "engine.events": "count",
    "sim.runs": "count",
    "sim.run_ms.p50": "ms",
    "sim.run_ms.tail": "ms",
    "sim.run_ms.tail_pct": "%",
    "sim.delivered_frac": "ratio",
    "sim.drops": "count",
    "sim.retransmits": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.unreached": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _spawn(cfg: dict, store: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = dict(
        os.environ,
        REPRO_CACHE_DIR=str(store),
        REPRO_CACHE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    cfg = dict(cfg, spawn=now())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - now()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cfg['workload']} worker timed out") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{cfg['workload']} worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["spawn"] = cfg["spawn"]
    report["run"] = cfg["run"]
    return report


def _measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run the processes of one run; returns (main report, other reports).

    After the main process and its warm partner, an untraced run keeps
    starting cold/warm set-up pairs until it has :data:`SETUPS` pairs and
    ``seconds`` have passed, so cheap set-ups get more samples.
    """
    deadline = now() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    base = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "scratch": str(scratch)}

    def pair(k: int, cold: dict) -> list[dict]:
        store = scratch / f"store-{k}"
        reports = [_spawn(cold, store, deadline),
                   _spawn(dict(base, mode="setup", run="warm"), store, deadline)]
        shutil.rmtree(store, ignore_errors=True)
        return reports

    try:
        main, *others = pair(0, dict(base, mode="main", run="setup"))
        start = now()
        k = 1
        while not trace and (k < SETUPS or now() - start < seconds):
            others += pair(k, dict(base, mode="setup", run="setup"))
            k += 1
        return main, others
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _load_baseline() -> dict:
    with open(BASELINE) as fh:
        return json.load(fh)


def check_digest(workload: str, seed: int, digest: str, baseline: dict) -> str:
    """``ok``, ``unknown`` (no digest recorded for the seed) or ``changed``."""
    recorded = baseline.get("digests", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return "unknown"
    return "ok" if recorded == digest else "changed"


def judge_calls(name: str, seed: int, main: dict, baseline: dict) -> tuple[bool, int, int, list[str]]:
    """Checks of every timed call: (correct, attempted, failed, notes)."""
    w = WORKLOADS[name]
    notes: list[str] = []
    correct = True
    attempted = failed = 0
    digests = {c["digest"] for c in main["calls"] if c["error"] is None}
    if len(digests) > 1:
        correct = False
        notes.append("calls of one seed returned different rows")
    for c in main["calls"]:
        attempted += w.sims
        led = c["ledger"]
        if c["error"] is not None:
            failed += w.sims
            notes.append(f"{c['run']} raised {c['error']}")
        elif c["rows"] != w.rows or led["sims"] != w.sims:
            failed += w.sims
            notes.append(f"{c['run']}: {c['rows']} rows from {led['sims']} sims, "
                         f"expected {w.rows} rows from {w.sims}")
        else:
            failed += led["failed"]
            if led["failed"]:
                notes.append(f"{c['run']}: {led['failed']} sims broke conservation")
    for digest in sorted(digests):
        status = check_digest(name, seed, digest, baseline)
        notes.append(f"digest {digest} {status}")
        if status == "changed":
            notes.append("digest_changed")
            if w.golden:
                correct = False
                failed = attempted
    return correct and failed == 0, attempted, failed, notes


def _setup_seconds(report: dict) -> float:
    return report["t_ready"] - report["spawn"]


def end_to_end_samples(main: dict, others: list) -> dict[str, list[float]]:
    """Every sample of each end-to-end metric one untraced run took."""
    calls = [c for c in main["calls"] if not c["traced"]]
    cold = [main] + [r for r in others if r["run"] == "setup"]
    return {
        "setup_s": [_setup_seconds(r) for r in cold],
        "setup_warm_s": [_setup_seconds(r) for r in others if r["run"] == "warm"],
        "wall_s": [c["wall"] for c in calls],
        "pkts_per_s": [c["ledger"]["delivered"] / c["wall"] for c in calls],
        "peak_rss_mb": [main["maxrss_mb"]],
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it.

    Below twenty samples that percentile would not lie above the median,
    and the median (50) stands in.
    """
    return math.floor(100 * (n - 10) / n) if n >= 20 else 50


def per_layer(main: dict, warm: dict) -> dict[str, float]:
    """Per-layer metrics of one pass: cold set-up + warm set-up + one call.

    A traced run makes several traced calls; call-phase values are their
    mean.
    """
    traced = [c for c in main["calls"] if c["traced"]]
    untraced = [c for c in main["calls"] if not c["traced"]]
    setup = [(layer_times(r["spans"], run), r["counts"].get(run, {}))
             for r, run in ((main, "setup"), (warm, "warm"))]
    calls = [(layer_times(main["spans"], c["run"]), main["counts"].get(c["run"], {}))
             for c in traced]

    def per_pass(kind: int, key: str) -> float:
        return (sum(p[kind].get(key, 0) for p in setup)
                + sum(p[kind].get(key, 0) for p in calls) / len(calls))

    m = {metric: per_pass(0, layer) for metric, layer in LAYER_TIMES.items()}
    m.update({key: float(per_pass(1, key)) for key in LAYER_COUNTS})
    m["store.hit_ratio"] = m["store.hits"] / max(m["store.gets"], 1.0)
    m["store.put_mb"] = (
        main["setup_put_bytes"] + warm["setup_put_bytes"]
        + statistics.fmean(c["put_bytes"] for c in traced)
    ) / 2**20

    call_runs = {c["run"] for c in traced}
    engine = [s["end"] - s["start"] for s in main["spans"]
              if s["run"] in call_runs and s["name"] == "engine.run"]
    picks = sum(p[0].get("routing.pick", 0.0) for p in calls)
    led = {f: sum(c["ledger"][f] for c in traced) for f in traced[0]["ledger"]}
    n = len(traced)
    pct = tail_percentile(len(engine))
    m.update({
        "routing.oracle_share": picks / sum(engine),
        "engine.us_per_pkt": 1e6 * sum(engine) / max(led["delivered"], 1),
        "engine.events": led["events"] / n,
        "sim.runs": led["sims"] / n,
        "sim.run_ms.p50": 1e3 * statistics.median(engine),
        "sim.run_ms.tail": 1e3 * statistics.quantiles(engine, n=100, method="inclusive")[pct - 1],
        "sim.run_ms.tail_pct": float(pct),
        "sim.delivered_frac": (led["injected"] - led["dropped"]) / max(led["injected"], 1),
        "sim.drops": led["dropped"] / n,
        "sim.retransmits": led["retransmits"] / n,
        "trace.overhead_frac": statistics.median(c["wall"] for c in traced)
        / statistics.median(c["wall"] for c in untraced) - 1.0,
        "trace.unreached": float(len(main["unreached"])),
    })
    covered = sum(setup[0][0].values()) + sum(sum(p[0].values()) for p in calls) / n
    m["trace.coverage_frac"] = covered / (
        _setup_seconds(main) + statistics.fmean(c["wall"] for c in traced)
    )
    return m


def run_once(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload.

    Returns the result the last line prints and, for ``--jsonl``, the notes
    and the samples behind each end-to-end median.
    """
    main, others = _measure(name, seed, seconds, trace)
    if main["setup_error"] is not None:
        raise BenchError(f"{name} set-up failed: {main['setup_error']}")
    correct, attempted, failed, notes = judge_calls(name, seed, main, _load_baseline())
    if trace:
        warm = others[0]
        errors = nesting_errors(main["spans"]) + nesting_errors(warm["spans"])
        if errors:
            correct = False
            notes += errors[:5]
        metrics, units = per_layer(main, warm), PER_LAYER_UNITS
        path = OUT / f"{name}-{seed}.trace.json"
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "unreached": main["unreached"],
                       "processes": {p: {"spans": r["spans"], "counts": r["counts"]}
                                     for p, r in (("cold", main), ("warm", warm))}}, fh)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
        notes += [f"untraced call site: {u}" for u in main["unreached"]]
        samples = {}
    else:
        samples = end_to_end_samples(main, others)
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
    walls = " ".join(f"{c['wall']:.3f}{'t' if c['traced'] else ''}" for c in main["calls"])
    print(f"== {name}  seed={seed}  set-ups={1 + len(others) // 2}  "
          f"call seconds ('t' = traced): {walls}")
    for key, value in metrics.items():
        print(f"   {key:<22} {value:>14.6g} {units[key]}")
    print(f"   {'failed_frac':<22} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} sims)")
    for note in notes:
        print(f"   note: {note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, {"notes": notes, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=6.0,
                   help="how long calls, and then set-ups, are timed (default 6)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1 (or bare --trace): traced run with per-layer metrics")
    p.add_argument("--runs", type=int, default=1, help="runs per workload")
    p.add_argument("--jsonl", type=Path, help="append each run's result here")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for _ in range(args.runs):
        for name in names:
            try:
                result, extra = run_once(name, args.seed, args.seconds, bool(args.trace))
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if args.jsonl:
                with open(args.jsonl, "a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": args.seed,
                                         "trace": args.trace, "result": result,
                                         **extra}) + "\n")
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
