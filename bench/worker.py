"""One benchmark process: set up a workload, then (mode ``main``) time calls.

Started by ``run.py`` as ``python bench/worker.py '<json config>'`` with
``REPRO_CACHE_DIR`` pointing at the store it should use.  It prints one JSON
object as its last line of output: time stamps, the calls it timed with
their checks, peak memory and, when traced, its spans.

A ``main`` process runs calls until ``seconds`` have passed since set-up
ended, and at least :data:`MIN_CALLS` of each kind.  When traced it
alternates untraced and traced calls, so the tracing overhead is measured
in one process on the same warm state.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from tracing import Instrumentation, SimLedger, Tracer, now
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Calls per kind (untraced, traced) a main process makes at least.
MIN_CALLS = 3

#: Everything the instrumentation wraps, imported before set-up so that
#: import time is measured as ``process.import`` on every workload alike.
BASE_MODULES = (
    "repro.graphs.bfs",
    "repro.routing.tables",
    "repro.routing.oracles",
    "repro.runner.spec",
    "repro.sim.batched",
    "repro.sim.network",
    "repro.sim.traffic",
    "repro.topology",
    "repro.utils.diskcache",
    "repro.workloads",
)


def rows_digest(rows: list[dict]) -> str:
    """sha256 of the canonical JSON of a workload's result rows."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _store_bytes(cache) -> int:
    return cache.stats()["bytes"]


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[cfg["workload"]]
    for module in BASE_MODULES + workload.modules:
        importlib.import_module(module)
    t_import = now()

    from repro.utils.diskcache import get_default_cache

    library = get_default_cache()
    bytes_before = _store_bytes(library)
    ledger = SimLedger()
    ledger.install()
    tracer = Tracer()
    tracer.run = cfg["run"]
    inst = None
    out: dict = {"t_import": t_import, "calls": [], "unreached": []}
    if cfg["trace"]:
        tracer.add_span("process.import", cfg["spawn"], t_import)
        inst = Instrumentation(tracer)
        inst.install()
    try:
        state = workload.setup()
        out["setup_error"] = None
    except Exception as exc:  # reported as a failed run, not a crash
        traceback.print_exc()
        state, out["setup_error"] = None, repr(exc)
    out["t_ready"] = now()
    if inst is not None:
        out["unreached"] = inst.unreached()  # a heap scan: kept out of set-up
        inst.uninstall()
    out["setup_put_bytes"] = _store_bytes(library) - bytes_before

    if cfg["mode"] == "main" and out["setup_error"] is None:
        out["calls"] = _timed_calls(cfg, workload, state, ledger, tracer, inst, library)

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["maxrss_mb"] = usage / 1024.0  # Linux reports KiB
    if inst is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    print(json.dumps(out))
    return 0


def _timed_calls(cfg, workload, state, ledger, tracer, inst, library) -> list[dict]:
    from repro.utils.diskcache import DiskCache

    calls: list[dict] = []
    deadline = now() + cfg["seconds"]
    k = 0
    while True:
        traced = inst is not None and k % 2 == 1
        tracer.run = f"call-{k}"
        result_dir = tempfile.mkdtemp(prefix="results-", dir=cfg["scratch"])
        results = DiskCache(result_dir)
        lib_before = _store_bytes(library)
        ledger.reset()
        error = None
        rows: list[dict] = []
        if traced:
            inst.install()
        t0 = now()
        try:
            if traced:
                rows = tracer.call("driver", workload.call, (cfg["seed"], results, state), {})
            else:
                rows = workload.call(cfg["seed"], results, state)
        except Exception as exc:  # a failed call is counted, not fatal
            traceback.print_exc()
            error = repr(exc)
        wall = now() - t0
        if traced:
            inst.uninstall()
        calls.append({
            "run": tracer.run,
            "traced": traced,
            "wall": wall,
            "error": error,
            "rows": len(rows),
            "digest": rows_digest(rows),
            "ledger": ledger.snapshot(),
            "put_bytes": _store_bytes(results) + _store_bytes(library) - lib_before,
        })
        shutil.rmtree(result_dir, ignore_errors=True)
        k += 1
        n_traced = sum(c["traced"] for c in calls)
        enough = k - n_traced >= MIN_CALLS and (inst is None or n_traced >= MIN_CALLS)
        if enough and now() >= deadline:
            break
    return calls


if __name__ == "__main__":
    sys.exit(main())
