"""Outside-in instrumentation of ``repro``: layer spans and run checks.

Nothing in ``src/`` is edited.  :class:`Instrumentation` replaces every
binding of a target callable -- each module-level alias made by
``from x import f``, the defining class's attribute for a method, and the
``SIM_CONFIGS`` builder entries -- with a wrapper that records a span, and
``uninstall`` restores the originals.  A binding the scan cannot see (a
closure cell, a default argument, a container) is reported by
:meth:`Instrumentation.unreached` as untraced.

:class:`SimLedger` is the check-only wrapper on the engines' public run
calls.  It reads no clock, so it stays installed on timed runs too, and it
checks packet conservation on every simulation.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from typing import Any, Callable

#: ``time.monotonic`` is CLOCK_MONOTONIC on Linux: one time base shared by
#: every process on the host, so a parent's spawn stamp and a child's spans
#: can be compared.
now = time.monotonic

#: (layer, module, attribute, counter) for module-level functions.
FUNCTIONS: tuple[tuple[str, str, str, str | None], ...] = (
    ("topology.build", "repro.topology.lps", "build_lps", "topology.builds"),
    ("routing.build", "repro.graphs.bfs", "distance_matrix", None),
    ("routing.build", "repro.routing.oracles", "oracle_for", None),
    ("sim.assemble", "repro.experiments.common", "build_synthetic_sim", None),
    ("sim.assemble", "repro.workloads.collectives", "run_collective", None),
    ("sim.assemble", "repro.workloads.runner", "run_motif", None),
)

#: (layer, module, class, method, counter) for methods.
METHODS: tuple[tuple[str, str, str, str, str | None], ...] = (
    ("store.put", "repro.utils.diskcache", "DiskCache", "put", "store.puts"),
    ("routing.build", "repro.routing.tables", "RoutingTables", "__init__", "routing.tables"),
    ("routing.build", "repro.routing.tables", "RoutingTables", "build_fast_path", None),
    ("sim.init", "repro.sim.network", "NetworkSimulator", "__init__", None),
    ("sim.init", "repro.sim.batched", "BatchedSimulator", "__init__", None),
    ("traffic.gen", "repro.sim.traffic", "OpenLoopSource", "predraw", None),
    ("traffic.gen", "repro.sim.traffic", "OpenLoopSource", "start", None),
    ("engine.run", "repro.sim.network", "NetworkSimulator", "run", None),
    ("engine.run", "repro.sim.batched", "BatchedSimulator", "run", None),
    ("engine.run", "repro.sim.batched", "BatchedSimulator", "run_closed_loop", None),
)

#: Layers called thousands of times per simulation (once per source, once
#: per cycle).  Their calls fold into the enclosing span as a
#: ``[count, seconds]`` aggregate instead of one record each, which keeps
#: the tracing overhead and the trace files small.  They must be leaves: a
#: wrapped call made inside one runs as part of it.
HOT_LAYERS = frozenset({"traffic.gen", "routing.pick"})


class _Open:
    __slots__ = ("layer", "hot", "id", "start", "agg")

    def __init__(self, layer: str, span_id: int, start: float) -> None:
        self.layer = layer
        self.hot = layer in HOT_LAYERS
        self.id = span_id
        self.start = start
        self.agg: dict[str, list] = {}


class Tracer:
    """Spans and counters of one process, kept in memory.

    A span record is ``{id, name, start, end, parent, run, agg}``.  Spans of
    one phase (``setup``, ``warm``, ``call-3``) share the ``run`` id, and
    counters are kept per run id.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.run = "setup"
        self._stack: list[_Open] = []
        self._ids = 0

    def count(self, name: str, n: float = 1) -> None:
        c = self.counts.setdefault(self.run, {})
        c[name] = c.get(name, 0) + n

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a root span measured elsewhere (process start-up)."""
        self._ids += 1
        self.spans.append(
            {"id": self._ids, "name": name, "start": start, "end": end,
             "parent": None, "run": self.run, "agg": {}}
        )

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict,
             counter: str | None = None) -> Any:
        """Run ``fn`` inside a ``layer`` span; ``counter`` counts the span."""
        stack = self._stack
        if stack and (stack[-1].hot or stack[-1].layer == layer):
            # Re-entry into the open layer (a builder calling a builder) or
            # a call under a hot leaf: it is part of the open span.
            return fn(*args, **kwargs)
        if counter is not None:
            self.count(counter)
        self._ids += 1
        frame = _Open(layer, self._ids, now())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            parent = stack[-1] if stack else None
            if frame.hot and parent is not None:
                a = parent.agg.setdefault(layer, [0, 0.0])
                a[0] += 1
                a[1] += end - frame.start
            else:
                self.spans.append(
                    {"id": frame.id, "name": layer, "start": frame.start,
                     "end": end, "parent": parent.id if parent else None,
                     "run": self.run, "agg": frame.agg}
                )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    A span's children are the records naming it as parent plus its folded
    hot-layer aggregates.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {
        s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0)
        - sum(t for _, t in s["agg"].values())
        for s in spans
    }


def layer_times(spans: list[dict], run: str) -> dict[str, float]:
    """Self seconds per layer over the spans of one run id."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["run"] != run:
            continue
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        for layer, (_, t) in s["agg"].items():
            out[layer] = out.get(layer, 0.0) + t
    return out


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end outside their parent or have negative self time."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        p = by_id.get(s["parent"])
        if s["parent"] is not None and (
            p is None or s["start"] < p["start"] or s["end"] > p["end"]
        ):
            errors.append(f"span {s['id']} ({s['name']}) lies outside its parent")
    for sid, t in self_times(spans).items():
        if t < -1e-9:
            errors.append(f"span {sid} ({by_id[sid]['name']}) has self time {t}")
    return errors


# ---------------------------------------------------------------------------
# The check-only wrapper.
def open_loop_conserved(stats) -> bool:
    """Every injected packet was delivered or counted as dropped."""
    return len(stats.latencies_ns) + stats.n_dropped == stats.n_injected


def closed_loop_conserved(stats, n_messages: int, n_delivered: int) -> bool:
    """Packet conservation plus a fully drained message DAG."""
    return n_delivered == n_messages and open_loop_conserved(stats)


class SimLedger:
    """Per-call simulation accounting, filled by a check-only run wrapper."""

    FIELDS = ("sims", "failed", "delivered", "injected", "dropped",
              "retransmits", "events")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0)

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}

    def _account(self, stats, ok: bool, delivered: int) -> None:
        self.failed += not ok
        self.delivered += delivered
        self.injected += stats.n_injected
        self.dropped += stats.n_dropped
        self.retransmits += stats.n_retransmits
        self.events += stats.n_events

    def open_loop(self, fn: Callable) -> Callable:
        """Check-only wrapper for an engine's ``run(net, ...)``."""
        ledger = self

        def run(net, *args, **kwargs):
            ledger.sims += 1
            try:
                stats = fn(net, *args, **kwargs)
            except BaseException:
                ledger.failed += 1
                raise
            ledger._account(stats, open_loop_conserved(stats), len(stats.latencies_ns))
            return stats

        return run

    def closed_loop(self, fn: Callable) -> Callable:
        """Check-only wrapper for ``run_closed_loop(net, messages, ...)``."""
        ledger = self

        def run_closed_loop(net, messages, *args, **kwargs):
            ledger.sims += 1
            try:
                stats = fn(net, messages, *args, **kwargs)
            except BaseException:
                ledger.failed += 1
                raise
            n = net.closed_loop_delivered
            # One delivered packet per message on closed-loop runs.
            ledger._account(stats, closed_loop_conserved(stats, len(messages), n), n)
            return stats

        return run_closed_loop

    def install(self) -> None:
        """Wrap the engines' run calls for the rest of the process."""
        from repro.sim.batched import BatchedSimulator
        from repro.sim.network import NetworkSimulator

        NetworkSimulator.run = self.open_loop(NetworkSimulator.run)
        BatchedSimulator.run = self.open_loop(BatchedSimulator.run)
        BatchedSimulator.run_closed_loop = self.closed_loop(BatchedSimulator.run_closed_loop)


# ---------------------------------------------------------------------------
class Instrumentation:
    """Installs and removes the tracing wrappers of one :class:`Tracer`.

    Build it after every module the workload uses is imported: the alias
    scan only sees modules already in ``sys.modules``.
    """

    def __init__(self, tracer: Tracer) -> None:
        from repro.topology import SIM_CONFIGS
        from repro.utils.diskcache import DiskCache
        from repro.routing.oracles import RoutingOracle
        from repro.runner.spec import ExperimentSpec
        from repro.workloads.motif import Motif

        self.tracer = tracer
        #: (namespace, key, original, wrapper); a namespace is a module, a
        #: class or a dict.
        self._sites: list[tuple[Any, str, Any, Callable]] = []
        for layer, mod, attr, counter in FUNCTIONS:
            fn = getattr(importlib.import_module(mod), attr)
            wrapper = self._timed(layer, fn, counter)
            for module in list(sys.modules.values()):
                # The module dict, not getattr: no lazy-import hooks run.
                if getattr(module, "__dict__", {}).get(attr) is fn:
                    self._sites.append((module, attr, fn, wrapper))
        for layer, mod, cls_name, attr, counter in METHODS:
            cls = getattr(importlib.import_module(mod), cls_name)
            self._patch(cls, attr, self._timed(layer, cls.__dict__[attr], counter))
        for cfg in SIM_CONFIGS.values():
            for spec in cfg["topologies"].values():
                self._patch(spec, "build",
                            self._timed("topology.build", spec["build"], "topology.builds"))
        self._patch(DiskCache, "get", self._store_get(DiskCache.get))
        self._patch(ExperimentSpec, "execute", self._cell(ExperimentSpec.execute))
        self._patch(RoutingOracle, "pick_minimal",
                    self._oracle_pick(RoutingOracle.pick_minimal))
        todo = [Motif]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "generate" in cls.__dict__:
                self._patch(cls, "generate", self._generate(cls.__dict__["generate"]))

    def _patch(self, ns: Any, key: str, wrapper: Callable) -> None:
        original = ns[key] if isinstance(ns, dict) else ns.__dict__[key]
        self._sites.append((ns, key, original, wrapper))

    def _timed(self, layer: str, fn: Callable, counter: str | None) -> Callable:
        tracer = self.tracer

        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, counter)

        return traced

    def _store_get(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def get(cache, *args, **kwargs):
            hits = cache.hits
            value = tracer.call("store.get", fn, (cache,) + args, kwargs, "store.gets")
            tracer.count("store.hits", cache.hits - hits)
            return value

        return get

    def _cell(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def execute(spec, *args, **kwargs):
            # Counted even inside the bench's own driver span, which the
            # executor's cells re-enter.
            tracer.count("executor.cells")
            return tracer.call("driver", fn, (spec,) + args, kwargs)

        return execute

    def _oracle_pick(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def pick_minimal(oracle, us, *args, **kwargs):
            tracer.count("routing.oracle_pairs", len(us))
            return tracer.call("routing.pick", fn, (oracle, us) + args, kwargs)

        return pick_minimal

    def _generate(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def generate(motif, *args, **kwargs):
            messages = tracer.call("traffic.gen", fn, (motif,) + args, kwargs)
            tracer.count("workloads.messages", len(messages))
            return messages

        return generate

    def install(self) -> None:
        for ns, key, _, wrapper in self._sites:
            _assign(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in reversed(self._sites):
            _assign(ns, key, original)

    def unreached(self) -> list[str]:
        """Bindings of a wrapped callable that :meth:`install` left alone.

        Call it while installed.  Any object still referring to an original
        -- other than this instrumentation, its wrappers' closures and
        running frames -- is a call site that runs untraced.
        """
        originals = list({id(s[2]): s[2] for s in self._sites}.values())
        ours = {id(self._sites), id(originals)}
        for site in self._sites:
            ours.add(id(site))
            ours.update(id(c) for c in site[3].__closure__ or ())
        found = set()
        for original in originals:
            for ref in gc.get_referrers(original):
                if id(ref) not in ours and type(ref).__name__ != "frame":
                    found.add(f"{getattr(original, '__qualname__', original)} "
                              f"<- {type(ref).__name__}")
        return sorted(found)


def _assign(ns: Any, key: str, value: Any) -> None:
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)
