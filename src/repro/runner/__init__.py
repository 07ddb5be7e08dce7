"""Unified experiment runner: registry, parallel executor, result cache.

The package behind ``python -m repro``:

* :mod:`repro.runner.registry` — every paper figure/table/ablation as a
  named, parameterized :class:`ExperimentDef` with ``small``/``full``
  presets and cell axes for parallel execution;
* :mod:`repro.runner.spec` — hashable :class:`ExperimentSpec` invocations
  and :class:`RunReport` bookkeeping;
* :mod:`repro.runner.executor` — :func:`run_experiment`, the cache-aware
  process-pool executor;
* :mod:`repro.runner.cli` — the ``list``/``run``/``sweep``/``report``
  command line.

The tier-2 benchmark harness under ``benchmarks/`` resolves its drivers
through this registry, so the CLI, benchmarks, and cached sweeps always
agree on what each experiment means.
"""

from repro.runner.executor import run_experiment
from repro.runner.registry import (
    EXPERIMENTS,
    ExperimentDef,
    get_experiment,
    list_experiments,
)
from repro.runner.spec import ExperimentSpec, RunReport

__all__ = [
    "EXPERIMENTS",
    "ExperimentDef",
    "ExperimentSpec",
    "RunReport",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
