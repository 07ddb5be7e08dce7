"""The simulation path runs without scipy.

scipy is imported only inside the functions of ``repro.spectral``,
``repro.search``, ``repro.layout`` and ``CSRGraph.adjacency`` that call
it, so importing ``repro`` (every CLI verb, executor cell and benchmark
process does) loads none of it.  The guard below blocks scipy outright in
a fresh interpreter and drives the simulation path end to end.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

_NO_SCIPY = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # every scipy import now raises ImportError

    import repro
    import repro.runner.cli
    from repro.experiments.common import build_synthetic_sim, cached_tables
    from repro.routing import make_routing
    from repro.sim import SimConfig
    from repro.topology import SIM_CONFIGS
    from repro.workloads import CollectiveMotif, run_collective

    topologies = SIM_CONFIGS["small"]["topologies"]
    topos = {family: spec["build"]() for family, spec in topologies.items()}
    for topo in topos.values():
        cached_tables(topo).build_fast_path()

    spec = topologies["SpectralFly"]
    topo = topos["SpectralFly"]
    for backend in ("event", "batched"):
        net = build_synthetic_sim(
            topo, "ugal", "random", 0.3, spec["concentration"], n_ranks=64,
            packets_per_rank=2, backend=backend,
        )
        summary = net.run().summary()
        assert summary["delivered"] > 0, backend
        assert summary["delivered_fraction"] == 1.0, backend

    policy = make_routing("minimal", cached_tables(topo), seed=0)
    out = run_collective(
        topo, policy, CollectiveMotif("allreduce", "ring", 8),
        SimConfig(concentration=spec["concentration"]), backend="batched",
    )
    assert out["ownership_complete"]

    loaded = sorted(m for m, v in sys.modules.items()
                    if m.startswith("scipy") and v is not None)
    assert not loaded, loaded
    print("ok")
    """
)


def test_simulation_path_runs_with_scipy_blocked(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY],
        capture_output=True,
        text=True,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC,
            "REPRO_CACHE_DIR": str(cache),
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    # The tables were built here, not read from an earlier run's cache.
    assert any(cache.rglob("*.pkl"))


def test_importing_repro_loads_no_scipy():
    # With scipy installed and importable: the package, the CLI and an
    # experiment driver import none of it.
    code = (
        "import sys, repro, repro.runner.cli, repro.experiments.fig6; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
