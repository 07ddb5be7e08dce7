"""The saturation-congestion experiment: driver, registry, the inversion.

The experiment's reason to exist is one claim: under congestion realism
(finite buffers, lossy links) the routing ranking of an ideal network
does not survive — at 1-packet buffers adaptive spreading overtakes
minimal routing.  That inversion is pinned here at the registry's own
small-preset parameters, so it cannot silently evaporate into a table
where every ``ranking_inverted`` is False.
"""

import pytest

from repro.experiments.saturation_congestion import REGIMES, run
from repro.runner.registry import get_experiment
from repro.sim import capabilities


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")


def _mini(**overrides):
    kwargs = dict(
        scale="small",
        families=("SpectralFly",),
        routings=("minimal", "ugal"),
        regimes=((0, 0.0), (1, 0.0)),
        packets_per_rank=6,
        seed=0,
    )
    kwargs.update(overrides)
    return run(**kwargs)


class TestDriver:
    def test_rows_and_columns(self):
        res = _mini()
        assert len(res.rows) == 2  # 1 family x 2 regimes
        base, tight = res.rows
        assert base["buffers"] == "unbounded"
        assert tight["buffers"] == "1 pkt"
        # The baseline regime is the ranking reference by construction.
        assert base["ranking_inverted"] is False
        for row in res.rows:
            assert set(row["ranking"].split(">")) == {"minimal", "ugal"}
            assert row["best_routing"] == row["ranking"].split(">")[0]
            assert row["minimal_latency_ns"] > 0
            assert row["ugal_latency_ns"] > 0
        # Lossless regimes drop and retransmit nothing.
        assert all(r["dropped"] == 0 == r["retransmits"] for r in res.rows)
        assert all(r["min_delivered_fraction"] == 1.0 for r in res.rows)

    def test_deterministic_per_seed(self):
        assert _mini().rows == _mini().rows

    def test_lossy_regime_actually_drops_and_retransmits(self):
        res = _mini(regimes=((0, 0.0), (0, 0.08)), max_attempts=2)
        lossy = res.rows[1]
        assert lossy["dropped"] > 0
        assert lossy["retransmits"] > 0
        assert lossy["min_delivered_fraction"] < 1.0

    def test_small_preset_produces_a_ranking_inversion(self):
        # The acceptance claim: at the registered small-preset parameters
        # at least one finite-buffer cell ranks the routings differently
        # from the same family's unbounded baseline.  Run two of the four
        # families (the calibrated inverting ones) at the preset's exact
        # load/pattern/seed to keep the test fast.
        exp = get_experiment("saturation-congestion")
        params = exp.params("small")
        params["families"] = ("SpectralFly", "BundleFly")
        res = run(**params)
        inverted = [r for r in res.rows if r["ranking_inverted"]]
        assert inverted, "no cell's ranking differed from its baseline"
        # The inversion is the congestion story: it happens in the
        # finite-buffer regimes, not the unbounded ones.
        assert all(r["buffers"] != "unbounded" for r in inverted)
        # And it is the predicted direction: adaptive overtakes minimal
        # (minimal never *gains* rank under backpressure).
        assert any(r["best_routing"] == "ugal" for r in inverted)


class TestRegistryEntry:
    def test_registered_with_presets(self):
        exp = get_experiment("saturation-congestion")
        assert set(exp.presets) == {"small", "full"}
        assert "congestion" in exp.tags
        # Ranking/inversion are computed inside a family cell, so only
        # families may split.
        assert exp.cell_axes == ("families",)
        for preset in exp.presets:
            params = exp.params(preset)
            assert params["backend"] == "event"
            assert set(params["routings"]) >= {"minimal", "ugal"}

    def test_declares_the_congestion_features(self):
        exp = get_experiment("saturation-congestion")
        assert set(exp.features) == {
            capabilities.OPEN_LOOP,
            capabilities.FINITE_BUFFERS,
            capabilities.LOSSY_LINKS,
        }
        # Both engines implement all three since the batched credit loop.
        assert set(exp.supported_backends) == {"event", "batched"}

    def test_default_regimes_cover_the_grid(self):
        # Ideal baseline, each knob alone, both stacked — in that order
        # (the first regime is the ranking reference).
        assert REGIMES[0] == (0, 0.0)
        assert (1, 0.0) in REGIMES and (0, 0.05) in REGIMES
        assert (1, 0.05) in REGIMES
