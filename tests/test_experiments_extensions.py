"""Tests for the saturation and inter-job contention experiments."""

import pytest

from repro.experiments import contention, saturation
from repro.experiments.saturation import find_knee
from repro.utils.rng import default_rngs


class TestFindKnee:
    def test_basic(self):
        series = [(0.1, 100.0), (0.3, 150.0), (0.5, 400.0), (0.7, 900.0)]
        assert find_knee(series, 2.0) == 0.5

    def test_never_saturates(self):
        series = [(0.1, 100.0), (0.9, 150.0)]
        assert find_knee(series, 2.0) is None

    def test_empty(self):
        assert find_knee([], 2.0) is None

    def test_immediate(self):
        # Base latency is compared against itself: factor > 1 never fires
        # on the first point.
        series = [(0.1, 100.0), (0.2, 500.0)]
        assert find_knee(series, 1.5) == 0.2


class TestSaturationExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return saturation.run(loads=(0.1, 0.5, 0.9), packets_per_rank=5)

    def test_all_topologies(self, result):
        names = {r["topology"] for r in result.rows}
        assert names == {"SpectralFly", "DragonFly", "SlimFly", "BundleFly"}

    def test_latency_grows_with_load(self, result):
        for r in result.rows:
            series = [int(x) for x in r["latency_series"].split("/")]
            assert series[-1] >= series[0]

    def test_spectralfly_base_latency_sane(self, result):
        row = next(r for r in result.rows if r["topology"] == "SpectralFly")
        # Shuffle on SpectralFly at 10% load: ~2 hops worth of microseconds.
        assert 500 < row["base_latency_ns"] < 10_000

    def test_dragonfly_worst_base(self, result):
        by = {r["topology"]: r["base_latency_ns"] for r in result.rows}
        assert by["DragonFly"] > by["SpectralFly"]


class TestContentionExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return contention.run(packets_per_rank=5)

    def test_rows_and_fields(self, result):
        assert len(result.rows) == 4
        for r in result.rows:
            assert r["slowdown"] > 0
            assert r["job_a_ranks"] >= 4

    @pytest.mark.parametrize("seed", range(4))
    def test_jobs_draw_disjoint_streams(self, lps_3_5, monkeypatch, seed):
        seen = []

        def recording(seeds):
            seen.append(list(seeds))
            return default_rngs(seen[-1])

        monkeypatch.setattr(contention, "default_rngs", recording)
        for with_b in (False, True):
            contention._run_jobs_tagged(lps_3_5, 2, 32, 64, with_b, "minimal",
                                        0.3, 0.7, 1, seed)
        a_alone, a_contended, b = seen
        # Job A injects the same traffic alone and under contention, and
        # no interfering source replays one of A's streams.
        assert a_alone == a_contended
        assert len(set(a_contended) | set(b)) == 32 + 64

    def test_discrepancy_prediction(self, result):
        # The Section II claim: SpectralFly's interference slowdown at or
        # below the strongly group-structured DragonFly.
        by = {r["topology"]: r["slowdown"] for r in result.rows}
        assert by["SpectralFly"] <= by["DragonFly"] + 0.05
