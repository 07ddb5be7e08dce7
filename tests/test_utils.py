"""Tests for the shared utilities (rng, tables) and error types."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConstructionError,
    ParameterError,
    ReproError,
    SimulationError,
)
from repro.utils.rng import as_rng, default_rngs, spawn_seeds
from repro.utils.tables import render_table


def _same_draws(a: np.random.Generator, b: np.random.Generator) -> bool:
    return (
        np.array_equal(a.random(4), b.random(4))
        and np.array_equal(a.exponential(3.0, size=3), b.exponential(3.0, size=3))
        and a.integers(0, 2**63) == b.integers(0, 2**63)
    )


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200 + 7]


class TestRng:
    def test_int_seed(self):
        a, b = as_rng(42), as_rng(42)
        assert a.integers(1000) == b.integers(1000)

    def test_none_is_fixed(self):
        assert as_rng(None).integers(1000) == as_rng(0).integers(1000)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_rng(g) is g

    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)
        assert spawn_seeds(7, 5) != spawn_seeds(8, 5)
        assert len(spawn_seeds(0, 12)) == 12

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(3, 50)
        assert len(set(seeds)) == 50

    # default_rngs is [np.random.default_rng(s) for s in seeds], fast.  These
    # run on every CI Python and numpy: a numpy release that changes
    # SeedSequence fails here instead of silently moving every stream.
    @given(st.lists(
        st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**64 - 1),
            st.integers(2**64, 2**160),
        ),
        max_size=6,
    ))
    @settings(max_examples=100, deadline=None)
    def test_draws_match_default_rng(self, seeds):
        rngs = default_rngs(seeds)
        assert len(rngs) == len(seeds)
        for s, rng in zip(seeds, rngs):
            assert _same_draws(rng, np.random.default_rng(s))

    def test_edge_seeds_in_one_batch(self):
        # One batch mixing entropy widths of 1 to 5 and 7 words.
        for s, rng in zip(EDGE_SEEDS, default_rngs(EDGE_SEEDS)):
            assert _same_draws(rng, np.random.default_rng(s)), s

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        (rng,) = default_rngs([seed])
        words = rng.bit_generator.seed_seq.generate_state(4, np.uint64)
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, expected)

    def test_seed_words_refuse_other_requests(self):
        (rng,) = default_rngs([5])
        seq = rng.bit_generator.seed_seq
        with pytest.raises(ValueError):
            seq.generate_state(4, np.uint32)
        with pytest.raises(ValueError):
            seq.generate_state(8, np.uint64)

    def test_numpy_integer_seeds(self):
        seeds = np.arange(3, dtype=np.int64) + 2**40
        for s, rng in zip(seeds, default_rngs(seeds)):
            assert _same_draws(rng, np.random.default_rng(int(s)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            default_rngs([3, -1])

    def test_empty(self):
        assert default_rngs([]) == []

    def test_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rngs = default_rngs(EDGE_SEEDS + list(range(100)))
        assert len(rngs) == len(EDGE_SEEDS) + 100

    @pytest.mark.parametrize("roundtrip", [
        lambda g: pickle.loads(pickle.dumps(g)),
        copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_copies_continue_the_stream(self, roundtrip):
        seed = 2**70 + 3
        (rng,) = default_rngs([seed])
        rng.random(5)
        clone = roundtrip(rng)
        for g in (clone, rng):  # the clone's draws leave the original alone
            ref = np.random.default_rng(seed)
            ref.random(5)
            assert _same_draws(g, ref)
        (child,) = clone.spawn(1)
        assert _same_draws(child, np.random.default_rng(seed).spawn(1)[0])

    def test_spawn_matches_default_rng(self):
        (rng,) = default_rngs([77])
        ref = np.random.default_rng(77)
        for _ in range(2):  # a second spawn continues the child counter
            for child, ref_child in zip(rng.spawn(3), ref.spawn(3)):
                assert _same_draws(child, ref_child)


class TestRenderTable:
    def test_basic(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "22" in lines[3]

    def test_column_order(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b", "a"])
        assert text.splitlines()[0].split() == ["b", "a"]

    def test_missing_cells(self):
        text = render_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in text

    def test_empty(self):
        assert "(no rows)" in render_table([])

    def test_float_formatting(self):
        text = render_table([{"x": 0.123456, "y": 123456.0, "z": 0.0001}])
        assert "0.123" in text
        assert "1.23e+05" in text

    def test_title(self):
        text = render_table([{"a": 1}], title="T")
        assert text.startswith("T\n")


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(ParameterError, ReproError)
        assert issubclass(ParameterError, ValueError)
        assert issubclass(ConstructionError, RuntimeError)
        assert issubclass(SimulationError, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ConstructionError("x")
