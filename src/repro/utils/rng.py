"""Deterministic random-number helpers.

Every stochastic component in the package accepts either an integer seed or a
``numpy.random.Generator``; these helpers normalise the two and derive
independent child streams so that experiments are reproducible bit-for-bit.

Per-rank generators (one Poisson source per rank, thousands per simulation)
are built in one bulk pass by :func:`default_rngs`: numpy's SeedSequence hash
runs over all seeds at once, and each generator's stream equals
``np.random.default_rng(seed)`` draw for draw.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Passing an existing generator returns it unchanged; ``None`` produces a
    fixed default seed (0) rather than entropy, so that "unseeded" runs are
    still reproducible.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = 0
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | np.random.Generator | None, n: int) -> list[int]:
    """Derive ``n`` independent 32-bit child seeds from ``seed``."""
    rng = as_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _pcg64_seed_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, as rows.

    The same uint32 arithmetic as numpy's ``mix_entropy`` and
    ``generate_state``, one array operation per step over all seeds.  Array
    arithmetic wraps modulo 2**32 silently, as the C code does.  The running
    hash constant advances once per hash call whatever the data, so one
    Python int serves every seed of the batch.
    """
    n = len(seeds)
    # Entropy words, least significant first, zero-padded to at least the
    # pool size: a seed below 2**128 hashes its missing words as 0, exactly
    # like numpy's loop over a shorter entropy array.
    width = max(_POOL_SIZE, -(-max(seeds).bit_length() // 32))
    entropy = np.frombuffer(
        b"".join(s.to_bytes(4 * width, "little") for s in seeds), dtype="<u4"
    ).reshape(n, width)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    # Entropy beyond the pool (seeds of 2**128 and up): only the seeds that
    # have word i_src mix it in.
    for i_src in range(_POOL_SIZE, width):
        has_word = entropy[:, i_src:].any(axis=1)
        for i_dst in range(_POOL_SIZE):
            mixed = mix(pool[i_dst], hashmix(entropy[:, i_src]))
            pool[i_dst] = np.where(has_word, mixed, pool[i_dst])

    state = np.empty((n, 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, i_dst] = value ^ (value >> _XSHIFT)
    words = state.view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISpawnableSeedSequence):
    """The seed sequence of one integer seed, its PCG64 words precomputed.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)``
    once and seeds itself from those words, so it seeds exactly as from
    ``np.random.SeedSequence(entropy)``.  ``spawn`` delegates to that real
    SeedSequence, built on first use, so ``Generator.spawn`` returns the
    same children as on ``np.random.default_rng(entropy)``.
    """

    def __init__(self, entropy: int, words: np.ndarray) -> None:
        self.entropy = entropy
        self._words = words
        self._seq: np.random.SeedSequence | None = None

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "precomputed seed words only serve PCG64's "
                "generate_state(4, np.uint64)"
            )
        return self._words

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        if self._seq is None:
            self._seq = np.random.SeedSequence(self.entropy)
        return self._seq.spawn(n_children)


def default_rngs(seeds: Iterable[int]) -> list[np.random.Generator]:
    """One generator per seed, each drawing exactly like ``default_rng(seed)``.

    Builds the generators in one bulk pass: numpy's SeedSequence hash, the
    per-seed cost of ``np.random.default_rng``, runs vectorized over all
    seeds, and numpy's own PCG64 seeding consumes the result.  Every
    non-negative integer is a valid seed; a negative one raises
    ``ValueError`` as numpy does.  Streams, pickling, copying and
    ``Generator.spawn`` behave as on ``np.random.default_rng(seed)``.
    """
    seeds = [operator.index(s) for s in seeds]
    if not seeds:
        return []
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(s, w)))
        for s, w in zip(seeds, _pcg64_seed_words(seeds))
    ]
