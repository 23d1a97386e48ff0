"""Seeding of many ``np.random.default_rng(seed)`` streams at once.

``generators(seeds)`` yields, for every seed, a generator with the stream of
``np.random.default_rng(seed)``.  For a long stack it computes every seed's
``SeedSequence(seed).generate_state(4, np.uint64)`` in one pass of uint32
array arithmetic and seeds each ``PCG64`` with those words, which skips the
per-seed SeedSequence hashing in Python objects.  ``default_rng(seed)`` is
``Generator(PCG64(SeedSequence(seed)))``, and NEP 19 fixes the SeedSequence
and PCG64 algorithms, so the streams are the same;
``tests/test_stacked_sampling.py`` compares them byte for byte.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import NDArray

# Stacks of at least this many seeds derive their PCG64 seed words with
# ``seed_words``; single seeds and shorter stacks call ``default_rng`` per
# seed.  Both give the same streams.  sample_parameters on 20 pool graphs
# (2-vCPU x86-64, Python 3.11.7, numpy 2.4.6, medians of 9 passes) took, per
# call, by default_rng and vectorized: 89 and 115 us at 6 seeds, 119 and
# 111 us at 8 seeds, 1,293 and 487 us at 100 seeds.
VECTOR_SEEDING_MIN = 8


def _hash_chain(init: int, mult: int, count: int) -> NDArray:
    """The values init * mult**t mod 2**32, t = 0..count, as a (count + 1, 1) column."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)[:, None]


# numpy.random.SeedSequence's hash constants (its algorithm is fixed by NEP
# 19).  Every hashmix call multiplies the running constant by MULT_A (in the
# entropy mix) or MULT_B (in generate_state) whatever the data, so the
# constant of each call is known in advance: call t xors with chain[t] and
# multiplies by chain[t + 1].  The entropy mix makes 16 calls, generate_state
# 8 for four 64-bit words.
_HASH_A = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
_POOL_SIZE = 4


def _hashmix(value: NDArray, chain: NDArray, t: int, calls: int) -> NDArray:
    """SeedSequence's hashmix for calls t..t+calls-1, one per row of the result.

    Arithmetic is on uint32 arrays, which wrap modulo 2**32 as the C code
    does; numpy warns on wraparound of scalars only, never of arrays.
    """
    value = value ^ chain[t:t + calls]
    value *= chain[t + 1:t + calls + 1]
    value ^= value >> _XSHIFT
    return value


def seed_words(entropy: Sequence[int]) -> NDArray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every s, as an (N, 4) array.

    Each s must satisfy 0 <= s < 2**128: then its entropy has at most four
    32-bit words, and pool lane i starts from hashmix of word i of s (0 past
    the last word), which is what SeedSequence does for one to four words.
    """
    words = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in entropy), dtype="<u4")
    pool = _hashmix(words.reshape(-1, _POOL_SIZE).T, _HASH_A, 0, _POOL_SIZE)
    t = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # Lane src stays fixed while it is mixed into the other three lanes.
        dst = [d for d in range(_POOL_SIZE) if d != src]
        mixed = _MIX_MULT_L * pool[dst]
        mixed -= _MIX_MULT_R * _hashmix(pool[src], _HASH_A, t, len(dst))
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
        t += len(dst)
    state = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 2 * _POOL_SIZE)
    # As generate_state does: the 32-bit words read as little-endian 64-bit ones.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose four 64-bit PCG64 seed words are already known."""

    def __init__(self, words: NDArray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> NDArray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four 64-bit seed words are known")
        return self.words


def generators(seeds: list) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for every seed, in order; each seed an integer >= 0.

    A stack of at least VECTOR_SEEDING_MIN seeds, all below 2**128, hashes
    them in one ``seed_words`` pass; any other list takes ``default_rng``
    per seed.
    """
    if len(seeds) >= VECTOR_SEEDING_MIN:
        entropy = [int(s) for s in seeds]
        if max(entropy) < 1 << 128:
            return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in seed_words(entropy))
    return map(np.random.default_rng, seeds)
