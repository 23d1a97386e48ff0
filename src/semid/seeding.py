"""numpy's ``default_rng(seed)`` streams as raw PCG64 words, seeded many at a time.

``generators(seeds)`` yields, for every seed, a source of the raw 64-bit
words of ``np.random.default_rng(seed).bit_generator``; its
``random_raw(count)`` gives the next ``count`` of them.  It computes every
seed's ``SeedSequence(seed).generate_state(4, np.uint64)`` in one pass of
uint32 array arithmetic (``seed_words``), which skips the per-seed
SeedSequence hashing in Python objects.  In a stack of at least
``VECTOR_SEEDING_MIN`` seeds each seed gets a bare numpy ``PCG64`` seeded
with its words; in a shorter one a ``PCG64Stream``, the same PCG64 stream
in Python integers, so a command that draws only a few seeds never loads
``numpy.random``.  ``oracle.sample_parameters`` and ``modp.field_point``
read their values from these words.  NEP 19 fixes the SeedSequence and
PCG64 algorithms, so the words are those of ``default_rng(seed)``;
``tests/test_stacked_sampling.py`` compares them byte for byte.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

# Stacks of at least this many seeds draw from numpy's PCG64, which loads
# numpy.random (6 MB and 9-18 ms on numpy 2, once per process); shorter
# ones from PCG64Stream, with the same words.  sample_parameters on 20
# acyclic_verify pool graphs (2-vCPU x86-64, Python 3.11.7, numpy 2.4.6;
# median of 5 processes' medians of 21 passes) took, per call, by the
# stream and by PCG64: 107 and 77 us at 1 seed, 191 and 98 us at 3 (the
# default of ``semid identify``), 364 and 118 us at 8, 3,783 and 629 us at
# 100.  Below 8 seeds the stream's extra cost stays under the load it
# saves a command that certifies one graph.
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


# PCG64 is the XSL-RR output of a 128-bit LCG with this multiplier (O'Neill
# 2014), as numpy's PCG64 runs it.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class PCG64Stream:
    """numpy's ``PCG64`` seeded with four known seed words, in Python integers."""

    __slots__ = ("state", "inc")

    def __init__(self, words: Sequence[int]):
        # pcg64_set_seed: words 0-1 are the initial state, 2-3 the stream.
        w0, w1, w2, w3 = words
        self.inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self.state = ((self.inc + (w0 << 64 | w1)) * _PCG_MULT + self.inc) & _MASK128

    def random_raw(self, count: int) -> list[int]:
        """The next ``count`` 64-bit outputs, as ``PCG64.random_raw`` gives them."""
        state, inc = self.state, self.inc
        out = []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            out.append((x >> rot | x << 64 - rot) & _MASK64)
        self.state = state
        return out


class _SeedWords:
    """A seed sequence whose four 64-bit PCG64 seed words are already known.

    ``generators`` registers it as an ``ISeedSequence`` where it builds
    numpy PCG64s, so that importing this module loads no ``numpy.random``.
    """

    def __init__(self, words: NDArray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> NDArray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four 64-bit seed words are known")
        return self.words


def generators(seeds: list) -> Iterator[PCG64Stream | np.random.PCG64]:
    """The raw words of ``np.random.default_rng(s)`` for every seed, in order; each seed an integer >= 0.

    Seeds all below 2**128 are hashed in one ``seed_words`` pass: a stack of
    at least VECTOR_SEEDING_MIN of them gets numpy PCG64s, a shorter one
    PCG64Streams.  A list with a larger seed takes ``PCG64(s)`` per seed,
    which hashes s as ``default_rng(s)`` does.
    """
    entropy = [int(s) for s in seeds]
    beyond = bool(entropy) and max(entropy) >= 1 << 128
    if not beyond and len(entropy) < VECTOR_SEEDING_MIN:
        return map(PCG64Stream, seed_words(entropy).tolist())
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    if beyond:
        return map(PCG64, seeds)
    ISeedSequence.register(_SeedWords)
    return (PCG64(_SeedWords(w)) for w in seed_words(entropy))
