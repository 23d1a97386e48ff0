"""numpy's ``default_rng(seed)`` streams as raw PCG64 words, many seeds at a time.

``raw_words(seed_words(seeds), start, count)`` gives, for every seed, the
raw 64-bit words ``start .. start + count - 1`` of
``np.random.default_rng(seed).bit_generator``, one row per seed.
``seed_words`` computes every seed's
``SeedSequence(seed).generate_state(4, np.uint64)`` in one pass of uint32
array arithmetic per entropy length, which skips the per-seed SeedSequence
hashing in Python objects.  A call for at least ``VECTOR_SEEDING_MIN``
seeds runs one numpy uint64 kernel for the whole stack, which jumps each
seed's 128-bit LCG ahead in closed form; a shorter one runs
``_stream_words`` per seed, the same stream in Python integers.  Neither
loads ``numpy.random``.  Other modules read words through ``raw_words``
alone: ``oracle.sample_parameters`` and ``modp.field_point`` take every
value from it.  NEP 19 fixes the SeedSequence and PCG64 algorithms, so
the words are those of ``default_rng(seed)``;
``tests/test_stacked_sampling.py`` compares them byte for byte.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

# Calls for at least this many seeds run the uint64 kernel, shorter ones
# _stream_words per seed, with the same words.  The kernel costs about 70 us
# whatever the stack (some sixty numpy calls), the stream about 0.4 us per
# word and seed.  sample_parameters on 20 acyclic_verify pool graphs
# (2-vCPU x86-64, Python 3.11.7, numpy 2.4.6, one BLAS thread; median of 41
# interleaved passes) took, per call, by the stream and by the kernel: 117
# and 167 us at 1 seed, 194 and 191 at 3 (the default of ``semid
# identify``), 226 and 192 at 4, 368 and 208 at 8, 3,756 and 646 at 100.
VECTOR_SEEDING_MIN = 4


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
# multiplies by chain[t + 1].  The entropy mix of k >= 4 words makes 4k
# calls, generate_state 8 for four 64-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_A = _hash_chain(_INIT_A, _MULT_A, 16)
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


def _mix(pool: NDArray, hashed: NDArray) -> NDArray:
    """SeedSequence's mix of ``hashed`` into the pool lanes ``pool``."""
    mixed = _MIX_MULT_L * pool
    mixed -= _MIX_MULT_R * hashed
    mixed ^= mixed >> _XSHIFT
    return mixed


def _hash_entropy(entropy: list[int], size: int) -> NDArray:
    """``seed_words`` for seeds of at most ``size`` >= 4 32-bit words each."""
    words = np.frombuffer(b"".join(s.to_bytes(4 * size, "little") for s in entropy), dtype="<u4")
    words = words.reshape(-1, size).T
    chain = _HASH_A if size == _POOL_SIZE else _hash_chain(_INIT_A, _MULT_A, 4 * size)
    pool = _hashmix(words[:_POOL_SIZE], chain, 0, _POOL_SIZE)
    t = _POOL_SIZE
    for src in range(_POOL_SIZE):
        # Lane src stays fixed while it is mixed into the other three lanes.
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, t, len(dst)))
        t += len(dst)
    for src in range(_POOL_SIZE, size):
        # Each word past the fourth is mixed into every lane.
        pool = _mix(pool, _hashmix(words[src], chain, t, _POOL_SIZE))
        t += _POOL_SIZE
    state = _hashmix(np.concatenate([pool, pool]), _HASH_B, 0, 2 * _POOL_SIZE)
    # As generate_state does: the 32-bit words read as little-endian 64-bit ones.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def seed_words(entropy: Sequence[int]) -> NDArray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every integer s >= 0, as an (N, 4) array.

    SeedSequence reads s as its 32-bit words, least significant first.  Pool
    lane i starts from hashmix of word i (0 past the last word), and every
    word past the fourth is mixed into all four lanes, so the hash constants
    depend on the word count: seeds are hashed in one pass per count.
    """
    entropy = [int(s) for s in entropy]
    sizes = [max(_POOL_SIZE, -(-s.bit_length() // 32)) for s in entropy]
    if len(set(sizes)) <= 1:
        return _hash_entropy(entropy, sizes[0] if sizes else _POOL_SIZE)
    out = np.empty((len(entropy), 4), dtype=np.uint64)
    for size in set(sizes):
        rows = [i for i, k in enumerate(sizes) if k == size]
        out[rows] = _hash_entropy([entropy[i] for i in rows], size)
    return out


# PCG64 is the XSL-RR output of a 128-bit LCG with this multiplier (O'Neill
# 2014), as numpy's PCG64 runs it.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _lcg_jump(steps: int) -> tuple[int, int]:
    """(A, G) with A = a**steps and G = sum of a**j over j < steps, mod 2**128, a the multiplier.

    ``steps`` steps of the LCG take a state x to A x + G inc (Brown 1994):
    composed by squaring, in O(log steps) products.
    """
    jump_a, jump_g = 1, 0
    base_a, base_g = _PCG_MULT, 1
    while steps:
        if steps & 1:
            jump_a, jump_g = jump_a * base_a & _MASK128, (jump_g * base_a + base_g) & _MASK128
        base_a, base_g = base_a * base_a & _MASK128, base_g * (base_a + 1) & _MASK128
        steps >>= 1
    return jump_a, jump_g


def _seed_state(words: Sequence[int]) -> tuple[int, int]:
    """The LCG state one step before pcg64_set_seed's, and the increment, of four seed words.

    pcg64_set_seed takes words 0-1 as the initial state s and 2-3 as the
    stream: inc = stream << 1 | 1 and the first state is a (s + inc) + inc,
    one step on from s + inc.  Word k of the stream is then the output of
    the state k + 2 steps on from s + inc.
    """
    w0, w1, w2, w3 = words
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return (inc + (w0 << 64 | w1)) & _MASK128, inc


def _stream_words(words: Sequence[int], start: int, count: int) -> list[int]:
    """Words start .. start + count - 1 of numpy's ``PCG64`` seeded with four seed words, in Python integers."""
    base, inc = _seed_state(words)
    jump_a, jump_g = _lcg_jump(start + 1)
    state = (jump_a * base + jump_g * inc) & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out.append((x >> rot | x << 64 - rot) & _MASK64)
    return out


# Operands of the uint64 kernel.  numpy 1.x promotes uint64 mixed with a
# signed integer to float64, so every operand is an explicit np.uint64.
_U1, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 32, 58, 63, 64))
_LOW32 = np.uint64(0xFFFFFFFF)


def _halves(values: list[int], shape: tuple[int, ...]) -> tuple[NDArray, NDArray]:
    """128-bit Python integers as their high and low uint64 words, each array of this shape."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64).reshape(shape),
            np.array([v & _MASK64 for v in values], dtype=np.uint64).reshape(shape))


def _add128(x: tuple[NDArray, NDArray], y: tuple[NDArray, NDArray]) -> tuple[NDArray, NDArray]:
    """x + y mod 2**128 on (high, low) uint64 word pairs."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < y[1]), low


def _mul128(x: tuple[NDArray, NDArray], y: tuple[NDArray, NDArray]) -> tuple[NDArray, NDArray]:
    """x * y mod 2**128 on (high, low) uint64 word pairs.

    The high word of the product of the low words sums the products of
    their 32-bit halves, carries included; the high words only wrap.
    """
    x0, x1 = x[1] & _LOW32, x[1] >> _U32
    y0, y1 = y[1] & _LOW32, y[1] >> _U32
    low_mid = x1 * y0
    low_mid += x0 * y0 >> _U32
    high_mid = x0 * y1
    high_mid += low_mid & _LOW32
    high = x1 * y1
    high += low_mid >> _U32
    high += high_mid >> _U32
    high += x[1] * y[0]
    high += x[0] * y[1]
    return high, x[1] * y[1]


def _affine_steps(first: tuple[int, int], by: tuple[int, int], count: int) -> list[tuple[int, int]]:
    """``count`` LCG jumps (A, G), from ``first`` on, each ``by`` further than the last."""
    out, (a, g) = [], first
    for _ in range(count):
        out.append((a, g))
        a, g = a * by[0] & _MASK128, (g * by[0] + by[1]) & _MASK128
    return out


def _stack_words(seeded: NDArray, start: int, count: int) -> NDArray:
    """``raw_words`` for a whole stack, in uint64 arrays with one seed per column.

    The state of word k is A_t base + G_t inc with t = start + k + 2
    (``_seed_state``, ``_lcg_jump``).  The first block of B words comes
    from that directly, with one constant per word; word bB + j of a later
    block b is A_bB times word j's state plus G_bB inc, a product with one
    constant per block plus one term per seed and block.  The B-long
    products of base and inc run as one call.
    """
    block = isqrt(max(count - 1, 0)) + 1
    blocks = -(-count // block)
    w0, w1, w2, w3 = seeded.T
    inc = (w2 << _U1) | (w3 >> _U63), (w3 << _U1) | _U1
    base = _add128((w0, w1), inc)
    words = _affine_steps(_lcg_jump(start + 2), (_PCG_MULT, 1), block)  # (A_t, G_t) of word j
    jumps = _affine_steps((1, 0), _lcg_jump(block), blocks)  # (A_bB, G_bB) of block b
    # base A_t, inc G_t and inc G_bB (padded to B blocks), as (3, B, N) arrays
    terms = _mul128(
        tuple(np.stack([base[h], inc[h], inc[h]])[:, None] for h in (0, 1)),
        _halves([a for a, _ in words] + [g for _, g in words] + [g for _, g in jumps]
                + [0] * (block - blocks), (3, block, 1)),
    )
    head = _add128((terms[0][0], terms[1][0]), (terms[0][1], terms[1][1]))
    shift = terms[0][2, :blocks, None], terms[1][2, :blocks, None]
    state = _add128(_mul128(head, _halves([a for a, _ in jumps], (blocks, 1, 1))), shift)
    # XSL-RR: the xor of the two halves, rotated right by the top six bits.
    x = state[0] ^ state[1]
    rot = state[0] >> _U58
    x = (x >> rot) | (x << ((_U64 - rot) & _U63))
    return np.ascontiguousarray(x.reshape(blocks * block, len(seeded))[:count].T)


def raw_words(seeded: NDArray, start: int, count: int) -> NDArray:
    """Words start .. start + count - 1 of the PCG64 stream of every row of ``seed_words``, as an (N, count) uint64 array."""
    if len(seeded) >= VECTOR_SEEDING_MIN:
        return _stack_words(seeded, start, count)
    rows = [_stream_words(w, start, count) for w in seeded.tolist()]
    return np.array(rows, dtype=np.uint64).reshape(len(rows), count)
