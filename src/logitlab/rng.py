"""Deterministic, schedule-independent random substreams.

Every stochastic operation in this package derives its randomness from an
explicit integer seed plus a tuple of stream coordinates (e.g. row index,
manifold index, sample index). Two calls with the same (seed, coords) are
bitwise identical regardless of evaluation order or parallelism.

The stream for (seed, *coords) is the Philox stream of
``np.random.SeedSequence(entropy=seed, spawn_key=coords)``, bit for bit.
Philox is counter-based: its 128-bit key fixes the stream. `substream`
computes that key itself, running numpy's SeedSequence hash (``hashmix``
and ``mix`` over 32-bit words, then ``generate_state(2, uint64)``) in
Python ints, and hands it to Philox through `_key_sequence.KeySequence`
without building a SeedSequence. The seed's mixed pool is cached per seed;
tests/test_rng.py holds numpy's SeedSequence as the oracle for every key
and draw.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix, generating state from it
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # words in the pool, numpy's DEFAULT_POOL_SIZE


def _consts(init: int, mult: int, start: int, n: int) -> tuple[int, ...]:
    """init·multʲ mod 2³² for j in [start, start + n]. hashmix's j-th call
    xors the j-th of these into its word and multiplies by the next."""
    return tuple(init * pow(mult, j, 1 << 32) & _MASK for j in range(start, start + n + 1))


_C0, _C1, _C2, _C3, _C4 = _consts(_INIT_B, _MULT_B, 0, _POOL)  # generate_state's
_WORDS_AHEAD = 2  # coordinate words whose constants _seed_pool precomputes


def _words(n: int) -> list[int]:
    """n's 32-bit words, least significant first; 0 is one word."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """The pool after mixing in seed's words, the number of hashmix calls
    that took, and the constants of the coordinate words that follow."""
    words = _words(seed)
    n = _POOL * max(_POOL, len(words))
    c = _consts(_INIT_A, _MULT_A, 0, n)
    j = 0

    def hashmix(v: int) -> int:
        nonlocal j
        v = (v ^ c[j]) * c[j + 1] & _MASK
        j += 1
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK
        return r ^ r >> 16

    # numpy pads the seed's words with zeros to the pool when there is a
    # spawn key; without one it hashes 0 for the missing words, the same
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    return tuple(pool), n, _consts(_INIT_A, _MULT_A, n, _POOL * _WORDS_AHEAD)


def _philox_key(seed: int, *coords: int) -> tuple[int, int]:
    """The Philox key of (seed, *coords): what numpy's
    SeedSequence(entropy=seed, spawn_key=coords).generate_state(2, uint64)
    returns, its four hashmix and mix steps per coordinate word inlined."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:  # None: OS entropy
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    (p0, p1, p2, p3), n, c = _seed_pool(int(seed))
    j = 0
    for i, coord in enumerate(coords):
        if not isinstance(coord, (int, np.integer)) or coord < 0:  # numpy reads "3" as 3
            raise ValueError(f"coordinate {i} must be an integer >= 0, got {coord!r}")
        coord = int(coord)
        for w in (coord,) if coord <= _MASK else _words(coord):
            if j == len(c) - 1:  # past the precomputed words
                c = _consts(_INIT_A, _MULT_A, n, j + _POOL * _WORDS_AHEAD)
            c0, c1, c2, c3, c4 = c[j:j + _POOL + 1]
            j += _POOL
            h = (w ^ c0) * c1 & _MASK
            p0 = (_MIX_L * p0 - _MIX_R * (h ^ h >> 16)) & _MASK
            p0 ^= p0 >> 16
            h = (w ^ c1) * c2 & _MASK
            p1 = (_MIX_L * p1 - _MIX_R * (h ^ h >> 16)) & _MASK
            p1 ^= p1 >> 16
            h = (w ^ c2) * c3 & _MASK
            p2 = (_MIX_L * p2 - _MIX_R * (h ^ h >> 16)) & _MASK
            p2 ^= p2 >> 16
            h = (w ^ c3) * c4 & _MASK
            p3 = (_MIX_L * p3 - _MIX_R * (h ^ h >> 16)) & _MASK
            p3 ^= p3 >> 16
    # generate_state(4, uint32) over the pool, viewed as little-endian uint64
    p0 = (p0 ^ _C0) * _C1 & _MASK
    p1 = (p1 ^ _C1) * _C2 & _MASK
    p2 = (p2 ^ _C2) * _C3 & _MASK
    p3 = (p3 ^ _C3) * _C4 & _MASK
    return p0 ^ p0 >> 16 | (p1 ^ p1 >> 16) << 32, p2 ^ p2 >> 16 | (p3 ^ p3 >> 16) << 32


@functools.cache
def _key_sequence() -> type:
    """KeySequence, imported on the first draw (see _key_sequence)."""
    from ._key_sequence import KeySequence

    return KeySequence


def substream(seed: int, *coords: int) -> np.random.Generator:
    """Return a new generator for the substream identified by (seed, *coords).
    It cannot spawn: derive another substream from more coordinates."""
    return np.random.Generator(np.random.Philox(_key_sequence()(_philox_key(seed, *coords))))
