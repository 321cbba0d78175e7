"""Bit-identical fast replay of per-evaluation noise generators.

The measurement-noise contract draws each evaluation's trials from a
fresh ``np.random.Generator(np.random.PCG64(seed))`` (seed = streaming
BLAKE2 hash of simulator seed, stencil, setting values and evaluation
index). Constructing that generator costs ~30 µs, almost all of it
``SeedSequence`` entropy mixing and ``Generator``/``PCG64`` object
construction, not the draws. This module reproduces the exact same RNG
*state* without building either:

* :func:`pcg64_state` re-implements numpy's ``SeedSequence`` entropy
  pool mixing (init/mult hash chains, pool cross-mixing,
  ``generate_state``) in Python ints and folds the four output words
  through the PCG128 ``srandom`` recurrence, yielding the generator's
  128-bit ``(state, inc)`` pair; :func:`pcg64_states` does the same as
  uint32 array ops over many seeds at once;
* :func:`standard_normal_rows` re-points ONE process-wide ``Generator``
  at each seed's state before its draw, so a draw costs a state
  assignment instead of a construction.

The replay copies a numpy implementation detail, so
``tests/gpusim/test_fastrng.py`` pins every function against NumPy's
own seeding and the simulator identity fixtures pin the noise stream
end to end.

Constants below mirror ``numpy/random/_bit_generator.pyx`` (entropy
pool) and ``numpy/random/src/pcg64`` (seeding recurrence).
"""

from __future__ import annotations

import threading

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

#: SeedSequence hash-chain and mixing constants (uint32).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16

_POOL = 4  # DEFAULT_POOL_SIZE
_OUT32 = 8  # generate_state(4, uint64) -> 8 uint32 words

#: PCG 128-bit default multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Seed count from which one vectorized :func:`pcg64_states` pass beats
#: a :func:`pcg64_state` loop, measured inside iso-time tuning jobs on a
#: 2-CPU x86-64 host: about 330 µs against 12 µs a seed. (Alone, with
#: warm caches, the pass takes 150 µs and a seed 7.4 µs.)
ARRAY_SEEDS = 28

#: The generator every draw re-points; its whole state is assigned
#: before each draw, so nothing carries over between evaluations. The
#: lock keeps another thread's assignment out of a draw.
_BITGEN = np.random.PCG64(0)
_GEN = np.random.Generator(_BITGEN)
_LOCK = threading.Lock()


def _hash_chain(init: int, mult: int, n: int) -> list[int]:
    """``[init, init*mult, init*mult^2, ...]`` mod 2^32, ``n`` entries."""
    out = [init]
    for _ in range(n - 1):
        out.append((out[-1] * mult) & _MASK32)
    return out


# hashmix call k XORs with chain[k] and multiplies by chain[k+1]; the
# pool fill + cross-mix consumes 4 + 12 calls, generate_state 8 calls.
_HCA = _hash_chain(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1) + 1)
_HCB = _hash_chain(_INIT_B, _MULT_B, _OUT32 + 1)


def pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed))`` per seed.

    ``seeds`` must be uint64 (every noise seed is a 64-bit BLAKE2
    hash). Seeds below 2^32 lower to one entropy word and larger ones
    to two; both cases equal a zero-padded four-word entropy array
    because ``SeedSequence`` fills pool slots beyond the entropy with
    ``hashmix(0)`` — so one fixed-shape vectorized pass covers all.
    """
    u32 = np.uint32
    sh = u32(_XSHIFT)
    with np.errstate(over="ignore"):
        entropy = [
            (seeds & np.uint64(_MASK32)).astype(u32),
            (seeds >> np.uint64(32)).astype(u32),
            np.zeros(len(seeds), dtype=u32),
            np.zeros(len(seeds), dtype=u32),
        ]

        def hashmix(value: np.ndarray, k: int) -> np.ndarray:
            value = (value ^ u32(_HCA[k])) * u32(_HCA[k + 1])
            return value ^ (value >> sh)

        def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            r = u32(_MIX_L) * x - u32(_MIX_R) * y
            return r ^ (r >> sh)

        pool = [hashmix(entropy[i], i) for i in range(_POOL)]
        k = _POOL
        for i_src in range(_POOL):
            for i_dst in range(_POOL):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src], k))
                    k += 1

        words = np.empty((_OUT32, len(seeds)), dtype=u32)
        for j in range(_OUT32):
            v = (pool[j % _POOL] ^ u32(_HCB[j])) * u32(_HCB[j + 1])
            words[j] = v ^ (v >> sh)

    # generate_state(4, uint64) views the uint32 stream little-endian.
    w = words.astype(np.uint64)
    w64 = [w[2 * j] | (w[2 * j + 1] << np.uint64(32)) for j in range(4)]
    rows = np.stack(w64, axis=1).tolist()
    out: list[tuple[int, int]] = []
    for w0, w1, w2, w3 in rows:
        initstate = (w0 << 64) | w1
        initseq = (w2 << 64) | w3
        inc = ((initseq << 1) | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


#: Pool words 2 and 3 before the cross-mix: hashmix calls 2 and 3 of a
#: zero entropy word, the same for every 64-bit seed.
_POOL2, _POOL3 = (
    v ^ (v >> _XSHIFT) for v in (_HCA[k] * _HCA[k + 1] & _MASK32 for k in (2, 3))
)


def pcg64_state(seed: int) -> tuple[int, int]:
    """:func:`pcg64_states` of one seed, in Python ints.

    Tiny-array NumPy ops cost more than the mixing itself, so batches
    of fewer than :data:`ARRAY_SEEDS` seeds stay off the arrays. The
    mixing is :func:`pcg64_states`' loops written out: the two constant
    pool words folded, then the 12 cross-mixes (source-major, as
    ``SeedSequence`` runs them) and the 8 output words.
    """
    m, sh, ml, mr = _MASK32, _XSHIFT, _MIX_L, _MIX_R
    a0, a1, a2, _, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16 = _HCA
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = _HCB
    h = (((seed & m) ^ a0) * a1) & m
    p0 = h ^ (h >> sh)
    h = ((((seed >> 32) & m) ^ a1) * a2) & m
    p1 = h ^ (h >> sh)
    p2, p3 = _POOL2, _POOL3
    # Cross-mix: pool[dst] = mix(pool[dst], hashmix(pool[src], k)).
    h = ((p0 ^ a4) * a5) & m
    p1 = (r := (ml * p1 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p0 ^ a5) * a6) & m
    p2 = (r := (ml * p2 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p0 ^ a6) * a7) & m
    p3 = (r := (ml * p3 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p1 ^ a7) * a8) & m
    p0 = (r := (ml * p0 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p1 ^ a8) * a9) & m
    p2 = (r := (ml * p2 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p1 ^ a9) * a10) & m
    p3 = (r := (ml * p3 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p2 ^ a10) * a11) & m
    p0 = (r := (ml * p0 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p2 ^ a11) * a12) & m
    p1 = (r := (ml * p1 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p2 ^ a12) * a13) & m
    p3 = (r := (ml * p3 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p3 ^ a13) * a14) & m
    p0 = (r := (ml * p0 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p3 ^ a14) * a15) & m
    p1 = (r := (ml * p1 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    h = ((p3 ^ a15) * a16) & m
    p2 = (r := (ml * p2 - mr * (h ^ (h >> sh))) & m) ^ (r >> sh)
    # Output word j hashes pool[j % 4]; generate_state(4, uint64) pairs
    # the words little-endian, so initstate = (w0 | w1 << 32) << 64 |
    # (w2 | w3 << 32) and initseq the same of w4..w7.
    w0, w1 = ((p0 ^ b0) * b1) & m, ((p1 ^ b1) * b2) & m
    w2, w3 = ((p2 ^ b2) * b3) & m, ((p3 ^ b3) * b4) & m
    w4, w5 = ((p0 ^ b4) * b5) & m, ((p1 ^ b5) * b6) & m
    w6, w7 = ((p2 ^ b6) * b7) & m, ((p3 ^ b7) * b8) & m
    initstate = (
        (w0 ^ (w0 >> sh)) << 64 | (w1 ^ (w1 >> sh)) << 96
        | (w2 ^ (w2 >> sh)) | (w3 ^ (w3 >> sh)) << 32
    )
    initseq = (
        (w4 ^ (w4 >> sh)) << 64 | (w5 ^ (w5 >> sh)) << 96
        | (w6 ^ (w6 >> sh)) | (w7 ^ (w7 >> sh)) << 32
    )
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return state, inc


def standard_normal_rows(seeds: list[int], trials: int) -> np.ndarray:
    """One ``Generator(PCG64(seed)).standard_normal(trials)`` row per seed.

    ``seeds`` are 64-bit unsigned Python ints.
    """
    n = len(seeds)
    if n < ARRAY_SEEDS:
        states = [pcg64_state(seed) for seed in seeds]
    else:
        states = pcg64_states(np.array(seeds, dtype=np.uint64))
    out = np.empty((n, trials), dtype=np.float64)
    with _LOCK:
        for i, (state, inc) in enumerate(states):
            _BITGEN.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            out[i] = _GEN.standard_normal(trials)
    return out
