"""Fast noise replay is bit-identical to a fresh NumPy generator per seed.

The replay copies a NumPy implementation detail (``SeedSequence`` pool
mixing and PCG64 seeding), so these tests pin every function against
``np.random.default_rng(seed)`` on edge seeds and a random sweep, on
both sides of the scalar/array seeding crossover.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.gpusim.fastrng import (
    ARRAY_SEEDS,
    pcg64_state,
    pcg64_states,
    standard_normal_rows,
)

#: Seeds at every entropy-word boundary of ``SeedSequence``.
EDGE_SEEDS = [
    0, 1, 2, 86243, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 977,
    2**48 + 12345, 2**63, 2**64 - 1,
]


def _sweep(n: int, seed: int = 99) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).tolist()


def _reference_state(seed: int) -> tuple[int, int]:
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


def test_pcg64_states_match_numpy_seedsequence():
    seeds = EDGE_SEEDS + _sweep(200)
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    for seed, pair in zip(seeds, states):
        assert pair == _reference_state(seed)


def test_scalar_twin_matches_vectorized():
    seeds = EDGE_SEEDS + _sweep(200, seed=5)
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    for seed, pair in zip(seeds, states):
        assert pcg64_state(seed) == pair


def test_random_seed_sweep_bit_identical():
    """Rows equal the reference draws below and above the crossover."""
    for n in (1, ARRAY_SEEDS - 1, ARRAY_SEEDS, ARRAY_SEEDS + 1, 300):
        seeds = _sweep(n, seed=n)
        rows = standard_normal_rows(seeds, 3)
        assert rows.shape == (n, 3)
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(
                row, np.random.default_rng(seed).standard_normal(3)
            )


@pytest.mark.parametrize("pad", [0, ARRAY_SEEDS])
def test_edge_seeds_bit_identical(pad):
    """The edge seeds, seeded in Python ints alone and in an array batch."""
    seeds = EDGE_SEEDS[: ARRAY_SEEDS - 1] if not pad else EDGE_SEEDS + _sweep(pad)
    for trials in (1, 3, 4):
        rows = standard_normal_rows(seeds, trials)
        for row, seed in zip(rows, seeds):
            np.testing.assert_array_equal(
                row, np.random.default_rng(seed).standard_normal(trials)
            )


def test_draw_does_not_leak_state_between_calls():
    rows = standard_normal_rows([7, 7], 4)
    np.testing.assert_array_equal(rows[0], rows[1])
    again = standard_normal_rows([7] * (ARRAY_SEEDS + 1), 4)
    np.testing.assert_array_equal(again[-1], rows[0])


def test_empty_batch():
    assert standard_normal_rows([], 3).shape == (0, 3)


def test_threads_draw_their_own_seeds():
    """Concurrent callers never see each other's generator state."""
    seeds = {k: _sweep(ARRAY_SEEDS - 1, seed=100 + k) for k in range(6)}
    want = {k: standard_normal_rows(s, 3) for k, s in seeds.items()}
    bad: list[int] = []

    def work(k: int) -> None:
        for _ in range(40):
            if not np.array_equal(standard_normal_rows(seeds[k], 3), want[k]):
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_straight_line_state_matches_numpy_on_random_seeds():
    """The written-out scalar replay against NumPy's own seeding."""
    for seed in EDGE_SEEDS + _sweep(10_000, seed=2024):
        state = np.random.PCG64(np.random.SeedSequence(seed)).state["state"]
        assert pcg64_state(seed) == (state["state"], state["inc"])
