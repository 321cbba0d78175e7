"""Unit tests for RNG plumbing."""

import numpy as np
import pytest

from repro.utils.rng import _PCG64Replay, rng_from_seed, spawn_rng


class TestRngFromSeed:
    def test_int_seed_reproducible(self):
        a = rng_from_seed(7).random(5)
        b = rng_from_seed(7).random(5)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert rng_from_seed(g) is g

    def test_none_gives_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)


class TestSpawnRng:
    def test_children_independent(self):
        children = spawn_rng(rng_from_seed(0), 3)
        draws = [c.random(8) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_deterministic_spawn(self):
        a = [c.random(4) for c in spawn_rng(rng_from_seed(1), 2)]
        b = [c.random(4) for c in spawn_rng(rng_from_seed(1), 2)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_zero_children(self):
        assert spawn_rng(rng_from_seed(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(rng_from_seed(0), -1)


class TestPCG64ReplayChoice:
    """``_PCG64Replay.choice`` against ``Generator.choice(replace=False)``."""

    @staticmethod
    def _twins(seed: int, buffered: bool):
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # leave a pending high half in the buffer
            ref.integers(5)
            rng.integers(5)
        return ref, rng

    @pytest.mark.parametrize(
        "pop, size",
        [(1, 1), (2, 1), (19, 4), (19, 19), (19, 1), (100, 30), (10000, 9000),
         (10001, 200), (12000, 12000)],
    )
    def test_floyd_draws_match_numpy(self, pop, size):
        for seed in range(8):
            ref, rng = self._twins(seed, buffered=seed % 2 == 1)
            draw = _PCG64Replay(rng)
            for _ in range(4):
                expected = ref.choice(pop, size, replace=False).tolist()
                assert draw.choice(pop, size) == expected
            draw.sync()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("pop, size", [(10001, 201), (20000, 500), (30000, 30000)])
    def test_tail_shuffle_past_numpys_cutoff_matches(self, pop, size):
        # NumPy shuffles the tail of range(pop) when pop > 10000 and
        # size > pop // 50 instead of running Floyd's algorithm.
        for seed in range(3):
            ref, rng = self._twins(seed, buffered=seed == 1)
            draw = _PCG64Replay(rng)
            for _ in range(2):
                expected = ref.choice(pop, size, replace=False).tolist()
                assert draw.choice(pop, size) == expected
            draw.sync()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("pop, size", [(3_000_000_000, 3), (2**31 + 5, 40)])
    def test_redraws_in_the_biased_sliver_match(self, pop, size):
        # Bounds near 2**32 put up to half of the halves in Lemire's
        # biased sliver, so redraws (and refills mid-draw) are common.
        for seed in range(6):
            ref, rng = self._twins(seed, buffered=seed % 2 == 1)
            draw = _PCG64Replay(rng)
            for _ in range(20):
                expected = ref.choice(pop, size, replace=False).tolist()
                assert draw.choice(pop, size) == expected
            draw.sync()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_many_small_pools_match(self):
        ref, rng = self._twins(3, buffered=False)
        draw = _PCG64Replay(rng)
        picker = np.random.default_rng(9)
        for _ in range(2000):
            pop = int(picker.integers(1, 40))
            size = int(picker.integers(1, pop + 1))
            expected = ref.choice(pop, size, replace=False).tolist()
            assert draw.choice(pop, size) == expected
        draw.sync()
        assert rng.bit_generator.state == ref.bit_generator.state
