"""OpenTuner's block-drawn generations against the per-call loop.

``OpenTunerGA._breed`` reads a generation's doubles from one block of
raw PCG64 words; ``tests/baselines/opentuner_reference.py`` draws them
one generator call at a time. Both must breed the same children and
leave the generator in the same state, buffered 32-bit half included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.opentuner import OpenTunerGA, _random_population
from repro.core import Budget
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from tests.baselines import opentuner_reference as reference

#: PCG64's 128-bit LCG multiplier (NumPy's ``PCG_DEFAULT_MULTIPLIER``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1


@pytest.fixture(scope="module")
def space():
    return build_space(get_stencil("j3d7pt"), A100)


def _tuner(**kw) -> OpenTunerGA:
    return OpenTunerGA(GpuSimulator(noise=0.0), **kw)


def _fitness_probs(times: np.ndarray) -> np.ndarray:
    """The selection probabilities ``OpenTunerGA._search`` breeds with."""
    fitness = np.where(np.isfinite(times), 1.0 / times, 0.0)
    if fitness.sum() > 0:
        return fitness / fitness.sum()
    return np.full(len(times), 1.0 / len(times))


def _generation(space, seed: int, size: int = 32, all_invalid: bool = False):
    """A population with some failed (infinite) times."""
    rng = np.random.default_rng(1000 + seed)
    pop = _random_population(space, rng, size)
    times = rng.uniform(1e-4, 1e-2, size)
    times[rng.random(size) < 0.3] = np.inf
    if all_invalid:
        times[:] = np.inf
    return pop, times


def _pending(rng: np.random.Generator) -> np.random.Generator:
    """Leave a buffered 32-bit half pending, as integer draws do."""
    rng.integers(7)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _state_before_word(rng: np.random.Generator, word: int) -> None:
    """Set ``rng`` so its next raw word is ``word`` (the buffered half,
    if any, is kept): PCG64 steps its LCG, then outputs
    ``rotr(high ^ low, high >> 58)`` of the new state."""
    state = rng.bit_generator.state
    high = 0x0123456789ABCDEF
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & _MASK64) ^ high
    inc = state["state"]["inc"]
    after = (high << 64) | low
    state["state"]["state"] = (
        (after - inc) * pow(_PCG_MULT, -1, 1 << 128) % (1 << 128)
    )
    rng.bit_generator.state = state


def _assert_same_breed(tuner, space, pop, times, make_rng, count=30):
    probs = _fitness_probs(times)
    fast, slow = make_rng(), make_rng()
    got = tuner._breed(space, pop, times, probs, count, fast)
    expected = reference.breed(tuner, space, pop, times, probs, count, slow)
    assert len(got) == len(expected) == count
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert fast.bit_generator.state == slow.bit_generator.state
    return got, expected


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "pending-half"])
def test_breed_matches_per_call_loop(space, seed, buffered):
    pop, times = _generation(space, seed)
    tuner = _tuner(mutation_rate=0.05)

    def make_rng():
        rng = np.random.default_rng(seed)
        return _pending(rng) if buffered else rng

    _assert_same_breed(tuner, space, pop, times, make_rng)


@pytest.mark.parametrize("rates", [(0.0, 0.005), (1.0, 0.005), (0.8, 0.0), (0.5, 0.3)])
def test_breed_matches_at_edge_rates(space, rates):
    crossover, mutation = rates
    pop, times = _generation(space, 7)
    tuner = _tuner(crossover_rate=crossover, mutation_rate=mutation)
    _assert_same_breed(
        tuner, space, pop, times, lambda: _pending(np.random.default_rng(3))
    )


def test_all_invalid_generation_breeds_from_uniform_probs(space):
    pop, times = _generation(space, 2, all_invalid=True)
    assert np.all(_fitness_probs(times) == 1.0 / len(pop))
    _assert_same_breed(
        _tuner(), space, pop, times, lambda: _pending(np.random.default_rng(8))
    )


@pytest.mark.parametrize("k", [0, 5, 17, 30])
def test_parent_draw_on_a_cdf_step_takes_the_right_side(space, k):
    """A double equal to a cumulative probability picks the next
    individual, as ``rng.choice`` does (a right-sided search)."""
    pop, times = _generation(space, 4, all_invalid=True)  # cdf = (i + 1) / 32
    # (raw >> 11) * 2**-53 == (k + 1) / 32 when raw == (k + 1) << 59.
    word = (k + 1) << 59 | 0x5A5

    def make_rng():
        rng = _pending(np.random.default_rng(9))
        _state_before_word(rng, word)
        return rng

    _assert_same_breed(_tuner(mutation_rate=0.0), space, pop, times, make_rng)
    probe = make_rng()
    first = probe.choice(len(pop), size=2, p=_fitness_probs(times))[0]
    assert first == k + 1


def test_no_children_draws_nothing(space):
    pop, times = _generation(space, 1)
    rng = _pending(np.random.default_rng(2))
    state = rng.bit_generator.state
    assert _tuner()._breed(space, pop, times, _fitness_probs(times), 0, rng) == []
    assert rng.bit_generator.state == state


class _Recording:
    """Keeps every generation a tuner breeds."""

    def _breed(self, space, pop, times, probs, count, rng):
        children = super()._breed(space, pop, times, probs, count, rng)
        self.generations.append(([v.copy() for v in pop], times.copy(), children))
        return children


class _BlockTuner(_Recording, OpenTunerGA):
    generations: list


class _PerCallTuner(_Recording, reference.ReferenceOpenTunerGA):
    generations: list


@pytest.mark.parametrize("stencil, budget_s", [("j3d7pt", 40.0), ("addsgd4", 60.0)])
def test_whole_run_matches_per_call_loop(stencil, budget_s):
    pattern = get_stencil(stencil)
    runs = []
    for cls in (_BlockTuner, _PerCallTuner):
        tuner = cls(GpuSimulator(A100, seed=1))
        tuner.generations = []
        rng = _pending(np.random.default_rng(11))
        result = tuner.tune(
            pattern, Budget(max_cost_s=budget_s),
            space=build_space(pattern, A100), seed=rng,
        )
        runs.append((tuner.generations, result, rng.bit_generator.state))
    (gens_a, res_a, state_a), (gens_b, res_b, state_b) = runs
    assert res_a.meta["generations"] == res_b.meta["generations"] >= 2
    assert len(gens_a) == len(gens_b)
    for (pop_a, times_a, kids_a), (pop_b, times_b, kids_b) in zip(gens_a, gens_b):
        assert [v.tolist() for v in pop_a] == [v.tolist() for v in pop_b]
        assert np.array_equal(times_a, times_b)
        assert [v.tolist() for v in kids_a] == [v.tolist() for v in kids_b]
    assert res_a.best_setting == res_b.best_setting
    assert res_a.best_time_s == res_b.best_time_s
    assert res_a.evaluations == res_b.evaluations
    assert res_a.cost_s == res_b.cost_s
    assert res_a.trace == res_b.trace
    assert state_a == state_b
