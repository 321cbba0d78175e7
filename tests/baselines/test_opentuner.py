"""Unit tests for the OpenTuner-style baselines."""

import numpy as np
import pytest

from repro.baselines import (
    DifferentialEvolutionTuner,
    HillClimberTuner,
    OpenTunerGA,
)
from repro.core import Budget
from repro.errors import SearchError
from repro.gpusim.simulator import GpuSimulator
from tests.baselines import opentuner_reference as reference


class TestOpenTunerGA:
    def test_runs_and_improves(self, small_pattern, small_space):
        tuner = OpenTunerGA(GpuSimulator(noise=0.0), seed=0)
        res = tuner.tune(
            small_pattern, Budget(max_iterations=10), space=small_space
        )
        assert res.best_setting is not None
        assert res.meta["generations"] >= 1

    def test_charges_invalid_candidates(self, small_pattern, small_space):
        """The general-purpose tuner pays compile time for constraint
        violations — this is what makes it slow on the stencil space."""
        sim = GpuSimulator(noise=0.0)
        tuner = OpenTunerGA(sim, seed=0)
        res = tuner.tune(small_pattern, Budget(max_cost_s=20.0), space=small_space)
        # Cost accrued must exceed what the *valid* evaluations alone cost.
        assert res.cost_s > 0
        assert res.evaluations < res.cost_s / sim.compile_cost_s + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_mutate_matches_per_bit_draws(self, small_space, seed):
        """One ``rng.random(n)`` per child: same flips and same generator
        state as one ``rng.random()`` per bit."""
        tuner = OpenTunerGA(GpuSimulator(), mutation_rate=0.2)
        vec = small_space.encode(
            small_space.random_setting(np.random.default_rng(seed))
        )
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = vec.copy()
        for k, name in enumerate(small_space.names):
            card = small_space.param(name).cardinality
            for b in range(max(1, (card - 1).bit_length())):
                if slow.random() < tuner.mutation_rate:
                    expected[k] = (int(expected[k]) ^ (1 << b)) % card
        got = reference.mutate(tuner, small_space, vec, fast)
        assert np.array_equal(got, expected)
        assert not np.array_equal(got, vec)  # the rate really flips bits
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_population_validation(self):
        with pytest.raises(SearchError):
            OpenTunerGA(GpuSimulator(), population=2)

    def test_deterministic(self, small_pattern, small_space):
        a = OpenTunerGA(GpuSimulator(noise=0.0), seed=4).tune(
            small_pattern, Budget(max_iterations=4), space=small_space
        )
        b = OpenTunerGA(GpuSimulator(noise=0.0), seed=4).tune(
            small_pattern, Budget(max_iterations=4), space=small_space
        )
        assert a.best_time_s == b.best_time_s


class TestDifferentialEvolution:
    def test_runs(self, small_pattern, small_space):
        tuner = DifferentialEvolutionTuner(GpuSimulator(noise=0.0), seed=0)
        res = tuner.tune(
            small_pattern, Budget(max_iterations=6), space=small_space
        )
        assert res.best_setting is not None
        assert res.tuner == "OpenTuner-DE"

    def test_improves_over_generations(self, small_pattern, small_space):
        tuner = DifferentialEvolutionTuner(GpuSimulator(noise=0.0), seed=1)
        res = tuner.tune(
            small_pattern, Budget(max_iterations=10), space=small_space
        )
        assert res.best_at_iteration(10) <= res.best_at_iteration(1)


class TestHillClimber:
    def test_runs_and_descends(self, small_pattern, small_space):
        tuner = HillClimberTuner(GpuSimulator(noise=0.0), seed=0)
        res = tuner.tune(
            small_pattern, Budget(max_iterations=8), space=small_space
        )
        assert res.best_setting is not None
        assert res.meta["restarts"] >= 1
        assert small_space.is_valid(res.best_setting)
