"""Edge-case tests for the evolutionary search."""

import numpy as np
import pytest

from repro.core.budget import Budget, Evaluator
from repro.core.genetic import EvolutionarySearch, GAConfig
from repro.core.reindex import build_group_indexes
from repro.core.sampling import SampledSpace
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import settings_matrix


def make_sampled(space, rng, n, groups):
    settings = space.sample(rng, n)
    return SampledSpace(
        settings=settings,
        groups=tuple(tuple(g) for g in groups),
        group_indexes=build_group_indexes(
            groups, settings_matrix(settings, space.names), space.names
        ),
    )


@pytest.fixture
def singleton_groups():
    from repro.space.parameters import PARAMETER_ORDER

    return [[p] for p in PARAMETER_ORDER]


class TestExhaustiveDegeneration:
    def test_all_small_groups_use_exhaustive(
        self, small_pattern, small_space, rng, singleton_groups
    ):
        """With singleton groups over a small sample, every group has
        fewer values than the population: the whole search degenerates
        to per-group exhaustive sweeps (Section V-A2)."""
        sampled = make_sampled(small_space, rng, 30, singleton_groups)
        sim = GpuSimulator(noise=0.0)
        ev = Evaluator(sim, small_pattern, Budget(max_iterations=200))
        es = EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=ev, seed=0
        )
        es.run()
        assert es.generations == 0  # no GA generations ran
        assert es.groups_tuned >= len(singleton_groups)
        assert ev.best_setting is not None

    def test_single_setting_space(self, small_pattern, small_space, rng):
        sampled = make_sampled(small_space, rng, 1, [["TBx"], ["TBy"]])
        # Re-add remaining params as one big group so decode is total.
        from repro.space.parameters import PARAMETER_ORDER

        rest = [p for p in PARAMETER_ORDER if p not in ("TBx", "TBy")]
        groups = [["TBx"], ["TBy"], rest]
        sampled = make_sampled(small_space, rng, 1, groups)
        sim = GpuSimulator(noise=0.0)
        ev = Evaluator(sim, small_pattern, Budget(max_iterations=50))
        EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=ev, seed=0
        ).run()
        assert ev.best_setting == sampled.settings[0]


class TestMultiPass:
    def test_second_pass_never_worse(
        self, small_pattern, small_space, rng, singleton_groups
    ):
        sampled = make_sampled(small_space, rng, 40, singleton_groups)
        sim = GpuSimulator(noise=0.0)
        short = Evaluator(sim, small_pattern, Budget(max_iterations=12))
        es1 = EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=short, seed=0
        )
        es1.run()
        sim2 = GpuSimulator(noise=0.0)
        long = Evaluator(sim2, small_pattern, Budget(max_iterations=120))
        es2 = EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=long, seed=0
        )
        es2.run()
        assert long.best_time_s <= short.best_time_s + 1e-12


class TestMigrationConfig:
    def test_many_islands(self, small_pattern, small_space, rng, singleton_groups):
        sampled = make_sampled(small_space, rng, 40, singleton_groups)
        sim = GpuSimulator(noise=0.0)
        ev = Evaluator(sim, small_pattern, Budget(max_iterations=30))
        cfg = GAConfig(subpopulations=4, population=4)
        EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=ev,
            config=cfg, seed=0,
        ).run()
        assert ev.best_setting is not None

    def test_single_island(self, small_pattern, small_space, rng, singleton_groups):
        sampled = make_sampled(small_space, rng, 40, singleton_groups)
        sim = GpuSimulator(noise=0.0)
        ev = Evaluator(sim, small_pattern, Budget(max_iterations=30))
        cfg = GAConfig(subpopulations=1, population=8)
        EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=ev,
            config=cfg, seed=0,
        ).run()
        assert ev.best_setting is not None
