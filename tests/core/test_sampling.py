"""Unit tests for PMNF-guided search-space sampling."""

import numpy as np
import pytest

from repro.core.grouping import group_parameters, pairwise_cv
from repro.core.sampling import (
    SampledSpace,
    SamplingConfig,
    fit_metric_models,
    sample_search_space,
)


@pytest.fixture(scope="module")
def groups(sim_mod, small_pattern_mod, small_space_mod, small_dataset_mod):
    cvs = pairwise_cv(
        sim_mod,
        small_pattern_mod,
        small_space_mod,
        small_dataset_mod.best().setting,
        probe_limit=4,
    )
    return group_parameters(cvs)


# Module-scoped aliases of the session fixtures so `groups` can be
# computed once for this file.
@pytest.fixture(scope="module")
def sim_mod(request):
    return request.getfixturevalue("sim")


@pytest.fixture(scope="module")
def small_pattern_mod(request):
    return request.getfixturevalue("small_pattern")


@pytest.fixture(scope="module")
def small_space_mod(request):
    return request.getfixturevalue("small_space")


@pytest.fixture(scope="module")
def small_dataset_mod(request):
    return request.getfixturevalue("small_dataset")


class TestSamplingConfig:
    def test_defaults_match_paper(self):
        cfg = SamplingConfig()
        assert cfg.ratio == 0.10
        assert cfg.i_range == (0, 1, 2)
        assert cfg.j_range == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(ratio=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(ratio=1.5)
        with pytest.raises(ValueError):
            SamplingConfig(pool_size=3)
        with pytest.raises(ValueError):
            SamplingConfig(threshold_quantile=0.2)


class TestFitMetricModels:
    def test_models_for_representatives(self, small_dataset_mod, groups):
        cfg = SamplingConfig(pool_size=100)
        models, reps, _ = fit_metric_models(small_dataset_mod, groups, cfg)
        assert models and reps
        assert set(reps) == set(models)
        for model in models.values():
            assert np.isfinite(model.rse)

    def test_at_most_num_collections(self, small_dataset_mod, groups):
        cfg = SamplingConfig(num_collections=2, pool_size=100)
        _, reps, _ = fit_metric_models(small_dataset_mod, groups, cfg)
        assert len(reps) <= 2


class TestSampleSearchSpace:
    def test_size_respects_ratio(
        self, small_space_mod, small_dataset_mod, groups
    ):
        cfg = SamplingConfig(ratio=0.10, pool_size=200)
        sampled = sample_search_space(
            small_space_mod, small_dataset_mod, groups, cfg, seed=0
        )
        # ratio x pool plus the measured dataset seeds (<= 1/8 of it)
        assert 20 <= len(sampled) <= 20 + len(small_dataset_mod) // 8

    def test_all_sampled_settings_valid(
        self, small_space_mod, small_dataset_mod, groups
    ):
        cfg = SamplingConfig(ratio=0.2, pool_size=150)
        sampled = sample_search_space(
            small_space_mod, small_dataset_mod, groups, cfg, seed=1
        )
        for s in sampled.settings:
            assert small_space_mod.is_valid(s)

    def test_group_indexes_cover_groups(
        self, small_space_mod, small_dataset_mod, groups
    ):
        cfg = SamplingConfig(ratio=0.2, pool_size=150)
        sampled = sample_search_space(
            small_space_mod, small_dataset_mod, groups, cfg, seed=1
        )
        assert len(sampled.group_indexes) == len(groups)
        for gi, group in zip(sampled.group_indexes, groups):
            assert list(gi.group) == list(group)
            assert len(gi) >= 1

    def test_filter_beats_random_on_average(
        self, sim_mod, small_pattern_mod, small_space_mod, small_dataset_mod, groups
    ):
        """The PMNF-guided sample's median must beat a random sample's
        median (the paper's core claim vs Garvey's random sampling)."""
        cfg = SamplingConfig(ratio=0.1, pool_size=300)
        sampled = sample_search_space(
            small_space_mod, small_dataset_mod, groups, cfg, seed=2
        )
        guided = np.median(
            [sim_mod.true_time(small_pattern_mod, s) for s in sampled.settings]
        )
        rng = np.random.default_rng(2)
        random_sample = small_space_mod.sample(rng, len(sampled.settings))
        random_med = np.median(
            [sim_mod.true_time(small_pattern_mod, s) for s in random_sample]
        )
        assert guided < random_med

    def test_deterministic_with_seed(
        self, small_space_mod, small_dataset_mod, groups
    ):
        cfg = SamplingConfig(ratio=0.1, pool_size=100)
        a = sample_search_space(small_space_mod, small_dataset_mod, groups, cfg, seed=5)
        b = sample_search_space(small_space_mod, small_dataset_mod, groups, cfg, seed=5)
        assert a.settings == b.settings
