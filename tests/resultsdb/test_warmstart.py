"""Tests for nearest-neighbor warm starts and GA seed injection."""

import numpy as np
import pytest

from repro.core.sampling import with_seed_settings
from repro.gpusim.device import A100, V100
from repro.gpusim.diskcache import device_token
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.warmstart import repair_candidates, warm_start_settings
from repro.space.setting import Setting
from repro.stencil.suite import get_stencil


class TestWarmStartSettings:
    def test_seeds_are_valid_and_capped(self, db, pattern, space):
        seeds = warm_start_settings(db, pattern, A100, space, k=4)
        assert 0 < len(seeds) <= 4
        assert all(space.is_valid(s) for s in seeds)
        assert len(set(seeds)) == len(seeds)

    def test_golden_setting_leads(self, db, pattern, space):
        record = db.serve(pattern, A100)
        seeds = warm_start_settings(db, pattern, A100, space, k=4)
        # The exact golden record is collected first and its values are
        # already valid in this space, so repair keeps it in front.
        assert seeds[0] == Setting.from_values(record.values)

    def test_cross_stencil_transfer(self, db, space):
        # No cheby shard exists — every seed must come from the j3d7pt
        # donor records via feature-space nearest-neighbor transfer.
        cheby = get_stencil("cheby")
        from repro.space.space import build_space

        cheby_space = build_space(cheby, A100)
        seeds = warm_start_settings(db, cheby, A100, cheby_space, k=4)
        assert seeds, "same-family donor records should transfer"
        assert all(cheby_space.is_valid(s) for s in seeds)

    def test_other_family_contributes_nothing(self, db, pattern):
        from repro.space.space import build_space

        v100_space = build_space(pattern, V100)
        seeds = warm_start_settings(db, pattern, V100, v100_space, k=4)
        assert seeds == []  # only an A100 shard exists; V100 ≠ ampere

    def test_empty_db(self, tmp_path, pattern, space):
        empty = ResultsDB(tmp_path / "empty")
        assert warm_start_settings(empty, pattern, A100, space, k=4) == []


class TestRepairCandidates:
    def test_wrong_arity_dropped(self, space):
        assert repair_candidates(space, [(1, 2, 3)], k=4) == []

    def test_invalid_donors_are_repaired(self, space, pattern):
        # A deliberately hostile donor: every parameter at an extreme.
        valid = space.sample(np.random.default_rng(5), 1)[0]
        hostile = tuple(9999 for _ in valid.values_tuple())
        seeds = repair_candidates(space, [hostile], k=4)
        assert all(space.is_valid(s) for s in seeds)

    def test_dedup_preserves_order(self, space):
        donors = space.sample(np.random.default_rng(6), 3)
        values = [s.values_tuple() for s in donors]
        seeds = repair_candidates(space, values + values, k=10)
        assert len(seeds) == len(set(seeds))


class TestDonorWidth:
    """Donors are rows over the target space's ``names``: a
    ``TemporalSpace`` takes 20-value donors and refuses (and counts)
    19-value ones."""

    @pytest.fixture(scope="class")
    def temporal(self, space):
        from repro.ext.temporal import TemporalSpace

        return TemporalSpace(space)

    @staticmethod
    def refused() -> float:
        from repro.obs.metrics import get_registry

        return get_registry().counters().get("resultsdb.warm_donors_refused", 0)

    def test_base_width_donors_are_refused(self, space, temporal):
        donors = [s.values_tuple() for s in space.sample(np.random.default_rng(7), 5)]
        before = self.refused()
        assert repair_candidates(temporal, donors, 3) == []
        assert self.refused() == before + 5

    def test_space_width_donors_are_seeds(self, temporal):
        donors = [
            s.values_tuple(temporal.names)
            for s in temporal.sample(np.random.default_rng(8), 5)
        ]
        before = self.refused()
        seeds = repair_candidates(temporal, donors + [(1, 2, 3)], 3)
        assert self.refused() == before + 1
        assert len(seeds) == 3
        assert [s.values_tuple(temporal.names) for s in seeds] == donors[:3]
        assert all(temporal.is_valid(s) for s in seeds)


class TestWithSeedSettings:
    @pytest.fixture(scope="class")
    def sampled(self, request):
        from repro.core.grouping import group_parameters, pairwise_cv
        from repro.core.sampling import SamplingConfig, sample_search_space

        sim = request.getfixturevalue("sim")
        pattern = request.getfixturevalue("small_pattern")
        space = request.getfixturevalue("small_space")
        dataset = request.getfixturevalue("small_dataset")
        cvs = pairwise_cv(
            sim, pattern, space, dataset.best().setting, probe_limit=3
        )
        groups = group_parameters(cvs)
        return sample_search_space(
            space, dataset, groups,
            SamplingConfig(ratio=0.2, pool_size=200), seed=1,
        )

    def test_empty_seeds_is_identity(self, sampled, small_space):
        assert with_seed_settings(sampled, small_space, []) is sampled

    def test_seeds_prepended_and_indexed(self, sampled, small_space, rng):
        seeds = [small_space.random_setting(rng)]
        out = with_seed_settings(sampled, small_space, seeds)
        assert len(out.settings) == len(sampled.settings) + 1
        assert out.settings[0] == seeds[0]
        # Group indexes were rebuilt over the extended pool, so the GA
        # can express the seed as genes.
        for indexes in out.group_indexes:
            assert indexes.index_of(seeds[0]) is not None

    def test_invalid_seed_screened_out(self, sampled, small_space):
        hostile = Setting.from_values(tuple(9999 for _ in range(19)))
        out = with_seed_settings(sampled, small_space, [hostile])
        assert out is sampled

    def test_duplicate_of_sampled_not_reinjected(self, sampled, small_space):
        out = with_seed_settings(
            sampled, small_space, [sampled.settings[0]]
        )
        assert out is sampled


def _results_for(meta_list):
    from repro.core.result import TuningResult

    return [
        TuningResult(
            stencil="s", device="A100", tuner="t", best_setting=None,
            best_time_s=1.0, evaluations=5, iterations=1, cost_s=1.0,
            meta=meta,
        )
        for meta in meta_list
    ]


class TestRunnerDbStats:
    def test_merge_db_stats_counts_hits_and_seeds(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(
            tmp_path / "out", results_db=tmp_path / "db"
        )
        runner._merge_db_stats(_results_for([
            {"golden_served": True},
            {"warm_seeds": 3},
            {},
        ]))
        assert runner.orchestration["db_golden_hits"] == 1
        assert runner.orchestration["db_golden_misses"] == 2
        assert runner.orchestration["db_warm_seeds"] == 3
        report = runner._orchestration_report()
        assert "golden hits:      1" in report
        assert "warm seeds:       3" in report

    def test_merge_db_stats_noop_without_db(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(tmp_path / "out")
        runner._merge_db_stats(_results_for([{"golden_served": True}]))
        assert "db_golden_hits" not in runner.orchestration
        assert "results database" not in runner._orchestration_report()
