"""Tests for the motivation experiments (Figs 2-4)."""

import pytest

from repro.experiments.motivation import (
    parameter_pair_distribution,
    speedup_distribution,
    topn_speedups,
)


class TestFig2:
    @pytest.fixture(scope="class")
    def dist(self, sim, small_pattern, small_space):
        return speedup_distribution(
            sim, small_pattern, small_space, n_samples=300, seed=0
        )

    def test_fractions_sum_to_one(self, dist):
        assert sum(dist["fractions"]) == pytest.approx(1.0)

    def test_five_bins(self, dist):
        assert len(dist["fractions"]) == 5

    def test_biased_towards_poor_settings(self, dist):
        """The paper's core observation: most settings perform poorly."""
        assert dist["fractions"][0] > dist["fractions"][4]
        assert dist["within_20pct"] < 0.3

    def test_bookkeeping(self, dist):
        assert dist["n_samples"] == 300
        assert dist["optimum_ms"] > 0


class TestFig3:
    @pytest.fixture(scope="class")
    def dist(self, sim, small_pattern, small_space):
        return parameter_pair_distribution(
            sim,
            small_pattern,
            small_space,
            n_samples=100,
            probe_limit=3,
            seed=0,
            parameters=["TBx", "TBy", "UFy", "useShared"],
        )

    def test_fraction_histogram(self, dist):
        assert len(dist["fractions"]) == 5
        assert sum(dist["fractions"]) == pytest.approx(1.0)

    def test_some_pairs_interact(self, dist):
        """Separate tuning must miss the optimum for a nonzero share of
        pairs — the paper's justification for grouping."""
        assert dist["pairs_nonzero"] > 0.0

    def test_pair_count(self, dist):
        assert dist["n_pairs"] <= 4 * 3

    def test_pinned_result(self, dist):
        """The whole result, as the per-pair loop (one validity screen
        and one simulator batch per pair) computed it."""
        assert dist == {
            "stencil": "test3d",
            "bins": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
            "fractions": [
                0.25, 0.08333333333333333, 0.16666666666666666,
                0.08333333333333333, 0.4166666666666667,
            ],
            "mean_mismatch": 0.5833333333333334,
            "pairs_nonzero": 0.75,
            "pairs_over_40pct": 0.6666666666666666,
            "n_pairs": 12,
        }


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self, sim, small_pattern, small_space):
        return topn_speedups(
            sim, small_pattern, small_space, n_samples=400, ns=(10, 50, 100), seed=0
        )

    def test_monotone_decreasing(self, result):
        s = result["speedups"]
        assert s[10] >= s[50] >= s[100]

    def test_top10_close_to_optimum(self, result):
        assert result["speedups"][10] > 0.5

    def test_bounds(self, result):
        for v in result["speedups"].values():
            assert 0.0 < v <= 1.0

    def test_invalid_n_rejected(self, sim, small_pattern, small_space):
        with pytest.raises(ValueError):
            topn_speedups(
                sim, small_pattern, small_space, n_samples=20, ns=(50,), seed=0
            )
