"""Unit tests for metric combination (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.metricsel import (
    combine_metrics,
    metric_correlations,
    metric_pccs,
    metric_time_direction,
    select_representatives,
)
from repro.errors import DatasetError
from repro.ml.stats import pearson_correlation
from repro.profiler.dataset import DatasetRecord, PerformanceDataset
from repro.space.setting import Setting


def synthetic_dataset(rng, n=40):
    """Three metric families: two tracking time, one anti-tracking."""
    ds = PerformanceDataset("syn", "A100")
    for i in range(n):
        t = float(rng.uniform(1, 10))
        metrics = {
            "fam1_a": 2 * t + rng.normal(0, 0.01),
            "fam1_b": 4 * t + rng.normal(0, 0.01),
            "fam2_a": -3 * t + rng.normal(0, 0.01),
            "noise": float(rng.normal()),
        }
        ds.add(DatasetRecord(Setting({"A": i + 1}), t, metrics))
    return ds


def correlations(ds):
    return metric_correlations(*ds.metric_rows(), ds.times())


class TestMetricPccs:
    def test_pairs_unordered_complete(self, rng):
        ds = synthetic_dataset(rng)
        mat, names = ds.metric_matrix()
        pccs = metric_pccs(mat, names)
        assert len(pccs) == len(names) * (len(names) - 1) // 2

    def test_family_members_highly_correlated(self, rng):
        ds = synthetic_dataset(rng)
        mat, names = ds.metric_matrix()
        pccs = metric_pccs(mat, names)
        assert pccs[("fam1_a", "fam1_b")] > 0.99

    def test_abs_value_used(self, rng):
        ds = synthetic_dataset(rng)
        mat, names = ds.metric_matrix()
        pccs = metric_pccs(mat, names)
        # fam2_a anti-correlates with fam1_a but |PCC| ~ 1
        assert pccs[("fam1_a", "fam2_a")] > 0.99

    def test_shape_check(self):
        with pytest.raises(DatasetError):
            metric_pccs(np.zeros((3, 2)), ["a", "b", "c"])


class TestCombineMetrics:
    def test_families_cluster(self, rng):
        ds = synthetic_dataset(rng)
        mat, names = ds.metric_matrix()
        colls = combine_metrics(metric_pccs(mat, names), num_collections=2)
        joined = next(c for c in colls if "fam1_a" in c)
        assert "fam1_b" in joined  # same family ends up together

    def test_collection_limit_respected(self, rng):
        ds = synthetic_dataset(rng)
        mat, names = ds.metric_matrix()
        colls = combine_metrics(metric_pccs(mat, names), num_collections=1)
        assert len(colls) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            combine_metrics({}, 0)

    def test_empty_pccs(self):
        assert combine_metrics({}, 3) == []


class TestRepresentatives:
    def test_picks_most_time_correlated(self, rng):
        ds = synthetic_dataset(rng)
        reps = select_representatives([["fam1_a", "noise"]], correlations(ds))
        assert reps == ["fam1_a"]

    def test_one_per_collection(self, rng):
        ds = synthetic_dataset(rng)
        reps = select_representatives([["fam1_a"], ["fam2_a", "noise"]], correlations(ds))
        assert len(reps) == 2

    def test_empty_collection_rejected(self, rng):
        with pytest.raises(DatasetError):
            select_representatives([[]], correlations(synthetic_dataset(rng)))

    def test_no_collections_rejected(self, rng):
        with pytest.raises(DatasetError):
            select_representatives([], correlations(synthetic_dataset(rng)))


class TestDirection:
    def test_positive_metric(self, rng):
        ds = synthetic_dataset(rng)
        assert metric_time_direction(correlations(ds), "fam1_a") == 1.0

    def test_negative_metric(self, rng):
        ds = synthetic_dataset(rng)
        assert metric_time_direction(correlations(ds), "fam2_a") == -1.0


class TestOnePassReference:
    """``metric_pccs`` and ``metric_correlations`` equal the pairwise
    ``pearson_correlation`` loop bit for bit."""

    @staticmethod
    def reference(matrix, names):
        return {
            (names[i], names[j]): abs(
                pearson_correlation(matrix[:, i], matrix[:, j])
            )
            for i in range(len(names))
            for j in range(i + 1, len(names))
        }

    def test_suite_metrics(self, small_dataset):
        mat, names = small_dataset.metric_matrix()
        assert metric_pccs(mat, names) == self.reference(mat, names)

    def test_constant_column_reads_zero(self, rng):
        mat = rng.normal(size=(30, 4))
        mat[:, 2] = 7.5
        names = ["a", "b", "c", "d"]
        got = metric_pccs(mat, names)
        assert got == self.reference(mat, names)
        assert got[("a", "c")] == 0.0 and got[("c", "d")] == 0.0

    def test_one_row_matrix(self, rng):
        mat = rng.normal(size=(1, 3))
        got = metric_pccs(mat, ["a", "b", "c"])
        assert got == self.reference(mat, ["a", "b", "c"])
        assert set(got.values()) == {0.0}

    def test_time_correlations(self, small_dataset):
        rows, names = small_dataset.metric_rows()
        times = small_dataset.times()
        corr = metric_correlations(rows, names, times)
        assert corr.names == [n for n, r in zip(names, rows) if np.ptp(r) > 0]
        assert corr.time == {
            n: pearson_correlation(small_dataset.metric_column(n), times)
            for n in corr.names
        }
        mat, _ = small_dataset.metric_matrix(corr.names)
        assert corr.pairs == self.reference(mat, corr.names)
