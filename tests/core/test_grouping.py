"""Unit tests for parameter grouping (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core.grouping import (
    _probe_values,
    best_response_values,
    group_parameters,
    pairwise_cv,
)


class TestGroupParameters:
    def test_strong_pair_grouped(self):
        cv = {("a", "b"): 0.01, ("c", "d"): 5.0}
        groups = group_parameters(cv)
        assert ["a", "b"] in groups

    def test_weak_pair_split(self):
        cv = {("a", "b"): 0.01, ("c", "d"): 5.0}
        groups = group_parameters(cv)
        assert ["c"] in groups or ["d"] in groups

    def test_every_parameter_covered_once(self):
        names = ["p0", "p1", "p2", "p3", "p4"]
        cv = {
            (a, b): abs(hash((a, b))) % 100 / 10.0
            for a in names
            for b in names
            if a != b
        }
        groups = group_parameters(cv)
        flat = [p for g in groups for p in g]
        assert sorted(flat) == sorted(names)
        assert len(flat) == len(set(flat))

    def test_transitive_merge(self):
        cv = {("a", "b"): 0.01, ("b", "c"): 0.02, ("d", "e"): 9.0, ("e", "f"): 8.0}
        groups = group_parameters(cv)
        abc = next(g for g in groups if "a" in g)
        assert set(abc) >= {"a", "b", "c"}

    def test_max_group_size_cap(self):
        cv = {("a", "b"): 0.01, ("b", "c"): 0.02, ("c", "d"): 0.03,
              ("x", "y"): 9.0}
        groups = group_parameters(cv, max_group_size=2)
        assert all(len(g) <= 2 for g in groups)

    def test_deterministic_on_ties(self):
        cv = {("a", "b"): 1.0, ("c", "d"): 1.0, ("e", "f"): 1.0}
        assert group_parameters(cv) == group_parameters(cv)

    def test_empty_input(self):
        assert group_parameters({}) == []


class TestProbeValues:
    DOMAIN = (1, 2, 4, 8, 16, 32, 64)

    def test_non_positive_limit_is_whole_domain(self):
        assert _probe_values(self.DOMAIN, 0) == list(self.DOMAIN)
        assert _probe_values(self.DOMAIN, -3) == list(self.DOMAIN)

    def test_limit_one_is_first_value(self):
        assert _probe_values(self.DOMAIN, 1) == [1]

    def test_limit_two_is_both_ends(self):
        assert _probe_values(self.DOMAIN, 2) == [1, 64]

    def test_limit_past_domain_is_whole_domain(self):
        assert _probe_values(self.DOMAIN, 50) == list(self.DOMAIN)


class TestBestResponse:
    def test_responses_are_log2_of_domain(
        self, sim, small_pattern, small_space, small_dataset
    ):
        base = small_dataset.best().setting
        vs = best_response_values(
            sim, small_pattern, small_space, base, "TBx", "TBy", probe_limit=4
        )
        assert len(vs) >= 2
        dom = small_space.param("TBy").values
        for v in vs:
            assert 2**v in dom

    def test_infeasible_probes_skipped(
        self, sim, small_pattern, small_space, small_dataset
    ):
        # TBx x TBy sweeps near 1024 threads violate the budget; the
        # sweep must silently skip them rather than crash.
        base = small_dataset.best().setting
        vs = best_response_values(
            sim, small_pattern, small_space, base, "TBx", "TBy", probe_limit=11
        )
        assert isinstance(vs, list)


    def test_ties_go_to_first_and_nan_never_wins(
        self, small_pattern, small_space, small_dataset
    ):
        class FlatSim:
            """Prices every setting alike; rejects TBx == 1 (NaN)."""

            def true_time_batch(self, pattern, settings, *, invalid="raise"):
                return np.array([math.nan if s["TBx"] == 1 else 1.0 for s in settings])

        base = small_dataset.best().setting
        vs = best_response_values(
            FlatSim(), small_pattern, small_space, base, "UFx", "TBx",
            probe_limit=5,
        )
        expected = []
        for va in small_space.param("UFx").values:
            firsts = [
                vb for vb in small_space.param("TBx").values
                if vb != 1 and small_space.is_valid(base.replace(UFx=va, TBx=vb))
            ]
            if firsts:
                expected.append(math.log2(firsts[0]))
        assert vs == expected and len(vs) >= 2


class TestPairwiseCV:
    def test_ordered_pairs_complete(
        self, sim, small_pattern, small_space, small_dataset
    ):
        params = ["TBx", "TBy", "useShared"]
        cvs = pairwise_cv(
            sim, small_pattern, small_space, small_dataset.best().setting,
            probe_limit=3, parameters=params,
        )
        assert len(cvs) == 6  # A_3^2 ordered pairs
        for (a, b), v in cvs.items():
            assert a != b
            assert v >= 0 or math.isinf(v)

    def test_asymmetric_in_general(
        self, sim, small_pattern, small_space, small_dataset
    ):
        cvs = pairwise_cv(
            sim, small_pattern, small_space, small_dataset.best().setting,
            probe_limit=4, parameters=["TBx", "TBy", "UFy"],
        )
        # CV(a,b) need not equal CV(b,a); just require both defined.
        assert ("TBx", "TBy") in cvs and ("TBy", "TBx") in cvs

    def test_probe_limit_one_gives_every_pair_inf(
        self, sim, small_pattern, small_space, small_dataset
    ):
        # One probe per pair can never give the two responses a CV needs.
        cvs = pairwise_cv(
            sim, small_pattern, small_space, small_dataset.best().setting,
            probe_limit=1, parameters=["TBx", "TBy", "UFy"],
        )
        assert len(cvs) == 6
        assert all(math.isinf(v) for v in cvs.values())

    def test_sweep_size_reported(
        self, sim, small_pattern, small_space, small_dataset
    ):
        cvs = pairwise_cv(
            sim, small_pattern, small_space, small_dataset.best().setting,
            probe_limit=2, parameters=["TBx", "useShared"],
        )
        n_tbx = len(small_space.param("TBx").values)
        # (TBx, useShared): 2 probes x 2 values; (useShared, TBx): 2 x n.
        assert cvs.candidates == 2 * 2 + 2 * n_tbx
        assert 0 < cvs.feasible <= cvs.candidates


class TestCsTunerProbeLimitOne:
    def test_preprocess_with_probe_limit_one(
        self, sim, small_pattern, small_space, small_dataset
    ):
        from repro.core.tuner import CsTuner, CsTunerConfig

        tuner = CsTuner(sim, CsTunerConfig(probe_limit=1, dataset_size=48))
        pre = tuner.preprocess(small_pattern, small_space, small_dataset)
        flat = sorted(p for g in pre.groups for p in g)
        assert flat == sorted(small_space.names)
