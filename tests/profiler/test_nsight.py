"""Unit tests for the simulated Nsight collector."""

import numpy as np

from repro.gpusim.model import METRIC_NAMES
from repro.profiler.nsight import NsightCollector


class TestProfile:
    def test_profile_one(self, sim, small_pattern, valid_setting):
        rec = NsightCollector(sim).profile(small_pattern, valid_setting)
        assert rec.setting == valid_setting
        assert rec.time_s > 0
        assert set(rec.metrics) == set(METRIC_NAMES) - {"elapsed_time"}

    def test_profile_many_preserves_order(self, sim, small_pattern, small_space):
        rng = np.random.default_rng(1)
        settings = small_space.sample(rng, 5)
        ds = NsightCollector(sim).profile_many(small_pattern, settings)
        assert ds.settings == settings

    def test_collect_dataset_reproducible(self, sim, small_pattern, small_space):
        c = NsightCollector(sim)
        a = c.collect_dataset(small_pattern, small_space, n=10, seed=7)
        b = c.collect_dataset(small_pattern, small_space, n=10, seed=7)
        assert a.settings == b.settings

    def test_collect_dataset_device_tag(self, sim, small_pattern, small_space):
        ds = NsightCollector(sim).collect_dataset(
            small_pattern, small_space, n=4, seed=0
        )
        assert ds.device == sim.device.name
