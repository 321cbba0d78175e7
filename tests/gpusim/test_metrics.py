"""Unit tests for Nsight-style metric derivation."""

import numpy as np

from repro.codegen.plan import build_plan
from repro.gpusim.device import A100
from repro.gpusim.model import (
    METRIC_NAMES,
    compute_occupancy,
    compute_timing,
    compute_traffic,
    derive_metrics,
)
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def metrics_for(pattern, **kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    plan = build_plan(pattern, Setting(vals))
    occ = compute_occupancy(plan, A100)
    traffic = compute_traffic(plan, A100)
    timing = compute_timing(plan, A100, traffic, occ)
    return derive_metrics(plan, A100, occ, traffic, timing)


class TestMetricSet:
    def test_all_names_present(self, small_pattern):
        m = metrics_for(small_pattern)
        assert set(m) == set(METRIC_NAMES)

    def test_rates_in_unit_interval(self, small_pattern, multi_pattern):
        unit_metrics = (
            "achieved_occupancy", "sm_efficiency", "warp_execution_efficiency",
            "flop_dp_efficiency", "l1_hit_rate", "l2_hit_rate", "tex_hit_rate",
            "gld_efficiency", "gst_efficiency", "dram_utilization",
            "stall_memory_dependency", "stall_sync",
        )
        for p in (small_pattern, multi_pattern):
            m = metrics_for(p)
            for name in unit_metrics:
                assert 0.0 <= m[name] <= 1.0, f"{name}={m[name]}"

    def test_registers_match_plan(self, small_pattern):
        m = metrics_for(small_pattern, BMy=2)
        from repro.codegen.registers import estimate_registers
        vals = {name: 1 for name in PARAMETER_ORDER}
        vals.update({"TBx": 32, "TBy": 4, "BMy": 2})
        assert m["registers_per_thread"] == estimate_registers(
            small_pattern, Setting(vals)
        )

    def test_throughputs_positive(self, small_pattern):
        m = metrics_for(small_pattern)
        assert m["dram_read_throughput"] > 0
        assert m["dram_write_throughput"] > 0

    def test_dram_throughput_below_peak(self, small_pattern):
        m = metrics_for(small_pattern)
        total = m["dram_read_throughput"] + m["dram_write_throughput"]
        # Effective traffic can exceed useful bandwidth only via the
        # utilization cap; sanity-bound at 2x peak.
        assert total <= 2 * A100.dram_bandwidth_gbs


class TestCorrelationStructure:
    def test_memory_metrics_track_each_other(self, small_pattern, small_space, sim):
        """L1 and tex hit rates must be strongly correlated (Algorithm 2
        relies on metric families)."""
        rng = np.random.default_rng(3)
        settings = small_space.sample(rng, 40)
        l1, tex = [], []
        for s in settings:
            run = sim.run(small_pattern, s)
            l1.append(run.metrics["l1_hit_rate"])
            tex.append(run.metrics["tex_hit_rate"])
        corr = np.corrcoef(l1, tex)[0, 1]
        assert corr > 0.9
