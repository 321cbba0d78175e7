"""Unit tests for the timing model."""

import pytest

from repro.codegen.plan import build_plan
from repro.gpusim.device import A100, V100
from repro.gpusim.model import compute_occupancy, compute_timing, compute_traffic
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


def timing(pattern, device=A100, **kw):
    plan = build_plan(pattern, setting(**kw))
    occ = compute_occupancy(plan, device)
    return compute_timing(plan, device, compute_traffic(plan, device), occ)


class TestRoofline:
    def test_total_at_least_roofline_max(self, small_pattern):
        t = timing(small_pattern)
        assert t.total_s >= max(t.compute_s, t.memory_s)

    def test_low_intensity_is_memory_bound(self, small_pattern):
        assert timing(small_pattern).bound == "memory"

    def test_high_flop_stencil_more_compute_heavy(self, small_pattern, multi_pattern):
        low = timing(small_pattern)
        high = timing(multi_pattern)
        assert (high.compute_s / high.memory_s) > (low.compute_s / low.memory_s)

    def test_v100_slower(self, small_pattern):
        assert timing(small_pattern, device=V100).total_s > timing(
            small_pattern, device=A100
        ).total_s


class TestOverheads:
    def test_launch_overhead_included(self, small_pattern):
        t = timing(small_pattern)
        assert t.launch_s == A100.launch_overhead_s

    def test_sync_cost_with_shared_streaming(self, small_pattern):
        t = timing(small_pattern, useShared=2, useStreaming=2, SD=3, SB=1, TBz=1)
        assert t.sync_s > 0

    def test_prefetch_hides_sync(self, small_pattern):
        base = dict(useShared=2, useStreaming=2, SD=3, SB=1, TBz=1)
        no_pf = timing(small_pattern, **base)
        pf = timing(small_pattern, **base, usePrefetching=2)
        assert pf.sync_s < no_pf.sync_s


class TestParallelism:
    def test_tiny_launch_penalized(self, small_pattern):
        # Extreme merging leaves very few blocks: utilization collapses.
        small = timing(small_pattern, TBx=32, TBy=4)
        starved = timing(small_pattern, TBx=32, TBy=4, UFy=8, UFz=8)
        assert starved.latency_hiding <= small.latency_hiding + 1e-9

    def test_efficiencies_bounded(self, small_pattern, multi_pattern):
        for p in (small_pattern, multi_pattern):
            t = timing(p)
            assert 0.0 < t.compute_efficiency <= 1.0
            assert 0.0 < t.bandwidth_utilization <= 1.0
            assert 0.0 < t.warp_fill <= 1.0
            assert t.waves >= 1

    def test_unlaunchable_plan_rejected(self, multi_pattern):
        # Force shared memory beyond a V100 SM so zero blocks fit.
        s = setting(useShared=2, TBx=32, TBy=8, CMx=4, CMz=8)
        plan = build_plan(multi_pattern, s)
        occ = compute_occupancy(plan, V100)
        if occ.blocks_per_sm == 0:
            with pytest.raises(ValueError):
                compute_timing(plan, V100, compute_traffic(plan, V100), occ)
        else:
            pytest.skip("plan unexpectedly fits")


class TestOptimizationEffects:
    def test_retiming_helps_high_order_compute(self, multi_pattern):
        base = timing(multi_pattern)
        rt = timing(multi_pattern, useRetiming=2)
        assert rt.compute_s < base.compute_s

    def test_unroll_improves_ilp(self):
        """With parallelism saturated (big grid, thousands of blocks)
        the ILP bonus of unrolling shows up as better compute
        efficiency; on starved launches tail effects would mask it."""
        from repro.stencil.pattern import StencilPattern

        big = StencilPattern(
            name="bigilp", grid=(512, 512, 512), order=1, flops=60, io_arrays=2
        )
        base = timing(big, TBx=32, TBy=4)
        unrolled = timing(big, TBx=32, TBy=4, UFx=4)
        assert unrolled.compute_efficiency > base.compute_efficiency
