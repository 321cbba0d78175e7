"""Unit tests for the memory-traffic model."""

import pytest

from repro.codegen.plan import build_plan
from repro.gpusim.device import A100, V100
from repro.gpusim.model import compute_traffic
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


def traffic(pattern, device=A100, **kw):
    return compute_traffic(build_plan(pattern, setting(**kw)), device)


class TestCompulsoryFloor:
    def test_reads_at_least_compulsory(self, small_pattern):
        t = traffic(small_pattern)
        assert t.dram_read_bytes >= small_pattern.points() * 8

    def test_writes_cover_outputs(self, small_pattern):
        t = traffic(small_pattern)
        assert t.dram_write_bytes >= small_pattern.points() * 8


class TestSharedMemoryEffect:
    def test_shared_cuts_read_traffic_for_box_with_cubic_tile(self):
        """A 125-tap box stencil staged through a cubic tile beats the
        cache path; flat tiles (huge z-halo) would not — shared memory
        is a *tuning decision*, which is the whole point."""
        from repro.stencil.pattern import StencilPattern, StencilShape

        box = StencilPattern(
            name="box2", grid=(64, 64, 64), order=2, flops=60,
            io_arrays=2, shape=StencilShape.BOX,
        )
        base = traffic(box, useShared=1, TBx=16, TBy=8, TBz=8)
        shared = traffic(box, useShared=2, TBx=16, TBy=8, TBz=8)
        assert shared.dram_read_bytes < base.dram_read_bytes

    def test_flat_tile_makes_shared_counterproductive(self, multi_pattern):
        """With TBz=1 the z-halo dominates the tile: staging costs more
        traffic than the caches already save."""
        base = traffic(multi_pattern, useShared=1)
        shared = traffic(multi_pattern, useShared=2)
        assert shared.dram_read_bytes > base.dram_read_bytes

    def test_shared_traffic_recorded(self, small_pattern):
        assert traffic(small_pattern, useShared=2).shared_bytes > 0
        assert traffic(small_pattern, useShared=1).shared_bytes == 0


class TestCoalescing:
    def test_block_merge_x_hurts(self, small_pattern):
        good = traffic(small_pattern, BMx=1)
        bad = traffic(small_pattern, BMx=4)
        assert bad.gld_efficiency < good.gld_efficiency
        assert bad.dram_read_bytes > good.dram_read_bytes

    def test_cyclic_merge_x_preserves(self, small_pattern):
        base = traffic(small_pattern, CMx=1)
        cm = traffic(small_pattern, CMx=4)
        assert cm.gld_efficiency == base.gld_efficiency

    def test_tiny_tbx_hurts(self, small_pattern):
        wide = traffic(small_pattern, TBx=32, TBy=4)
        narrow = traffic(small_pattern, TBx=1, TBy=32)
        assert narrow.gld_efficiency < wide.gld_efficiency

    def test_sector_floor(self, small_pattern):
        t = traffic(small_pattern, TBx=1, TBy=32, BMx=16)
        assert t.gld_efficiency >= 0.25 * 0.25  # stride x partial sector


class TestCaches:
    def test_hit_rates_in_unit_interval(self, small_pattern, multi_pattern):
        for p in (small_pattern, multi_pattern):
            t = traffic(p)
            assert 0.0 <= t.l1_hit_rate <= 1.0
            assert 0.0 <= t.l2_hit_rate <= 1.0

    def test_higher_order_lower_l1(self, small_pattern, multi_pattern):
        assert traffic(multi_pattern).l1_hit_rate < traffic(small_pattern).l1_hit_rate

    def test_streaming_improves_locality(self, small_pattern):
        base = traffic(small_pattern)
        stream = traffic(
            small_pattern, useStreaming=2, SD=3, SB=2, TBz=1
        )
        assert stream.l1_hit_rate >= base.l1_hit_rate

    def test_smaller_l2_lower_hit(self, small_pattern):
        a = traffic(small_pattern, device=A100)
        v = traffic(small_pattern, device=V100)
        assert v.l2_hit_rate <= a.l2_hit_rate


class TestConstantMemory:
    def test_fitting_coefficients_help(self, small_pattern):
        base = traffic(small_pattern, useConstant=1)
        const = traffic(small_pattern, useConstant=2)
        assert const.dram_read_bytes < base.dram_read_bytes

    def test_overflowing_coefficients_hurt(self):
        from repro.stencil.pattern import StencilPattern

        big = StencilPattern(
            name="bigcoef", grid=(64, 64, 64), order=1, flops=10,
            io_arrays=2, coefficients=128,
        )
        base = compute_traffic(build_plan(big, setting(useConstant=1)), A100)
        const = compute_traffic(build_plan(big, setting(useConstant=2)), A100)
        assert const.dram_read_bytes > base.dram_read_bytes


class TestBankConflicts:
    def test_block_merge_with_shared_conflicts(self, small_pattern):
        t = traffic(small_pattern, useShared=2, BMx=4)
        assert t.bank_conflict_factor > 1.0

    def test_no_conflicts_without_shared(self, small_pattern):
        assert traffic(small_pattern, BMx=4).bank_conflict_factor == 1.0
