"""Unit tests for the occupancy calculator."""

import pytest

from repro.codegen.plan import build_plan
from repro.gpusim.device import A100
from repro.gpusim.model import compute_occupancy
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


class TestOccupancy:
    def test_small_block_thread_limited_or_block_limited(self, small_pattern):
        plan = build_plan(small_pattern, setting(TBx=32, TBy=1))
        occ = compute_occupancy(plan, A100)
        # 32-thread blocks: 32 block slots cap resident threads at 1024.
        assert occ.limiter in ("blocks", "registers")
        assert occ.blocks_per_sm <= A100.max_blocks_per_sm

    def test_occupancy_bounds(self, small_pattern, rng, small_space):
        for _ in range(30):
            s = small_space.random_setting(rng)
            occ = compute_occupancy(build_plan(small_pattern, s), A100)
            assert 0.0 <= occ.occupancy <= 1.0
            assert occ.active_warps_per_sm <= A100.max_warps_per_sm

    def test_full_block_occupancy(self, small_pattern):
        plan = build_plan(small_pattern, setting(TBx=32, TBy=32))
        occ = compute_occupancy(plan, A100)
        # 1024-thread blocks, modest registers: two blocks resident.
        assert occ.blocks_per_sm >= 1
        assert occ.occupancy >= 0.5

    def test_shared_memory_limits(self, small_pattern):
        s = setting(useShared=2, TBx=32, TBy=32)
        plan = build_plan(small_pattern, s)
        occ = compute_occupancy(plan, A100)
        smem = plan.shared_memory_per_block
        assert occ.blocks_per_sm <= A100.smem_per_sm // smem + 1

    def test_register_limited(self, multi_pattern):
        s = setting(TBx=32, TBy=8, BMy=2, BMz=2)
        plan = build_plan(multi_pattern, s)
        occ = compute_occupancy(plan, A100)
        if plan.registers_per_thread * plan.threads_per_block * 4 > A100.regs_per_sm:
            assert occ.limiter == "registers"

    def test_warp_rounding(self, small_pattern):
        plan = build_plan(small_pattern, setting(TBx=1, TBy=1))
        occ = compute_occupancy(plan, A100)
        # One-thread blocks still allocate a full warp's registers.
        assert occ.active_warps_per_sm >= occ.blocks_per_sm * 1
