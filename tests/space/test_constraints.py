"""Unit tests for the explicit constraints of Section IV-B."""

import pytest

from repro.codegen.plan import resource_violation
from repro.gpusim.device import A100
from repro.space.constraints import canonicalize_values, explicit_violation
from repro.space.setting import Setting
from repro.stencil.pattern import StencilPattern


@pytest.fixture(scope="module")
def pattern():
    return StencilPattern(
        name="cst", grid=(64, 64, 64), order=1, flops=10, io_arrays=2
    )


def base_values(**kw):
    vals = {
        "TBx": 32, "TBy": 2, "TBz": 1,
        "useShared": 1, "useConstant": 1,
        "useStreaming": 1, "SD": 1, "SB": 1,
        "UFx": 1, "UFy": 1, "UFz": 1,
        "CMx": 1, "CMy": 1, "CMz": 1,
        "BMx": 1, "BMy": 1, "BMz": 1,
        "useRetiming": 1, "usePrefetching": 1,
    }
    vals.update(kw)
    return vals


class TestExplicitViolation:
    def test_valid_baseline(self, pattern):
        assert explicit_violation(pattern, base_values()) is None

    def test_tb_budget(self, pattern):
        v = base_values(TBx=64, TBy=32, TBz=1)
        assert "thread block" in explicit_violation(pattern, v)

    def test_tb_budget_boundary_ok(self, pattern):
        v = base_values(TBx=32, TBy=32, TBz=1)
        assert explicit_violation(pattern, v) is None

    def test_sd_requires_streaming(self, pattern):
        v = base_values(SD=2)
        assert "SD" in explicit_violation(pattern, v)

    def test_sb_requires_streaming(self, pattern):
        v = base_values(SB=4)
        assert "SB" in explicit_violation(pattern, v)

    def test_prefetch_requires_streaming(self, pattern):
        v = base_values(usePrefetching=2)
        assert "prefetching" in explicit_violation(pattern, v)

    def test_sb_bounded_by_extent(self, pattern):
        v = base_values(useStreaming=2, SD=3, SB=128, TBz=1)
        assert "exceeds streaming dimension" in explicit_violation(pattern, v)

    def test_streaming_requires_tb1_along_sd(self, pattern):
        v = base_values(useStreaming=2, SD=3, SB=2, TBz=2)
        assert "TB=1 along SD" in explicit_violation(pattern, v)

    def test_concurrent_streaming_bounds_uf(self, pattern):
        v = base_values(useStreaming=2, SD=3, SB=2, TBz=1, UFz=4)
        assert "UF_SD<=SB" in explicit_violation(pattern, v)

    def test_plain_streaming_allows_uf(self, pattern):
        # SB == 1 is not *concurrent* streaming: no UF bound.
        v = base_values(useStreaming=2, SD=3, SB=1, TBz=1, UFz=4)
        assert explicit_violation(pattern, v) is None

    def test_work_tile_exceeds_extent(self, pattern):
        v = base_values(TBx=32, UFx=2, CMx=2, BMx=1)
        # 32*2*2 = 128 > 64
        assert "work tile" in explicit_violation(pattern, v)

    def test_streaming_tile_uses_stream_extent(self, pattern):
        # SD=3 with SB=16: extent along z becomes 4; tile of 8 violates.
        v = base_values(useStreaming=2, SD=3, SB=16, TBz=1, CMz=8)
        assert "work tile" in explicit_violation(pattern, v)


#: One setting per explicit rule, in check order, with its exact reason.
EXPLICIT_REASONS = {
    "tb_limit": (dict(TBx=64, TBy=32), "thread block size 2048 exceeds 1024"),
    "sd_gate": (dict(SD=2), "SD is only valid when streaming is enabled"),
    "sb_gate": (dict(SB=4), "SB is only valid when streaming is enabled"),
    "prefetch_gate": (dict(usePrefetching=2), "prefetching requires streaming"),
    "stream_sd": (
        dict(useStreaming=2, SD=4, SB=2),
        "streaming dimension SD=4 is not 1, 2 or 3",
    ),
    "sb_extent": (
        dict(useStreaming=2, SD=3, SB=128),
        "SB=128 exceeds streaming dimension extent 64",
    ),
    "stream_tb": (
        dict(useStreaming=2, SD=3, SB=2, TBz=2),
        "2.5-D streaming requires TB=1 along SD (got 2)",
    ),
    "stream_uf": (
        dict(useStreaming=2, SD=3, SB=2, UFz=4),
        "concurrent streaming requires UF_SD<=SB (4>2)",
    ),
    "tile_fit_x": (
        dict(TBx=32, UFx=2, CMx=2),
        "work tile 128 along dimension 1 exceeds extent 64",
    ),
    "tile_fit_y": (
        dict(TBy=16, BMy=8),
        "work tile 128 along dimension 2 exceeds extent 64",
    ),
    "tile_fit_z": (
        dict(useStreaming=2, SD=3, SB=16, CMz=8),
        "work tile 8 along dimension 3 exceeds extent 4",
    ),
}

#: One explicit-valid setting per resource rule (A100), in check order.
RESOURCE_REASONS = {
    "regs_spill": (
        dict(TBx=1, TBy=1, UFx=2, UFy=4, UFz=8, CMy=2, CMz=2),
        "register spill: 793 regs/thread exceeds 255",
    ),
    "regs_block": (
        dict(TBx=32, TBy=32, UFy=2, CMz=8),
        "block needs 74752 registers, SM has 65536",
    ),
    "smem_block": (
        dict(useShared=2, TBx=32, TBy=16, CMx=2, CMz=16),
        "shared memory 171072 B/block exceeds 166912 B",
    ),
}


class TestReasons:
    @pytest.mark.parametrize("rule", list(EXPLICIT_REASONS))
    def test_explicit_reason(self, pattern, rule):
        updates, reason = EXPLICIT_REASONS[rule]
        assert explicit_violation(pattern, base_values(**updates)) == reason

    @pytest.mark.parametrize("rule", list(RESOURCE_REASONS))
    def test_resource_reason(self, pattern, rule):
        updates, reason = RESOURCE_REASONS[rule]
        setting = Setting(base_values(**updates))
        assert explicit_violation(pattern, setting) is None
        assert resource_violation(pattern, setting, A100) == reason


class TestCanonicalize:
    def test_disables_gated_params(self, pattern):
        v = base_values(useStreaming=1, SD=3, SB=8, usePrefetching=2)
        out = canonicalize_values(pattern, v)
        assert out["SD"] == 1 and out["SB"] == 1 and out["usePrefetching"] == 1

    def test_streaming_pins_tb_and_clips(self, pattern):
        v = base_values(useStreaming=2, SD=3, SB=128, TBz=4, UFz=8)
        out = canonicalize_values(pattern, v)
        assert out["SB"] == 64  # clipped to extent
        assert out["TBz"] == 1
        assert out["UFz"] <= out["SB"]

    def test_leaves_free_choices_alone(self, pattern):
        v = base_values(useShared=2, TBx=16)
        out = canonicalize_values(pattern, v)
        assert out["useShared"] == 2 and out["TBx"] == 16
