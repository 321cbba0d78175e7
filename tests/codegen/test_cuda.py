"""Unit tests for CUDA source emission."""

from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


class TestStructure:
    def test_kernel_signature(self, small_pattern):
        src = generate_cuda(build_plan(small_pattern, setting()))
        assert "__global__" in src
        assert f"{small_pattern.name}_kernel" in src
        assert "__launch_bounds__(128)" in src

    def test_argument_counts(self, multi_pattern):
        src = generate_cuda(build_plan(multi_pattern, setting()))
        for i in range(multi_pattern.inputs):
            assert f"in{i}" in src
        for i in range(multi_pattern.outputs):
            assert f"out{i}" in src

    def test_shared_memory_markers(self, small_pattern):
        on = generate_cuda(build_plan(small_pattern, setting(useShared=2)))
        off = generate_cuda(build_plan(small_pattern, setting(useShared=1)))
        assert "__shared__" in on and "__syncthreads" in on
        assert "__shared__" not in off and "__syncthreads" not in off

    def test_constant_memory_marker(self, small_pattern):
        on = generate_cuda(build_plan(small_pattern, setting(useConstant=2)))
        off = generate_cuda(build_plan(small_pattern, setting(useConstant=1)))
        assert "__constant__" in on
        assert "__constant__" not in off

    def test_unroll_pragma(self, small_pattern):
        src = generate_cuda(build_plan(small_pattern, setting(UFy=4)))
        assert "#pragma unroll 4" in src

    def test_merge_loops(self, small_pattern):
        src = generate_cuda(build_plan(small_pattern, setting(BMy=2, CMz=4)))
        assert "block merge" in src
        assert "cyclic merge" in src

    def test_streaming_loop(self, small_pattern):
        s = setting(useStreaming=2, SD=3, SB=2, TBz=1)
        src = generate_cuda(build_plan(small_pattern, s))
        assert "stream loop" in src
        assert "2.5-D streaming" in src

    def test_prefetch_buffer(self, small_pattern):
        s = setting(useStreaming=2, SD=3, SB=2, TBz=1, usePrefetching=2)
        src = generate_cuda(build_plan(small_pattern, s))
        assert "prefetch" in src

    def test_retiming_accumulation(self, small_pattern):
        src = generate_cuda(build_plan(small_pattern, setting(useRetiming=2)))
        assert "retimed" in src

    def test_deterministic(self, small_pattern):
        s = setting(UFx=2, useShared=2)
        assert generate_cuda(build_plan(small_pattern, s)) == generate_cuda(build_plan(small_pattern, s))

    def test_distinct_settings_distinct_sources(self, small_pattern):
        a = generate_cuda(build_plan(small_pattern, setting(TBx=32)))
        b = generate_cuda(build_plan(small_pattern, setting(TBx=64)))
        assert a != b

    def test_order_taps_present(self, multi_pattern):
        src = generate_cuda(build_plan(multi_pattern, setting()))
        # order-3 stencil touches idx +- 3
        assert "idx - 3" in src and "idx + 3" in src
