"""CUDA linter tests: clean kernels pass, seeded-broken kernels are
caught with the right (distinct) rule IDs."""

import pytest

from repro.analysis.cudalint import (
    lint_kernel,
    parse_kernel,
    required_tile_elems,
)
from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan
from repro.space.setting import Setting

pytestmark = pytest.mark.analysis


@pytest.fixture(scope="module")
def shared_setting(small_space):
    """A valid shared+constant+streaming+retiming setting (64^3 grid)."""
    setting = Setting({
        "TBx": 2, "TBy": 64, "TBz": 1,
        "useShared": 2, "useConstant": 2, "useStreaming": 2,
        "SD": 3, "SB": 16,
        "UFx": 16, "UFy": 1, "UFz": 2,
        "CMx": 2, "CMy": 1, "CMz": 1,
        "BMx": 1, "BMy": 1, "BMz": 1,
        "useRetiming": 2, "usePrefetching": 1,
    })
    assert small_space.is_valid(setting)
    return setting


@pytest.fixture(scope="module")
def shared_source(small_pattern, shared_setting):
    return generate_cuda(build_plan(small_pattern, shared_setting))


def _rule_ids(diags):
    return {d.rule_id for d in diags}


class TestCleanKernels:
    def test_generated_kernel_lints_clean(
        self, small_pattern, shared_setting, shared_source
    ):
        assert lint_kernel(small_pattern, shared_setting, shared_source) == []

    def test_sampled_kernels_lint_clean(self, small_pattern, small_space, rng):
        for setting in small_space.sample(rng, 20):
            source = generate_cuda(build_plan(small_pattern, setting))
            diags = lint_kernel(small_pattern, setting, source)
            assert diags == [], [d.render() for d in diags]


class TestBrokenKernels:
    def test_sync_in_divergent_branch_cuda101(
        self, small_pattern, shared_setting, shared_source
    ):
        # Move the barrier under a tile-edge conditional.
        assert "__syncthreads();" in shared_source
        broken = shared_source.replace(
            "__syncthreads();",
            "if (base_x < 4) {\n      __syncthreads();\n    }",
            1,
        )
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA101" in ids

    def test_missing_sync_cuda102(
        self, small_pattern, shared_setting, shared_source
    ):
        lines = [
            line for line in shared_source.splitlines()
            if "__syncthreads" not in line
        ]
        broken = "\n".join(lines)
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA102" in ids

    def test_undersized_tile_cuda103(
        self, small_pattern, shared_setting, shared_source
    ):
        parsed = parse_kernel(shared_source)
        (elems, _), = (v for v in parsed.shared_arrays.values())
        assert elems >= required_tile_elems(small_pattern, shared_setting)
        broken = shared_source.replace(f"tile[{elems}]", "tile[8]")
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA103" in ids

    def test_constant_index_out_of_bounds_cuda104(
        self, small_pattern, shared_setting, shared_source
    ):
        broken = shared_source.replace(
            "out0[idx] = acc;", "out0[idx] = acc + tile[999999];"
        )
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA104" in ids

    def test_undeclared_identifier_cuda105(
        self, small_pattern, shared_setting, shared_source
    ):
        broken = shared_source.replace(
            "out0[idx] = acc;", "out0[idx] = acc + phantom_reg;"
        )
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA105" in ids

    def test_unbalanced_braces_cuda106(
        self, small_pattern, shared_setting, shared_source
    ):
        broken = shared_source.rstrip()
        assert broken.endswith("}")
        broken = broken[:-1]
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA106" in ids

    def test_missing_launch_bounds_cuda107(
        self, small_pattern, shared_setting, shared_source
    ):
        parsed = parse_kernel(shared_source)
        broken = shared_source.replace(
            f" __launch_bounds__({parsed.launch_bounds})", ""
        )
        ids = _rule_ids(lint_kernel(small_pattern, shared_setting, broken))
        assert "CUDA107" in ids

    def test_failure_classes_map_to_distinct_rules(
        self, small_pattern, shared_setting, shared_source
    ):
        # The acceptance contract: each seeded failure class gets its
        # own rule ID, so CI output pinpoints the breakage kind.
        sync_broken = "\n".join(
            line for line in shared_source.splitlines()
            if "__syncthreads" not in line
        )
        parsed = parse_kernel(shared_source)
        (elems, _), = (v for v in parsed.shared_arrays.values())
        tile_broken = shared_source.replace(f"tile[{elems}]", "tile[8]")
        ids_sync = _rule_ids(lint_kernel(small_pattern, shared_setting, sync_broken))
        ids_tile = _rule_ids(lint_kernel(small_pattern, shared_setting, tile_broken))
        assert ids_sync and ids_tile and ids_sync.isdisjoint(ids_tile)


class TestParser:
    def test_parse_recovers_structure(self, shared_source):
        parsed = parse_kernel(shared_source)
        assert parsed.kernel_name == "test3d"
        assert parsed.launch_bounds == 128
        assert parsed.params == ["in0", "out0"]
        assert "tile" in parsed.shared_arrays
        assert "coeff" in parsed.constant_arrays
        assert parsed.stream_loop is not None
        assert parsed.stream_loop.bound == 2
        assert parsed.brace_balance == 0
        assert "retimed" in parsed.markers
        assert "stream-dim:z" in parsed.markers
