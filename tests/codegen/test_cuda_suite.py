"""Codegen smoke tests across the full Table III suite.

Every suite stencil must yield structurally-sound CUDA for a spread of
optimization configurations — the paper's pipeline generates kernels
for every sampled setting of every stencil.
"""

import numpy as np
import pytest

from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan, build_plan_arrays, plans_from_arrays
from repro.gpusim.device import A100
from repro.space.setting import settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import STENCIL_SUITE


@pytest.mark.parametrize("pattern", STENCIL_SUITE, ids=lambda p: p.name)
class TestSuiteCodegen:
    def test_random_settings_emit_valid_structure(self, pattern):
        space = build_space(pattern, A100)
        rng = np.random.default_rng(0)
        for setting in space.sample(rng, 10):
            src = generate_cuda(build_plan(pattern, setting))
            assert "__global__" in src
            assert f"{pattern.name}_kernel" in src
            assert src.count("{") == src.count("}")
            # Structural markers track the switches.
            assert ("__shared__" in src) == setting.enabled("useShared")
            assert ("__constant__" in src) == setting.enabled("useConstant")
            assert ("stream loop" in src) == setting.enabled("useStreaming")

    def test_launch_bounds_match_block(self, pattern):
        space = build_space(pattern, A100)
        rng = np.random.default_rng(1)
        s = space.random_setting(rng)
        tpb = s["TBx"] * s["TBy"] * s["TBz"]
        assert f"__launch_bounds__({tpb})" in generate_cuda(build_plan(pattern, s))

    def test_batch_plans_emit_the_per_setting_kernels(self, pattern):
        """Kernels from one ``build_plan_arrays`` + ``plans_from_arrays``
        pass (csTuner's codegen phase) equal each setting's own
        ``build_plan`` kernel, string for string."""
        space = build_space(pattern, A100)
        settings = space.sample(np.random.default_rng(2), 60)
        plans = plans_from_arrays(
            pattern, settings, build_plan_arrays(pattern, settings_matrix(settings))
        )
        assert [generate_cuda(plan) for plan in plans] == [
            generate_cuda(build_plan(pattern, s)) for s in settings
        ]
