"""Plan-vs-source cross-checker tests: honest plans pass, mutated
plans diverge from the recounted source facts with the right rule."""

import dataclasses

import pytest

from repro.analysis.crosscheck import crosscheck_kernel, extract_facts
from repro.analysis.cudalint import parse_kernel
from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan

pytestmark = pytest.mark.analysis


def _rule_ids(diags):
    return {d.rule_id for d in diags}


@pytest.fixture(scope="module")
def sampled(small_pattern, small_space):
    from repro.utils.rng import rng_from_seed

    return small_space.sample(rng_from_seed(7), 12)


class TestHonestPlans:
    def test_generated_kernels_match_their_plans(self, small_pattern, sampled):
        for setting in sampled:
            plan = build_plan(small_pattern, setting)
            source = generate_cuda(build_plan(small_pattern, setting))
            diags = crosscheck_kernel(small_pattern, plan, source)
            assert diags == [], [d.render() for d in diags]


class TestMutatedPlans:
    @pytest.fixture(scope="class")
    def honest(self, small_pattern, sampled):
        setting = sampled[0]
        plan = build_plan(small_pattern, setting)
        source = generate_cuda(build_plan(small_pattern, setting))
        assert crosscheck_kernel(small_pattern, plan, source) == []
        return plan, source

    def test_register_mismatch_plan201(self, small_pattern, honest):
        plan, source = honest
        lied = dataclasses.replace(
            plan, registers_per_thread=plan.registers_per_thread + 7
        )
        ids = _rule_ids(crosscheck_kernel(small_pattern, lied, source))
        assert "PLAN201" in ids

    def test_shared_bytes_mismatch_plan202(self, small_pattern, honest):
        plan, source = honest
        lied = dataclasses.replace(
            plan, shared_memory_per_block=plan.shared_memory_per_block + 1024
        )
        ids = _rule_ids(crosscheck_kernel(small_pattern, lied, source))
        assert "PLAN202" in ids

    def test_launch_bounds_mismatch_plan204(self, small_pattern, honest):
        plan, source = honest
        lied = dataclasses.replace(
            plan, threads_per_block=plan.threads_per_block * 2
        )
        ids = _rule_ids(crosscheck_kernel(small_pattern, lied, source))
        assert "PLAN204" in ids

    def test_points_per_thread_mismatch_plan205(self, small_pattern, honest):
        plan, source = honest
        lied = dataclasses.replace(
            plan, points_per_thread=plan.points_per_thread + 3
        )
        ids = _rule_ids(crosscheck_kernel(small_pattern, lied, source))
        assert "PLAN205" in ids

    def test_truncated_source_fails_tap_contract_plan203(
        self, small_pattern, honest
    ):
        plan, source = honest
        # Drop the accumulation statements: reads-per-point collapses
        # below the (2*order + center) contract for a star stencil.
        lines = [
            line for line in source.splitlines() if "acc +=" not in line
        ]
        ids = _rule_ids(crosscheck_kernel(small_pattern, plan, "\n".join(lines)))
        assert "PLAN203" in ids


class TestFactExtraction:
    def test_facts_reflect_setting(self, small_pattern, sampled):
        setting = sampled[0]
        source = generate_cuda(build_plan(small_pattern, setting))
        facts = extract_facts(parse_kernel(source))
        assert facts.use_shared == (setting["useShared"] == 2)
        assert facts.streaming == (setting["useStreaming"] == 2)
        expected_ppt = (
            setting["UFx"] * setting["UFy"] * setting["UFz"]
            * setting["CMx"] * setting["CMy"] * setting["CMz"]
            * setting["BMx"] * setting["BMy"] * setting["BMz"]
        )
        assert facts.points_per_thread == expected_ppt
