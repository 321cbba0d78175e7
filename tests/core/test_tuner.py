"""Integration tests for the CsTuner facade."""

import pytest

from repro.core import Budget, CsTuner, CsTunerConfig
from repro.core.sampling import SamplingConfig
from repro.core.genetic import GAConfig
from repro.gpusim.simulator import GpuSimulator


@pytest.fixture(scope="module")
def fast_config():
    return CsTunerConfig(
        dataset_size=40,
        probe_limit=4,
        sampling=SamplingConfig(ratio=0.15, pool_size=200),
        ga=GAConfig(max_group_generations=5),
        seed=0,
    )


@pytest.fixture(scope="module")
def tuned(request, fast_config):
    sim = GpuSimulator(noise=0.0)
    pattern = request.getfixturevalue("small_pattern")
    space = request.getfixturevalue("small_space")
    tuner = CsTuner(sim, fast_config)
    dataset = tuner.collect_dataset(pattern, space)
    pre = tuner.preprocess(pattern, space, dataset)
    result = tuner.tune(
        pattern, Budget(max_iterations=25), space=space, preprocessed=pre
    )
    return dataset, pre, result


class TestPipeline:
    def test_result_beats_dataset_best(self, tuned):
        dataset, _, result = tuned
        assert result.best_time_s <= dataset.best().time_s

    def test_groups_cover_all_parameters(self, tuned):
        _, pre, _ = tuned
        from repro.space.parameters import PARAMETER_ORDER

        flat = sorted(p for g in pre.groups for p in g)
        assert flat == sorted(PARAMETER_ORDER)

    def test_phase_times_recorded(self, tuned):
        _, pre, result = tuned
        for phase in ("grouping", "sampling", "codegen"):
            assert result.phase_seconds[phase] > 0
        assert result.phase_seconds["search"] > 0

    def test_kernels_generated_for_sampled_space(self, tuned):
        _, pre, _ = tuned
        assert len(pre.kernels) == len(pre.sampled)
        assert all("__global__" in src for src in pre.kernels.values())

    def test_meta_records_pipeline_facts(self, tuned):
        _, pre, result = tuned
        assert result.meta["sampled_size"] == len(pre.sampled)
        assert result.meta["representative_metrics"]
        assert result.tuner == "csTuner"

    def test_trace_not_empty(self, tuned):
        _, _, result = tuned
        assert result.trace
        assert result.evaluations > 0


class TestConfig:
    def test_with_ratio(self):
        cfg = CsTunerConfig().with_ratio(0.25)
        assert cfg.sampling.ratio == 0.25
        assert CsTunerConfig().sampling.ratio == 0.10  # original untouched

    def test_defaults_match_paper(self):
        cfg = CsTunerConfig()
        assert cfg.dataset_size == 128
        assert cfg.ga.subpopulations == 2
        assert cfg.ga.population == 16


class TestEndToEndWithoutPrep:
    def test_tune_collects_and_preprocesses(self, small_pattern, small_space, fast_config):
        sim = GpuSimulator(noise=0.0)
        tuner = CsTuner(sim, fast_config)
        result = tuner.tune(
            small_pattern, Budget(max_iterations=8), space=small_space
        )
        assert result.best_setting is not None
        assert result.best_time_s < float("inf")


class TestGroupingSpan:
    def test_span_reports_sweep_size(self, small_pattern, small_space, fast_config):
        from repro import obs

        def preprocess(traced: bool):
            tuner = CsTuner(GpuSimulator(noise=0.0), fast_config)
            dataset = tuner.collect_dataset(small_pattern, small_space)
            tracer = obs.get_tracer()
            was = obs.enable_tracing() if traced else obs.tracing()
            tracer.clear()
            try:
                pre = tuner.preprocess(small_pattern, small_space, dataset)
            finally:
                if traced and not was:
                    obs.disable_tracing()
            spans = [s for s in tracer.spans() if s.name == "phase.grouping"]
            tracer.clear()
            return pre, spans

        plain, _ = preprocess(traced=False)
        traced, spans = preprocess(traced=True)
        assert traced.groups == plain.groups
        assert traced.sampled.settings == plain.sampled.settings
        (span,) = spans
        assert 0 < span.attrs["feasible"] <= span.attrs["candidates"]


def test_preprocess_kernels_are_the_per_setting_kernels(
    sim, small_pattern, small_space, small_dataset
):
    """The codegen phase's batch plans emit, setting by setting, the
    kernel ``build_plan`` + ``generate_cuda`` emits."""
    from repro.codegen.cuda import generate_cuda
    from repro.codegen.plan import build_plan

    pre = CsTuner(sim, CsTunerConfig(seed=0)).preprocess(
        small_pattern, small_space, small_dataset
    )
    assert pre.kernels == {
        i: generate_cuda(build_plan(small_pattern, s))
        for i, s in enumerate(pre.sampled.settings)
    }
