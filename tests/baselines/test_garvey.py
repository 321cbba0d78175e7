"""Unit tests for the Garvey baseline."""

import numpy as np
import pytest

from repro import obs
from repro.baselines import GarveyTuner
from repro.baselines.garvey import DIMENSION_GROUPS, MEMORY_PARAMS
from repro.core import Budget
from repro.errors import DatasetError
from repro.gpusim.simulator import GpuSimulator
from repro.ml.forest import RandomForestRegressor


class TestStructure:
    def test_dimension_groups_cover_non_memory_params(self):
        from repro.space.parameters import PARAMETER_ORDER

        flat = {p for g in DIMENSION_GROUPS for p in g}
        assert flat | set(MEMORY_PARAMS) == set(PARAMETER_ORDER)

    def test_sampling_ratio_validation(self):
        with pytest.raises(ValueError):
            GarveyTuner(GpuSimulator(), sampling_ratio=0.0)


class TestMemoryPrediction:
    def test_predicts_a_switch_pair(self, small_dataset):
        tuner = GarveyTuner(GpuSimulator(noise=0.0), seed=0)
        memory = tuner.predict_memory_type(
            small_dataset, np.random.default_rng(0)
        )
        assert set(memory) == set(MEMORY_PARAMS)
        assert all(v in (1, 2) for v in memory.values())


class TestSearch:
    def test_requires_dataset(self, small_pattern, small_space):
        tuner = GarveyTuner(GpuSimulator(noise=0.0))
        with pytest.raises(DatasetError):
            tuner.tune(
                small_pattern, Budget(max_iterations=3), space=small_space
            )

    def test_runs_with_dataset(self, small_pattern, small_space, small_dataset):
        tuner = GarveyTuner(
            GpuSimulator(noise=0.0), seed=0, pool_size=200
        )
        res = tuner.tune(
            small_pattern,
            Budget(max_iterations=20),
            space=small_space,
            dataset=small_dataset,
        )
        assert res.best_setting is not None
        assert res.meta["memory_type"]
        assert res.meta["sampled_size"] == 20  # 10% of 200

    def test_memory_choice_pinned_in_result(
        self, small_pattern, small_space, small_dataset
    ):
        tuner = GarveyTuner(GpuSimulator(noise=0.0), seed=0, pool_size=200)
        res = tuner.tune(
            small_pattern,
            Budget(max_iterations=50),
            space=small_space,
            dataset=small_dataset,
        )
        memory = res.meta["memory_type"]
        # repair_full may flip gated params, but the direct switches
        # should normally match the forest's choice.
        assert res.best_setting["useConstant"] == memory["useConstant"]


class TestTracing:
    def test_forest_fit_traced_without_changing_the_tune(
        self, small_pattern, small_space, small_dataset, monkeypatch
    ):
        forests = []
        fit = RandomForestRegressor.fit

        def recording(self, X, y):
            forests.append(self)
            return fit(self, X, y)

        monkeypatch.setattr(RandomForestRegressor, "fit", recording)

        def tune():
            tuner = GarveyTuner(GpuSimulator(noise=0.0), seed=0, pool_size=200)
            return tuner.tune(small_pattern, Budget(max_iterations=20),
                              space=small_space, dataset=small_dataset)

        plain = tune()
        tracer = obs.get_tracer()
        tracer.clear()
        was_on = obs.enable_tracing()
        try:
            traced = tune()
        finally:
            if not was_on:
                obs.disable_tracing()
        spans = tracer.spans()
        tracer.clear()
        forest = [s for s in spans if s.name == "phase.forest"]
        assert len(forest) == 1
        assert forest[0].attrs == {"trees": 32, "rows": len(small_dataset)}
        parent = {s.span_id: s for s in spans}[forest[0].parent_id]
        assert parent.name == "phase.search"
        assert traced.best_setting == plain.best_setting
        assert traced.meta["memory_type"] == plain.meta["memory_type"]
        first, second = (f.trees_ for f in forests)
        for a, b in zip(first, second, strict=True):
            for name in ("feature", "threshold", "left", "right", "prediction"):
                assert np.array_equal(
                    getattr(a._arrays, name), getattr(b._arrays, name)
                )
