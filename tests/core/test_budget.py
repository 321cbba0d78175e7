"""Unit tests for budgets and the shared evaluator."""

import numpy as np
import pytest

from repro.core.budget import Budget, Evaluator
from repro.gpusim.simulator import GpuSimulator
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def invalid_setting():
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 1024, "TBy": 4})
    return Setting(vals)


class TestBudget:
    def test_needs_some_limit(self):
        with pytest.raises(ValueError):
            Budget()

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_iterations=0)
        with pytest.raises(ValueError):
            Budget(max_cost_s=0)

    def test_both_limits_allowed(self):
        b = Budget(max_iterations=5, max_cost_s=10.0)
        assert b.max_iterations == 5


class TestEvaluator:
    def make(self, small_pattern, **kw):
        sim = GpuSimulator(noise=0.0)
        budget = kw.pop("budget", Budget(max_iterations=100))
        return Evaluator(sim, small_pattern, budget, **kw)

    def test_evaluate_returns_time(self, small_pattern, valid_setting):
        ev = self.make(small_pattern)
        t = ev.evaluate(valid_setting)
        assert t is not None and t > 0
        assert ev.evaluations == 1
        assert ev.best_setting == valid_setting

    def test_cache_free_and_stable(self, small_pattern, valid_setting):
        ev = self.make(small_pattern)
        t1 = ev.evaluate(valid_setting)
        cost = ev.cost_s
        t2 = ev.evaluate(valid_setting)
        assert t1 == t2
        assert ev.cost_s == cost  # cached evaluation is free
        assert ev.evaluations == 1

    def test_invalid_setting_returns_none(self, small_pattern):
        ev = self.make(small_pattern)
        assert ev.evaluate(invalid_setting()) is None
        assert ev.cost_s == 0.0

    def test_invalid_charged_when_requested(self, small_pattern):
        ev = self.make(small_pattern, charge_invalid=True)
        ev.evaluate(invalid_setting())
        assert ev.cost_s == ev.simulator.compile_cost_s

    def test_iteration_budget(self, small_pattern, valid_setting):
        ev = self.make(small_pattern, budget=Budget(max_iterations=2))
        assert not ev.exhausted
        ev.end_iteration()
        ev.end_iteration()
        assert ev.exhausted
        assert ev.evaluate(valid_setting) is None

    def test_cost_budget(self, small_pattern, small_space, rng):
        ev = self.make(small_pattern, budget=Budget(max_cost_s=0.6))
        count = 0
        while not ev.exhausted and count < 100:
            ev.evaluate(small_space.random_setting(rng))
            count += 1
        assert ev.exhausted
        assert ev.cost_s >= 0.6

    def test_trace_monotone_best(self, small_pattern, small_space, rng):
        ev = self.make(small_pattern)
        for _ in range(20):
            ev.evaluate(small_space.random_setting(rng))
        ev.end_iteration()
        bests = [pt.best_time_s for pt in ev.trace]
        assert bests == sorted(bests, reverse=True)

    def test_result_assembly(self, small_pattern, valid_setting):
        ev = self.make(small_pattern)
        ev.evaluate(valid_setting)
        ev.end_iteration()
        res = ev.result("X", phase_seconds={"search": 1.0}, meta={"k": 1})
        assert res.tuner == "X"
        assert res.best_setting == valid_setting
        assert res.iterations == 1
        assert res.phase_seconds["search"] == 1.0
        assert res.meta["k"] == 1


def _logged(sim: GpuSimulator) -> list[Setting]:
    """Log every setting ``sim`` is asked to measure, in call order."""
    calls: list[Setting] = []
    run, run_batch = sim.run, sim.run_batch

    def logged_run(pattern, setting, *a, **k):
        calls.append(setting)
        return run(pattern, setting, *a, **k)

    def logged_batch(pattern, settings, *a, **k):
        calls.extend(settings)
        return run_batch(pattern, settings, *a, **k)

    sim.run, sim.run_batch = logged_run, logged_batch
    return calls


class TestTracingKeepsThePath:
    """Tracing must not change which code path runs or what it finds."""

    def _tune(self, tuner, small_pattern, small_space, small_dataset, traced):
        from dataclasses import replace

        from repro import obs
        from repro.baselines import OpenTunerGA
        from repro.core.tuner import CsTuner, CsTunerConfig

        sim = GpuSimulator(seed=1)
        calls = _logged(sim)
        if tuner == "OpenTuner":
            run = lambda: OpenTunerGA(sim, seed=1).tune(  # noqa: E731
                small_pattern, Budget(max_cost_s=15.0), space=small_space
            )
        else:
            config = CsTunerConfig(dataset_size=24, probe_limit=3, seed=1)
            run = lambda: CsTuner(sim, config).tune(  # noqa: E731
                small_pattern, Budget(max_cost_s=15.0), space=small_space,
                dataset=small_dataset,
            )
        tracer = obs.get_tracer()
        was = obs.enable_tracing() if traced else obs.tracing()
        tracer.clear()
        try:
            res = run()
        finally:
            if traced and not was:
                obs.disable_tracing()
        spans = [s for s in tracer.spans() if s.name == "phase.measurement"]
        tracer.clear()
        return replace(res, phase_seconds={}), calls, spans

    @pytest.mark.parametrize("tuner", ["OpenTuner", "csTuner"])
    def test_traced_run_is_identical(
        self, tuner, small_pattern, small_space, small_dataset
    ):
        plain, plain_calls, _ = self._tune(
            tuner, small_pattern, small_space, small_dataset, traced=False
        )
        traced, traced_calls, spans = self._tune(
            tuner, small_pattern, small_space, small_dataset, traced=True
        )
        assert traced == plain
        assert traced_calls == plain_calls
        assert plain.cost_s >= 15.0  # the cost budget really ran out
        batches = [s for s in spans if s.attrs["n"] > 1]
        assert batches, "batched evaluation emits one span per batch"
        for s in batches:
            assert {"n", "cached", "admitted"} <= set(s.attrs)
            assert s.attrs["cached"] + s.attrs["admitted"] <= s.attrs["n"]
        assert sum(s.attrs["admitted"] for s in batches) <= len(traced_calls)


class TestBulkPathJournal:
    """A cost budget cuts the batch before anything past it is journaled."""

    def _journal(self, tmp_path, bulk):
        from repro.gpusim.device import A100
        from repro.gpusim.diskcache import EvaluationStore
        from repro.space.space import build_space
        from repro.stencil.suite import get_stencil

        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, A100)
        settings = space.sample(np.random.default_rng(0), 64)
        cache_dir = tmp_path / ("bulk" if bulk else "seq")
        store = EvaluationStore(cache_dir)
        ev = Evaluator(GpuSimulator(device=A100, seed=0, store=store), pattern,
                       Budget(max_cost_s=3.0))
        if bulk:
            out = ev.evaluate_many(settings)
        else:
            out = [ev.evaluate(s) for s in settings]
        store.close()
        return (cache_dir / "journal.jsonl").read_bytes(), out, ev.cost_s

    def test_journal_matches_sequential_loop(self, tmp_path):
        seq_bytes, seq_out, seq_cost = self._journal(tmp_path, bulk=False)
        bulk_bytes, bulk_out, bulk_cost = self._journal(tmp_path, bulk=True)
        assert (bulk_out, bulk_cost) == (seq_out, seq_cost)
        assert None in bulk_out  # the budget ran out mid-batch
        assert bulk_bytes == seq_bytes
        measured = sum(t is not None for t in seq_out)
        assert bulk_bytes.count(b"\n") == 1 + measured  # header + committed
