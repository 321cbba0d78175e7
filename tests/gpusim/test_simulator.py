"""Unit tests for the simulator facade."""

import numpy as np
import pytest

from repro.errors import InvalidSettingError
from repro.gpusim.device import V100
from repro.gpusim.simulator import GpuSimulator
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting


def invalid_setting():
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 1024, "TBy": 4})  # TB product 4096 > 1024
    return Setting(vals)


class TestRun:
    def test_returns_time_and_metrics(self, sim, small_pattern, valid_setting):
        run = sim.run(small_pattern, valid_setting)
        assert run.time_s > 0
        assert run.true_time_s > 0
        assert "achieved_occupancy" in run.metrics
        assert run.stencil == small_pattern.name
        assert run.device == "A100"

    def test_invalid_setting_raises(self, sim, small_pattern):
        with pytest.raises(InvalidSettingError):
            sim.run(small_pattern, invalid_setting())

    def test_true_time_deterministic(self, small_pattern, valid_setting):
        a = GpuSimulator().true_time(small_pattern, valid_setting)
        b = GpuSimulator().true_time(small_pattern, valid_setting)
        assert a == b

    def test_noise_perturbs_measurements(self, small_pattern, valid_setting):
        s = GpuSimulator(noise=0.05)
        times = {s.run(small_pattern, valid_setting).time_s for _ in range(5)}
        assert len(times) > 1

    def test_zero_noise_exact(self, small_pattern, valid_setting):
        s = GpuSimulator(noise=0.0)
        run = s.run(small_pattern, valid_setting)
        assert run.time_s == run.true_time_s

    def test_devices_differ(self, small_pattern, valid_setting):
        a = GpuSimulator().true_time(small_pattern, valid_setting)
        v = GpuSimulator(device=V100).true_time(small_pattern, valid_setting)
        assert a != v


class TestCostAccounting:
    def test_first_run_charges_compile(self, small_pattern, valid_setting):
        s = GpuSimulator(noise=0.0)
        first = s.run(small_pattern, valid_setting)
        again = s.run(small_pattern, valid_setting)
        assert first.tuning_cost_s == pytest.approx(
            s.compile_cost_s + first.true_time_s * s.trials
        )
        assert again.tuning_cost_s == pytest.approx(again.true_time_s * s.trials)

    def test_reset_cost_accounting(self, small_pattern, valid_setting):
        s = GpuSimulator(noise=0.0)
        s.run(small_pattern, valid_setting)
        s.reset_cost_accounting()
        rerun = s.run(small_pattern, valid_setting)
        assert rerun.tuning_cost_s > s.compile_cost_s  # compile charged again

    def test_evaluation_counter(self, small_pattern, valid_setting):
        s = GpuSimulator()
        assert s.evaluations == 0
        s.run(small_pattern, valid_setting)
        s.run(small_pattern, valid_setting)
        assert s.evaluations == 2

    def test_colliding_keys_are_each_charged(self, small_pattern, small_space, rng):
        """Each distinct setting pays one compile, by scalar or batch run."""
        a, b, c, d = small_space.sample(rng, 4, unique=True)
        s = GpuSimulator(noise=0.0)
        fresh = [s.run(small_pattern, a), s.run(small_pattern, b)]
        fresh += s.run_batch(small_pattern, [c, d])
        for run in fresh:
            assert run.tuning_cost_s == run.true_time_s * s.trials + s.compile_cost_s
        for run in s.run_batch(small_pattern, [a, b, c]) + [s.run(small_pattern, d)]:
            assert run.tuning_cost_s == run.true_time_s * s.trials


class TestSingleCallEdges:
    """``run``, ``true_time`` and ``plan`` are each a batch of one."""

    @pytest.mark.parametrize("method", ["run", "true_time", "plan"])
    def test_invalid_counts_one_miss_and_nothing_else(
        self, small_pattern, valid_setting, method
    ):
        s = GpuSimulator()
        s.run(small_pattern, valid_setting)
        before = s.cache_info()
        bad = invalid_setting()
        reason = s.violation(small_pattern, bad)
        with pytest.raises(InvalidSettingError) as exc:
            getattr(s, method)(small_pattern, bad)
        assert str(exc.value) == f"{small_pattern.name}: {reason}"
        assert s.cache_info() == {**before, "misses": before["misses"] + 1}
        assert s.evaluations == 1
        assert len(s._compiled) == 1

    def test_true_time_and_plan_touch_no_cost_accounting(
        self, small_pattern, valid_setting
    ):
        s = GpuSimulator()
        t = s.true_time(small_pattern, valid_setting)
        assert s.plan(small_pattern, valid_setting).threads_per_block >= 1
        assert s.cache_info()["misses"] == 1 and s.cache_info()["hits"] == 1
        assert s.evaluations == 0 and not s._compiled
        assert s.run(small_pattern, valid_setting).true_time_s == t


class TestPlanAccess:
    def test_plan_exposed(self, sim, small_pattern, valid_setting):
        plan = sim.plan(small_pattern, valid_setting)
        assert plan.threads_per_block >= 1

    def test_violation_reported(self, sim, small_pattern):
        assert sim.violation(small_pattern, invalid_setting()) is not None


class TestModelBatch:
    """The pure model pass and the commit it feeds."""

    def _batch(self, small_space):
        good = small_space.sample(np.random.default_rng(4), 8)
        bad = invalid_setting()
        return good, [good[0], bad, good[1], good[0], *good[2:], bad]

    def test_touches_no_state(self, small_pattern, small_space, tmp_path):
        from repro.gpusim.diskcache import EvaluationStore

        good, batch = self._batch(small_space)
        store = EvaluationStore(tmp_path)
        sim = GpuSimulator(seed=1, store=store)
        sim.run_batch(small_pattern, good[:3])  # part of the batch cached
        before = (sim.cache_info(), sim.evaluations, store.counters(),
                  set(sim._compiled), list(sim._cache))
        model = sim.model_batch(small_pattern, batch)
        sim.tuning_costs(small_pattern, batch, model)
        after = (sim.cache_info(), sim.evaluations, store.counters(),
                 set(sim._compiled), list(sim._cache))
        assert after == before
        assert not model.is_valid(batch[1])
        assert all(model.is_valid(s) for s in good)
        store.close()

    def test_commit_with_model_equals_plain_batch(
        self, small_pattern, small_space, tmp_path
    ):
        from repro.gpusim.diskcache import EvaluationStore

        good, batch = self._batch(small_space)
        outcomes = []
        for use_model in (False, True):
            store = EvaluationStore(tmp_path / str(use_model))
            sim = GpuSimulator(seed=1, store=store, true_cache_capacity=4)
            sim.run(small_pattern, good[5])
            model = sim.model_batch(small_pattern, batch) if use_model else None
            costs = (
                sim.tuning_costs(small_pattern, batch, model) if use_model
                else None
            )
            runs = sim.run_batch(
                small_pattern, batch, on_invalid="skip", model=model
            )
            if use_model:
                assert costs == [r and r.tuning_cost_s for r in runs]
            store.close()
            journal = (tmp_path / str(use_model) / "journal.jsonl").read_bytes()
            outcomes.append((
                [r and (r.time_s, r.tuning_cost_s, dict(r.metrics)) for r in runs],
                sim.cache_info(), sim.evaluations, journal,
            ))
        assert outcomes[0] == outcomes[1]

    def test_column_batch_partitions_like_rows(
        self, small_pattern, small_space, tmp_path
    ):
        """One column-priced batch of invalid rows, store hits and misses
        prices each setting as the row op table does alone."""
        from repro.gpusim.diskcache import EvaluationStore
        from repro.gpusim.simulator import COLUMN_BATCH

        good = small_space.sample(np.random.default_rng(6), 2 * COLUMN_BATCH)
        bad = [invalid_setting(), Setting({**invalid_setting().to_dict(), "TBy": 8})]
        store = EvaluationStore(tmp_path)
        GpuSimulator(seed=1, store=store).run_batch(small_pattern, good[1::3])
        batch = [bad[0], *good[:COLUMN_BATCH], bad[1], *good[COLUMN_BATCH:]]
        sim = GpuSimulator(seed=1, store=store)
        model = sim.model_batch(small_pattern, batch)
        alone = [sim.model_batch(small_pattern, [s]) for s in batch]
        tokens = {s.values_tuple() for s in good}
        assert model.invalid == {s.values_tuple() for s in bad}
        assert model.stored == {s.values_tuple() for s in good[1::3]}
        assert len(model.rows) == len(tokens) - len(model.stored)  # the misses
        assert model.stored == set().union(*(m.stored for m in alone))
        for s, row in zip(batch, alone):
            t = s.values_tuple()
            if t not in tokens:
                assert not row.is_valid(s)
                continue
            time, metrics, plan = model.computed[t]
            assert (time, dict(metrics), plan) == (
                row.true_times[t], dict(row.computed[t][1]), row.computed[t][2]
            )
        store.close()

    def test_raise_on_invalid_before_any_commit(self, small_pattern, small_space):
        good, batch = self._batch(small_space)
        sim = GpuSimulator(seed=1)
        model = sim.model_batch(small_pattern, batch)
        with pytest.raises(InvalidSettingError):
            sim.run_batch(small_pattern, batch, model=model)
        assert sim.cache_info()["misses"] == 0
        assert sim.evaluations == 0
