"""Columnar record path: batch and bulk paths vs their sequential twins.

``GpuSimulator.run_batch`` must be observationally indistinguishable
from a loop of ``run`` calls, and ``Evaluator.evaluate_many`` from a
loop of ``evaluate`` calls: same measured times, tuning costs, metrics,
cache counters, eviction choices, noise streams, journal bytes and GA
trajectories. The absolute values of seeded runs are pinned by the
identity fixtures (``tests/test_identity_fixtures.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.budget import Budget, Evaluator
from repro.errors import InvalidSettingError
from repro.gpusim.device import A100, V100
from repro.gpusim.diskcache import EvaluationStore
from repro.gpusim.records import MetricsTable
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil


def _loop(sim, pattern, settings):
    """What ``run_batch`` must equal: a plain loop of ``run`` calls."""
    return [sim.run(pattern, s) for s in settings]


def _assert_runs_equal(a, b):
    assert a.setting == b.setting
    assert a.time_s == b.time_s
    assert a.true_time_s == b.true_time_s
    assert a.tuning_cost_s == b.tuning_cost_s
    assert dict(a.metrics) == dict(b.metrics)


class TestSimulatorIdentity:
    @pytest.mark.parametrize("device", [A100, V100], ids=["a100", "v100"])
    def test_interleaved_scalar_and_batch(self, device):
        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, device)
        settings = space.sample(np.random.default_rng(11), 80)
        sim = GpuSimulator(device=device, seed=3)
        out = [sim.run(pattern, s) for s in settings[:15]]
        out += sim.run_batch(pattern, settings[:40])
        out += sim.run_batch(pattern, settings)  # mixed warm/cold
        out += sim.run_batch(pattern, settings)  # fully warm
        out += [sim.run(pattern, s) for s in settings[30:45]]
        seq = GpuSimulator(device=device, seed=3)
        ref = _loop(seq, pattern, settings[:15] + settings[:40])
        ref += _loop(seq, pattern, settings + settings + settings[30:45])
        assert len(out) == len(ref)
        for a, b in zip(out, ref):
            _assert_runs_equal(a, b)
        assert sim.cache_info() == seq.cache_info()
        assert sim.evaluations == seq.evaluations

    @pytest.mark.parametrize("capacity", [0, 1, 13])
    def test_bounded_caches_evict_identically(
        self, small_pattern, small_space, rng, capacity
    ):
        settings = small_space.sample(rng, 30, unique=True)
        sim, seq = (
            GpuSimulator(device=A100, seed=0, true_cache_capacity=capacity)
            for _ in range(2)
        )
        sim.run_batch(small_pattern, settings)
        sim.run_batch(small_pattern, settings[5:20])
        _loop(seq, small_pattern, settings + settings[5:20])
        for s in settings[::3]:
            sim.run(small_pattern, s)
            seq.run(small_pattern, s)
        assert sim.cache_info() == seq.cache_info()
        assert list(sim._cache) == list(seq._cache)

    def test_true_time_batch_with_invalid(self, small_pattern, small_space, rng):
        settings = small_space.sample(rng, 10)
        bad = settings[0].replace(TBz=4096)
        batch = settings[:4] + [bad] + settings[4:] + [bad]
        sim = GpuSimulator(device=A100, seed=0)
        times = sim.true_time_batch(small_pattern, batch, invalid="nan")
        seq = GpuSimulator(device=A100, seed=0)
        ref = []
        for s in batch:
            try:
                ref.append(seq.true_time(small_pattern, s))
            except InvalidSettingError:
                ref.append(np.nan)
        np.testing.assert_array_equal(times, np.array(ref))
        assert np.isnan(times[4]) and np.isnan(times[-1])
        assert sim.cache_info() == seq.cache_info()

    def test_mid_batch_eviction_recomputes(self, small_pattern, small_space, rng):
        """A setting cached at probe time but evicted by the commit's
        own inserts must recompute, exactly as a scalar loop would."""
        settings = small_space.sample(rng, 8, unique=True)
        anchor, fresh = settings[0], settings[1:]
        sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=3)
        sim.run(small_pattern, anchor)  # cached, will be evicted
        out = sim.run_batch(small_pattern, fresh + [anchor])
        info = sim.cache_info()
        assert info["misses"] == 9  # 1 scalar + 7 fresh + 1 recompute
        # The scalar-equivalent sequence agrees.
        seq = GpuSimulator(device=A100, seed=0, true_cache_capacity=3)
        seq.run(small_pattern, anchor)
        for a, b in zip(out, _loop(seq, small_pattern, fresh + [anchor])):
            _assert_runs_equal(a, b)
        assert seq.cache_info() == info

    def test_obs_counters_published(self, small_pattern, small_space, rng):
        obs.reset_metrics("sim.")
        settings = small_space.sample(rng, 6, unique=True)
        sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=4)
        sim.run_batch(small_pattern, settings)
        counters = obs.get_registry().counters("sim.")
        assert counters["sim.cache_inserts"] == 6
        assert counters["sim.cache_evictions"] == 2


class TestStoreIdentity:
    def test_journal_bytes_identical(self, small_pattern, small_space, rng, tmp_path):
        settings = small_space.sample(rng, 25)
        journals = {}
        for batched in (False, True):
            d = tmp_path / f"batched-{batched}"
            store = EvaluationStore(d)
            sim = GpuSimulator(device=A100, seed=0, store=store)
            for chunk in (settings[:15], settings[10:20], settings):
                if batched:
                    sim.run_batch(small_pattern, chunk)
                else:
                    _loop(sim, small_pattern, chunk)
            store.close()
            journals[batched] = (d / "journal.jsonl").read_bytes()
        assert journals[False] == journals[True]

    def test_record_batch_bytes_match_sequential(self, tmp_path):
        names = ("occupancy", "dram_bytes", "elapsed_time")
        data = np.array(
            [[0.53125, 1.5e9, 1.25e-3], [0.875, 2e9, 2.5e-3], [1.0, 3e9, 0.01]]
        )
        table = MetricsTable(names, data)
        rows = [(16, 8, 1), (32, 4, 2), (8, 8, 4)]
        times = np.array([1.25e-3, 2.5e-3, 0.01])

        a = EvaluationStore(tmp_path / "seq")
        for vals, t, m in zip(rows, times.tolist(), table.as_dicts()):
            a.record("tok", "st", vals, t, m)
        b = EvaluationStore(tmp_path / "batch")
        b.record_batch("tok", "st", rows, times, table)
        sa = a.release_shard()
        sb = b.release_shard()
        assert open(sa, "rb").read() == open(sb, "rb").read()
        assert a.puts == b.puts == 3

    def test_record_batch_idempotent_per_key(self, tmp_path):
        table = MetricsTable(("m",), np.array([[1.0], [2.0]]))
        store = EvaluationStore(tmp_path)
        store.record("tok", "st", (1,), 0.5, {"m": 1.0})
        store.record_batch("tok", "st", [(1,), (2,)], np.array([0.5, 0.7]), table)
        assert store.puts == 2  # the duplicate key was skipped
        assert store.lookup("tok", "st", (2,)) == (0.7, {"m": 2.0})

    def test_record_batch_nonfinite_falls_back(self, tmp_path):
        table = MetricsTable(("m",), np.array([[np.inf], [2.0]]))
        a = EvaluationStore(tmp_path / "a")
        a.record_batch("tok", "st", [(1,), (2,)], np.array([0.5, 0.7]), table)
        b = EvaluationStore(tmp_path / "b")
        for vals, t, m in zip([(1,), (2,)], [0.5, 0.7], table.as_dicts()):
            b.record("tok", "st", vals, t, m)
        assert open(a.release_shard(), "rb").read() == open(
            b.release_shard(), "rb"
        ).read()


class TestEvaluatorBulkPath:
    def _sequential(self, pattern, batch, **kw):
        ev = Evaluator(GpuSimulator(device=A100, seed=2), pattern,
                       Budget(max_iterations=100), **kw)
        return ev, [ev.evaluate(s) for s in batch]

    def test_matches_sequential_with_duplicates_and_invalid(
        self, small_pattern, small_space, rng
    ):
        settings = small_space.sample(rng, 10)
        bad = settings[0].replace(TBz=4096)
        batch = (
            settings[:3] + [bad] + [settings[1]] + settings[3:]
            + [bad, settings[4]]
        )
        seq, seq_out = self._sequential(small_pattern, batch)
        ev = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                       Budget(max_iterations=100))
        out = ev.evaluate_many(batch)
        assert out == seq_out
        assert ev.cost_s == seq.cost_s
        assert ev.evaluations == seq.evaluations
        assert ev.best_setting == seq.best_setting
        assert ev.trace == seq.trace
        # Bulk mode mirrors sequential *simulator* counters too (every
        # invalid occurrence misses; duplicates stop at the evaluator).
        assert ev.simulator.cache_info() == seq.simulator.cache_info()

    def test_charge_invalid_per_occurrence(self, small_pattern, small_space, rng):
        settings = small_space.sample(rng, 4)
        bad = settings[0].replace(TBz=4096)
        batch = [bad, settings[0], bad, bad]
        seq, seq_out = self._sequential(small_pattern, batch, charge_invalid=True)
        ev = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                       Budget(max_iterations=100), charge_invalid=True)
        out = ev.evaluate_many(batch)
        assert out == seq_out
        assert ev.cost_s == seq.cost_s  # 3x compile cost + 1 evaluation

    def test_exhausted_budget_serves_cache_only(
        self, small_pattern, small_space, rng
    ):
        settings = small_space.sample(rng, 6)
        ev = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                       Budget(max_iterations=1))
        first = ev.evaluate_many(settings[:3])
        ev.end_iteration()
        assert ev.exhausted
        out = ev.evaluate_many(settings)
        assert out[:3] == first
        assert out[3:] == [None, None, None]
        assert ev.evaluations == 3

    def test_cost_budget_uses_replay_path(self, small_pattern, small_space, rng):
        """max_cost_s can exhaust mid-batch: results must match the
        sequential loop exactly, including the cutoff position."""
        settings = small_space.sample(rng, 12)
        probe = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                          Budget(max_iterations=100))
        costs = np.cumsum([
            r and probe.simulator.compile_cost_s for r in probe.evaluate_many(settings)
        ])
        cutoff = float(costs[len(costs) // 2])  # exhausts mid-batch
        seq = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                        Budget(max_cost_s=cutoff))
        seq_out = [seq.evaluate(s) for s in settings]
        ev = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                       Budget(max_cost_s=cutoff))
        out = ev.evaluate_many(settings)
        assert out == seq_out
        assert ev.cost_s == seq.cost_s
        assert None in out  # the budget really did trip mid-batch

    def test_tracing_uses_replay_path(self, small_pattern, small_space, rng):
        settings = small_space.sample(rng, 6)
        seq, seq_out = self._sequential(small_pattern, settings)
        was = obs.enable_tracing()
        try:
            ev = Evaluator(GpuSimulator(device=A100, seed=2), small_pattern,
                           Budget(max_iterations=100))
            out = ev.evaluate_many(settings)
        finally:
            if not was:
                obs.disable_tracing()
        assert out == seq_out
        assert ev.cost_s == seq.cost_s


class TestSearchIdentity:
    def test_ga_trajectory_identical(self, small_pattern, small_space, small_dataset):
        """Tracing must not change the evaluator's path: the GA
        trajectory is the same traced or not."""
        from repro.core.genetic import EvolutionarySearch
        from repro.core.grouping import group_parameters, pairwise_cv
        from repro.core.sampling import SamplingConfig, sample_search_space

        probe_sim = GpuSimulator(device=A100, seed=0)
        cvs = pairwise_cv(
            probe_sim, small_pattern, small_space,
            small_dataset.best().setting, probe_limit=4,
        )
        groups = group_parameters(cvs)
        sampled = sample_search_space(
            small_space, small_dataset, groups,
            SamplingConfig(ratio=0.2, pool_size=200), seed=0,
        )
        results = {}
        for traced in (False, True):
            sim = GpuSimulator(device=A100, seed=0)
            ev = Evaluator(sim, small_pattern, Budget(max_iterations=20))
            es = EvolutionarySearch(
                sampled=sampled, space=small_space, evaluator=ev, seed=0,
            )
            was = obs.enable_tracing() if traced else obs.tracing()
            try:
                es.run()
            finally:
                if traced and not was:
                    obs.disable_tracing()
            res = ev.result("test")
            results[traced] = (
                res.best_setting, res.best_time_s, res.evaluations,
                res.cost_s, res.trace,
            )
        assert results[False] == results[True]
