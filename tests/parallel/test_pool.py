"""Tests for the process-pool experiment orchestrator.

Worker-spawning tests are kept to a minimum — each spawn re-imports the
scientific stack — and everything determinism-critical is also checked
on the cheap in-process path.
"""

import numpy as np
import pytest

from repro.errors import OrchestrationError
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.parallel.pool import Task, WorkerPool, run_tasks
from repro.parallel.warm import get_fleet
from repro.space.setting import Setting
from repro.space.space import build_space
from repro.stencil.suite import get_stencil


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"boom on {x}")


def _eval_times(stencil, n, seed):
    """Measured times for ``n`` sampled settings (exercises the store)."""
    pattern = get_stencil(stencil)
    space = build_space(pattern, A100)
    settings = space.sample(np.random.default_rng(seed), n)
    sim = GpuSimulator(device=A100, seed=seed)
    return [r.time_s for r in sim.run_batch(pattern, settings)]


def _bump_search_counters(rows):
    from repro.core.searchstats import bump

    bump("populations_lowered")
    bump("forest_predict_rows", rows)
    return rows


def _setting_found_in_local_dict(setting, values):
    """True iff a pickled Setting still hashes like a locally built one.

    Python salts ``str.__hash__`` per process, so a Setting whose cached
    hash crossed a spawn boundary unfixed would miss here.
    """
    local = Setting(dict(values))
    return {local: True}.get(setting, False)


class TestInProcess:
    def test_results_in_submission_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(6)]
        assert run_tasks(tasks) == [i * i for i in range(6)]

    def test_empty_task_list(self):
        with WorkerPool() as pool:
            assert pool.map([]) == []

    def test_failure_raises_with_tag(self):
        tasks = [
            Task(fn=_square, args=(1,), tag="ok:1"),
            Task(fn=_fail, args=(2,), tag="bad:2"),
        ]
        with pytest.raises(OrchestrationError, match="bad:2"):
            run_tasks(tasks)

    def test_use_outside_context_rejected(self):
        pool = WorkerPool()
        with pytest.raises(OrchestrationError, match="context"):
            pool.map([Task(fn=_square, args=(1,))])

    def test_stats(self):
        with WorkerPool() as pool:
            pool.map([Task(fn=_square, args=(i,)) for i in range(3)])
        stats = pool.stats()
        assert stats["workers"] == 1
        assert stats["tasks"] == 3
        assert stats["wall_s"] > 0

    def test_search_counters_in_stats(self):
        with WorkerPool() as pool:
            pool.map([Task(fn=_bump_search_counters, args=(25,))])
        stats = pool.stats()
        assert stats["search_populations_lowered"] == 1
        assert stats["search_forest_predict_rows"] == 25
        assert stats["search_sampler_pool_size"] == 0

    def test_cache_counters(self, tmp_path):
        tasks = [
            Task(fn=_eval_times, args=("j3d7pt", 20, 0)),
            Task(fn=_eval_times, args=("cheby", 15, 0)),
            Task(fn=_square, args=(3,)),
        ]
        fields = ("cache_hits", "cache_misses", "cache_puts",
                  "records_loaded", "shards_merged", "chunks")

        with WorkerPool(cache_dir=tmp_path) as cold:
            cold_results = cold.map(tasks)
        # Cold: every evaluation misses and is journaled once; closing
        # the store merges its own shard. In-process maps ship no chunks.
        assert {k: cold.stats()[k] for k in fields} == {
            "cache_hits": 0, "cache_misses": 35, "cache_puts": 35,
            "records_loaded": 0, "shards_merged": 1, "chunks": 0,
        }

        with WorkerPool(cache_dir=tmp_path) as warm:
            warm_results = warm.map(tasks)
        # Warm: the journal replays all 35 records and every lookup hits.
        assert {k: warm.stats()[k] for k in fields} == {
            "cache_hits": 35, "cache_misses": 0, "cache_puts": 0,
            "records_loaded": 35, "shards_merged": 0, "chunks": 0,
        }
        assert warm_results == cold_results

    def test_attaches_to_open_default_store(self, tmp_path):
        from repro.gpusim.diskcache import (
            EvaluationStore,
            get_default_store,
            set_default_store,
        )

        tasks = [Task(fn=_eval_times, args=("j3d7pt", 20, 0))]
        with WorkerPool(cache_dir=tmp_path) as cold:
            cold_results = cold.map(tasks)
        shared = EvaluationStore(tmp_path)  # replays the 20 records
        previous = set_default_store(shared)
        try:
            # Another spelling of the same directory still attaches.
            with WorkerPool(cache_dir=tmp_path / "sub" / "..") as warm:
                warm_results = warm.map(tasks)
                assert get_default_store() is shared
            with WorkerPool(cache_dir=tmp_path) as more:
                more.map([Task(fn=_eval_times, args=("cheby", 15, 0))])
        finally:
            set_default_store(previous)
        assert warm_results == cold_results
        # The store stays open; stats are the pools' own movement.
        assert not shared.closed
        assert {k: warm.stats()[k] for k in ("cache_hits", "records_loaded",
                                             "shards_merged")} == {
            "cache_hits": 20, "records_loaded": 0, "shards_merged": 0,
        }
        assert {k: more.stats()[k] for k in ("cache_puts", "records_loaded",
                                             "shards_merged")} == {
            "cache_puts": 15, "records_loaded": 0, "shards_merged": 1,
        }
        reopened = EvaluationStore(tmp_path)  # the exit merged the shard
        reopened.release()
        assert len(reopened) == 35 and reopened.bad_records == 0
        shared.close()


class TestFailedEntry:
    def test_failed_fleet_configure_restores_default_store(
        self, tmp_path, monkeypatch
    ):
        """A pool whose entry fails must not leave its store installed."""
        from repro.gpusim.diskcache import get_default_store
        from repro.parallel.warm import WarmFleet

        installed = []

        def _refuse(self, *args, **kwargs):
            installed.append(get_default_store())
            raise OrchestrationError("worker refused to configure")

        monkeypatch.setattr(WarmFleet, "configure", _refuse)
        before = get_default_store()
        with pytest.raises(OrchestrationError, match="refused"):
            with WorkerPool(workers=2, cache_dir=tmp_path):
                pass
        assert get_default_store() is before
        # The pool's own store was installed, then closed on the way out.
        assert installed[0] is not before
        assert installed[0]._closed
        # The fleet was handed back, so the next pool can take it.
        assert not get_fleet().busy


class TestAcrossProcesses:
    def test_worker_results_match_in_process(self, tmp_path):
        tasks = [Task(fn=_square, args=(i,)) for i in range(5)] + [
            Task(fn=_eval_times, args=("j3d7pt", 15, 0)),
        ]
        sequential = run_tasks(tasks, workers=1)
        parallel = run_tasks(tasks, workers=2, cache_dir=tmp_path)
        assert parallel == sequential
        # Worker shards were merged into one journal on close.
        assert (tmp_path / "journal.jsonl").exists()
        assert not list(tmp_path.glob("shard-*.jsonl"))

    def test_setting_hash_survives_spawn(self):
        space = build_space(get_stencil("j3d7pt"), A100)
        setting = space.sample(np.random.default_rng(0), 1)[0]
        values = dict(setting)
        found = run_tasks(
            [Task(fn=_setting_found_in_local_dict, args=(setting, values))],
            workers=2,
        )
        assert found == [True]

    def test_worker_failure_surfaces(self):
        with pytest.raises(OrchestrationError, match="bad:7"):
            run_tasks(
                [Task(fn=_fail, args=(7,), tag="bad:7")], workers=2
            )
