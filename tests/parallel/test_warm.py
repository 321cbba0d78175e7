"""Tests for the persistent warm worker fleet.

The warm fleet must give three things at once: real process reuse
(the same worker pids serve consecutive pools), results byte-identical
to a fresh-pool run at any worker count, and a journal that neither
loses nor duplicates records when shards stream through persistent
workers. Process-spawning tests are kept few and small; the chunk
planner and the payload codec are covered purely in-process.
"""

import json

import numpy as np

from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.parallel.comm import decode_payload, encode_payload
from repro.parallel.pool import (
    Task,
    WorkerPool,
    plan_chunks,
    run_tasks,
)
from repro.parallel.warm import get_fleet, shutdown_fleet
from repro.space.space import build_space
from repro.stencil.suite import get_stencil


def _square(x):
    return x * x


def _eval_times(stencil, n, seed):
    """Measured times for ``n`` sampled settings (exercises the store)."""
    pattern = get_stencil(stencil)
    space = build_space(pattern, A100)
    settings = space.sample(np.random.default_rng(seed), n)
    sim = GpuSimulator(device=A100, seed=seed)
    return [r.time_s for r in sim.run_batch(pattern, settings)]


def _journal_keys(cache_dir):
    """Evaluation keys journaled at ``cache_dir``, in file order."""
    path = cache_dir / "journal.jsonl"
    keys = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if "k" in rec:
            keys.append(tuple(rec["k"][0:2]) + (tuple(rec["k"][2]),))
    return keys


class TestPayloadCodec:
    def test_roundtrip_plain_python(self):
        obj = ("chunk", 7, [1, "two", {"three": 3.0}], [], {})
        assert decode_payload(encode_payload(obj)) == obj

    def test_roundtrip_numpy_out_of_band(self):
        arr = np.arange(12, dtype=np.int64).reshape(3, 4)
        obj = {"delta": arr, "nested": [np.float64(1.5), arr[1]]}
        out = decode_payload(encode_payload(obj))
        np.testing.assert_array_equal(out["delta"], arr)
        np.testing.assert_array_equal(out["nested"][1], arr[1])

    def test_decoded_array_aliases_frame(self):
        # Out-of-band buffers must decode without copying: the array's
        # backing memory is the received frame itself.
        arr = np.arange(1024, dtype=np.float64)
        out = decode_payload(encode_payload({"a": arr}))
        assert not out["a"].flags.owndata


class TestChunkPlanning:
    def test_covers_all_indices_in_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(23)]
        chunks = plan_chunks(tasks, workers=3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(23))
        assert all(chunk for chunk in chunks)

    def test_target_chunk_count(self):
        # Target is 4 workers x 4 chunks; uniform hints may close a few
        # chunks early, but the count stays within [workers, target] —
        # enough slack for dynamic balancing, far from per-task IPC.
        tasks = [Task(fn=_square, args=(i,)) for i in range(40)]
        chunks = plan_chunks(tasks, workers=4)
        assert 4 <= len(chunks) <= 16
        assert max(len(c) for c in chunks) <= 40 // 4

    def test_cost_hints_balance_chunks(self):
        # One task carries almost all the cost: it must sit alone in a
        # chunk instead of dragging neighbours along with it.
        tasks = [Task(fn=_square, args=(i,), cost_hint=1.0) for i in range(8)]
        tasks[0] = Task(fn=_square, args=(0,), cost_hint=100.0)
        chunks = plan_chunks(tasks, workers=2, chunks_per_worker=2)
        assert chunks[0] == [0]

    def test_short_lists_degrade_to_singletons(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(3)]
        assert plan_chunks(tasks, workers=4) == [[0], [1], [2]]

    def test_empty(self):
        assert plan_chunks([], workers=4) == []


class TestFleetReuse:
    def test_consecutive_pools_reuse_worker_pids(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(6)]
        expected = [i * i for i in range(6)]

        assert run_tasks(tasks, workers=2) == expected
        first_pids = get_fleet().pids()
        assert len(first_pids) >= 2

        assert run_tasks(tasks, workers=2) == expected
        assert get_fleet().pids() == first_pids

    def test_warm_results_match_fresh_fleet(self, tmp_path):
        tasks = [Task(fn=_square, args=(i,)) for i in range(4)] + [
            Task(fn=_eval_times, args=("j3d7pt", 10, 3)),
        ]
        shutdown_fleet()
        fresh = run_tasks(tasks, workers=2, cache_dir=tmp_path / "a")
        warm = run_tasks(tasks, workers=2, cache_dir=tmp_path / "b")
        reused = run_tasks(tasks, workers=2, cache_dir=tmp_path / "c")
        assert warm == fresh
        assert reused == fresh

    def test_fleet_busy_while_pool_holds_it(self):
        fleet = get_fleet()
        acquired = fleet.acquire(2)
        assert acquired is not None
        try:
            # A second pool cannot take the fleet mid-run...
            assert fleet.acquire(2) is None
        finally:
            fleet.release()
        # ...but after release it is available again.
        again = fleet.acquire(2)
        assert again is not None
        fleet.release()


class TestPersistentShardMerge:
    def test_no_lost_or_duplicate_records_across_runs(self, tmp_path):
        """Two consecutive pools on one cache through persistent workers.

        The cold run journals every evaluation exactly once; the warm
        rerun is pure hits and must not append anything — duplicated
        records would mean a shard got merged twice, lost ones that a
        worker's shard never reached the journal.
        """
        tasks = [
            Task(fn=_eval_times, args=("j3d7pt", 12, seed))
            for seed in range(4)
        ]
        cold = run_tasks(tasks, workers=2, cache_dir=tmp_path)
        keys = _journal_keys(tmp_path)
        assert keys, "cold run journaled nothing"
        assert len(keys) == len(set(keys)), "duplicate journal records"
        assert not list(tmp_path.glob("shard-*.jsonl"))

        # Same fleet, same cache: warm rerun through the *persistent*
        # workers (their in-memory stores refresh from the journal).
        warm = run_tasks(tasks, workers=2, cache_dir=tmp_path)
        assert warm == cold
        assert _journal_keys(tmp_path) == keys
        assert not list(tmp_path.glob("shard-*.jsonl"))

    def test_sequential_reference_identical(self, tmp_path):
        tasks = [
            Task(fn=_eval_times, args=("j3d7pt", 12, seed))
            for seed in range(3)
        ]
        sequential = run_tasks(tasks, workers=1)
        parallel = run_tasks(tasks, workers=2, cache_dir=tmp_path)
        assert parallel == sequential


class TestNestedPool:
    def test_nested_pool_runs_in_process(self, tmp_path):
        """A pool nested inside one that holds the warm fleet gets no
        warm workers, runs its tasks in-process, and returns the warm
        run's results."""
        tasks = [Task(fn=_square, args=(i,)) for i in range(5)] + [
            Task(fn=_eval_times, args=("j3d7pt", 10, 1)),
        ]
        warm = run_tasks(tasks, workers=2, cache_dir=tmp_path / "w")
        with WorkerPool(workers=2) as outer:
            assert outer._warm_workers is not None
            with WorkerPool(workers=2, cache_dir=tmp_path / "n") as inner:
                assert inner._warm_workers is None
                nested = inner.map(tasks)
        assert nested == warm
        assert inner.stats()["chunks"] == 0
        assert inner.stats()["cache_puts"] == 10
