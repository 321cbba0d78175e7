"""Span transport through the worker pool's result channel.

Worker processes cannot mutate the parent's tracer, so their span
buffers travel back in each chunk's delta and are absorbed into the
parent tracer (see ``repro.parallel.warm._run_chunk``). These tests
cover the in-process path (cheap), one real warm-worker run (expensive,
kept short), and the drift fix: per-chunk search deltas must survive a
``reset_search_stats()`` between repetitions.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core.searchstats import reset_search_stats
from repro.parallel.pool import Task, WorkerPool


def _spanful(n):
    """Task that emits one parent span with ``n`` children."""
    with obs.span("task.parent", n=n):
        for i in range(n):
            with obs.span("task.child", i=i):
                pass
    return n


def _bump_repaired(n):
    from repro.core.searchstats import bump

    bump("settings_repaired", n)
    return n


@pytest.fixture
def traced():
    """Tracing on, buffer clean; restores the previous state after."""
    was = obs.enable_tracing()
    obs.get_tracer().clear()
    yield obs.get_tracer()
    obs.get_tracer().clear()
    if not was:
        obs.disable_tracing()


class TestInProcessMerge:
    def test_spans_land_in_parent_tracer(self, traced):
        with WorkerPool(workers=1) as pool:
            pool.map([Task(fn=_spanful, args=(3,), tag="s:0")])
        names = [s.name for s in traced.spans()]
        assert names.count("task.parent") == 1
        assert names.count("task.child") == 3

    def test_parent_links_survive_the_channel(self, traced):
        with WorkerPool(workers=1) as pool:
            pool.map([Task(fn=_spanful, args=(2,))])
        spans = traced.spans()
        parent = next(s for s in spans if s.name == "task.parent")
        children = [s for s in spans if s.name == "task.child"]
        assert all(c.parent_id == parent.span_id for c in children)
        assert all(c.pid == parent.pid for c in children)

    def test_no_spans_recorded_when_tracing_off(self):
        was = obs.disable_tracing()
        obs.get_tracer().clear()
        try:
            with WorkerPool(workers=1) as pool:
                pool.map([Task(fn=_spanful, args=(3,))])
            assert obs.get_tracer().spans() == []
        finally:
            if was:
                obs.enable_tracing()


class TestSearchCounterDrift:
    """Satellite fix: per-chunk deltas make rep-boundary resets harmless."""

    def test_reset_between_reps_does_not_corrupt_totals(self):
        reset_search_stats()
        with WorkerPool(workers=1) as pool:
            pool.map([Task(fn=_bump_repaired, args=(10,))])
            # An in-process repetition boundary resets the globals; the
            # old global-baseline accounting went negative here.
            reset_search_stats()
            pool.map([Task(fn=_bump_repaired, args=(5,))])
        assert pool.stats()["search_settings_repaired"] == 15
        reset_search_stats()

    def test_ambient_bumps_outside_tasks_not_attributed(self):
        reset_search_stats()
        with WorkerPool(workers=1) as pool:
            pool.map([Task(fn=_bump_repaired, args=(4,))])
            _bump_repaired(100)  # outside any task
            pool.map([Task(fn=_bump_repaired, args=(6,))])
        assert pool.stats()["search_settings_repaired"] == 10
        reset_search_stats()


class TestSpawnPoolMerge:
    def test_worker_spans_merge_with_worker_pids(self, traced):
        with WorkerPool(workers=2) as pool:
            pool.map([
                Task(fn=_spanful, args=(2,), tag=f"s:{i}") for i in range(4)
            ])
        spans = traced.spans()
        parents = [s for s in spans if s.name == "task.parent"]
        children = [s for s in spans if s.name == "task.child"]
        assert len(parents) == 4
        assert len(children) == 8
        # Spans were recorded in worker processes, not the parent.
        assert all(s.pid != os.getpid() for s in parents)
        # Parent links are intact per (pid, span_id) within each task.
        index = {(s.pid, s.span_id): s for s in spans}
        for c in children:
            assert index[(c.pid, c.parent_id)].name == "task.parent"
