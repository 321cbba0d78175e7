"""Deterministic process-pool experiment orchestration.

The experiment stack above the batch engine was fully serial:
``ExperimentRunner`` walked stencils × devices × tuners × repetitions
one run at a time. Those runs are *independent by construction* — every
work unit builds its own simulator/space/dataset from an explicit seed,
and all cross-run simulator state either resets per run
(:class:`~repro.core.budget.Evaluator` zeroes the evaluation counter
and compile set) or is a pure cache of deterministic values — so they
can fan out across worker processes and come back **bit-identical** to
the sequential order.

:class:`WorkerPool` owns the fan-out:

* ``workers=1`` runs every task in-process (no subprocess, no pickling)
  — the reference path the parallel results are compared against.
* ``workers>1`` borrows persistent
  workers from the module-level :class:`~repro.parallel.warm.WarmFleet`:
  processes spawned once per interpreter lifetime, preloaded with the
  device registry / stencil suite / evaluation-store shard, and fed
  **chunks** of tasks (see :func:`plan_chunks`) whose results return as
  one pickled-once zero-copy frame per chunk. Task functions must be
  module-level picklables, like :mod:`repro.experiments.tasks`.
* when an outer pool already holds the fleet (nested orchestration),
  the inner pool falls back to an ephemeral ``spawn`` pool for its
  entry, fed with a computed chunksize (:func:`legacy_chunksize`).
* ``cache_dir`` attaches a persistent
  :class:`~repro.gpusim.diskcache.EvaluationStore`: each worker writes
  its own journal shard, and the orchestrating process merges shards —
  eagerly, overlapped with still-running workers, on the warm fleet;
  on pool exit otherwise.

Results come back in task-submission order regardless of completion
order, and failures are collected into one
:class:`~repro.errors.OrchestrationError` naming the offending tasks.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.searchstats import COUNTER_NAMES, search_info
from repro.errors import OrchestrationError
from repro.gpusim.diskcache import (
    EvaluationStore,
    get_default_store,
    set_default_store,
)
from repro.parallel.warm import STORE_DELTA_KEYS, WarmWorker, get_fleet

#: Counter keys carried back from workers per task (store deltas).
_DELTA_KEYS = ("hits", "misses", "puts")

#: Search-layer counter keys (vectorized engine throughput), prefixed in
#: the stats dict to keep them apart from the store counters.
_SEARCH_KEYS = tuple(f"search_{name}" for name in COUNTER_NAMES)

#: Chunks handed out per worker: enough slack for dynamic balancing
#: without collapsing back into per-task IPC.
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class Task:
    """One independent work unit: a picklable function and its arguments."""

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    #: Label used in progress/error reporting, e.g. ``"compare:j3d7pt/csTuner/0"``.
    tag: str = ""
    #: Relative cost estimate steering the chunk planner — any positive
    #: scale works; only ratios between tasks in one ``map`` call matter.
    cost_hint: float = 1.0


def legacy_chunksize(n_tasks: int, workers: int) -> int:
    """Chunksize for the ephemeral ``multiprocessing.Pool`` fallback.

    Four chunks per worker amortizes IPC while leaving enough slack for
    the pool's dynamic scheduling to balance uneven task costs.
    """
    return max(1, n_tasks // (max(1, workers) * CHUNKS_PER_WORKER))


def plan_chunks(
    tasks: Sequence[Task],
    workers: int,
    *,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> list[list[int]]:
    """Group task indices into contiguous, cost-balanced chunks.

    Targets ``workers * chunks_per_worker`` chunks, each holding a
    contiguous run of tasks whose summed :attr:`Task.cost_hint` is
    roughly equal — whole experiment batches ship to a worker in one
    message, and contiguity keeps submission-order reassembly trivial.
    Every chunk holds at least one task; short task lists degrade to
    one task per chunk.
    """
    n = len(tasks)
    if n == 0:
        return []
    target = max(1, min(n, max(1, workers) * chunks_per_worker))
    hints = [max(float(t.cost_hint), 1e-9) for t in tasks]
    total = sum(hints)
    budget = total / target
    chunks: list[list[int]] = []
    current: list[int] = []
    acc = 0.0
    for i, hint in enumerate(hints):
        current.append(i)
        acc += hint
        # Close the chunk once it carries its share of the total cost,
        # as long as both more chunks and more tasks remain.
        if acc >= budget and len(chunks) + 1 < target and i + 1 < n:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks


def _worker_init(cache_dir: str | None, trace_enabled: bool = False) -> None:
    """Legacy pool initializer: open this worker's shard of the
    evaluation store and mirror the parent's tracing switch."""
    if cache_dir is not None:
        set_default_store(EvaluationStore(cache_dir))
    if trace_enabled:
        obs.enable_tracing()


def _execute(task: Task) -> tuple[str, Any, dict[str, Any]]:
    """Run one task; report (status, payload, counter deltas).

    The delta dict carries the store counters, the search-layer counter
    deltas and (when tracing is on) this process's drained span buffer —
    worker processes cannot mutate the parent's process globals, so
    their contribution travels with the task result through the one
    existing channel. Search deltas are per-task in *every* mode (the
    parent discards its own global baseline), so totals cannot drift
    when counters are reset between in-process repetitions.
    """
    store = get_default_store()
    before = store.counters() if store is not None else None
    search_before = search_info()
    try:
        result = task.fn(*task.args, **task.kwargs)
    except Exception:
        return ("error", f"{task.tag or task.fn.__name__}:\n"
                         f"{traceback.format_exc()}", {})
    delta: dict[str, Any] = {}
    if store is not None and before is not None:
        store.flush()
        after = store.counters()
        delta = {k: after[k] - before[k] for k in _DELTA_KEYS}
    search_after = search_info()
    for name in COUNTER_NAMES:
        delta[f"search_{name}"] = search_after[name] - search_before[name]
    if obs.tracing():
        delta["spans"] = obs.get_tracer().drain()
    return ("ok", result, delta)


class WorkerPool:
    """Context-managed pool of experiment workers with a shared store.

    Use as::

        with WorkerPool(workers=4, cache_dir="cache/") as pool:
            results = pool.map(tasks)
        print(pool.stats())

    Entering installs the cache directory's store as the process-wide
    default (so in-process tasks and freshly constructed simulators pick
    it up) and attaches warm fleet workers; exiting
    closes the store, merges any remaining worker shards into the
    journal, returns the fleet workers — still alive, still warm — and
    restores the previous default store.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        *,
        timeout_s: float | None = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.timeout_s = timeout_s
        self.tasks_run = 0
        self.chunks_run = 0
        self._pool: Any = None
        self._warm_workers: list[WarmWorker] | None = None
        self._store: EvaluationStore | None = None
        self._prev_store: EvaluationStore | None = None
        self._entered = False
        self._worker_counts = dict.fromkeys(_DELTA_KEYS + _SEARCH_KEYS, 0)
        self._final_stats: dict[str, int | float] | None = None
        self._t0 = 0.0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> WorkerPool:
        self._t0 = time.perf_counter()
        if self.cache_dir is not None:
            self._store = EvaluationStore(self.cache_dir)
            self._prev_store = set_default_store(self._store)
        if self.workers > 1:
            fleet = get_fleet()
            acquired = fleet.acquire(self.workers)
            if acquired is not None:
                self._warm_workers = acquired
                try:
                    fleet.configure(
                        acquired,
                        str(self.cache_dir) if self.cache_dir else None,
                        obs.tracing(),
                        timeout=self.timeout_s,
                    )
                except BaseException:
                    self._warm_workers = None
                    fleet.release()
                    raise
            else:
                # Another pool holds the fleet (nested orchestration):
                # fall back to an ephemeral spawn pool for this entry.
                ctx = mp.get_context("spawn")
                self._pool = ctx.Pool(
                    processes=self.workers,
                    initializer=_worker_init,
                    initargs=(
                        str(self.cache_dir) if self.cache_dir else None,
                        obs.tracing(),
                    ),
                )
        self._entered = True
        return self

    def __exit__(self, *exc: object) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self._warm_workers is not None:
            fleet = get_fleet()
            if fleet.size:  # skip when a worker death already reset it
                try:
                    paths = fleet.sync(
                        self._warm_workers, timeout=self.timeout_s
                    )
                    if self._store is not None:
                        self._store.absorb_shard_paths(paths)
                except OrchestrationError:
                    pass  # close() below still absorbs leftover shards
            self._warm_workers = None
            fleet.release()
        if self._store is not None:
            self._store.close()  # merges every leftover shard into the journal
            set_default_store(self._prev_store)
        self._final_stats = self._assemble_stats()
        self._store = None
        self._entered = False

    # -- execution ---------------------------------------------------------

    def map(self, tasks: Iterable[Task]) -> list[Any]:
        """Run all tasks; return their results in submission order.

        Raises :class:`OrchestrationError` listing every failed task
        (successful results are discarded in that case — a sweep with
        holes in it is not a sweep).
        """
        task_list = list(tasks)
        if not task_list:
            return []
        if not self._entered:
            raise OrchestrationError("WorkerPool used outside its context")
        if self._warm_workers is not None:
            results, failures = self._map_warm(task_list)
            self.tasks_run += len(task_list)
            if failures:
                raise OrchestrationError(
                    f"{len(failures)}/{len(task_list)} tasks failed:\n"
                    + "\n".join(failures)
                )
            return results
        if self._pool is None:
            outcomes = [_execute(t) for t in task_list]
        else:
            async_result = self._pool.map_async(
                _execute,
                task_list,
                chunksize=legacy_chunksize(len(task_list), self.workers),
            )
            outcomes = async_result.get(self.timeout_s)
        self.tasks_run += len(task_list)

        results: list[Any] = []
        failures: list[str] = []
        tracer = obs.get_tracer()
        for status, payload, delta in outcomes:
            if status == "ok":
                results.append(payload)
                # Search-layer counters are per-task deltas in every
                # mode; store counters are carried over only from
                # genuine workers (in-process tasks already wrote to
                # the shared store, whose stats() is added on exit).
                for k in _SEARCH_KEYS:
                    self._worker_counts[k] += delta.get(k, 0)
                if self._pool is not None:
                    for k in _DELTA_KEYS:
                        self._worker_counts[k] += delta.get(k, 0)
                spans = delta.get("spans")
                if spans:
                    tracer.absorb(spans)
            else:
                failures.append(payload)
        if failures:
            raise OrchestrationError(
                f"{len(failures)}/{len(task_list)} tasks failed:\n"
                + "\n".join(failures)
            )
        return results

    def _map_warm(
        self, task_list: list[Task]
    ) -> tuple[list[Any], list[str]]:
        """Chunked dynamic dispatch over the warm fleet.

        The scheduler keeps every worker busy while the parent-side
        work — decoding result frames, counter accounting, shard
        merging — overlaps with evaluation still in flight: as soon as
        a worker runs out of chunks it is told to flush its store
        shard, and that shard is merged into the journal while the
        remaining workers keep computing.
        """
        fleet = get_fleet()
        assert self._warm_workers is not None
        workers = self._warm_workers
        chunks = plan_chunks(task_list, len(workers))
        units = [
            [(task_list[i].fn, task_list[i].args, task_list[i].kwargs,
              task_list[i].tag) for i in chunk]
            for chunk in chunks
        ]
        self.chunks_run += len(chunks)

        deadline = (
            time.monotonic() + self.timeout_s
            if self.timeout_s is not None else None
        )
        pending: deque[int] = deque(range(len(chunks)))
        idle: list[WarmWorker] = list(workers)
        in_flight: dict[Any, tuple[str, WarmWorker, int]] = {}
        results_by_chunk: dict[int, list[Any]] = {}
        spans_by_chunk: dict[int, list] = {}
        failures: list[str] = []

        def _dispatch() -> None:
            while pending and idle:
                worker = idle.pop()
                cid = pending.popleft()
                req_id = fleet.next_request_id()
                fleet.send(worker, ("run", req_id, units[cid]))
                in_flight[worker.conn] = ("chunk", worker, cid)

        def _retire(worker: WarmWorker) -> None:
            """No more chunks for this worker: flush its shard now and
            merge it while the others are still evaluating."""
            if self._store is None:
                return
            req_id = fleet.next_request_id()
            fleet.send(worker, ("sync", req_id))
            in_flight[worker.conn] = ("sync", worker, -1)

        _dispatch()
        while in_flight:
            if deadline is not None and time.monotonic() > deadline:
                fleet.shutdown()
                raise OrchestrationError(
                    f"warm pool timed out after {self.timeout_s}s with "
                    f"{len(pending) + len(in_flight)} chunks outstanding"
                )
            ready = mp_connection.wait(
                list(in_flight),
                timeout=None if deadline is None
                else max(0.0, deadline - time.monotonic()),
            )
            for conn in ready:
                kind, worker, cid = in_flight.pop(conn)
                msg = fleet.recv(worker)
                if msg[0] == "error":
                    fleet.shutdown()
                    raise OrchestrationError(
                        f"warm worker pid={worker.pid} failed:\n{msg[2]}"
                    )
                if kind == "sync":
                    if msg[0] == "synced" and msg[2] and self._store is not None:
                        self._store.absorb_shard_paths([msg[2]])
                    continue
                _, _req, chunk_results, chunk_failures, delta = msg
                results_by_chunk[cid] = chunk_results
                failures.extend(chunk_failures)
                store_delta = delta.get("store")
                if store_delta is not None:
                    for key, value in zip(STORE_DELTA_KEYS, store_delta):
                        self._worker_counts[key] += int(value)
                search_delta = delta.get("search")
                if search_delta is not None:
                    for name, value in zip(COUNTER_NAMES, search_delta):
                        self._worker_counts[f"search_{name}"] += int(value)
                spans = delta.get("spans")
                if spans:
                    spans_by_chunk[cid] = spans
                if pending:
                    idle.append(worker)
                    _dispatch()
                else:
                    _retire(worker)

        # Spans merge in chunk-submission order — the same order the
        # spawn-pool fallback absorbs them in — so tracer contents
        # are scheduling-independent.
        tracer = obs.get_tracer()
        for cid in sorted(spans_by_chunk):
            tracer.absorb(spans_by_chunk[cid])

        results: list[Any] = []
        if not failures:
            for cid in range(len(chunks)):
                results.extend(results_by_chunk[cid])
        return results, failures

    # -- stats -------------------------------------------------------------

    def _assemble_stats(self) -> dict[str, int | float]:
        stats: dict[str, int | float] = {
            "workers": self.workers,
            "tasks": self.tasks_run,
            "chunks": self.chunks_run,
            "wall_s": time.perf_counter() - self._t0,
            "cache_hits": self._worker_counts["hits"],
            "cache_misses": self._worker_counts["misses"],
            "cache_puts": self._worker_counts["puts"],
            "records_loaded": 0,
            "bad_records": 0,
            "shards_merged": 0,
        }
        if self._store is not None:
            s = self._store.stats()
            stats["cache_hits"] += s["hits"]
            stats["cache_misses"] += s["misses"]
            stats["cache_puts"] += s["puts"]
            stats["records_loaded"] = s["records_loaded"]
            stats["bad_records"] = s["bad_records"]
            stats["shards_merged"] = s["shards_merged"]
        # Search-layer counters: the sum of per-task deltas. Ambient
        # counter movement outside tasks — or a reset_search_stats()
        # between repetitions — cannot skew the totals.
        for key in _SEARCH_KEYS:
            stats[key] = self._worker_counts[key]
        return stats

    def stats(self) -> dict[str, int | float]:
        """Aggregated orchestration counters (final after the pool exits)."""
        if self._final_stats is not None:
            return dict(self._final_stats)
        return self._assemble_stats()


def run_tasks(
    tasks: Sequence[Task],
    *,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    timeout_s: float | None = None,
) -> list[Any]:
    """One-shot convenience wrapper: open a pool, map, close it."""
    with WorkerPool(workers, cache_dir, timeout_s=timeout_s) as pool:
        return pool.map(tasks)
