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

* ``workers>1`` borrows persistent workers from the module-level
  :class:`~repro.parallel.warm.WarmFleet`: processes started once per
  interpreter lifetime, preloaded with the device registry / stencil
  suite / evaluation-store shard, and fed **chunks** of tasks (see
  :func:`plan_chunks`) whose results return as one pickled-once
  zero-copy frame per chunk. Task functions must be module-level
  picklables, like :mod:`repro.experiments.tasks`.
* a pool without warm workers — ``workers=1``, or a pool nested inside
  one that already holds the fleet — runs the whole task list
  in-process as one chunk (no subprocess, no pickling): the reference
  path the parallel results are compared against.
* both paths run tasks through the same chunk runner
  (:func:`repro.parallel.warm._run_chunk`) and fold the same per-chunk
  counter delta back into the pool.
* ``cache_dir`` attaches a persistent
  :class:`~repro.gpusim.diskcache.EvaluationStore`: each warm worker
  writes its own journal shard, which the orchestrating process merges
  eagerly, overlapped with still-running workers. When the process
  default store is already open on the same directory (``repro serve``
  holds one for the daemon's lifetime) the pool attaches to it instead
  of replaying the journal into a store of its own.

Results come back in task-submission order regardless of completion
order, and failures are collected into one
:class:`~repro.errors.OrchestrationError` naming the offending tasks.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.searchstats import COUNTER_NAMES
from repro.errors import OrchestrationError
from repro.gpusim.diskcache import (
    EvaluationStore,
    get_default_store,
    set_default_store,
)
from repro.parallel.warm import (
    STORE_DELTA_KEYS,
    WarmWorker,
    _run_chunk,
    get_fleet,
)

#: Search-layer counter keys (vectorized engine throughput), prefixed in
#: the stats dict to keep them apart from the store counters.
_SEARCH_KEYS = tuple(f"search_{name}" for name in COUNTER_NAMES)

#: Store stats read from the orchestrating store, not from task deltas.
_STORE_BOOKKEEPING_KEYS = ("records_loaded", "bad_records", "shards_merged")

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

    If the process default store is already open on the same resolved
    directory, the pool attaches to it instead: entry only calls its
    stat-guarded :meth:`~EvaluationStore.refresh`, and exit merges this
    pool's shards but leaves the store open and installed. The store's
    bookkeeping stats (``records_loaded``, ``bad_records``,
    ``shards_merged``) are reported as deltas over the pool's lifetime.
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
        self._warm_workers: list[WarmWorker] | None = None
        self._store: EvaluationStore | None = None
        self._owns_store = False
        self._prev_store: EvaluationStore | None = None
        self._store_base: dict[str, int] = {}
        self._entered = False
        self._delta_counts = dict.fromkeys(STORE_DELTA_KEYS + _SEARCH_KEYS, 0)
        self._final_stats: dict[str, int | float] | None = None
        self._t0 = 0.0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> WorkerPool:
        self._t0 = time.perf_counter()
        if self.cache_dir is not None:
            self._open_store(self.cache_dir)
        try:
            if self.workers > 1:
                self._attach_fleet()
        except BaseException:
            # No __exit__ follows a failed entry: undo the store here so
            # it neither leaks as the process default nor stays open.
            self._leave_store()
            self._store, self._store_base = None, {}
            raise
        self._entered = True
        return self

    def _open_store(self, cache_dir: Path) -> None:
        """Attach to the process default store when it is open on
        ``cache_dir``; otherwise open and install a store of our own."""
        shared = get_default_store()
        if (
            shared is not None
            and not shared.closed
            and shared.cache_dir.resolve() == cache_dir.resolve()
        ):
            self._store, self._owns_store = shared, False
            stats = shared.stats()
            self._store_base = {k: stats[k] for k in _STORE_BOOKKEEPING_KEYS}
            shared.refresh()
            return
        self._store, self._owns_store = EvaluationStore(cache_dir), True
        self._store_base = dict.fromkeys(_STORE_BOOKKEEPING_KEYS, 0)
        self._prev_store = set_default_store(self._store)

    def _leave_store(self) -> None:
        """Merge every leftover shard into the journal and publish the
        store's counters; close the store and restore the previous
        default only if this pool opened it."""
        store = self._store
        if store is None:
            return
        if self._owns_store:
            store.close()
            set_default_store(self._prev_store)
        elif not store.closed:
            store.absorb_shards()
            store.publish_stats()

    def _attach_fleet(self) -> None:
        """Borrow and configure warm workers, unless another pool holds
        the fleet (nested orchestration), in which case this pool runs
        its tasks in-process."""
        fleet = get_fleet()
        acquired = fleet.acquire(self.workers)
        if acquired is None:
            return
        try:
            fleet.configure(
                acquired,
                str(self.cache_dir) if self.cache_dir else None,
                obs.tracing(),
                timeout=self.timeout_s,
            )
        except BaseException:
            fleet.release()
            raise
        self._warm_workers = acquired

    def __exit__(self, *exc: object) -> None:
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
        self._leave_store()
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
        units = [(t.fn, t.args, t.kwargs, t.tag) for t in task_list]
        if self._warm_workers is not None:
            results, failures = self._map_warm(task_list, units)
        else:
            results, failures, delta = _run_chunk(units)
            self._absorb_delta(delta)
        self.tasks_run += len(task_list)
        if failures:
            raise OrchestrationError(
                f"{len(failures)}/{len(task_list)} tasks failed:\n"
                + "\n".join(failures)
            )
        return results

    def _absorb_delta(self, delta: dict[str, Any]) -> None:
        """Fold one chunk's delta — store-counter vector, search-counter
        vector, drained spans — into this pool and the local tracer."""
        store_delta = delta.get("store")
        if store_delta is not None:
            for key, value in zip(STORE_DELTA_KEYS, store_delta):
                self._delta_counts[key] += int(value)
        for key, value in zip(_SEARCH_KEYS, delta["search"]):
            self._delta_counts[key] += int(value)
        spans = delta.get("spans")
        if spans:
            obs.get_tracer().absorb(spans)

    def _map_warm(
        self, task_list: list[Task], units: list[tuple[Any, ...]]
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
        chunk_units = [[units[i] for i in chunk] for chunk in chunks]
        self.chunks_run += len(chunks)

        deadline = (
            time.monotonic() + self.timeout_s
            if self.timeout_s is not None else None
        )
        pending: deque[int] = deque(range(len(chunks)))
        idle: list[WarmWorker] = list(workers)
        in_flight: dict[Any, tuple[str, WarmWorker, int]] = {}
        results_by_chunk: dict[int, list[Any]] = {}
        deltas_by_chunk: dict[int, dict[str, Any]] = {}
        failures: list[str] = []

        def _dispatch() -> None:
            while pending and idle:
                worker = idle.pop()
                cid = pending.popleft()
                req_id = fleet.next_request_id()
                fleet.send(worker, ("run", req_id, chunk_units[cid]))
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
                deltas_by_chunk[cid] = delta
                failures.extend(chunk_failures)
                if pending:
                    idle.append(worker)
                    _dispatch()
                else:
                    _retire(worker)

        # Deltas merge in chunk-submission order — the order the
        # in-process path runs the tasks in — so tracer contents are
        # scheduling-independent.
        for cid in sorted(deltas_by_chunk):
            self._absorb_delta(deltas_by_chunk[cid])

        results: list[Any] = []
        if not failures:
            for cid in range(len(chunks)):
                results.extend(results_by_chunk[cid])
        return results, failures

    # -- stats -------------------------------------------------------------

    def _assemble_stats(self) -> dict[str, int | float]:
        # Task-side counters are sums of per-chunk deltas, so ambient
        # counter movement outside tasks — or a reset_search_stats()
        # between repetitions — cannot skew the totals. Journal load
        # and merge bookkeeping comes from the orchestrating store, as
        # its movement since this pool entered.
        store = self._store.stats() if self._store is not None else {}
        base = self._store_base
        return {
            "workers": self.workers,
            "tasks": self.tasks_run,
            "chunks": self.chunks_run,
            "wall_s": time.perf_counter() - self._t0,
            **{f"cache_{k}": self._delta_counts[k] for k in STORE_DELTA_KEYS},
            **{
                k: store.get(k, 0) - base.get(k, 0)
                for k in _STORE_BOOKKEEPING_KEYS
            },
            **{k: self._delta_counts[k] for k in _SEARCH_KEYS},
        }

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
