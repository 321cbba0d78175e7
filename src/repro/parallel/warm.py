"""Persistent warm worker fleet for experiment orchestration.

A fresh process pool per :class:`~repro.parallel.pool.WorkerPool` entry
would re-import the scientific stack, re-open the evaluation store and
re-build every per-task fixture, then throw all of it away on exit.
This module keeps a **fleet of long-lived worker processes** alive
across pool entries (and across whole ``ExperimentRunner``
invocations), so that cost is paid once per process lifetime:

* Workers are started lazily from a ``forkserver`` context when the
  platform offers one (``spawn`` otherwise — both give each worker a
  pristine interpreter, the property the determinism contract needs).
* On (re-)configuration each worker preloads the static experiment
  state — device registry, the full stencil suite — and attaches its
  private :class:`~repro.gpusim.diskcache.EvaluationStore` shard. A
  worker re-attached to a cache directory it already holds in memory
  only replays journal records it has not seen
  (:meth:`~repro.gpusim.diskcache.EvaluationStore.refresh`).
* Work arrives in **chunks** (whole task batches, see
  :func:`repro.parallel.pool.plan_chunks`), and each chunk's results
  travel back as one :func:`~repro.parallel.comm.encode_payload` frame:
  pickled once, NumPy blocks out-of-band, one counter-delta vector per
  chunk instead of one Python dict per task.
* At sync points a worker flushes and *closes* its shard and reports
  the path, so the orchestrating process can merge it into the journal
  while other workers are still evaluating.

The chunk runner :func:`_run_chunk` is the one place that calls a
task's function: warm workers run it per chunk, and a pool without
warm workers runs its whole task list through it in-process.

The fleet is a module-level singleton: every warm ``WorkerPool`` that
asks for ``n`` workers reuses the first ``n`` fleet processes. Only one
pool may hold the fleet at a time; a nested pool runs its tasks
in-process. ``atexit`` tears the fleet down.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass
from typing import Any

from repro.errors import OrchestrationError
from repro.parallel.comm import decode_payload, encode_payload

#: Store counter keys carried in each chunk delta, in vector order.
STORE_DELTA_KEYS: tuple[str, ...] = ("hits", "misses", "puts")


#: Modules the forkserver imports once, so every forked worker inherits
#: the scientific stack instead of re-importing it.
_FORKSERVER_PRELOAD = (
    "repro.parallel.warm",
    "repro.gpusim.simulator",
    "repro.stencil.suite",
    "numpy",
    "scipy.optimize",
)


def _pick_context() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    name = "forkserver" if "forkserver" in methods else "spawn"
    ctx = mp.get_context(name)
    if name == "forkserver":
        try:
            ctx.set_forkserver_preload(list(_FORKSERVER_PRELOAD))
        except Exception:  # preloading is an optimization, never fatal
            pass
    return ctx


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_PRELOADED = False


def _preload_static_state() -> None:
    """Warm the module-level caches every experiment task touches.

    Importing the simulator stack and materializing the stencil suite
    here moves that cost out of the first task and makes it a one-time
    charge per worker lifetime.
    """
    global _PRELOADED
    if _PRELOADED:
        return
    from repro.gpusim import device as _device  # noqa: F401  (registry import)
    from repro.stencil import suite as _suite

    for name in _suite.suite_names():
        _suite.get_stencil(name)
    _PRELOADED = True


def _configure_worker(
    store: Any, store_dir: str | None, cache_dir: str | None, trace: bool
) -> tuple[Any, str | None]:
    from repro import obs
    from repro.gpusim.diskcache import EvaluationStore, set_default_store

    _preload_static_state()
    if trace:
        obs.enable_tracing()
        obs.get_tracer().clear()  # start each run with an empty buffer,
        # exactly like a freshly spawned worker would
    else:
        obs.disable_tracing()
    if cache_dir is None:
        if store is not None:
            store.release()
            set_default_store(None)
        return None, None
    if store is None or store_dir != cache_dir:
        if store is not None:
            store.release()
        store = EvaluationStore(cache_dir)
        set_default_store(store)
        return store, cache_dir
    store.refresh()
    set_default_store(store)
    return store, cache_dir


def _run_chunk(
    units: list[tuple[Any, tuple, dict, str]],
) -> tuple[list[Any], list[str], dict[str, Any]]:
    """Execute one chunk of task units; return (results, failures, delta).

    Runs in a warm worker for each chunk, and in the orchestrating
    process for a pool without warm workers. The delta carries *one*
    store-counter vector and *one* search-counter vector for the whole
    chunk (plus the drained span buffer when tracing), measured against
    this process's default store and counters — a worker cannot mutate
    the parent's process globals, so its contribution travels back
    with the chunk result.
    """
    import numpy as np

    from repro import obs
    from repro.core.searchstats import COUNTER_NAMES, search_info
    from repro.gpusim.diskcache import get_default_store

    store = get_default_store()
    before = store.counters() if store is not None else None
    search_before = search_info()
    results: list[Any] = []
    failures: list[str] = []
    for fn, args, kwargs, tag in units:
        try:
            results.append(fn(*args, **kwargs))
        except Exception:
            results.append(None)
            failures.append(
                f"{tag or getattr(fn, '__name__', repr(fn))}:\n"
                f"{traceback.format_exc()}"
            )
    delta: dict[str, Any] = {}
    if store is not None and before is not None:
        after = store.counters()
        delta["store"] = np.asarray(
            [after[k] - before[k] for k in STORE_DELTA_KEYS], dtype=np.int64
        )
    search_after = search_info()
    delta["search"] = np.asarray(
        [search_after[n] - search_before[n] for n in COUNTER_NAMES],
        dtype=np.int64,
    )
    if obs.tracing():
        delta["spans"] = obs.get_tracer().drain()
    return results, failures, delta


def _worker_main(conn: Any) -> None:
    """Long-lived worker loop: configure / run / sync / stop."""
    store: Any = None
    store_dir: str | None = None
    try:
        while True:
            try:
                msg = decode_payload(conn.recv_bytes())
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "stop":
                break
            try:
                if op == "configure":
                    _, req_id, cache_dir, trace = msg
                    store, store_dir = _configure_worker(
                        store, store_dir, cache_dir, trace
                    )
                    reply = ("ok", req_id, os.getpid())
                elif op == "run":
                    _, req_id, units = msg
                    results, failures, delta = _run_chunk(units)
                    reply = ("chunk", req_id, results, failures, delta)
                elif op == "sync":
                    _, req_id = msg
                    path = store.release_shard() if store is not None else None
                    reply = ("synced", req_id, path)
                else:  # unknown op: surface instead of hanging the parent
                    reply = ("error", msg[1] if len(msg) > 1 else -1,
                             f"unknown op {op!r}")
            except Exception:
                reply = ("error", msg[1] if len(msg) > 1 else -1,
                         traceback.format_exc())
            try:
                conn.send_bytes(encode_payload(reply))
            except (BrokenPipeError, OSError):
                break
    finally:
        if store is not None:
            store.release()
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class WarmWorker:
    """Parent-side handle on one fleet process."""

    proc: Any
    conn: Any

    @property
    def pid(self) -> int | None:
        return self.proc.pid


class WarmFleet:
    """The module-level fleet of persistent workers.

    ``acquire(n)`` hands out the first ``n`` workers (growing the fleet
    if needed) to exactly one pool at a time; ``release()`` returns
    them without stopping the processes, so the next pool — in this
    run or the next ``ExperimentRunner`` invocation — starts warm.
    """

    def __init__(self) -> None:
        self._workers: list[WarmWorker] = []
        self._ctx: mp.context.BaseContext | None = None
        self._busy = False
        self._req_id = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def busy(self) -> bool:
        return self._busy

    def pids(self) -> list[int | None]:
        return [w.pid for w in self._workers]

    def ensure(self, n: int) -> None:
        """Grow the fleet to at least ``n`` live workers."""
        if self._ctx is None:
            self._ctx = _pick_context()
        self._workers = [w for w in self._workers if w.proc.is_alive()]
        while len(self._workers) < n:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._workers.append(WarmWorker(proc, parent_conn))

    def acquire(self, n: int) -> list[WarmWorker] | None:
        """First ``n`` workers, or ``None`` if another pool holds the fleet."""
        if self._busy:
            return None
        self.ensure(n)
        self._busy = True
        return self._workers[:n]

    def release(self) -> None:
        self._busy = False

    # -- control messages --------------------------------------------------

    def next_request_id(self) -> int:
        self._req_id += 1
        return self._req_id

    def recv(self, worker: WarmWorker, timeout: float | None = None) -> Any:
        """One reply from ``worker``; fleet-wide shutdown on a dead pipe."""
        pid = worker.pid
        try:
            if timeout is not None and not worker.conn.poll(timeout):
                raise OrchestrationError(
                    f"warm worker pid={pid} timed out after {timeout}s"
                )
            return decode_payload(worker.conn.recv_bytes())
        except (EOFError, OSError) as exc:
            self.shutdown()
            raise OrchestrationError(
                f"warm worker pid={pid} died: {exc!r}"
            ) from exc

    def send(self, worker: WarmWorker, message: tuple[Any, ...]) -> None:
        pid = worker.pid
        try:
            worker.conn.send_bytes(encode_payload(message))
        except (BrokenPipeError, OSError) as exc:
            self.shutdown()
            raise OrchestrationError(
                f"warm worker pid={pid} is gone: {exc!r}"
            ) from exc

    def configure(
        self,
        workers: list[WarmWorker],
        cache_dir: str | None,
        trace: bool,
        *,
        timeout: float | None = None,
    ) -> None:
        """Broadcast (re-)configuration and wait for every ack."""
        req_id = self.next_request_id()
        for w in workers:
            self.send(w, ("configure", req_id, cache_dir, trace))
        for w in workers:
            msg = self.recv(w, timeout)
            if msg[0] == "error":
                raise OrchestrationError(
                    f"warm worker pid={w.pid} failed to configure:\n{msg[2]}"
                )
            if msg[0] != "ok" or msg[1] != req_id:
                self.shutdown()
                raise OrchestrationError(
                    f"warm worker pid={w.pid} out of protocol sync "
                    f"(got {msg[0]!r} for request {msg[1]!r})"
                )

    def sync(
        self,
        workers: list[WarmWorker],
        *,
        timeout: float | None = None,
    ) -> list[str]:
        """Flush + close every worker's shard; return the shard paths."""
        req_id = self.next_request_id()
        for w in workers:
            self.send(w, ("sync", req_id))
        paths: list[str] = []
        for w in workers:
            msg = self.recv(w, timeout)
            if msg[0] == "synced" and msg[2]:
                paths.append(msg[2])
        return paths

    def shutdown(self) -> None:
        """Stop every worker process and reset the fleet."""
        for w in self._workers:
            try:
                w.conn.send_bytes(encode_payload(("stop",)))
            except (BrokenPipeError, OSError, ValueError):
                pass
        for w in self._workers:
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join()
            try:
                w.conn.close()
            except OSError:
                pass
            w.proc.close()
        self._workers = []
        self._busy = False


_FLEET = WarmFleet()


def get_fleet() -> WarmFleet:
    """The process-wide warm fleet (spawned lazily, reused until exit)."""
    return _FLEET


def shutdown_fleet() -> None:
    """Tear the fleet down (tests, or an explicit cold restart)."""
    _FLEET.shutdown()


atexit.register(shutdown_fleet)
