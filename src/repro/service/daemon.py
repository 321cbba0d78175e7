"""``repro serve`` — the tuning-as-a-service HTTP daemon.

A stdlib :class:`~http.server.ThreadingHTTPServer` (no new
dependencies) exposing a small JSON API over the job queue:

================================  =========================================
``GET  /healthz``                 liveness + queue depths + fleet pids
``POST /jobs``                    submit ``{"kind", "params", "key"?}``
``GET  /jobs``                    list job summaries (``?state=`` filter)
``GET  /jobs/<id>``               full job snapshot
``GET  /jobs/<id>/result``        result payload + artifact listing
``POST /jobs/<id>/cancel``        cancel (immediate/cooperative)
================================  =========================================

Status codes follow the obvious contract: 201 on a newly created job,
200 on an idempotent re-submit (matching ``key``), 400 on a spec the
validator rejects, 404 for unknown ids/paths, 409 for illegal
transitions (cancelling a terminal job, asking for the result of a job
that is not ``done``).

The daemon process owns one :class:`~repro.service.queue.JobQueue`,
one :class:`~repro.service.scheduler.Scheduler` thread, with
``cache_dir`` one :class:`~repro.gpusim.diskcache.EvaluationStore`
(opened at :meth:`ServiceDaemon.start`, installed as the process
default store so every job's pool attaches to it instead of replaying
the journal, closed at :meth:`ServiceDaemon.stop`) and — through the
executor — the process-wide :class:`~repro.parallel.warm.WarmFleet`.
On bind it writes ``daemon.json`` (host, actual port, pid) into the
state directory so clients started with ``--state-dir`` can discover
an ephemeral port. HTTP access logs append to ``service.log`` in the
state directory instead of stderr.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from repro import obs
from repro._version import __version__
from repro.gpusim.diskcache import (
    EvaluationStore,
    get_default_store,
    set_default_store,
)
from repro.service.executor import ExecutionContext
from repro.service.jobs import (
    JobSpecError,
    JobState,
    TransitionError,
)
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.utils.journal import rewrite

#: Discovery file written next to the queue journal.
ENDPOINT_FILE = "daemon.json"

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)(/result|/cancel)?$")


class ServiceDaemon:
    """One daemon instance: queue + scheduler + HTTP server."""

    def __init__(
        self,
        state_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        results_db: str | Path | None = None,
        db_fastpath: bool = True,
        max_retries: int = 2,
        backoff_s: float = 0.5,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.state_dir)
        self.ctx = ExecutionContext(
            jobs_root=self.state_dir / "jobs",
            workers=max(1, int(workers)),
            cache_dir=Path(cache_dir) if cache_dir is not None else None,
            results_db=Path(results_db) if results_db is not None else None,
            db_fastpath=db_fastpath,
        )
        self.scheduler = Scheduler(
            self.queue, self.ctx,
            SchedulerConfig(max_retries=max_retries, backoff_s=backoff_s),
        )
        self._store: EvaluationStore | None = None
        self._prev_store: EvaluationStore | None = None
        self._t0 = time.monotonic()
        self._log_lock = threading.Lock()
        self.server = ThreadingHTTPServer(
            (host, port), _make_handler(self)
        )
        self.server.daemon_threads = True
        self.host, self.port = self.server.server_address[:2]
        self._server_thread: threading.Thread | None = None
        self._write_endpoint_file()

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _write_endpoint_file(self) -> None:
        payload = {
            "host": self.host, "port": self.port,
            "pid": os.getpid(), "url": self.url,
        }
        rewrite(
            self.state_dir / ENDPOINT_FILE, json.dumps(payload, sort_keys=True) + "\n"
        )

    def start(self) -> None:
        """Open the evaluation store; run scheduler + HTTP server on
        background threads."""
        if self.ctx.cache_dir is not None and self._store is None:
            self._store = EvaluationStore(self.ctx.cache_dir)
            self._prev_store = set_default_store(self._store)
        self.scheduler.start()
        if self._server_thread is None:
            self._server_thread = threading.Thread(
                target=self.server.serve_forever,
                name="repro-service-http", daemon=True,
            )
            self._server_thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, stop scheduling, close.

        Must not be called from a request-handler or scheduler thread.
        An in-flight job past the timeout stays ``running`` in the
        journal; the next daemon on this state dir requeues it. Closing
        the evaluation store merges every shard into its journal.
        """
        self.server.shutdown()
        self.server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=timeout_s)
            self._server_thread = None
        self.scheduler.stop(timeout_s=timeout_s)
        if self._store is not None:
            if get_default_store() is self._store:
                prev = self._prev_store
                set_default_store(None if prev is None or prev.closed else prev)
            self._store.close()
            self._store = None
        self.queue.close()

    def log(self, line: str) -> None:
        with self._log_lock:
            with open(
                self.state_dir / "service.log", "a", encoding="utf-8"
            ) as fh:
                fh.write(line.rstrip("\n") + "\n")

    # -- endpoint payloads -------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        from repro.parallel.warm import get_fleet

        return {
            "status": "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "workers": self.ctx.workers,
            "fleet_pids": [p for p in get_fleet().pids() if p is not None],
            "queue": self.queue.counts(),
            "bad_journal_lines": self.queue.bad_lines,
            "requeued_on_replay": self.queue.requeued_on_replay,
            "counters": obs.get_registry().counters("service."),
        }

    def job_result(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"no such job {job_id!r}"}
        if job.state != JobState.DONE:
            return 409, {
                "error": f"job {job_id} is {job.state}, not done",
                "state": job.state,
                "job_error": job.error,
            }
        job_dir = self.ctx.job_dir(job_id)
        artifacts = sorted(
            str(p.relative_to(job_dir))
            for p in job_dir.rglob("*") if p.is_file()
        ) if job_dir.is_dir() else []
        return 200, {
            "id": job.id,
            "state": job.state,
            "result": job.result,
            "artifacts": artifacts,
        }


def _make_handler(daemon: ServiceDaemon) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        server_version = f"repro-service/{__version__}"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            daemon.log(f"{self.address_string()} - {format % args}")

        def _send_json(self, code: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict[str, Any] | None:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return None
            return obj if isinstance(obj, dict) else None

        # -- routes ----------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 — http.server contract
            obs.count("service.http_requests")
            path, _, query = self.path.partition("?")
            if path == "/healthz":
                self._send_json(200, daemon.healthz())
                return
            if path == "/jobs":
                state = None
                for part in query.split("&"):
                    if part.startswith("state="):
                        state = part.split("=", 1)[1]
                self._send_json(200, {
                    "jobs": [j.summary() for j in daemon.queue.jobs(state)],
                })
                return
            m = _JOB_PATH.match(path)
            if m and m.group(2) in (None, "/result"):
                job_id = m.group(1)
                if m.group(2) == "/result":
                    code, payload = daemon.job_result(job_id)
                    self._send_json(code, payload)
                    return
                job = daemon.queue.get(job_id)
                if job is None:
                    self._send_json(404, {"error": f"no such job {job_id!r}"})
                    return
                self._send_json(200, job.to_dict())
                return
            self._send_json(404, {"error": f"no such path {path!r}"})

        def do_POST(self) -> None:  # noqa: N802 — http.server contract
            obs.count("service.http_requests")
            path = self.path.partition("?")[0]
            if path == "/jobs":
                body = self._read_body()
                if body is None:
                    self._send_json(400, {"error": "body is not valid JSON"})
                    return
                kind = body.get("kind")
                params = body.get("params", {})
                key = body.get("key")
                if not isinstance(kind, str):
                    self._send_json(400, {"error": "missing job kind"})
                    return
                if key is not None and not isinstance(key, str):
                    self._send_json(400, {"error": "key must be a string"})
                    return
                try:
                    job, created = daemon.queue.submit(
                        kind, params, key=key
                    )
                except JobSpecError as exc:
                    self._send_json(400, {"error": str(exc)})
                    return
                obs.count(
                    "service.jobs_accepted" if created
                    else "service.jobs_deduped"
                )
                self._send_json(
                    201 if created else 200,
                    {"job": job.to_dict(), "created": created},
                )
                return
            m = _JOB_PATH.match(path)
            if m and m.group(2) == "/cancel":
                job_id = m.group(1)
                if daemon.queue.get(job_id) is None:
                    self._send_json(404, {"error": f"no such job {job_id!r}"})
                    return
                try:
                    job = daemon.queue.request_cancel(job_id)
                except TransitionError as exc:
                    self._send_json(409, {"error": str(exc)})
                    return
                if job.state == JobState.CANCELLED:
                    # Pending jobs cancel immediately here; running
                    # jobs are counted by the scheduler when the
                    # cooperative cancel lands.
                    obs.count("service.jobs_cancelled")
                self._send_json(200, {"job": job.to_dict()})
                return
            self._send_json(404, {"error": f"no such path {path!r}"})

    return Handler
