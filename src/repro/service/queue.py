"""Crash-safe on-disk job queue.

The queue is a :mod:`repro.utils.journal` file (``queue.jsonl`` inside
the service state directory) holding one JSON event per line; bad lines
and events that do not apply are counted in :attr:`JobQueue.bad_lines`.

Three event kinds:

``submit``
    A new job: id, idempotency key, kind, normalized params, sequence
    number.
``transition``
    One state-machine edge (validated against
    :data:`~repro.service.jobs.LEGAL_TRANSITIONS` both when taken and
    when replayed), carrying the resulting retry count and, for
    terminal edges, the error string or compact result payload.
``cancel_request``
    A cancel that arrived while the job was running; the flag is
    journaled so a daemon restart still knows the job must not be
    requeued as runnable work.

**Replay-on-restart.** Opening a queue replays the journal into
memory, then *requeues* every job left in ``running`` — the daemon
died (or was killed) mid-flight, so the job takes the journaled
``running → pending`` edge (or ``running → cancelled`` when a cancel
was pending) and will be claimed again. No job is ever lost or
duplicated: submissions are keyed by id, and idempotency keys
deduplicate client retries that raced a crash.

All mutations happen under one lock; each takes effect in memory and
in the journal before the lock is released, so observers (HTTP
handlers, the scheduler) always see a state the journal can reproduce.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    JobState,
    TransitionError,
    check_transition,
    validate_spec,
)
from repro.utils.journal import Appender, replay

#: Bump when the journal record schema changes meaning; mismatched
#: journals are set aside rather than replayed wrongly.
SCHEMA_VERSION = 1

#: First line of every queue journal.
_HEADER = {"kind": "repro-jobqueue", "version": SCHEMA_VERSION}

#: Durability policy: fsync every event. An accepted job must survive a
#: crash, and a replayed transition must be the one the daemon took.
JOURNAL_FSYNC = True


def _line(event: dict[str, Any]) -> str:
    return json.dumps(event, sort_keys=True) + "\n"


class JobQueue:
    """The daemon's job table, journaled to ``state_dir/queue.jsonl``."""

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.state_dir / "queue.jsonl"
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._seq = 0
        self.requeued_on_replay = 0
        state = replay(
            self.journal_path, _HEADER, lambda e: e if self._apply(e) else None
        )
        self.bad_lines = state.bad
        self._journal = Appender(
            self.journal_path, _HEADER, _line(_HEADER),
            fsync=JOURNAL_FSYNC, replayed=state,
        )
        self._requeue_interrupted()

    # -- journal -----------------------------------------------------------

    def _apply(self, obj: dict[str, Any]) -> bool:
        """Apply one replayed event; False when malformed/illegal."""
        event = obj.get("event")
        if event == "submit":
            job_id = obj.get("id")
            params = obj.get("params")
            kind = obj.get("job_kind")
            seq = obj.get("seq")
            if not (isinstance(job_id, str) and isinstance(params, dict)
                    and isinstance(kind, str) and isinstance(seq, int)):
                return False
            if job_id in self._jobs:
                return False  # duplicate submit: journal corruption
            key = obj.get("key")
            job = Job(id=job_id, kind=kind, params=params,
                      key=key if isinstance(key, str) else None, seq=seq)
            self._jobs[job_id] = job
            if job.key is not None:
                self._by_key[job.key] = job_id
            self._seq = max(self._seq, seq)
            return True
        if event == "transition":
            job = self._jobs.get(obj.get("id", ""))
            to = obj.get("to")
            if job is None or not isinstance(to, str):
                return False
            try:
                check_transition(job.state, to)
            except TransitionError:
                return False
            job.state = to
            job.retries = int(obj.get("retries", job.retries))
            if to == JobState.ERRORED:
                err = obj.get("error")
                job.error = err if isinstance(err, str) else None
            if to == JobState.DONE:
                result = obj.get("result")
                job.result = result if isinstance(result, dict) else None
            return True
        if event == "cancel_request":
            job = self._jobs.get(obj.get("id", ""))
            if job is None:
                return False
            job.cancel_requested = True
            return True
        return False

    def _requeue_interrupted(self) -> None:
        """Replay epilogue: re-enqueue jobs that died mid-flight."""
        for job in self._in_seq_order():
            if job.state != JobState.RUNNING:
                continue
            to = (
                JobState.CANCELLED if job.cancel_requested
                else JobState.PENDING
            )
            check_transition(job.state, to)
            job.state = to
            self._journal.write(_line({
                "event": "transition", "id": job.id, "to": to,
                "retries": job.retries, "requeued_on_replay": True,
            }))
            self.requeued_on_replay += 1

    # -- mutations ---------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        key: str | None = None,
    ) -> tuple[Job, bool]:
        """Accept a job; return ``(job, created)``.

        ``created`` is ``False`` when ``key`` matched an existing job
        (double-submit idempotency): the original job is returned
        untouched and nothing is journaled.
        """
        spec = validate_spec(kind, params)
        with self._lock:
            if key is not None and key in self._by_key:
                return self._jobs[self._by_key[key]], False
            self._seq += 1
            token = os.urandom(3).hex()
            job = Job(
                id=f"job-{self._seq:06d}-{token}",
                kind=kind, params=spec, key=key, seq=self._seq,
            )
            self._jobs[job.id] = job
            if key is not None:
                self._by_key[key] = job.id
            self._journal.write(_line({
                "event": "submit", "id": job.id, "key": key,
                "job_kind": kind, "params": spec, "seq": job.seq,
            }))
            return job, True

    def transition(
        self,
        job_id: str,
        to: str,
        *,
        error: str | None = None,
        result: dict[str, Any] | None = None,
    ) -> Job:
        """Take one state-machine edge atomically (memory + journal).

        ``running → pending`` increments the retry counter. Raises
        :class:`~repro.service.jobs.TransitionError` on illegal edges
        and ``KeyError`` on unknown jobs.
        """
        with self._lock:
            job = self._jobs[job_id]
            check_transition(job.state, to)
            if job.state == JobState.RUNNING and to == JobState.PENDING:
                job.retries += 1
            job.state = to
            if to == JobState.ERRORED:
                job.error = error
            if to == JobState.DONE:
                job.result = result
            record: dict[str, Any] = {
                "event": "transition", "id": job.id, "to": to,
                "retries": job.retries,
            }
            if error is not None:
                record["error"] = error
            if result is not None:
                record["result"] = result
            self._journal.write(_line(record))
            return job

    def request_cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate for pending, cooperative for running.

        A pending job transitions straight to ``cancelled``; a running
        job gets its :attr:`~repro.service.jobs.Job.cancel_requested`
        flag set (journaled) and the scheduler honors it at the next
        boundary. Raises :class:`TransitionError` for terminal jobs.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state == JobState.PENDING:
                return self.transition(job_id, JobState.CANCELLED)
            if job.state == JobState.RUNNING:
                if not job.cancel_requested:
                    job.cancel_requested = True
                    self._journal.write(
                        _line({"event": "cancel_request", "id": job.id})
                    )
                return job
            raise TransitionError(
                f"job {job_id} is already terminal ({job.state})"
            )

    def claim_next(self) -> Job | None:
        """Atomically claim the oldest pending job (``→ running``)."""
        with self._lock:
            for job in self._in_seq_order():
                if job.state == JobState.PENDING:
                    return self.transition(job.id, JobState.RUNNING)
            return None

    # -- reads -------------------------------------------------------------

    def _in_seq_order(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.seq)

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, state: str | None = None) -> list[Job]:
        with self._lock:
            return [
                j for j in self._in_seq_order()
                if state is None or j.state == state
            ]

    def counts(self) -> dict[str, int]:
        """Jobs per state (zero-filled, stable key order)."""
        with self._lock:
            out = {
                s: 0 for s in (
                    JobState.PENDING, JobState.RUNNING, JobState.DONE,
                    JobState.ERRORED, JobState.CANCELLED,
                )
            }
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def terminal(self, job_id: str) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            return job is not None and job.state in TERMINAL_STATES

    def close(self) -> None:
        with self._lock:
            self._journal.detach()
