"""Queue journal: crash-safe replay, torn writes, idempotency keys.

Each test drives a :class:`JobQueue` through a lifecycle, then re-opens
the same state directory and asserts the replayed view matches — the
property the daemon's restart story rests on.
"""

import json

import pytest

from repro.service.jobs import JobState, TransitionError
from repro.service.queue import JobQueue


def reopen(queue: JobQueue) -> JobQueue:
    queue.close()
    return JobQueue(queue.state_dir)


class TestLifecycle:
    def test_submit_claim_finish(self, tmp_path):
        q = JobQueue(tmp_path)
        job, created = q.submit("sleep", {"seconds": 1.0})
        assert created and job.state == JobState.PENDING
        claimed = q.claim_next()
        assert claimed is not None and claimed.id == job.id
        assert claimed.state == JobState.RUNNING
        q.transition(job.id, JobState.DONE, result={"ok": True})
        assert q.get(job.id).result == {"ok": True}
        assert q.terminal(job.id)
        assert q.claim_next() is None

    def test_fifo_claim_order(self, tmp_path):
        q = JobQueue(tmp_path)
        ids = [q.submit("sleep", {"seconds": 1.0})[0].id for _ in range(3)]
        assert [q.claim_next().id for _ in range(3)] == ids

    def test_illegal_edge_rejected_and_not_journaled(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        with pytest.raises(TransitionError):
            q.transition(job.id, JobState.DONE)  # pending -> done
        q2 = reopen(q)
        assert q2.get(job.id).state == JobState.PENDING
        assert q2.bad_lines == 0

    def test_retry_edge_increments_counter(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.claim_next()
        q.transition(job.id, JobState.PENDING)  # requeue
        assert q.get(job.id).retries == 1
        q.claim_next()
        q.transition(job.id, JobState.PENDING)
        assert q.get(job.id).retries == 2

    def test_counts(self, tmp_path):
        q = JobQueue(tmp_path)
        a, _ = q.submit("sleep", {"seconds": 1.0})
        q.submit("sleep", {"seconds": 1.0})
        q.claim_next()
        q.transition(a.id, JobState.DONE, result={})
        assert q.counts() == {
            "pending": 1, "running": 0, "done": 1,
            "errored": 0, "cancelled": 0,
        }


class TestIdempotencyKeys:
    def test_double_submit_returns_original(self, tmp_path):
        q = JobQueue(tmp_path)
        first, created = q.submit("sleep", {"seconds": 1.0}, key="k1")
        again, created2 = q.submit("sleep", {"seconds": 2.0}, key="k1")
        assert created and not created2
        assert again.id == first.id
        assert again.params["seconds"] == 1.0  # original spec wins

    def test_key_dedup_survives_replay(self, tmp_path):
        q = JobQueue(tmp_path)
        first, _ = q.submit("sleep", {"seconds": 1.0}, key="k1")
        q2 = reopen(q)
        again, created = q2.submit("sleep", {"seconds": 1.0}, key="k1")
        assert not created and again.id == first.id

    def test_key_dedup_even_when_terminal(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0}, key="k1")
        q.claim_next()
        q.transition(job.id, JobState.DONE, result={})
        again, created = q.submit("sleep", {"seconds": 1.0}, key="k1")
        assert not created and again.state == JobState.DONE

    def test_keyless_submits_never_dedup(self, tmp_path):
        q = JobQueue(tmp_path)
        a, _ = q.submit("sleep", {"seconds": 1.0})
        b, _ = q.submit("sleep", {"seconds": 1.0})
        assert a.id != b.id


class TestReplay:
    def test_full_history_replays(self, tmp_path):
        q = JobQueue(tmp_path)
        done, _ = q.submit("sleep", {"seconds": 1.0}, key="kd")
        q.claim_next()
        q.transition(done.id, JobState.DONE, result={"n": 1})
        errored, _ = q.submit("sleep", {"seconds": 1.0})
        q.claim_next()
        q.transition(errored.id, JobState.ERRORED, error="boom")
        pending, _ = q.submit("sleep", {"seconds": 1.0})

        q2 = reopen(q)
        assert q2.get(done.id).state == JobState.DONE
        assert q2.get(done.id).result == {"n": 1}
        assert q2.get(errored.id).error == "boom"
        assert q2.get(pending.id).state == JobState.PENDING
        assert q2.bad_lines == 0
        assert len(q2.jobs()) == 3

    def test_running_jobs_requeue_on_replay(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.claim_next()  # daemon "dies" with the job running
        q2 = reopen(q)
        assert q2.get(job.id).state == JobState.PENDING
        assert q2.requeued_on_replay == 1
        # The requeue is itself journaled: a third open sees a clean
        # pending job, not another requeue.
        q3 = reopen(q2)
        assert q3.get(job.id).state == JobState.PENDING
        assert q3.requeued_on_replay == 0

    def test_cancel_requested_running_job_cancels_on_replay(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 30.0})
        q.claim_next()
        q.request_cancel(job.id)
        assert q.get(job.id).cancel_requested
        q2 = reopen(q)
        assert q2.get(job.id).state == JobState.CANCELLED

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.close()
        with open(q.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "transition", "id": "' + job.id)  # torn
        q2 = JobQueue(tmp_path)
        assert q2.bad_lines == 1
        assert q2.get(job.id).state == JobState.PENDING
        # The queue keeps working after recovery.
        q2.claim_next()
        q2.transition(job.id, JobState.DONE, result={})
        q3 = reopen(q2)
        assert q3.get(job.id).state == JobState.DONE

    def test_garbage_lines_counted(self, tmp_path):
        q = JobQueue(tmp_path)
        q.submit("sleep", {"seconds": 1.0})
        q.close()
        with open(q.journal_path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('["a", "list"]\n')
            fh.write('{"event": "transition", "id": "job-999999-ffffff", '
                     '"to": "done"}\n')  # unknown job
        q2 = JobQueue(tmp_path)
        assert q2.bad_lines == 3
        assert len(q2.jobs()) == 1

    def test_illegal_replayed_edge_is_dropped(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.close()
        with open(q.journal_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "event": "transition", "id": job.id, "to": "done",
            }) + "\n")  # pending -> done is illegal
        q2 = JobQueue(tmp_path)
        assert q2.bad_lines == 1
        assert q2.get(job.id).state == JobState.PENDING

    def test_foreign_schema_version_ignored(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text(
            '{"kind": "repro-jobqueue", "version": 999}\n'
            '{"event": "submit", "id": "job-000001-aaaaaa", "key": null, '
            '"job_kind": "sleep", "params": {"seconds": 1.0}, "seq": 1}\n',
            encoding="utf-8",
        )
        q = JobQueue(tmp_path)
        assert q.jobs() == []
        assert q.bad_lines == 2  # header + everything after it

    def test_submit_after_foreign_schema_survives_restart(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_text(
            '{"kind": "repro-jobqueue", "version": 999}\n', encoding="utf-8"
        )
        original = path.read_bytes()
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q2 = reopen(q)
        assert [j.id for j in q2.jobs()] == [job.id]
        assert q2.bad_lines == 0
        assert (tmp_path / "queue.jsonl.foreign").read_bytes() == original


class TestCancel:
    def test_pending_cancels_immediately(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        out = q.request_cancel(job.id)
        assert out.state == JobState.CANCELLED
        assert q.claim_next() is None

    def test_running_cancel_is_cooperative(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.claim_next()
        out = q.request_cancel(job.id)
        assert out.state == JobState.RUNNING
        assert out.cancel_requested
        # Idempotent: a second request changes nothing.
        q.request_cancel(job.id)
        q.transition(job.id, JobState.CANCELLED)

    def test_terminal_cancel_raises(self, tmp_path):
        q = JobQueue(tmp_path)
        job, _ = q.submit("sleep", {"seconds": 1.0})
        q.claim_next()
        q.transition(job.id, JobState.DONE, result={})
        with pytest.raises(TransitionError, match="terminal"):
            q.request_cancel(job.id)
