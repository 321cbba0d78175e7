"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_traced.py --spans OUT.json serve ...

Everything from ``serve`` on is passed to ``repro``'s own command line.
The fsync'd queue appends are timed for every job. A job is traced
layer by layer only when it was submitted with an idempotency key that
starts with ``trace-``, so one daemon serves the traced and the
untraced jobs of a traced benchmark run alike. Spans stay in memory
until the daemon shuts down (SIGTERM), then go to ``--spans`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import SERVICE_TARGETS, Tracer, dump_spans  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.service import scheduler
    from repro.service.queue import JobQueue

    queue_tracer = Tracer()
    queue_tracer.install(SERVICE_TARGETS, track_simulators=False)
    traced_ids: set[str] = set()
    submit = JobQueue.submit

    def submit_noting_traced(self: JobQueue, *a: Any, **kw: Any) -> Any:
        job, created = submit(self, *a, **kw)
        if (job.key or "").startswith("trace-"):
            traced_ids.add(job.id)
        return job, created

    JobQueue.submit = submit_noting_traced  # type: ignore[method-assign]

    tracer = Tracer()
    counters: dict[str, float] = {}
    execute = scheduler.execute_job
    traced_execute = tracer.wrap("service.run", execute)

    def execute_job(job_id: str, *rest: Any, **kwargs: Any) -> Any:
        if job_id not in traced_ids:
            return execute(job_id, *rest, **kwargs)
        tracer.install()
        tracer.job = job_id
        try:
            return traced_execute(job_id, *rest, **kwargs)
        finally:
            tracer.job = None
            tracer.uninstall()
            for k, v in tracer.take_counters().items():
                counters[k] = counters.get(k, 0.0) + v

    scheduler.execute_job = execute_job
    try:
        return repro_main(args.repro_args)
    finally:
        args.spans.write_text(json.dumps({
            "spans": dump_spans(tracer.spans + queue_tracer.spans),
            "counters": counters,
        }), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
