"""Job execution: mapping claimed jobs onto the experiment machinery.

One function per job kind, all funnelled through :func:`execute_job`:

* ``tune`` — one (stencil, device, tuner, budget) run. A fresh golden
  record in the attached :class:`~repro.resultsdb.db.ResultsDB` serves
  the job with **zero evaluations** (no simulator, space or tuner is
  constructed); otherwise the run ships as a
  :func:`repro.experiments.tasks.tuner_run_task` payload — with the
  same budget-derived cost hint the experiment runner uses — through a
  :class:`~repro.parallel.pool.WorkerPool` over the warm fleet.
* ``experiment`` — a whole :class:`~repro.experiments.runner
  .ExperimentRunner` invocation into the job's artifact directory.
  Because the runner is invoked with exactly the parameters a direct
  call would use, service-submitted experiment jobs are **byte-
  identical** to direct runs (pinned by
  ``tests/service/test_identity.py``).
* ``sleep`` — a cancellation-aware timed wait (diagnostics/smoke).

Every job gets a private directory under the service state dir
(``jobs/<job-id>/``) receiving its artifacts: ``result.json`` (the
deterministic result payload), the runner's reports, ``trace.json`` /
``phases.txt`` when tracing, and ``orchestration.txt`` with the pool
counters. Worker death surfaces as
:class:`~repro.errors.OrchestrationError`, which the scheduler — not
this module — converts into retry-with-backoff.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.core import Budget
from repro.core.result import TuningResult
from repro.errors import ReproError
from repro.utils.journal import rewrite

#: Checked between work items; ``True`` aborts the job.
CancelCheck = Callable[[], bool]


class JobCancelled(ReproError):
    """Raised inside the executor when a cancel flag is observed."""


@dataclass
class ExecutionContext:
    """Daemon-wide execution knobs shared by every job."""

    #: Per-job artifact directories live under here (``jobs/<id>/``).
    jobs_root: Path
    #: Pool width for job fan-out (1 = in-process, serial).
    workers: int = 1
    #: Persistent evaluation-cache directory (optional).
    cache_dir: Path | None = None
    #: Results database root for golden serving / warm starts (optional).
    results_db: Path | None = None
    #: Master switch for the golden fast path (jobs can also opt out
    #: per submission via ``db_fastpath: false``).
    db_fastpath: bool = True

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / job_id


def result_payload(result: TuningResult) -> dict[str, Any]:
    """Deterministic JSON form of a :class:`TuningResult`.

    ``phase_seconds`` is host wall-clock time and deliberately
    excluded — everything here is a pure function of the job spec, so
    ``result.json`` is byte-stable across reruns, worker counts and
    daemon restarts.
    """
    return {
        "stencil": result.stencil,
        "device": result.device,
        "tuner": result.tuner,
        "best_setting": (
            dict(result.best_setting)
            if result.best_setting is not None else None
        ),
        "best_time_s": result.best_time_s,
        "evaluations": result.evaluations,
        "iterations": result.iterations,
        "cost_s": result.cost_s,
        "meta": {k: v for k, v in sorted(result.meta.items())},
        "trace": [
            [pt.evaluations, pt.iteration, pt.cost_s, pt.best_time_s]
            for pt in result.trace
        ],
    }


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rewrite(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_stats(path: Path, stats: dict[str, Any]) -> None:
    """One ``key: value`` line per stat, sorted by key."""
    rewrite(path, "\n".join(f"{k}: {v}" for k, v in sorted(stats.items())) + "\n")


def _check(should_cancel: CancelCheck | None) -> None:
    if should_cancel is not None and should_cancel():
        raise JobCancelled("cancel requested")


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

def _tune_budget(params: dict[str, Any]) -> Budget:
    if "iterations" in params:
        return Budget(max_iterations=int(params["iterations"]))
    return Budget(max_cost_s=float(params["budget_s"]))


def _execute_tune(
    job_id: str,
    params: dict[str, Any],
    ctx: ExecutionContext,
    should_cancel: CancelCheck | None,
) -> dict[str, Any]:
    from repro.experiments.tasks import tuner_run_task
    from repro.parallel.pool import Task, WorkerPool

    job_dir = ctx.job_dir(job_id)
    job_dir.mkdir(parents=True, exist_ok=True)
    stencil = params["stencil"]
    device_name = params["device"]
    tuner = params["tuner"]

    # Golden fast path: answered in-process from one dict lookup, with
    # zero evaluations and no pool entry at all.
    if ctx.results_db is not None and ctx.db_fastpath and params["db_fastpath"]:
        from repro.gpusim.device import get_device
        from repro.resultsdb.db import ResultsDB
        from repro.resultsdb.golden import golden_result
        from repro.stencil.suite import get_stencil

        pattern = get_stencil(stencil)
        device = get_device(device_name)
        record = ResultsDB(ctx.results_db).serve(pattern, device)
        if record is not None:
            obs.count("service.golden_served")
            result = golden_result(record, tuner, stencil, device)
            payload = result_payload(result)
            _write_json(job_dir / "result.json", payload)
            return _tune_summary(result, golden_served=True)

    _check(should_cancel)
    budget = _tune_budget(params)
    db_args: tuple[Any, ...] = ()
    if ctx.results_db is not None:
        db_args = (
            str(ctx.results_db), False, params["warm_start"],
            params["warm_seeds"],
        )
    task = Task(
        fn=tuner_run_task,
        args=(stencil, device_name, tuner, budget, params["rep"],
              params["seed"], params["dataset_size"], *db_args),
        tag=f"service:{job_id}:{stencil}@{device_name}/{tuner}",
        cost_hint=float(budget.max_cost_s or budget.max_iterations or 1.0),
    )
    with WorkerPool(ctx.workers, ctx.cache_dir) as pool:
        [result] = pool.map([task])
    _check(should_cancel)
    _write_json(job_dir / "result.json", result_payload(result))
    _write_stats(job_dir / "orchestration.txt", pool.stats())
    return _tune_summary(result, golden_served=False)


def _tune_summary(
    result: TuningResult, *, golden_served: bool
) -> dict[str, Any]:
    """Compact journaled result (full detail lives in ``result.json``)."""
    return {
        "kind": "tune",
        "stencil": result.stencil,
        "device": result.device,
        "tuner": result.tuner,
        "best_time_s": result.best_time_s,
        "evaluations": result.evaluations,
        "golden_served": golden_served
        or bool(result.meta.get("golden_served")),
        "artifacts": ["result.json"]
        + ([] if golden_served else ["orchestration.txt"]),
    }


def _execute_experiment(
    job_id: str,
    params: dict[str, Any],
    ctx: ExecutionContext,
    should_cancel: CancelCheck | None,
) -> dict[str, Any]:
    from repro.experiments.runner import ExperimentRunner

    _check(should_cancel)
    artifacts = ctx.job_dir(job_id) / "artifacts"
    runner = ExperimentRunner(
        artifacts,
        stencils=params["stencils"],
        samples=params["samples"],
        repetitions=params["repetitions"],
        budget_s=params["budget_s"],
        seed=params["seed"],
        workers=ctx.workers,
        cache_dir=ctx.cache_dir,
        trace=params["trace"],
        results_db=ctx.results_db,
        db_fastpath=ctx.db_fastpath,
    )
    runner.run_all()
    _check(should_cancel)
    return {
        "kind": "experiment",
        "reports": sorted(runner.reports),
        "artifacts_dir": "artifacts",
        "orchestration": {
            k: v for k, v in sorted(runner.orchestration.items())
            if k in ("workers", "tasks", "cache_hits", "cache_misses",
                     "db_golden_hits", "db_warm_seeds")
        },
    }


def _execute_sleep(
    params: dict[str, Any],
    should_cancel: CancelCheck | None,
) -> dict[str, Any]:
    import time

    remaining = float(params["seconds"])
    t0 = time.monotonic()
    deadline = t0 + remaining
    while True:
        _check(should_cancel)
        now = time.monotonic()
        if now >= deadline:
            break
        time.sleep(min(0.05, deadline - now))
    return {"kind": "sleep", "slept_s": float(params["seconds"])}


def execute_job(
    job_id: str,
    kind: str,
    params: dict[str, Any],
    ctx: ExecutionContext,
    should_cancel: CancelCheck | None = None,
) -> dict[str, Any]:
    """Run one claimed job to completion; return its result summary.

    Raises :class:`JobCancelled` when ``should_cancel`` fires at a
    boundary, :class:`~repro.errors.OrchestrationError` on worker
    death (the scheduler's retry trigger), and any other exception on
    genuine job failure.
    """
    if kind == "tune":
        return _execute_tune(job_id, params, ctx, should_cancel)
    if kind == "experiment":
        return _execute_experiment(job_id, params, ctx, should_cancel)
    if kind == "sleep":
        return _execute_sleep(params, should_cancel)
    raise ReproError(f"unknown job kind {kind!r}")
