#!/usr/bin/env python
"""Scaling-curve benchmark: parallel efficiency across worker counts.

Runs one sequential cache-less reference ``ExperimentRunner``
configuration, then the same configuration at each worker count in the
curve (default 1/2/4/8), cold cache and warm cache per point, and
records per-point speedup and **parallel efficiency**
(``speedup / workers``). Results land in
``BENCH_runner_scaling.json`` at the repository root with a committed baseline under
``benchmarks/baselines/`` so regressions in parallel efficiency are
visible in CI, not just identity breaks.

Expected shape: efficiency is highest at one worker and non-increasing
as workers grow (scheduling and merge overheads amortize less and
less); the artifact records ``efficiency_monotone_nonincreasing`` so a
curve that *stops* being monotone — a scheduling bug making some
intermediate point anomalously slow — is visible at a glance.

Gates per point: deterministic artifacts byte-identical to the
sequential reference, warm hit rate >= 90 %, and — only where the
hardware can meet it (``1 < workers <= cpu_count``) — a cold parallel
efficiency floor. Points beyond the machine's core count carry an
explicit ``speedup_gate_applied: false`` plus skip reason, which
``benchmarks/check_regression.py`` reports as "not a pass".

Scale knobs: ``REPRO_BENCH_SCALING_FAST=1`` shrinks the curve to
{1,2} workers at reduced scale (the CI fast-bench leg);
``REPRO_BENCH_SCALING_WORKERS`` (comma-separated),
``REPRO_BENCH_SCALING_SAMPLES``, ``REPRO_BENCH_SCALING_BUDGET`` and
``REPRO_BENCH_SCALING_STENCILS`` override individual knobs.

Run standalone: ``python benchmarks/bench_runner_scaling.py``.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from _artifacts import write_result
from bench_runner_parallel import NONDETERMINISTIC, _compare_artifacts
from repro.experiments.runner import ExperimentRunner

MIN_EFFICIENCY = 0.5
MIN_WARM_HIT_RATE = 0.90

DEFAULT_WORKERS = (1, 2, 4, 8)
FAST_WORKERS = (1, 2)


def _run(out_dir: Path, *, stencils, samples, budget_s, workers,
         cache_dir) -> tuple[float, ExperimentRunner]:
    runner = ExperimentRunner(
        out_dir,
        stencils=stencils,
        samples=samples,
        repetitions=1,
        budget_s=budget_s,
        seed=0,
        workers=workers,
        cache_dir=cache_dir,
    )
    t0 = time.perf_counter()
    runner.run_all()
    return time.perf_counter() - t0, runner


def _hit_rate(runner: ExperimentRunner) -> float:
    hits = int(runner.orchestration.get("cache_hits", 0))
    misses = int(runner.orchestration.get("cache_misses", 0))
    total = hits + misses
    return hits / total if total else 0.0


def main() -> int:
    fast = os.environ.get("REPRO_BENCH_SCALING_FAST", "") == "1"
    default_workers = FAST_WORKERS if fast else DEFAULT_WORKERS
    raw_workers = os.environ.get("REPRO_BENCH_SCALING_WORKERS", "")
    workers_list = (
        [int(w) for w in raw_workers.split(",") if w.strip()]
        if raw_workers.strip() else list(default_workers)
    )
    samples = int(os.environ.get(
        "REPRO_BENCH_SCALING_SAMPLES", "120"  # motivation needs >= 100
    ))
    budget_s = float(os.environ.get(
        "REPRO_BENCH_SCALING_BUDGET", "1.5" if fast else "4"
    ))
    stencils = os.environ.get(
        "REPRO_BENCH_SCALING_STENCILS",
        "j3d7pt" if fast else "j3d7pt,j3d27pt",
    ).split(",")
    cpu_count = os.cpu_count() or 1

    work = Path(tempfile.mkdtemp(prefix="bench_runner_scaling_"))
    failures: list[str] = []
    try:
        scale = dict(stencils=stencils, samples=samples, budget_s=budget_s)

        seq_s, _ = _run(work / "seq", workers=1, cache_dir=None, **scale)
        print(f"sequential reference (no cache):  {seq_s:7.1f}s")

        points = []
        for w in workers_list:
            cache = work / f"cache-{w}"
            cold_s, _cold = _run(
                work / f"cold-{w}", workers=w, cache_dir=cache, **scale
            )
            warm_s, warm_runner = _run(
                work / f"warm-{w}", workers=w, cache_dir=cache, **scale
            )
            warm_rate = _hit_rate(warm_runner)
            diverged = sorted(
                set(_compare_artifacts(work / "seq", work / f"cold-{w}"))
                | set(_compare_artifacts(work / "seq", work / f"warm-{w}"))
            )
            point = {
                "workers": w,
                "cold_s": cold_s,
                "warm_s": warm_s,
                "cold_speedup": seq_s / cold_s,
                "warm_speedup": seq_s / warm_s,
                "cold_efficiency": seq_s / cold_s / w,
                "warm_efficiency": seq_s / warm_s / w,
                "warm_hit_rate": warm_rate,
                "identical": not diverged,
                "diverged": diverged,
            }
            if w > 1:
                applied = w <= cpu_count
                point["speedup_gate_applied"] = applied
                point["speedup_gate_skip_reason"] = None if applied else (
                    f"efficiency floor waived: {w} workers on only "
                    f"{cpu_count} CPU(s)"
                )
            points.append(point)
            gate_note = ""
            if w > 1:
                gate_note = (" [gate applied]" if point["speedup_gate_applied"]
                             else " [gate WAIVED]")
            print(
                f"{w:2d} workers: cold {cold_s:6.1f}s "
                f"(speedup {point['cold_speedup']:.2f}x, "
                f"eff {point['cold_efficiency']:.2f}) | warm "
                f"{warm_s:6.1f}s (hit rate {warm_rate:.1%})"
                f"{gate_note}"
            )

            if diverged:
                failures.append(
                    f"{w}-worker artifacts diverged from sequential: "
                    f"{diverged}"
                )
            if warm_rate < MIN_WARM_HIT_RATE:
                failures.append(
                    f"{w}-worker warm hit rate {warm_rate:.1%} below "
                    f"{MIN_WARM_HIT_RATE:.0%}"
                )
            if 1 < w <= cpu_count and (
                point["cold_efficiency"] < MIN_EFFICIENCY
            ):
                failures.append(
                    f"{w}-worker cold efficiency "
                    f"{point['cold_efficiency']:.2f} below the "
                    f"{MIN_EFFICIENCY:.2f} floor on {cpu_count} CPUs"
                )

        efficiencies = [p["cold_efficiency"] for p in points]
        monotone = all(
            b <= a * 1.05  # 5 % jitter allowance between adjacent points
            for a, b in zip(efficiencies, efficiencies[1:])
        )

        result = {
            "stencils": stencils,
            "samples": samples,
            "budget_s": budget_s,
            "repetitions": 1,
            "fast_mode": fast,
            "cpu_count": cpu_count,
            "workers_list": workers_list,
            "sequential_s": seq_s,
            "points": points,
            "efficiency_monotone_nonincreasing": monotone,
            "min_efficiency": MIN_EFFICIENCY,
            "min_warm_hit_rate": MIN_WARM_HIT_RATE,
        }
        path = write_result("runner_scaling", result)
        print(f"[written to {path}]")

        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
