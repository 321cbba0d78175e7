#!/usr/bin/env python
"""Orchestration benchmark: parallel runner + persistent evaluation cache.

Runs a reduced-scale ``ExperimentRunner`` configuration three times —

1. sequential, cold cache (``workers=1``, the reference artifacts),
2. parallel, cold cache (``workers=N``, fresh cache directory),
3. parallel, warm cache (same cache directory as run 2),

— and records wall times, the cache hit rate of the warm rerun and
whether the parallel artifacts are byte-identical to the sequential
ones. Results land in ``BENCH_runner_parallel.json`` at the repository root
(see ``_artifacts.py``).

Three artifacts are excluded from the byte-identity check because they
report host wall-clock time and so differ between *any* two runs,
parallel or not: ``fig12`` (Stopwatch phase seconds; its simulated
``search(s)`` column is deterministic), ``summary`` (total wall time)
and ``orchestration`` (pool/cache counters).

Exit is nonzero if the deterministic artifacts diverge or the warm
rerun's hit rate falls below 90 %. The parallel-speedup floor is an
efficiency floor, ``MIN_EFFICIENCY`` (0.625) times the worker count —
2.5x at the default 4 workers, 1.25x at 2, which two workers can reach
— and is asserted only on machines with at least ``WORKERS`` CPUs: a
process pool cannot beat the sequential path on fewer cores. On
core-starved machines the waiver is **explicit**, never silent: the
artifact records ``"speedup_gate_applied": false`` together with a
``"speedup_gate_skip_reason"`` string, the same reason is printed to
stdout, and ``benchmarks/check_regression.py`` reports the waived gate
as "not a pass" instead of green.

Scale knobs: ``REPRO_BENCH_RUNNER_WORKERS`` (default 4),
``REPRO_BENCH_RUNNER_SAMPLES`` (default 120),
``REPRO_BENCH_RUNNER_BUDGET`` (default 6 seconds of simulated tuning
cost), ``REPRO_BENCH_RUNNER_STENCILS`` (comma-separated; default
``j3d7pt,j3d27pt``).

Run standalone: ``python benchmarks/bench_runner_parallel.py``.
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
from repro.experiments.runner import ExperimentRunner

#: Speedup floor per worker (as ``bench_runner_scaling``'s efficiency
#: floor): 2.5x at 4 workers.
MIN_EFFICIENCY = 0.625
MIN_WARM_HIT_RATE = 0.90

#: Wall-clock-dependent reports (see module docstring).
NONDETERMINISTIC = {"fig12", "summary", "orchestration"}


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


def _compare_artifacts(ref_dir: Path, other_dir: Path) -> list[str]:
    """Names of deterministic reports whose bytes diverge from ``ref``."""
    diverged = []
    for ref_path in sorted(ref_dir.glob("*.txt")):
        name = ref_path.stem
        if name in NONDETERMINISTIC:
            continue
        other_path = other_dir / ref_path.name
        if (not other_path.exists()
                or ref_path.read_bytes() != other_path.read_bytes()):
            diverged.append(name)
    return diverged


def _hit_rate(runner: ExperimentRunner) -> float:
    hits = int(runner.orchestration.get("cache_hits", 0))
    misses = int(runner.orchestration.get("cache_misses", 0))
    total = hits + misses
    return hits / total if total else 0.0


def main() -> int:
    workers = int(os.environ.get("REPRO_BENCH_RUNNER_WORKERS", "4"))
    samples = int(os.environ.get("REPRO_BENCH_RUNNER_SAMPLES", "120"))
    budget_s = float(os.environ.get("REPRO_BENCH_RUNNER_BUDGET", "6"))
    stencils = os.environ.get(
        "REPRO_BENCH_RUNNER_STENCILS", "j3d7pt,j3d27pt"
    ).split(",")
    cpu_count = os.cpu_count() or 1
    min_speedup = MIN_EFFICIENCY * workers

    work = Path(tempfile.mkdtemp(prefix="bench_runner_parallel_"))
    try:
        scale = dict(stencils=stencils, samples=samples, budget_s=budget_s)
        cache = work / "cache"

        seq_s, _ = _run(work / "seq", workers=1, cache_dir=None, **scale)
        print(f"sequential (cold, no cache):      {seq_s:7.1f}s")

        par_s, _ = _run(work / "par", workers=workers, cache_dir=cache,
                        **scale)
        speedup = seq_s / par_s
        print(f"{workers}-worker (cold cache):           {par_s:7.1f}s  "
              f"speedup {speedup:.2f}x on {cpu_count} CPU(s)")

        warm_s, warm_runner = _run(work / "warm", workers=workers,
                                   cache_dir=cache, **scale)
        warm_rate = _hit_rate(warm_runner)
        print(f"{workers}-worker (warm cache):           {warm_s:7.1f}s  "
              f"hit rate {warm_rate:.1%}, "
              f"warm speedup {seq_s / warm_s:.2f}x vs sequential")

        diverged = sorted(
            set(_compare_artifacts(work / "seq", work / "par"))
            | set(_compare_artifacts(work / "seq", work / "warm"))
        )
        identical = not diverged
        print("deterministic artifacts: "
              + ("byte-identical across all three runs" if identical
                 else f"DIVERGED: {', '.join(diverged)}"))

        gate_applied = cpu_count >= workers
        skip_reason = None
        if not gate_applied:
            skip_reason = (
                f"speedup floor waived: {workers} workers on only "
                f"{cpu_count} CPU(s) — a process pool cannot beat the "
                f"sequential path without spare cores"
            )
            print(f"speedup gate: WAIVED — {skip_reason}")
        else:
            print(f"speedup gate: APPLIED ({min_speedup:.2f}x floor, "
                  f"{workers} workers on {cpu_count} CPUs)")

        result = {
            "stencils": stencils,
            "samples": samples,
            "budget_s": budget_s,
            "repetitions": 1,
            "workers": workers,
            "cpu_count": cpu_count,
            "sequential_s": seq_s,
            "parallel_cold_s": par_s,
            "parallel_warm_s": warm_s,
            "speedup_cold": speedup,
            "speedup_warm": seq_s / warm_s,
            "warm_hit_rate": warm_rate,
            "warm_cache": dict(warm_runner.orchestration),
            "identical": identical,
            "diverged": diverged,
            "min_speedup": min_speedup,
            "min_warm_hit_rate": MIN_WARM_HIT_RATE,
            "speedup_gate_applied": gate_applied,
            "speedup_gate_skip_reason": skip_reason,
        }
        path = write_result("runner_parallel", result)
        print(f"[written to {path}]")

        failures = []
        if not identical:
            failures.append(
                f"parallel artifacts diverged from sequential: {diverged}"
            )
        if warm_rate < MIN_WARM_HIT_RATE:
            failures.append(
                f"warm-cache hit rate {warm_rate:.1%} is below "
                f"{MIN_WARM_HIT_RATE:.0%}"
            )
        if gate_applied and speedup < min_speedup:
            failures.append(
                f"{workers}-worker speedup {speedup:.2f}x is below the "
                f"{min_speedup:.2f}x floor on {cpu_count} CPUs"
            )
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
