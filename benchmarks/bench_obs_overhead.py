#!/usr/bin/env python
"""Observability overhead benchmark: tracing off vs tracing on.

The :mod:`repro.obs` layer instruments the hot paths of the stack —
``GpuSimulator.run_batch``, the per-candidate evaluator, the csTuner
phases — behind a no-op default. Its contract (docs/observability.md)
is twofold:

* **identity** — enabling tracing must not change a single measured
  time or tuning decision;
* **cost** — a fully traced run must stay within 2 % of the untraced
  run on representative workloads.

This benchmark sweeps both a raw batch-evaluation workload and a full
csTuner search under tracing off/on, checks bit-identity of the
results, and exits nonzero when the combined overhead — the median of
paired per-round deltas over the untraced time — exceeds
:data:`MAX_OVERHEAD`. Results land in
``BENCH_obs_overhead.json`` at the repository root (see
``_artifacts.py``).

Run standalone: ``python benchmarks/bench_obs_overhead.py``; set
``REPRO_BENCH_OBS_FAST=1`` for the seconds-long CI variant (same
gates, reduced scale).
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import numpy as np

from _artifacts import write_result
from repro import obs
from repro.core import Budget, CsTuner, CsTunerConfig
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

STENCIL = "j3d7pt"
MAX_OVERHEAD = 0.02


def _time_once(f) -> float:
    """One wall-clock timing with GC parked outside the timed region."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        f()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _paired_overhead(f_off, f_on, reps: int) -> tuple[float, float, float]:
    """Tracing overhead via paired rounds: ``(best_off, best_on, delta)``.

    Each round times the untraced and traced variants back-to-back and
    keeps the *difference*; the reported delta is the median over
    rounds. Pairing cancels slow drift (thermal, noisy neighbours) that
    would swamp a ~1 % effect when the two variants are timed as
    independent best-of series, and the median discards rounds where a
    spike hit only one side of the pair.
    """
    best_off = best_on = float("inf")
    deltas = []
    for _ in range(reps):
        off = _time_once(f_off)
        on = _time_once(f_on)
        best_off = min(best_off, off)
        best_on = min(best_on, on)
        deltas.append(on - off)
    deltas.sort()
    mid = len(deltas) // 2
    median = (
        deltas[mid]
        if len(deltas) % 2
        else (deltas[mid - 1] + deltas[mid]) / 2.0
    )
    return best_off, best_on, median


def _batch_times(pattern, settings) -> list[float]:
    sim = GpuSimulator(device=A100, seed=0)
    return [r.time_s for r in sim.run_batch(pattern, settings)]


def _tune(pattern, space, iterations: int, dataset_size: int):
    sim = GpuSimulator(device=A100, seed=0)
    tuner = CsTuner(sim, CsTunerConfig(seed=0, dataset_size=dataset_size))
    dataset = tuner.collect_dataset(pattern, space)
    return tuner.tune(
        pattern, Budget(max_iterations=iterations), space=space,
        dataset=dataset, seed=0,
    )


def _traced(f):
    """Run ``f`` with tracing enabled; drop the spans afterwards."""
    def g():
        was = obs.enable_tracing()
        try:
            return f()
        finally:
            if not was:
                obs.disable_tracing()
            obs.get_tracer().clear()
    return g


def main() -> int:
    fast = os.environ.get("REPRO_BENCH_OBS_FAST", "") == "1"
    n = int(os.environ.get("REPRO_BENCH_OBS_N", "500" if fast else "2000"))
    reps = int(os.environ.get("REPRO_BENCH_OBS_REPS", "7"))
    iterations = int(
        os.environ.get("REPRO_BENCH_OBS_ITERS", "30" if fast else "80")
    )
    dataset_size = 32 if fast else 64

    pattern = get_stencil(STENCIL)
    space = build_space(pattern, A100)
    settings = space.sample(np.random.default_rng(0), n)

    # Identity gates first: tracing must be a pure observer.
    plain_times = _batch_times(pattern, settings)
    traced_times = _traced(lambda: _batch_times(pattern, settings))()
    assert plain_times == traced_times, "tracing changed a measured time"
    plain_run = _tune(pattern, space, iterations, dataset_size)
    traced_run = _traced(
        lambda: _tune(pattern, space, iterations, dataset_size)
    )()
    assert plain_run.best_setting == traced_run.best_setting, \
        "tracing changed the tuning outcome"
    assert plain_run.best_time_s == traced_run.best_time_s, \
        "tracing changed the best measured time"

    batch_off_s, batch_on_s, batch_delta_s = _paired_overhead(
        lambda: _batch_times(pattern, settings),
        _traced(lambda: _batch_times(pattern, settings)),
        reps,
    )
    tune_off_s, tune_on_s, tune_delta_s = _paired_overhead(
        lambda: _tune(pattern, space, iterations, dataset_size),
        _traced(lambda: _tune(pattern, space, iterations, dataset_size)),
        reps,
    )
    off_s = batch_off_s + tune_off_s
    on_s = batch_on_s + tune_on_s
    # The gate reads the median of per-round paired deltas: pairing
    # cancels drift and the median drops rounds a spike hit on one side.
    # The difference of best-of-N times is reported alongside; it is
    # unpaired, so a lucky traced round can drive it below zero.
    overhead = (batch_delta_s + tune_delta_s) / off_s
    best_est = (on_s - off_s) / off_s

    result = {
        "stencil": STENCIL,
        "device": A100.name,
        "fast_mode": fast,
        "n_settings": n,
        "reps": reps,
        "iterations": iterations,
        "dataset_size": dataset_size,
        "identical": True,
        "batch": {
            "off_s": batch_off_s,
            "on_s": batch_on_s,
            "median_delta_s": batch_delta_s,
            "overhead_fraction": batch_delta_s / batch_off_s,
        },
        "tune": {
            "off_s": tune_off_s,
            "on_s": tune_on_s,
            "median_delta_s": tune_delta_s,
            "overhead_fraction": tune_delta_s / tune_off_s,
        },
        "off_s": off_s,
        "on_s": on_s,
        "overhead_fraction_median": overhead,
        "overhead_fraction_best": best_est,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
    }
    path = write_result("obs_overhead", result)

    print(
        f"batch: off {batch_off_s:.4f}s  on {batch_on_s:.4f}s  "
        f"median delta {batch_delta_s * 1e3:+.2f}ms "
        f"({batch_delta_s / batch_off_s * 100:+.2f}%)"
    )
    print(
        f"tune:  off {tune_off_s:.4f}s  on {tune_on_s:.4f}s  "
        f"median delta {tune_delta_s * 1e3:+.2f}ms "
        f"({tune_delta_s / tune_off_s * 100:+.2f}%)"
    )
    print(
        f"combined overhead {overhead * 100:+.2f}% (paired median; "
        f"best-of est {best_est * 100:+.2f}%, gate "
        f"{MAX_OVERHEAD * 100:.0f}%)"
    )
    print(f"[written to {path}]")

    if overhead > MAX_OVERHEAD:
        print(
            f"FAIL: tracing overhead {overhead * 100:.2f}% exceeds the "
            f"{MAX_OVERHEAD * 100:.0f}% bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
