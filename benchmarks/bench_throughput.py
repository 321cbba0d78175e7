#!/usr/bin/env python
"""Evaluation-throughput benchmark: the model's row and column paths.

Sweeps 2000 (``REPRO_BENCH_THROUGHPUT_N``) sampled j3d7pt settings
through fresh simulators — once per setting via :meth:`GpuSimulator.run`
and once for the whole batch via :meth:`GpuSimulator.run_batch` — and
reports settings/second for both, at the default measurement noise and
for the noise-free ground-truth configuration the motivation
experiments use. Results land in ``BENCH_eval_throughput.json`` at the
repository root (see ``_artifacts.py``) so subsequent PRs can track the
perf trajectory.

Both sweeps go through the simulator's one commit path: the
per-setting "row" sweep is a run of one-setting batches, each priced by
the model's row op table, and the whole batch is priced by its column
op table. The two must produce *identical* results (times, tuning
cost, every metric, cache counters); the benchmark verifies this before
timing anything. The gate is absolute: exits nonzero if either path's
default-noise throughput falls below its settings/s floor in
:data:`MIN_PER_SEC`. The column/row ratio is reported, not gated — both
paths run one model, so their ratio is no evidence of speed.

The ``small_batches`` section times the opposite regime, where a
model pass's fixed cost dominates: ``SMALL_CALLS`` consecutive
``SMALL_BATCH``-setting ``Evaluator.evaluate_many`` calls under a cost
budget on a fresh addsgd4/A100 simulator, as a cost-budgeted tuner
makes them. Its ``*_s`` leaf is the best time scaled by a host-speed
probe taken around each round (``_artifacts.host_probe``), with the
unscaled best beside it as ``*_raw`` (not gated). It also records the
model passes Garvey and Artemis make in one iso-time cell (the Fig 9
baselines in turn on one simulator under the 100 s budget, as
``compare_stencil`` runs them).

``REPRO_BENCH_THROUGHPUT_FAST=1`` switches to the CI smoke scale
(fewer settings and repetitions — the identity gate and the floors
still apply in full); the explicit ``REPRO_BENCH_THROUGHPUT_N`` /
``REPRO_BENCH_THROUGHPUT_REPS`` knobs override either scale.

Run standalone: ``python benchmarks/bench_throughput.py``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import numpy as np

from _artifacts import PROBE_REF_S, median_probe, write_result
from repro.core.budget import Budget, Evaluator
from repro.core.tuner import CsTuner, CsTunerConfig
from repro.experiments.comparison import run_tuner
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

STENCIL = "j3d7pt"
#: Default-noise settings/s floors per path: about half of the slowest
#: fast-mode readings on a shared 2-CPU x86 host (row ~3,200/s, column
#: ~23,000/s under load; about twice that when the host is quiet).
MIN_PER_SEC = {"row": 1500.0, "column": 10000.0}
FAST = os.environ.get("REPRO_BENCH_THROUGHPUT_FAST", "") == "1"
#: The small-batch section: stencil, consecutive calls, settings a call.
SMALL_STENCIL = "addsgd4"
SMALL_CALLS = 64
SMALL_BATCH = 12
#: The iso-time cell whose model passes are counted.
ISO_TUNERS = ("Garvey", "OpenTuner", "Artemis")
ISO_BUDGET_S = 100.0


def _best_of_interleaved(fs, reps: int) -> list[float]:
    """Best wall-clock per callable over ``reps`` interleaved rounds.

    Interleaving (row, column, row, column, …) exposes both paths to the
    same background-load drift.
    """
    best = [float("inf")] * len(fs)
    for _ in range(reps):
        for i, f in enumerate(fs):
            t0 = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _verify_identical(pattern, settings, noise: float) -> dict[str, int | None]:
    """Assert column == row on every field; return the cache counters."""
    row_sim = GpuSimulator(device=A100, seed=0, noise=noise)
    column_sim = GpuSimulator(device=A100, seed=0, noise=noise)
    row_runs = [row_sim.run(pattern, s) for s in settings]
    column_runs = column_sim.run_batch(pattern, settings)
    for a, b in zip(row_runs, column_runs):
        assert a.time_s == b.time_s, "measured time diverged"
        assert a.true_time_s == b.true_time_s, "model time diverged"
        assert a.tuning_cost_s == b.tuning_cost_s, "tuning cost diverged"
        assert a.metrics == b.metrics, "metrics diverged"
    assert row_sim.evaluations == column_sim.evaluations
    assert row_sim.cache_info() == column_sim.cache_info()
    return column_sim.cache_info()


def _sweep(pattern, settings, noise: float, reps: int) -> dict[str, object]:
    n = len(settings)
    row_s, column_s = _best_of_interleaved(
        [
            lambda: [
                GpuSimulator(device=A100, seed=0, noise=noise).run(pattern, s)
                for s in settings
            ],
            lambda: GpuSimulator(device=A100, seed=0, noise=noise).run_batch(
                pattern, settings
            ),
        ],
        reps,
    )
    return {
        "noise": noise,
        "row_s": row_s,
        "column_s": column_s,
        "row_settings_per_sec": n / row_s,
        "column_settings_per_sec": n / column_s,
        "column_over_row": row_s / column_s,
    }


def _small_batches(reps: int) -> dict[str, object]:
    """Best time of ``SMALL_CALLS`` consecutive ``SMALL_BATCH``-setting
    ``evaluate_many`` calls, each round on a fresh simulator, scaled by
    the host-speed probes taken before and after it."""
    pattern = get_stencil(SMALL_STENCIL)
    space = build_space(pattern, A100)
    settings = list(dict.fromkeys(space.sample(np.random.default_rng(0), 2000)))
    batches = [
        settings[i * SMALL_BATCH:(i + 1) * SMALL_BATCH] for i in range(SMALL_CALLS)
    ]
    assert len(batches[-1]) == SMALL_BATCH
    raw = scaled = float("inf")
    before = median_probe()
    for _ in range(reps):
        ev = Evaluator(GpuSimulator(device=A100, seed=0), pattern,
                       Budget(max_cost_s=1e9))
        t0 = time.perf_counter()
        for batch in batches:
            ev.evaluate_many(batch)
        wall = time.perf_counter() - t0
        after = median_probe()
        raw = min(raw, wall)
        scaled = min(scaled, wall * PROBE_REF_S * 2 / (before + after))
        before = after
    return {
        "stencil": SMALL_STENCIL,
        "calls": SMALL_CALLS,
        "batch": SMALL_BATCH,
        "evaluations": ev.evaluations,
        "calls_s": scaled,
        "calls_raw": raw,
        "model_passes": _iso_model_passes(),
    }


def _iso_model_passes() -> dict[str, int]:
    """Model passes per baseline of one iso-time cell (``SMALL_STENCIL``
    on A100, tuner seed 0), the baselines in turn on one simulator."""
    pattern = get_stencil(SMALL_STENCIL)
    sim = GpuSimulator(device=A100, seed=0)
    space = build_space(pattern, A100)
    config = CsTunerConfig(seed=0, dataset_size=128)
    dataset = CsTuner(sim, config).collect_dataset(pattern, space)
    model_pass, passes = sim._model_pass, [0]

    def counted(*args):
        passes[0] += 1
        return model_pass(*args)

    sim._model_pass = counted
    out = {}
    for tuner in ISO_TUNERS:
        passes[0] = 0
        run_tuner(tuner, sim, pattern, space, Budget(max_cost_s=ISO_BUDGET_S),
                  dataset=dataset, seed=0, cstuner_config=config)
        out[tuner] = passes[0]
    return out


def main() -> int:
    n = int(
        os.environ.get("REPRO_BENCH_THROUGHPUT_N", "500" if FAST else "2000")
    )
    reps = int(
        os.environ.get("REPRO_BENCH_THROUGHPUT_REPS", "3" if FAST else "7")
    )

    pattern = get_stencil(STENCIL)
    space = build_space(pattern, A100)
    settings = space.sample(np.random.default_rng(0), n)

    # Correctness gate first — also warms per-setting caches for both
    # timed paths equally.
    cache = _verify_identical(pattern, settings, noise=0.01)

    noisy = _sweep(pattern, settings, noise=0.01, reps=reps)
    noise_free = _sweep(pattern, settings, noise=0.0, reps=reps)
    small = _small_batches(reps)

    result = {
        "stencil": STENCIL,
        "device": A100.name,
        "fast_mode": FAST,
        "n_settings": n,
        "reps": reps,
        "identical": True,
        "min_per_sec": MIN_PER_SEC,
        "default_noise": noisy,
        "noise_free": noise_free,
        "cache": cache,
        "small_batches": small,
        "probe_reference_ms": PROBE_REF_S * 1e3,
    }
    path = write_result("eval_throughput", result)

    for label, d in (("default-noise", noisy), ("noise-free", noise_free)):
        print(
            f"{label}: row {d['row_settings_per_sec']:,.0f}/s  "
            f"column {d['column_settings_per_sec']:,.0f}/s  "
            f"column/row {d['column_over_row']:.2f}x"
        )
    print(
        f"small batches: {SMALL_CALLS} x {SMALL_BATCH} settings in "
        f"{small['calls_s'] * 1e3:.1f} ms scaled ({small['calls_raw'] * 1e3:.1f} "
        f"ms raw); iso-cell model passes {small['model_passes']}"
    )
    print(f"[written to {path}]")

    failed = False
    for path, floor in MIN_PER_SEC.items():
        rate = noisy[f"{path}_settings_per_sec"]
        if rate < floor:
            print(
                f"FAIL: {path} path {rate:,.0f} settings/s is below the "
                f"{floor:,.0f}/s floor",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
