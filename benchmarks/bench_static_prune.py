#!/usr/bin/env python
"""Static-pruning benchmark: pruned-fraction and evaluations-to-target.

For each stencil × device pair this benchmark samples one seeded stream
of valid settings and "tunes" it twice over the *same* stream:

* **unpruned** — evaluate every setting in stream order;
* **pruned** — evaluate the first ``PROBES`` settings (the pruner's
  anchor prefix), anchor a :class:`repro.analysis.prune.StaticPruner`
  on the best time achieved in that prefix, statically screen the rest
  of the stream, and evaluate only the survivors.

The pruner's lower bound is sound, so no pruned setting can beat the
anchor — the best-found time must be *identical* between the two runs
(gated per pair via the ``identical`` flag). The value of pruning is
the work avoided: the ``pruned_fraction`` of the stream never reaches
the simulator, and ``evals_to_target`` (evaluations until a time
within 10% of the stream optimum) shrinks accordingly.

Gates:

1. every pair must report ``identical: true`` (best-found unchanged);
2. at least one pair must statically reject ≥ ``MIN_PRUNED_FRACTION``
   (default 15%) of the sampled stream.

Results land in ``BENCH_static_prune.json`` at the repository root
(see ``_artifacts.py``).

Scale knobs: ``REPRO_BENCH_PRUNE_STENCILS`` (default ``j3d7pt,cheby``),
``REPRO_BENCH_PRUNE_N`` (stream length, default 400),
``REPRO_BENCH_PRUNE_FAST=1`` (CI smoke scale: 120-setting streams —
the identity and pruned-fraction gates still apply in full).

Run standalone: ``python benchmarks/bench_static_prune.py``.
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

from _artifacts import write_result
from repro.analysis.prune import StaticPruner, static_blocks_per_sm
from repro.gpusim.device import get_device
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from repro.utils.rng import rng_from_seed

FAST = os.environ.get("REPRO_BENCH_PRUNE_FAST") == "1"
STENCILS = os.environ.get("REPRO_BENCH_PRUNE_STENCILS", "j3d7pt,cheby").split(",")
DEVICES = ("A100", "V100")
N_SETTINGS = int(os.environ.get("REPRO_BENCH_PRUNE_N", "120" if FAST else "400"))
PROBES = 32
SEED = 0
#: A pair passes the pruning gate when this fraction of its stream is
#: statically rejected (the ISSUE's acceptance floor).
MIN_PRUNED_FRACTION = 0.15
#: "Good enough" band for evals-to-target: within 10% of the optimum.
TARGET_FACTOR = 1.10


def evals_to_target(times: np.ndarray, target: float) -> int | None:
    """1-based index of the first evaluation at or under ``target``."""
    hits = np.flatnonzero(times <= target)
    return int(hits[0]) + 1 if hits.size else None


def run_pair(stencil: str, device_name: str) -> dict:
    pattern = get_stencil(stencil)
    device = get_device(device_name)
    space = build_space(pattern, device)
    settings = space.sample(rng_from_seed(SEED), N_SETTINGS)

    # Drop statically-unlaunchable settings up front: the simulator
    # rejects them with an exception, so neither run could evaluate
    # them. Both runs see the identical stream.
    values = settings_matrix(settings)
    launchable = static_blocks_per_sm(pattern, device, values) >= 1
    dropped = int((~launchable).sum())
    settings = [s for s, ok in zip(settings, launchable.tolist()) if ok]
    values = values[launchable]
    n = len(settings)

    sim = GpuSimulator(device)
    t0 = time.perf_counter()
    times = sim.true_time_batch(pattern, settings)
    unpruned_s = time.perf_counter() - t0
    best = float(times.min())
    target = best * TARGET_FACTOR

    # Pruned run over the same stream: fresh simulator (no shared
    # cache), anchor on the prefix, screen the tail.
    sim2 = GpuSimulator(device)
    t0 = time.perf_counter()
    prefix = settings[:PROBES]
    prefix_times = sim2.true_time_batch(pattern, prefix)
    pruner = StaticPruner(
        pattern=pattern, device=device, ref_time_s=float(prefix_times.min())
    )
    tail_mask = pruner.dominated_mask(values[PROBES:])
    survivors = [
        s for s, cut in zip(settings[PROBES:], tail_mask.tolist()) if not cut
    ]
    survivor_times = sim2.true_time_batch(pattern, survivors)
    pruned_s = time.perf_counter() - t0
    pruned_times = np.concatenate([prefix_times, survivor_times])
    best_pruned = float(pruned_times.min())

    n_pruned = int(tail_mask.sum())
    return {
        "stencil": stencil,
        "device": device_name,
        "stream_length": n,
        "unlaunchable_dropped": dropped,
        "probes": PROBES,
        "pruned": n_pruned,
        "pruned_fraction": n_pruned / n,
        "evaluations_unpruned": n,
        "evaluations_pruned": n - n_pruned,
        "best_time_s": best,
        "best_time_pruned_s": best_pruned,
        "identical": best_pruned == best,
        "evals_to_target_unpruned": evals_to_target(times, target),
        "evals_to_target_pruned": evals_to_target(pruned_times, target),
        "wall_unpruned_s": unpruned_s,
        "wall_pruned_s": pruned_s,
    }


def main() -> int:
    pairs = [
        run_pair(stencil, device)
        for stencil in STENCILS
        for device in DEVICES
    ]
    identical = all(p["identical"] for p in pairs)
    max_fraction = max(p["pruned_fraction"] for p in pairs)
    payload = {
        "benchmark": "static_prune",
        "fast_mode": FAST,
        "n_settings": N_SETTINGS,
        "probes": PROBES,
        "seed": SEED,
        "min_pruned_fraction": MIN_PRUNED_FRACTION,
        "pairs": pairs,
        "identical": identical,
        "max_pruned_fraction": max_fraction,
    }
    path = write_result("static_prune", payload)
    for p in pairs:
        print(
            f"{p['stencil']}@{p['device']}: pruned "
            f"{p['pruned_fraction']:.1%} of {p['stream_length']}, "
            f"best {'unchanged' if p['identical'] else 'CHANGED'}, "
            f"evals-to-target {p['evals_to_target_unpruned']} -> "
            f"{p['evals_to_target_pruned']}"
        )
    print(f"artifact: {path}")
    if not identical:
        print("FAIL: pruning changed the best-found time", file=sys.stderr)
        return 1
    if max_fraction < MIN_PRUNED_FRACTION:
        print(
            f"FAIL: best pruned fraction {max_fraction:.1%} below the "
            f"{MIN_PRUNED_FRACTION:.0%} floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: identical best-found; max pruned fraction {max_fraction:.1%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
