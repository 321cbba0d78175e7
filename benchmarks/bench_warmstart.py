#!/usr/bin/env python
"""Results-database benchmark: golden fast path + warm-start savings.

For each stencil × device pair this benchmark plays out the database's
whole lifecycle:

1. **Populate** — a prior tuning run (different seed, so it models an
   earlier user) journals every evaluation into a throwaway cache
   directory, which is ingested into a fresh :class:`ResultsDB`;
   ``update_golden`` then promotes the best record per shard.
2. **Cold vs. warm** — a new tuning job (new seed) runs twice from the
   same configuration: once cold, once with ``warm_start`` seeding the
   GA from nearest-neighbor records. The figure of merit is
   *evaluations-to-target*: how many evaluations until the best-so-far
   time is within ``TARGET_FACTOR`` of the golden record's time. Warm
   runs evaluate the prior best in their first generation, so they hit
   the target almost immediately.
3. **Bit-identity** — the same job with the database attached but the
   fast path disabled and no warm start must reproduce the cold run's
   result exactly (the database's presence alone may not perturb
   anything).
4. **Fast path** — with the fast path enabled, the job is answered by
   the golden record in O(1): zero evaluations, no tuner constructed,
   wall time recorded as ``fastpath_lookup_s`` (µs-scale — reported,
   not regression-gated: it sits under the gate's noise floor).

Gates:

1. every pair must report ``identical: true`` (step 3);
2. every pair must serve the golden fast path with 0 evaluations;
3. at least ``MIN_PAIRS_OVER_FLOOR`` pairs must cut
   evaluations-to-target by ≥ ``MIN_REDUCTION`` (default 30%).

Results land in ``BENCH_warmstart.json`` at the repository root (see
``_artifacts.py``).

Scale knobs: ``REPRO_BENCH_WARMSTART_FAST=1`` (CI smoke scale: smaller
dataset and fewer iterations — every gate still applies in full).

Run standalone: ``python benchmarks/bench_warmstart.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from _artifacts import write_result
from repro.core import Budget
from repro.core.result import TuningResult
from repro.experiments.tasks import tuner_run_task
from repro.gpusim.device import get_device
from repro.gpusim.diskcache import EvaluationStore, set_default_store
from repro.resultsdb.db import ResultsDB
from repro.stencil.suite import get_stencil

FAST = os.environ.get("REPRO_BENCH_WARMSTART_FAST") == "1"
PAIRS = (("j3d7pt", "A100"), ("cheby", "V100"))
TUNER = "csTuner"
#: The prior run that populates the database (an "earlier user").
PRIOR_SEED = 7
#: The new tuning job being warm-started.
SEED = 0
DATASET_SIZE = 64 if FAST else 128
#: Iteration budgets (deterministic, unlike wall-clock budgets). The
#: prior run gets more iterations than the new job, so the golden
#: record is a genuinely hard target for a cold start.
PRIOR_ITERATIONS = 6 if FAST else 10
JOB_ITERATIONS = 6 if FAST else 10
#: "Reached the target" = best-so-far within this factor of the golden
#: record's time (absorbs per-seed measurement noise).
TARGET_FACTOR = 1.05
#: Acceptance floor: warm starts must cut evaluations-to-target by
#: this fraction, on at least MIN_PAIRS_OVER_FLOOR pairs.
MIN_REDUCTION = 0.30
MIN_PAIRS_OVER_FLOOR = 2
WARM_SEEDS = 8


def evals_to_target(result: TuningResult, target_s: float) -> int:
    """Evaluations until best-so-far ≤ target (total evals when never).

    Falling back to the run's full evaluation count (rather than ∞)
    keeps the reduction ratio finite and conservative: a cold run that
    never reaches the target is credited with *at least* its whole
    budget, not more.
    """
    for pt in result.trace:
        if pt.best_time_s <= target_s:
            return max(1, pt.evaluations)
    return max(1, result.evaluations)


def populate_db(db_root: Path, stencil: str, device: str) -> dict:
    """Prior tuning run → evaluation cache → ingest → golden table."""
    cache_dir = db_root.parent / f"cache-{stencil}-{device}"
    store = EvaluationStore(cache_dir)
    previous = set_default_store(store)
    try:
        prior = tuner_run_task(
            stencil, device, TUNER,
            Budget(max_iterations=PRIOR_ITERATIONS),
            rep=0, seed=PRIOR_SEED, dataset_size=DATASET_SIZE,
        )
    finally:
        set_default_store(previous)
        store.close()
    db = ResultsDB(db_root)
    ingest = db.ingest_cache_dir(cache_dir)
    golden = db.update_golden()
    return {
        "prior_best_time_s": prior.best_time_s,
        "prior_evaluations": prior.evaluations,
        "records_ingested": ingest["records_added"],
        "golden_promoted": golden["promoted"],
        "golden_version": golden["version"],
    }


def run_pair(stencil: str, device: str, tmp: Path) -> dict:
    db_root = tmp / f"db-{stencil}-{device}"
    setup = populate_db(db_root, stencil, device)
    db = ResultsDB(db_root)
    budget = Budget(max_iterations=JOB_ITERATIONS)
    common = dict(rep=0, seed=SEED, dataset_size=DATASET_SIZE)

    cold = tuner_run_task(stencil, device, TUNER, budget, **common)
    warm = tuner_run_task(
        stencil, device, TUNER, budget, **common,
        db_root=str(db_root), db_fastpath=False, warm_start=True,
        warm_seeds=WARM_SEEDS,
    )
    # Database attached, fast path off, no warm start: must be the
    # cold run bit-for-bit.
    nofast = tuner_run_task(
        stencil, device, TUNER, budget, **common,
        db_root=str(db_root), db_fastpath=False,
    )
    identical = (
        nofast.best_setting == cold.best_setting
        and nofast.best_time_s == cold.best_time_s
        and nofast.evaluations == cold.evaluations
    )

    # Golden fast path: O(1), zero evaluations, no tuner construction.
    t0 = time.perf_counter()
    served = tuner_run_task(
        stencil, device, TUNER, budget, **common,
        db_root=str(db_root), db_fastpath=True,
    )
    fastpath_lookup_s = time.perf_counter() - t0
    golden_record = db.serve(get_stencil(stencil), get_device(device))
    assert golden_record is not None
    target_s = golden_record.time_s * TARGET_FACTOR

    cold_evals = evals_to_target(cold, target_s)
    warm_evals = evals_to_target(warm, target_s)
    reduction = 1.0 - warm_evals / cold_evals
    return {
        "stencil": stencil,
        "device": device,
        **setup,
        "golden_time_s": golden_record.time_s,
        "target_time_s": target_s,
        "cold_best_time_s": cold.best_time_s,
        "warm_best_time_s": warm.best_time_s,
        "cold_evals_to_target": cold_evals,
        "warm_evals_to_target": warm_evals,
        "warm_seeds_injected": int(warm.meta.get("warm_seeds", 0) or 0),
        "evals_reduction": reduction,
        "identical": identical,
        "golden_served": bool(served.meta.get("golden_served")),
        "fastpath_evaluations": served.evaluations,
        "fastpath_lookup_s": fastpath_lookup_s,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench-warmstart-") as tmp_name:
        tmp = Path(tmp_name)
        pairs = [run_pair(stencil, device, tmp) for stencil, device in PAIRS]

    identical = all(p["identical"] for p in pairs)
    served = all(
        p["golden_served"] and p["fastpath_evaluations"] == 0 for p in pairs
    )
    over_floor = sum(p["evals_reduction"] >= MIN_REDUCTION for p in pairs)
    payload = {
        "benchmark": "warmstart",
        "fast_mode": FAST,
        "dataset_size": DATASET_SIZE,
        "iterations": JOB_ITERATIONS,
        "prior_iterations": PRIOR_ITERATIONS,
        "seed": SEED,
        "prior_seed": PRIOR_SEED,
        "target_factor": TARGET_FACTOR,
        "min_reduction": MIN_REDUCTION,
        "warm_seeds": WARM_SEEDS,
        "pairs": pairs,
        "identical": identical,
        "golden_fastpath_ok": served,
        "pairs_over_floor": over_floor,
    }
    path = write_result("warmstart", payload)
    for p in pairs:
        print(
            f"{p['stencil']}@{p['device']}: evals-to-target "
            f"{p['cold_evals_to_target']} -> {p['warm_evals_to_target']} "
            f"({p['evals_reduction']:.1%} reduction, "
            f"{p['warm_seeds_injected']} seeds), "
            f"cold path {'unchanged' if p['identical'] else 'CHANGED'}, "
            f"fastpath {p['fastpath_lookup_s'] * 1e6:.0f}us/"
            f"{p['fastpath_evaluations']} evals"
        )
    print(f"artifact: {path}")
    if not identical:
        print(
            "FAIL: attaching the database with the fast path disabled "
            "changed the best-found result",
            file=sys.stderr,
        )
        return 1
    if not served:
        print(
            "FAIL: golden fast path did not serve with 0 evaluations",
            file=sys.stderr,
        )
        return 1
    if over_floor < MIN_PAIRS_OVER_FLOOR:
        print(
            f"FAIL: only {over_floor} pair(s) cut evaluations-to-target by "
            f">={MIN_REDUCTION:.0%} (need {MIN_PAIRS_OVER_FLOOR})",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: identical cold path, O(1) golden serve, "
        f"{over_floor}/{len(pairs)} pairs over the "
        f"{MIN_REDUCTION:.0%} reduction floor"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
