"""End-to-end benchmark of the csTuner reproduction.

One run::

    python3 perfbench/run.py --workload iso_time_search --seed 1 --seconds 40 --trace 0

sets up the workload (fresh on-disk state, then the whole seeded job
list once, untimed), measures a closed loop over the job list for the
whole number of passes that lasts about ``--seconds`` (see
``workloads.PASS_S``), checks every job's output and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the layers' public entry
points (see ``layers.py``) on every other job and reports per-layer
per-job means instead. The line before it is the run record: host,
versions, load, job count, tail percentile, error rate, the timings
before scaling, and a digest of every job's result.

Every timing is scaled to a reference host speed: job times by the
host-speed probes taken around each job, the window by those taken
during it, and set-up by those of its pass over the jobs (see
``workloads.host_probe``). The unscaled timings are in the run record.

Steadiness mode runs the benchmark over several seeds, twice, and
prints each end-to-end metric's spread against its bound::

    python3 perfbench/run.py --steadiness --workload service_mix --runs 5
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("iso_time_search", "service_mix")

#: End-to-end metric -> unit.
E2E_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "quality_ratio": "ratio",
    "sim_cost_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The tail is the highest percentile with at least this many jobs
#: beyond it (never below the median).
TAIL_BEYOND = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="csTuner reproduction benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run --runs seeds twice and report spreads")
    p.add_argument("--runs", type=int, default=5,
                   help="seeds per set in steadiness mode")
    p.add_argument("--sets", type=int, default=2,
                   help="sets of runs in steadiness mode")
    return p.parse_args(argv)


def run_record(args: argparse.Namespace) -> dict[str, Any]:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def ranks(values: list[float]) -> tuple[float, float, int]:
    """Nearest-rank median and tail of ``values``, and the tail's
    percentile: the highest one with TAIL_BEYOND values beyond it, or
    the median when there are too few values for that."""
    xs = sorted(values)
    n = len(xs)
    mid = math.ceil(n / 2)
    if n - TAIL_BEYOND <= mid:
        return xs[mid - 1], xs[mid - 1], 50
    tail = n - TAIL_BEYOND
    return xs[mid - 1], xs[tail - 1], math.floor(100 * tail / n)


def run_once(args: argparse.Namespace) -> int:
    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    # scipy's curve_fit warns about overflow on some PMNF candidates.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    import workloads as wl

    state_dir = wl.fresh_dir(ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}")
    try:
        return measure(args, state_dir, t_setup)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def measure(args: argparse.Namespace, state_dir: Path, t_setup: float) -> int:
    import workloads as wl
    from layers import LAYER_METRICS, per_layer_metrics

    record = run_record(args)
    trace = bool(args.trace)
    workload = wl.make_workload(args.workload, args.seed, state_dir, SRC)
    try:
        workload.setup(trace)
        warm = workload.pass_once()
        setup_raw_s = time.perf_counter() - t_setup
        setup_probes = list(workload.probes)
        # Whole passes only, and as many in every run: a partial pass
        # would weigh some jobs more than others, and a pass count read
        # off the host's speed would change the work between runs.
        passes = max(1, round(args.seconds / wl.PASS_S[args.workload]))
        timed, window_s = workload.window(passes, trace)
    finally:
        daemon_rss = workload.close()
    window_probes = workload.probes[len(setup_probes):]
    # Set-up is scaled by the host's speed during its pass over the jobs.
    setup_s = setup_raw_s * wl.PROBE_REF_S / statistics.fmean(setup_probes)
    scaled_window_s = workload.scaled_window_s(timed, window_s, window_probes)
    service = workload.service_metrics(timed)

    checker = wl.Checker()
    first = {o.job: o for o in warm}
    failures: dict[str, str] = {}
    for job in workload.jobs:
        o = first.get(job)
        reason = "missing from the set-up pass" if o is None else (
            o.error or checker.check(
                job, o.payloads,
                warm_started=args.workload == "service_mix" and not job.golden,
            )
        )
        if reason:
            failures[job.key] = reason
    failed = 0
    for o in timed:
        ref = first.get(o.job)
        reason = o.error or failures.get(o.job.key)
        if reason is None and (ref is None or o.digest != ref.digest):
            reason = "result differs from the set-up pass"
        if reason:
            failures.setdefault(o.job.key, reason)
            failed += 1
    attempted = len(timed)

    ok_jobs = [first[j] for j in workload.jobs if j.key not in failures]
    ratios = [r for o in ok_jobs for r in checker.ratios(o.payloads)]
    costs = [sum(p["cost_s"] for p in o.payloads) for o in ok_jobs]
    walls = [o.scaled_s for o in timed if not o.traced]
    p50, tail, tail_pct = ranks(walls) if walls else (0.0, 0.0, 0)
    assert tail >= p50
    raw_walls = [o.wall_s for o in timed if not o.traced]
    raw_p50, raw_tail, _ = ranks(raw_walls) if raw_walls else (0.0, 0.0, 0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        traced = [o for o in timed if o.traced]
        untraced_p50 = statistics.median(walls) if walls else 0.0
        traced_p50 = statistics.median(o.scaled_s for o in traced) if traced else 0.0
        iterations = sum(p["iterations"] for o in traced for p in o.payloads)
        values = per_layer_metrics(
            workload.totals,
            workload.counters,
            jobs=len(traced),
            iterations=iterations,
            journal_lines=workload.journal_lines,
            unattributed_s=(statistics.mean(workload.unattributed)
                            if workload.unattributed else 0.0),
            trace_overhead=(traced_p50 / untraced_p50 - 1.0
                            if untraced_p50 and traced_p50 else 0.0),
            service=service,
        )
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
        record["traced_jobs"] = len(traced)
    else:
        values = {
            "job_p50_s": p50,
            "job_tail_s": tail,
            "jobs_per_s": len(timed) / scaled_window_s,
            "quality_ratio": wl.geomean(ratios) if ratios else 0.0,
            "sim_cost_s": statistics.mean(costs) if costs else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb + daemon_rss,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    record.update({
        "jobs": attempted,
        "distinct_jobs": len(workload.jobs),
        "passes": passes,
        "window_s": round(window_s, 3),
        # The timings before scaling to the reference host speed.
        "raw": {
            "job_p50_s": raw_p50,
            "job_tail_s": raw_tail,
            "jobs_per_s": len(timed) / window_s,
            "setup_s": setup_raw_s,
        },
        "probe_s": {
            "setup": statistics.median(setup_probes),
            "window": statistics.median(window_probes),
            "ref": wl.PROBE_REF_S,
        },
        "tail_percentile": f"p{tail_pct}",
        "error_rate": failed / attempted if attempted else 1.0,
        "journal_lines": workload.journal_lines,
        "digests": {o.job.key: o.digest for o in warm},
        "failures": failures,
    })
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Steadiness mode
# ---------------------------------------------------------------------------

def quartile_spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def steadiness(args: argparse.Namespace) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, args.runs + 1)
    sets: list[dict[str, list[float]]] = []
    digests: list[dict[int, Any]] = []
    ok = True
    for set_no in range(1, args.sets + 1):
        values: dict[str, list[float]] = {}
        seen: dict[int, Any] = {}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"set {set_no} seed {seed}: failed\n{proc.stderr[-2000:]}")
                return 1
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            seen[seed] = record["digests"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in record["raw"].items():
                values.setdefault("raw." + name, []).append(v)
            print(f"set {set_no} seed {seed}: jobs={record['jobs']} "
                  f"tail={record['tail_percentile']} "
                  f"load={record['loadavg'][0]} "
                  f"probe_s={record['probe_s']['window']:.5f} "
                  + " ".join(f"{k}={m['value']:.4g}"
                             for k, m in sorted(result["metrics"].items())),
                  flush=True)
        sets.append(values)
        digests.append(seen)
    same = all(d == digests[0] for d in digests)
    print(f"result digests equal across sets: {same}")
    ok = ok and same
    for name in sorted(sets[0]):
        # raw.<metric>: the unscaled timing, shown for comparison only.
        base = name.removeprefix("raw.")
        bound = bounds.get(base, {}).get("bound", math.nan)
        better = bounds.get(base, {}).get("better", "lower")
        spreads = [quartile_spread(s[name]) for s in sets]
        m1, m2 = (statistics.median(s[name]) for s in (sets[0], sets[-1]))
        drift = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
        steady = max(spreads) <= bound and abs(drift) <= bound
        verdict = "ok" if steady else "NOT STEADY"
        if base == name:
            ok = ok and steady
        print(f"{name:18s} bound={bound:.3f} spread="
              + "/".join(f"{x:.4f}" for x in spreads)
              + f" (target < {bound / 3:.4f}) "
              f"median={m1:.5g}/{m2:.5g} worse_by={drift:+.4f} {verdict}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
