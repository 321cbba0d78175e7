#!/usr/bin/env python
"""Columnar record-path benchmark: absolute evaluation-bookkeeping throughput.

``GpuSimulator`` keeps evaluation records in structure-of-arrays form
end to end — lazy ``MetricsTable`` views and batched journal
serialization — behind one ``OrderedDict`` LRU keyed by (stencil,
setting value tuple). This benchmark runs a grid of stencils × devices and gates on three
properties:

1. **Identity** — the simulator and csTuner cases of the identity
   corpus (``tests/identity_corpus.py``) for every configuration
   (interleaved ``run``/``run_batch`` scripts, cache counters, journal
   bytes, full tuning trajectories) must reproduce their frozen
   fixtures bit for bit.
2. **Warm-cache throughput** — fully-warm ``run_batch`` over the
   sampled settings (every lookup a true-time cache hit, default
   measurement noise), in settings per second.
3. **GA-generation throughput** — a generation-shaped tell path: a
   fresh :class:`Evaluator` pushing generation-sized chunks through
   ``evaluate_many`` against a warm simulator, i.e. the end-to-end
   bookkeeping above the performance model that the GA pays per
   generation, in settings per second.

Throughputs are absolute; ``check_regression.py`` gates them (and the
wall-clock leaves behind them) against the committed baseline, and
this script fails outright only below a loose sanity floor. Timing
uses best-of-``REPS`` rounds interleaved across every configuration
and workload (see ``_best_of_interleaved``), so a drift in host speed
spreads over all of them instead of landing on one. A further section times batched journal
ingestion (``EvaluationStore.record_batch``) against the per-row
``record`` loop it writes byte-identically.

Results land in ``BENCH_record_path.json`` at the repository root
(see ``_artifacts.py``).

Scale knobs: ``REPRO_BENCH_RECORD_N`` (settings per config, default
4000), ``REPRO_BENCH_RECORD_REPS`` (default 7),
``REPRO_BENCH_RECORD_MIN_WARM`` / ``REPRO_BENCH_RECORD_MIN_GEN``
(throughput floors, settings/s) and ``REPRO_BENCH_RECORD_PATH_FAST=1``
(CI smoke scale: fewer settings/reps — the identity gate still applies
in full, and every timed leaf stays above the regression gate's 5 ms
noise floor).

Run standalone: ``python benchmarks/bench_record_path.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ and tests/ importable
    _ROOT = Path(__file__).resolve().parent.parent
    for _p in (_ROOT / "src", _ROOT):
        if str(_p) not in sys.path:
            sys.path.insert(0, str(_p))

import numpy as np

from _artifacts import write_result
from repro.core.budget import Budget, Evaluator
from repro.gpusim.device import get_device
from repro.gpusim.diskcache import EvaluationStore
from repro.gpusim.records import MetricsTable
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from tests import identity_corpus as corpus

FAST = os.environ.get("REPRO_BENCH_RECORD_PATH_FAST", "") == "1"
STENCILS = ("j3d7pt", "cheby")
DEVICES = ("A100", "V100")
N = int(os.environ.get("REPRO_BENCH_RECORD_N", "2000" if FAST else "4000"))
GENERATION = 50  #: settings per GA-generation chunk
REPS = int(os.environ.get("REPRO_BENCH_RECORD_REPS", "7"))
MIN_WARM = float(os.environ.get("REPRO_BENCH_RECORD_MIN_WARM", "20000"))
MIN_GEN = float(os.environ.get("REPRO_BENCH_RECORD_MIN_GEN", "5000"))
SEED = 0


def _best_of_interleaved(fs, reps: int) -> list[float]:
    """Best wall-clock per callable over ``reps`` interleaved rounds."""
    best = [float("inf")] * len(fs)
    for _ in range(reps):
        for i, f in enumerate(fs):
            t0 = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _identical(device_name: str, stencil: str) -> bool:
    """The configuration's identity-corpus cases match their fixtures."""
    prefix = f"{stencil}/{device_name}"
    checks = [
        ("simulator", corpus.simulator_cases(), {prefix, f"{prefix}/store"}),
        ("search", corpus.search_cases(), {f"csTuner/{prefix}"}),
    ]
    for family, cases, names in checks:
        frozen = corpus.load_fixture(family)
        for name in sorted(names):
            if cases[name]() != frozen[name]:
                print(f"identity mismatch: {family}:{name}")
                return False
    return True


def _workloads(device_name: str, stencil: str):
    """(warm run_batch, GA-generation step) callables for one config."""
    device = get_device(device_name)
    pattern = get_stencil(stencil)
    space = build_space(pattern, device)
    settings = space.sample(np.random.default_rng(SEED), N)

    # The first run_batch pays the model cost once, after which every
    # timed lookup is a true-time cache hit and the measurement
    # isolates the record-path overhead.
    sim = GpuSimulator(device=device, seed=SEED)
    sim.run_batch(pattern, settings)

    # GA-generation step: a fresh evaluator (cold evaluator cache, warm
    # model) pushes generation-sized chunks through evaluate_many —
    # the per-generation tell path the search pays.
    chunks = [settings[i : i + GENERATION] for i in range(0, N, GENERATION)]

    def _generations() -> None:
        evaluator = Evaluator(sim, pattern, Budget(max_iterations=2 * N))
        for chunk in chunks:
            evaluator.evaluate_many(chunk)

    return (lambda: sim.run_batch(pattern, settings)), _generations


def _bench_journal_ingest() -> dict[str, object]:
    """Batched vs per-row journal serialization (byte-identical output)."""
    pattern = get_stencil(STENCILS[0])
    rng = np.random.default_rng(SEED)
    values = [tuple(int(v) for v in row) for row in rng.integers(1, 64, (N, 19))]
    names = ("occupancy", "dram_bytes", "smem_bytes", "flops")
    table = MetricsTable(names, rng.random((N, len(names))))
    times = rng.random(N)
    rows = table.as_dicts()

    # Each timed call records into a virgin store (record is idempotent
    # per key, so reuse would measure the dedup short-circuit); store
    # close — the shard merge — happens outside the timed region.
    with tempfile.TemporaryDirectory() as tmp:
        opened: list[EvaluationStore] = []

        def _open() -> EvaluationStore:
            store = EvaluationStore(Path(tmp) / f"s{len(opened)}")
            opened.append(store)
            return store

        def _per_row():
            store = _open()
            for v, t, m in zip(values, times.tolist(), rows):
                store.record("tok", pattern.name, v, t, m)

        def _batched():
            store = _open()
            store.record_batch("tok", pattern.name, values, times, table)

        row_s, batch_s = _best_of_interleaved([_per_row, _batched], REPS)
        for store in opened:
            store.close()
    return {
        "rows": N,
        "per_row_s": row_s,
        "batched_s": batch_s,
        "batched_per_sec": N / batch_s,
    }


def main() -> int:
    grid = [(d, s) for d in DEVICES for s in STENCILS]
    workloads = [f for d, s in grid for f in _workloads(d, s)]
    best = _best_of_interleaved(workloads, REPS)
    configs = []
    for k, (device, stencil) in enumerate(grid):
        warm_s, gen_s = best[2 * k], best[2 * k + 1]
        row = {
            "device": device,
            "stencil": stencil,
            "identical": _identical(device, stencil),
            "warm_s": warm_s,
            "warm_per_sec": N / warm_s,
            "generation_s": gen_s,
            "generation_per_sec": N / gen_s,
        }
        configs.append(row)
        print(
            f"{device}/{stencil}: identical={row['identical']} "
            f"warm {warm_s * 1e3:.1f}ms ({row['warm_per_sec']:,.0f}/s)  "
            f"generation {gen_s * 1e3:.1f}ms ({row['generation_per_sec']:,.0f}/s)"
        )

    n_total = N * len(configs)
    warm = n_total / sum(r["warm_s"] for r in configs)
    gen = n_total / sum(r["generation_s"] for r in configs)
    all_identical = all(r["identical"] for r in configs)

    journal = _bench_journal_ingest()
    print(
        f"journal ingest: batched {journal['batched_s'] * 1e3:.1f}ms, "
        f"per-row {journal['per_row_s'] * 1e3:.1f}ms"
    )
    print(
        f"aggregate: warm run_batch {warm:,.0f} settings/s "
        f"(floor {MIN_WARM:,.0f}), generation step {gen:,.0f} settings/s "
        f"(floor {MIN_GEN:,.0f}), identical={all_identical}"
    )

    payload = {
        "benchmark": "record_path",
        "fast_mode": FAST,
        "n_settings": N,
        "generation_size": GENERATION,
        "reps": REPS,
        "min_per_sec": {"warm": MIN_WARM, "generation": MIN_GEN},
        "configs": configs,
        "identical": all_identical,
        "warm_per_sec": warm,
        "generation_per_sec": gen,
        "journal_ingest": journal,
    }
    print(f"wrote {write_result('record_path', payload)}")

    if not all_identical:
        print("FAIL: a seeded run diverged from its identity fixture")
        return 1
    if warm < MIN_WARM:
        print(f"FAIL: warm run_batch {warm:,.0f}/s below {MIN_WARM:,.0f}/s")
        return 1
    if gen < MIN_GEN:
        print(f"FAIL: generation step {gen:,.0f}/s below {MIN_GEN:,.0f}/s")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
