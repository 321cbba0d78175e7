"""Shared benchmark-artifact writer and host-speed probe.

Every ``bench_*.py`` records its machine-readable result as
``BENCH_<name>.json`` at the repository root: the one copy readers
commit and the regression gate (``check_regression.py``) compares
against ``benchmarks/baselines/``. The pytest-benchmark text reports
stay in ``benchmarks/results/``.

Benchmarks whose leaves scale by host speed bracket each timed call
with :func:`host_probe` and report ``wall * PROBE_REF_S / probe``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

#: Repository root (benchmarks/ lives directly below it).
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_result(name: str, payload: dict) -> Path:
    """Serialize ``payload`` to ``BENCH_<name>.json``; return its path."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


#: Seconds :func:`host_probe` takes at the reference host speed (the
#: median on a 2-CPU x86-64 VM at 2.0 GHz with Python 3.11), and the
#: probes (median taken) between two timed calls.
PROBE_REF_S = 0.005
PROBE_REPS = 3


def host_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that calls nothing
    in repro: the host's speed at that moment (perfbench's probe)."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = i
    return time.perf_counter() - start


def median_probe() -> float:
    """The median of ``PROBE_REPS`` :func:`host_probe` readings."""
    return statistics.median(host_probe() for _ in range(PROBE_REPS))
