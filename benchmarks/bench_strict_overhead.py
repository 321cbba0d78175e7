#!/usr/bin/env python
"""Strict-gate overhead benchmark: strict vs loose batch evaluation.

Sweeps 2000 (``REPRO_BENCH_STRICT_N``) sampled j3d7pt settings through
``GpuSimulator.run_batch`` twice — once with ``strict=False`` and once
with ``strict=True`` at the default 1-in-1024 hash subsampling — and
reports the relative overhead of the pre-simulation analysis gate.
Results land in ``BENCH_strict_overhead.json`` at the repository root
(see ``_artifacts.py``).

The gate's contract (docs/analysis.md) is that strict mode costs < 5 %
on a default-noise 2000-setting sweep; the benchmark exits nonzero if
the measured overhead breaks that bound. The two configurations must
also produce bit-identical times — strict mode only adds checking,
never changes results.

Run standalone: ``python benchmarks/bench_strict_overhead.py``.
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
from repro.analysis.gate import DEFAULT_STRICT_EVERY, gate_selected
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

STENCIL = "j3d7pt"
MAX_OVERHEAD = 0.05


def _best_of_interleaved(fs, reps: int) -> list[float]:
    """Best wall-clock per callable over ``reps`` interleaved rounds."""
    best = [float("inf")] * len(fs)
    for _ in range(reps):
        for i, f in enumerate(fs):
            t0 = time.perf_counter()
            f()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def main() -> int:
    n = int(os.environ.get("REPRO_BENCH_STRICT_N", "2000"))
    reps = int(os.environ.get("REPRO_BENCH_STRICT_REPS", "7"))

    pattern = get_stencil(STENCIL)
    space = build_space(pattern, A100)
    settings = space.sample(np.random.default_rng(0), n)
    gated = sum(
        gate_selected(pattern.name, s, DEFAULT_STRICT_EVERY) for s in settings
    )

    # Correctness gate first: strict mode must not change any result.
    loose_sim = GpuSimulator(device=A100, seed=0)
    strict_sim = GpuSimulator(device=A100, seed=0, strict=True)
    for a, b in zip(
        loose_sim.run_batch(pattern, settings),
        strict_sim.run_batch(pattern, settings),
    ):
        assert a.time_s == b.time_s, "strict mode changed a measured time"
        assert a.metrics == b.metrics, "strict mode changed metrics"

    # Secondary configuration: a 16x denser sampling period, so the
    # deep-check path (codegen + lint + cross-check per selected
    # setting) is actually exercised and its cost is on record.
    dense_every = max(2, DEFAULT_STRICT_EVERY // 16)
    dense_gated = sum(
        gate_selected(pattern.name, s, dense_every) for s in settings
    )

    loose_s, strict_s, dense_s = _best_of_interleaved(
        [
            lambda: GpuSimulator(device=A100, seed=0).run_batch(
                pattern, settings
            ),
            lambda: GpuSimulator(device=A100, seed=0, strict=True).run_batch(
                pattern, settings
            ),
            lambda: GpuSimulator(
                device=A100, seed=0, strict=True, strict_every=dense_every
            ).run_batch(pattern, settings),
        ],
        reps,
    )
    overhead = strict_s / loose_s - 1.0

    result = {
        "stencil": STENCIL,
        "device": A100.name,
        "n_settings": n,
        "reps": reps,
        "strict_every": DEFAULT_STRICT_EVERY,
        "settings_gated": gated,
        "identical": True,
        "loose_s": loose_s,
        "strict_s": strict_s,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_OVERHEAD,
        "dense": {
            "strict_every": dense_every,
            "settings_gated": dense_gated,
            "strict_s": dense_s,
            "overhead_fraction": dense_s / loose_s - 1.0,
        },
    }
    path = write_result("strict_overhead", result)

    print(
        f"loose {loose_s:.4f}s  strict {strict_s:.4f}s  "
        f"overhead {overhead * 100:+.2f}%  "
        f"({gated}/{n} settings deep-checked at 1/{DEFAULT_STRICT_EVERY})"
    )
    print(
        f"dense 1/{dense_every}: {dense_s:.4f}s  "
        f"overhead {(dense_s / loose_s - 1.0) * 100:+.2f}%  "
        f"({dense_gated}/{n} deep-checked)"
    )
    print(f"[written to {path}]")

    if overhead > MAX_OVERHEAD:
        print(
            f"FAIL: strict-mode overhead {overhead * 100:.2f}% exceeds the "
            f"{MAX_OVERHEAD * 100:.0f}% bound",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
