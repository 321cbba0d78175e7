"""Motivation studies (Section III, Figs 2-4).

Three observations drive csTuner's design, measured here over a random
sample of the valid space (the paper samples >20,000 settings per
stencil on hardware; the sample size is a parameter — see
EXPERIMENTS.md for paper-scale settings):

* **Fig 2** — speedups over the sampled optimum fall mostly in the low
  bins: high-performance settings are rare.
* **Fig 3** — tuning parameter pairs separately often misses the
  jointly-optimal values: parameters are correlated.
* **Fig 4** — the top-n settings perform within a few percent of the
  optimum: an approximate optimum is an acceptable target.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.grouping import best_response_sweep
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import Setting
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern
from repro.utils.rng import rng_from_seed

#: Fig 2's five speedup bins over [0, 1].
SPEEDUP_BINS: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _sampled_times(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    n_samples: int,
    seed: int | np.random.Generator | None,
) -> tuple[list[Setting], np.ndarray]:
    rng = rng_from_seed(seed)
    settings = space.sample(rng, n_samples)
    times = simulator.true_time_batch(pattern, settings)
    return settings, times


def speedup_distribution(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    *,
    n_samples: int = 2000,
    seed: int | np.random.Generator | None = 0,
) -> dict[str, object]:
    """Fig 2: fraction of sampled settings per speedup-over-optimum bin.

    ``speedup = t_opt / t`` lies in (0, 1]; the paper also reports the
    share within 20 % of the optimum and the share slower than 5x.
    """
    settings, times = _sampled_times(simulator, pattern, space, n_samples, seed)
    t_opt = float(times.min())
    speedups = t_opt / times
    hist, _ = np.histogram(speedups, bins=SPEEDUP_BINS)
    fractions = hist / len(speedups)
    return {
        "stencil": pattern.name,
        "bins": SPEEDUP_BINS,
        "fractions": fractions.tolist(),
        "within_20pct": float((speedups >= 0.8).mean()),
        "slower_than_5x": float((speedups <= 0.2).mean()),
        "optimum_ms": t_opt * 1e3,
        "n_samples": len(settings),
    }


def parameter_pair_distribution(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    *,
    n_samples: int = 1000,
    probe_limit: int = 6,
    seed: int | np.random.Generator | None = 0,
    parameters: Sequence[str] | None = None,
) -> dict[str, object]:
    """Fig 3: how often separate pair tuning misses the joint optimum.

    For each ordered pair (a, b): sweep ``a`` (others fixed at the
    sampled optimum) and record the best ``b`` per value of ``a``; the
    pair's *mismatch percentage* is the fraction of sweeps whose best
    ``b`` differs from the optimal setting's ``b``. Returns the
    histogram of mismatch percentages over pairs (five 20 % bins).
    """
    settings, times = _sampled_times(simulator, pattern, space, n_samples, seed)
    best = settings[int(np.argmin(times))]
    names = list(parameters) if parameters is not None else list(space.names)

    pairs = [(a, b) for a in names for b in names if a != b]
    # One sweep over every pair's (a, b) grid: the same validity screen,
    # simulator batch and "first strictly smallest" winner as grouping.
    sweep = best_response_sweep(simulator, pattern, space, best, [
        (a, b, space.param(a).values[:probe_limit]) for a, b in pairs
    ])
    percentages: list[float] = []
    for (_, b), winners in zip(pairs, sweep.winners):
        found = [vb for vb in winners if vb is not None]
        if found:
            mismatches = sum(vb != best[b] for vb in found)
            percentages.append(mismatches / len(found))

    hist, _ = np.histogram(percentages, bins=SPEEDUP_BINS)
    fractions = hist / max(1, len(percentages))
    arr = np.array(percentages)
    return {
        "stencil": pattern.name,
        "bins": SPEEDUP_BINS,
        "fractions": fractions.tolist(),
        "mean_mismatch": float(arr.mean()) if len(arr) else 0.0,
        "pairs_nonzero": float((arr > 0).mean()) if len(arr) else 0.0,
        "pairs_over_40pct": float((arr > 0.4).mean()) if len(arr) else 0.0,
        "n_pairs": len(percentages),
    }


def topn_speedups(
    simulator: GpuSimulator,
    pattern: StencilPattern,
    space: SearchSpace,
    *,
    n_samples: int = 2000,
    ns: Sequence[int] = (10, 50, 100),
    seed: int | np.random.Generator | None = 0,
) -> dict[str, object]:
    """Fig 4: speedup of the nth-best sampled setting over the optimum."""
    _, times = _sampled_times(simulator, pattern, space, n_samples, seed)
    times_sorted = np.sort(times)
    t_opt = float(times_sorted[0])
    out: dict[int, float] = {}
    for n in ns:
        if n > len(times_sorted):
            raise ValueError(f"top-{n} requested from {len(times_sorted)} samples")
        out[int(n)] = t_opt / float(times_sorted[n - 1])
    return {
        "stencil": pattern.name,
        "speedups": out,
        "optimum_ms": t_opt * 1e3,
        "n_samples": int(len(times_sorted)),
    }
