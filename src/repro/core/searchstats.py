"""Process-global search-layer work counters.

The batch engine's ``cache_info()`` tells you how often the *model*
avoided work; these counters tell you how much work the *search layer*
performed above it — how many whole populations were lowered into value
matrices, how many settings went through the vectorized repair, how
many rows the array-compiled forests predicted, and how large the
sampler's candidate pools were. Benchmarks and the orchestration report
use them to attribute wall-clock between the tuners and the model.

The counters now live on the :mod:`repro.obs.metrics` registry (under
the ``search.`` prefix) — this module is the stable façade the search
layer and the orchestration pool keep calling. Counters remain
process-global: each worker process accumulates its own values and the
pool carries **per-chunk deltas** back to the parent (see
:mod:`repro.parallel.pool`), so ``orchestration.txt`` reports
fleet-wide totals that are insensitive to when (or whether) anyone
calls :func:`reset_search_stats` in between.
"""

from __future__ import annotations

from repro.obs import metrics as _metrics

#: The counters tracked, in reporting order.
COUNTER_NAMES: tuple[str, ...] = (
    "populations_lowered",
    "settings_repaired",
    "forest_predict_rows",
    "sampler_pool_size",
)

#: Registry namespace the search counters live under.
PREFIX = "search."

_VALID = frozenset(COUNTER_NAMES)


def bump(name: str, n: int = 1) -> None:
    """Add ``n`` to one counter (unknown names are a programming error)."""
    if name not in _VALID:
        raise KeyError(f"unknown search counter {name!r}")
    _metrics.count(PREFIX + name, int(n))


def search_info() -> dict[str, int]:
    """Snapshot of all search-layer counters (this process)."""
    counters = _metrics.get_registry().counters(PREFIX)
    return {
        name: int(counters.get(PREFIX + name, 0)) for name in COUNTER_NAMES
    }


def reset_search_stats() -> None:
    """Zero every counter (tests, benchmark sections, per-rep snapshots)."""
    _metrics.reset_metrics(PREFIX)
