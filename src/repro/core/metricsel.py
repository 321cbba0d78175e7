"""Metric combination (Section IV-D, Algorithm 2).

Nsight emits far too many GPU metrics to model individually, so
csTuner clusters linearly-correlated metrics into collections: pairwise
Pearson coefficients are pushed into a deque in ascending order of
|PCC| and the most-correlated pairs (right pops) are merged into at
most ``num_collections`` collections. One representative per
collection — the metric most correlated with execution time — is then
selected for PMNF modelling.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.ml.stats import pearson_rows
from repro.profiler.dataset import PerformanceDataset


def metric_pccs(
    matrix: np.ndarray, names: Sequence[str]
) -> dict[tuple[str, str], float]:
    """|PCC| for every unordered metric pair (columns of ``matrix``)."""
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise DatasetError(
            f"metric matrix shape {matrix.shape} does not match {len(names)} names"
        )
    return _pairs(pearson_rows(matrix.T), names)


def _pairs(
    corr: np.ndarray, names: Sequence[str]
) -> dict[tuple[str, str], float]:
    """|PCC| of every unordered pair of ``names`` from their correlation
    matrix, row-major over the upper triangle."""
    i, j = np.triu_indices(len(names), 1)
    values = np.abs(corr[i, j]).tolist()
    return {
        (names[a], names[b]): v
        for a, b, v in zip(i.tolist(), j.tolist(), values)
    }


@dataclass(frozen=True)
class MetricCorrelations:
    """Every correlation metric selection reads, from one array pass.

    ``names`` are the dataset's non-constant metrics (a constant column
    carries no information and breaks the PCC ordering), ``pairs`` the
    |PCC| of each unordered pair of them and ``time`` each one's signed
    PCC with execution time.
    """

    names: list[str]
    pairs: dict[tuple[str, str], float]
    time: dict[str, float]


def metric_correlations(
    rows: np.ndarray, names: Sequence[str], times: np.ndarray
) -> MetricCorrelations:
    """Correlations of the metric ``rows`` (``(len(names), n)``, one row
    per metric) with each other and with ``times``.

    The non-constant rows and ``times`` are stacked into one contiguous
    matrix and correlated in a single :func:`~repro.ml.stats.pearson_rows`
    pass; each value equals the pairwise
    :func:`~repro.ml.stats.pearson_correlation` of its two vectors.
    """
    keep = np.ptp(rows, axis=1) > 0
    kept = [name for name, k in zip(names, keep.tolist()) if k]
    corr = pearson_rows(np.vstack([rows[keep], times[None]]))
    return MetricCorrelations(
        names=kept,
        pairs=_pairs(corr, kept),
        time=dict(zip(kept, corr[:-1, -1].tolist())),
    )


def combine_metrics(
    pccs: Mapping[tuple[str, str], float],
    num_collections: int,
) -> list[list[str]]:
    """Algorithm 2: deque-driven metric clustering.

    Pairs are sorted ascending by |PCC|; the rightmost (most
    correlated) pair is popped each time. A pair with neither metric in
    a collection opens a new collection while fewer than
    ``num_collections`` exist; a pair straddling a collection boundary
    merges the outside metric in; fully-covered pairs are skipped.
    Metrics never reached (both branches declined) stay unassigned —
    they are simply not modelled, as in the paper.
    """
    if num_collections < 1:
        raise ValueError(f"num_collections must be >= 1, got {num_collections}")
    ordered = sorted(pccs.items(), key=lambda kv: (kv[1], kv[0]))
    dq: deque[tuple[str, str]] = deque(pair for pair, _ in ordered)

    collections: list[list[str]] = []

    def find(name: str) -> int | None:
        for i, c in enumerate(collections):
            if name in c:
                return i
        return None

    que_size = len(dq)
    for _ in range(que_size):
        a, b = dq.pop()  # rightmost: highest correlation
        ia, ib = find(a), find(b)
        if ia is None and ib is None:
            if len(collections) < num_collections:
                collections.append([a, b])
            continue
        if ia is not None and ib is not None:
            continue
        if ia is not None:
            collections[ia].append(b)
        else:
            assert ib is not None
            collections[ib].append(a)
    return collections


def select_representatives(
    collections: Sequence[Sequence[str]],
    correlations: MetricCorrelations,
) -> list[str]:
    """Per collection, the metric most |PCC|-correlated with time."""
    if not collections:
        raise DatasetError("no metric collections to select from")
    reps: list[str] = []
    for coll in collections:
        if not coll:
            raise DatasetError("empty metric collection")
        best_name, best_corr = None, -1.0
        for name in coll:
            corr = abs(correlations.time[name])
            if corr > best_corr:
                best_name, best_corr = name, corr
        assert best_name is not None
        reps.append(best_name)
    return reps


def metric_time_direction(
    correlations: MetricCorrelations, metric: str
) -> float:
    """Sign of the metric's correlation with time (+1 slower, -1 faster).

    Used to orient per-metric sampling thresholds: a metric positively
    correlated with execution time should be *small* on good settings.
    A zero correlation orients as +1 (conservative).
    """
    return 1.0 if correlations.time[metric] >= 0 else -1.0
