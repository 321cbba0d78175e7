"""PMNF-guided search-space sampling (Section IV-D).

The sampler draws a large pool of valid candidate settings, predicts
the selected GPU metrics for each with group-structured PMNF models
fitted on the offline dataset, and keeps only the candidates whose
predicted metric profile looks like that of fast settings:

* each selected metric gets a *threshold* — candidates predicted to be
  on the wrong side (oriented by the metric's correlation with
  execution time) are filtered out;
* survivors are ranked by a correlation-signed composite of their
  predicted metrics, and the best ``ratio`` fraction of the pool forms
  the sampled search space.

This realises the paper's "filter out low-performance parameter
settings during the sampling process" with the 10 % default sampling
ratio of Section V-A2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.core import searchstats
from repro.core.metricsel import (
    MetricCorrelations,
    combine_metrics,
    metric_correlations,
    metric_time_direction,
    select_representatives,
)
from repro.core.reindex import GroupIndex, build_group_indexes
from repro.errors import ModelFitError, SearchError
from repro.ml.regression import (
    DEFAULT_I_RANGE,
    DEFAULT_J_RANGE,
    PMNFModel,
    fit_pmnf,
    group_columns,
    pmnf_candidates,
)
from repro.profiler.dataset import PerformanceDataset
from repro.space.setting import Setting, settings_matrix
from repro.space.space import SearchSpace
from repro.utils.rng import rng_from_seed


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of the sampling stage (paper defaults)."""

    ratio: float = 0.10
    pool_size: int = 2000
    num_collections: int = 4
    i_range: tuple[int, ...] = DEFAULT_I_RANGE
    j_range: tuple[int, ...] = DEFAULT_J_RANGE
    #: Per-metric threshold quantile: candidates beyond this quantile of
    #: the pool's predicted values (in the slow direction) are dropped.
    threshold_quantile: float = 0.90

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.pool_size < 10:
            raise ValueError(f"pool_size too small: {self.pool_size}")
        if not 0.5 <= self.threshold_quantile <= 1.0:
            raise ValueError(
                f"threshold_quantile must be in [0.5, 1]: {self.threshold_quantile}"
            )


@dataclass
class SampledSpace:
    """Output of the sampling stage, input of the evolutionary search."""

    settings: list[Setting]
    groups: tuple[tuple[str, ...], ...]
    group_indexes: list[GroupIndex]
    models: dict[str, PMNFModel] = field(default_factory=dict)
    representatives: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.settings)


class MetricModels(NamedTuple):
    """The fitted metric models, the representatives they model (in
    collection order) and the correlations that chose them."""

    models: dict[str, PMNFModel]
    representatives: list[str]
    correlations: MetricCorrelations


def fit_metric_models(
    dataset: PerformanceDataset,
    groups: Sequence[Sequence[str]],
    config: SamplingConfig,
) -> MetricModels:
    """Select representative metrics and fit one PMNF model per metric.

    The dataset's metrics and the settings' group columns are lowered
    once; every correlation comes from one array pass and every fit
    reads the same candidate design matrices. A metric whose PMNF fit fails
    entirely (degenerate column) is dropped with its collection — the
    pipeline continues with the remaining models.
    """
    rows, names = dataset.metric_rows()
    correlations = metric_correlations(rows, names, dataset.times())
    collections = combine_metrics(correlations.pairs, config.num_collections)
    reps = select_representatives(collections, correlations)

    order = group_columns(groups)
    candidates = pmnf_candidates(
        groups,
        settings_matrix(dataset.settings, order),
        order,
        i_range=config.i_range,
        j_range=config.j_range,
    )
    row_of = {name: k for k, name in enumerate(names)}
    models: dict[str, PMNFModel] = {}
    for name in reps:
        try:
            models[name] = fit_pmnf(
                candidates, rows[row_of[name]], target_name=name
            )
        except ModelFitError:
            continue
    if not models:
        raise ModelFitError("no representative metric could be modelled")
    return MetricModels(models, [r for r in reps if r in models], correlations)


def sample_search_space(
    space: SearchSpace,
    dataset: PerformanceDataset,
    groups: Sequence[Sequence[str]],
    config: SamplingConfig = SamplingConfig(),
    seed: int | np.random.Generator | None = 0,
) -> SampledSpace:
    """Run the full sampling stage: models → pool → filter → re-index."""
    rng = rng_from_seed(seed)
    with obs.span("phase.fitting", metrics=config.num_collections):
        models, reps, correlations = fit_metric_models(dataset, groups, config)

    pool = space.sample(rng, config.pool_size, unique=True)
    n_keep = max(1, int(round(config.ratio * len(pool))))
    searchstats.bump("sampler_pool_size", len(pool))

    # Lower the pool once into the space's value matrix; each model
    # scores the columns it reads instead of re-walking the pool
    # setting-by-setting, and the chosen rows are re-indexed from it.
    pool_matrix = settings_matrix(pool, space.names)
    names = tuple(
        dict.fromkeys(n for m in models.values() for n in m.parameter_names)
    )
    pool_values = pool_matrix[:, [space.names.index(n) for n in names]]

    # Predicted metrics for the whole pool, oriented so larger = slower
    # and weighted by how strongly each metric tracks execution time in
    # the dataset (a weak proxy should not veto a strong one).
    badness = np.zeros(len(pool))
    passes = np.ones(len(pool), dtype=bool)
    for name, model in models.items():
        direction = metric_time_direction(correlations, name)
        weight = abs(correlations.time[name])
        pred = model.predict_values(pool_values, names) * direction
        spread = float(np.std(pred))
        if spread > 0:
            badness += weight * (pred - float(np.mean(pred))) / spread
        threshold = float(np.quantile(pred, config.threshold_quantile))
        passes &= pred <= threshold

    # Rank-scan, vectorized: take passing candidates in badness order;
    # when thresholds leave fewer than n_keep, top up with the filtered
    # ones, still by rank. The pool is duplicate-free (unique sample),
    # so index selection matches the old append-and-set-membership scan
    # choice-for-choice.
    order = np.argsort(badness, kind="stable")
    order_pass = order[passes[order]]
    order_fail = order[~passes[order]]
    chosen_idx = np.concatenate([order_pass, order_fail])[:n_keep]
    chosen: list[Setting] = [pool[int(idx)] for idx in chosen_idx]
    if not chosen:
        raise SearchError("sampling produced an empty search space")

    # The offline dataset's fastest rows are *measured* good settings;
    # folding them in costs nothing (already profiled) and seeds the
    # evolutionary search with known-valid group tuples.
    measured = sorted(dataset, key=lambda r: r.time_s)
    n_seed = max(1, len(dataset) // 8)
    chosen_set = set(chosen)
    folded: list[Setting] = []
    for rec in measured[:n_seed]:
        if rec.setting not in chosen_set:
            folded.append(rec.setting)
            chosen_set.add(rec.setting)

    values = np.vstack([
        pool_matrix[chosen_idx], settings_matrix(folded, space.names)
    ])
    return SampledSpace(
        settings=chosen + folded,
        groups=tuple(tuple(g) for g in groups),
        group_indexes=build_group_indexes(groups, values, space.names),
        models=models,
        representatives=reps,
    )


def with_seed_settings(
    sampled: SampledSpace,
    space: SearchSpace,
    seed_settings: Sequence[Setting],
) -> SampledSpace:
    """A sampled space with warm-start settings prepended.

    The evolutionary search seeds its first generation from the head of
    ``sampled.settings`` and requires every seed to be representable in
    the group indexes (see
    :meth:`~repro.core.genetic.EvolutionarySearch._genes_of`), so the
    injected settings are validity-screened, deduplicated, prepended
    *and* folded into rebuilt group indexes. Injecting an empty
    sequence returns ``sampled`` unchanged — the cold path never pays
    for the rebuild.
    """
    candidates = list(seed_settings)
    if not candidates:
        return sampled
    lowered = settings_matrix(candidates, space.names)
    valid = space._batch_valid_matrix(lowered).tolist()
    # Seeds already present in the sampled pool are representable as-is;
    # re-injecting them would only duplicate rows.
    seen: set[Setting] = set(sampled.settings)
    screened: list[int] = []
    for k, (setting, ok) in enumerate(zip(candidates, valid)):
        if ok and setting not in seen:
            seen.add(setting)
            screened.append(k)
    if not screened:
        return sampled
    settings = [candidates[k] for k in screened] + list(sampled.settings)
    values = np.vstack([
        lowered[screened], settings_matrix(sampled.settings, space.names)
    ])
    return SampledSpace(
        settings=settings,
        groups=sampled.groups,
        group_indexes=build_group_indexes(sampled.groups, values, space.names),
        models=sampled.models,
        representatives=sampled.representatives,
    )
