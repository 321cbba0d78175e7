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

import numpy as np

from repro import obs
from repro.core import searchstats
from repro.core.metricsel import (
    combine_metrics,
    metric_pccs,
    select_representatives,
)
from repro.core.reindex import GroupIndex, build_group_indexes
from repro.errors import ModelFitError, SearchError
from repro.ml.regression import (
    DEFAULT_I_RANGE,
    DEFAULT_J_RANGE,
    PMNFModel,
    fit_pmnf,
)
from repro.ml.stats import pearson_correlation
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


def fit_metric_models(
    dataset: PerformanceDataset,
    groups: Sequence[Sequence[str]],
    config: SamplingConfig,
) -> tuple[dict[str, PMNFModel], list[str]]:
    """Select representative metrics and fit one PMNF model per metric.

    A metric whose PMNF fit fails entirely (degenerate column) is
    dropped with its collection — the pipeline continues with the
    remaining models.
    """
    matrix, names = dataset.metric_matrix()
    # Constant columns carry no information and break PCC ordering.
    keep = [i for i in range(len(names)) if np.ptp(matrix[:, i]) > 0]
    names = [names[i] for i in keep]
    matrix = matrix[:, keep]

    pccs = metric_pccs(matrix, names)
    collections = combine_metrics(pccs, config.num_collections)
    reps = select_representatives(collections, dataset)

    models: dict[str, PMNFModel] = {}
    settings = dataset.settings
    for name in reps:
        try:
            models[name] = fit_pmnf(
                groups,
                settings,
                dataset.metric_column(name),
                i_range=config.i_range,
                j_range=config.j_range,
                target_name=name,
            )
        except ModelFitError:
            continue
    if not models:
        raise ModelFitError("no representative metric could be modelled")
    return models, [r for r in reps if r in models]


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
        models, reps = fit_metric_models(dataset, groups, config)

    pool = space.sample(rng, config.pool_size, unique=True)
    n_keep = max(1, int(round(config.ratio * len(pool))))
    searchstats.bump("sampler_pool_size", len(pool))

    # Lower the pool once into the space's value matrix and select the
    # columns any model reads; each model then scores the shared matrix
    # instead of re-walking the pool setting-by-setting.
    names = tuple(
        dict.fromkeys(n for m in models.values() for n in m.parameter_names)
    )
    cols = [space.names.index(n) for n in names]
    pool_values = settings_matrix(pool, space.names)[:, cols]

    # Predicted metrics for the whole pool, oriented so larger = slower
    # and weighted by how strongly each metric tracks execution time in
    # the dataset (a weak proxy should not veto a strong one).
    times = dataset.times()
    badness = np.zeros(len(pool))
    passes = np.ones(len(pool), dtype=bool)
    for name, model in models.items():
        corr = pearson_correlation(dataset.metric_column(name), times)
        direction = 1.0 if corr >= 0 else -1.0
        weight = abs(corr)
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
    for rec in measured[:n_seed]:
        if rec.setting not in chosen_set:
            chosen.append(rec.setting)
            chosen_set.add(rec.setting)

    indexes = build_group_indexes(groups, chosen)
    return SampledSpace(
        settings=chosen,
        groups=tuple(tuple(g) for g in groups),
        group_indexes=indexes,
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
    screened: list[Setting] = []
    # Seeds already present in the sampled pool are representable as-is;
    # re-injecting them would only duplicate rows.
    seen: set[Setting] = set(sampled.settings)
    candidates = list(seed_settings)
    valid = space._batch_valid(candidates).tolist()
    for setting, ok in zip(candidates, valid):
        if ok and setting not in seen:
            seen.add(setting)
            screened.append(setting)
    if not screened:
        return sampled
    settings = screened + list(sampled.settings)
    return SampledSpace(
        settings=settings,
        groups=sampled.groups,
        group_indexes=build_group_indexes(sampled.groups, settings),
        models=sampled.models,
        representatives=sampled.representatives,
    )
