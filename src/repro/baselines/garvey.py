"""The Garvey baseline (Garvey & Abdelrahman, ICPP'15).

Garvey's auto-tuner (re-implemented from the paper, as in
Section V-A2):

1. a **random forest** predicts the optimal memory type — here the
   (useShared, useConstant) pair — trained on the offline dataset
   (features: log2 parameter values; target: measured time), and the
   best-predicted pair is pinned for the rest of the search;
2. parameters are grouped **by dimension** (expert knowledge), not by
   measured correlation;
3. the space is narrowed by **uniform random sampling** (10 % of the
   candidate pool, no model guidance — the paper's stated weakness);
4. each group is tuned by **exhaustive search** over its sampled
   values, holding the other groups at the current best.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.baselines.base import (
    ITERATION_BATCH,
    BaselineTuner,
    batch_iterations,
)
from repro.core import searchstats
from repro.core.budget import Evaluator
from repro.core.reindex import GroupIndex, build_group_indexes
from repro.errors import DatasetError
from repro.ml.forest import RandomForestRegressor
from repro.profiler.dataset import PerformanceDataset
from repro.space.setting import Setting, settings_from_matrix, settings_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern

#: Expert by-dimension grouping (the "grouping by dimension"
#: optimization selected from Garvey's paper).
DIMENSION_GROUPS: tuple[tuple[str, ...], ...] = (
    ("TBx", "UFx", "CMx", "BMx"),
    ("TBy", "UFy", "CMy", "BMy"),
    ("TBz", "UFz", "CMz", "BMz"),
    ("useStreaming", "SD", "SB"),
    ("useRetiming", "usePrefetching"),
)

#: Memory-type switch pair predicted by the random forest.
MEMORY_PARAMS: tuple[str, str] = ("useShared", "useConstant")


def _features(settings: Sequence[Setting]) -> np.ndarray:
    return np.array([s.log2_vector() for s in settings], dtype=np.float64)


class GarveyTuner(BaselineTuner):
    """Random-forest memory prediction + per-dimension exhaustive search."""

    name = "Garvey"

    def __init__(
        self,
        simulator,
        *,
        seed: int = 0,
        sampling_ratio: float = 0.10,
        pool_size: int = 2000,
        n_estimators: int = 32,
    ) -> None:
        super().__init__(simulator, seed=seed)
        if not 0.0 < sampling_ratio <= 1.0:
            raise ValueError(f"sampling_ratio out of (0,1]: {sampling_ratio}")
        self.sampling_ratio = sampling_ratio
        self.pool_size = pool_size
        self.n_estimators = n_estimators

    # -- stage 1: memory-type prediction -------------------------------------

    def predict_memory_type(
        self, dataset: PerformanceDataset, rng: np.random.Generator
    ) -> dict[str, int]:
        """Best (useShared, useConstant) pair according to the forest."""
        forest = RandomForestRegressor(
            n_estimators=self.n_estimators,
            max_depth=8,
            random_state=int(rng.integers(2**31)),
        )
        X = _features(dataset.settings)
        with obs.span("phase.forest", trees=self.n_estimators, rows=X.shape[0]):
            forest.fit(X, dataset.times())
        base = dataset.best().setting
        combos = [
            base.replace(useShared=sh, useConstant=co)
            for sh in (1, 2)
            for co in (1, 2)
        ]
        preds = forest.predict(_features(combos))
        best = combos[int(np.argmin(preds))]
        return {name: best[name] for name in MEMORY_PARAMS}

    # -- search ------------------------------------------------------------

    @staticmethod
    def _repair_sweep(
        space: SearchSpace,
        gi: GroupIndex,
        current: dict[str, int],
        memory: dict[str, int],
    ) -> list[Setting]:
        """Repair one group's whole exhaustive sweep in a single batch.

        Every candidate is ``current`` with this group's columns swapped
        for one of the group's sampled tuples (memory pair pinned), so
        the sweep lowers to one matrix and one ``repair_full_matrix``
        call.
        """
        names = space.names
        base = np.array([current[name] for name in names], dtype=np.int64)
        mat = np.tile(base, (len(gi), 1))
        for k, name in enumerate(gi.group):
            mat[:, names.index(name)] = gi.tuple_array[:, k]
        for name, value in memory.items():  # the forest's choice stays pinned
            mat[:, names.index(name)] = value
        searchstats.bump("settings_repaired", mat.shape[0])
        return settings_from_matrix(space.repair_full_matrix(mat), names)

    def _search(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        evaluator: Evaluator,
        rng: np.random.Generator,
        dataset: PerformanceDataset | None,
    ) -> dict[str, object] | None:
        if dataset is None or len(dataset) == 0:
            raise DatasetError("Garvey requires the offline stencil dataset")

        memory = self.predict_memory_type(dataset, rng)

        # Random (unguided) narrowing of the space.
        pool = space.sample(rng, self.pool_size)
        n_keep = max(1, int(round(self.sampling_ratio * len(pool))))
        keep_idx = rng.choice(len(pool), size=n_keep, replace=False)
        sampled = [pool[int(i)] for i in keep_idx]

        indexes = build_group_indexes(
            DIMENSION_GROUPS, settings_matrix(sampled, space.names), space.names
        )
        # Start from an arbitrary sampled setting — Garvey's starting
        # quality is whatever random sampling delivered (the paper's
        # stated weakness); only the memory type is informed by the RF.
        current = dict(sampled[0].to_dict())
        current.update(memory)

        # Per-group exhaustive search in dimension order, one evaluator
        # batch per iteration.
        for gi in indexes:
            if evaluator.exhausted:
                break
            best_vals = {name: current[name] for name in gi.group}
            best_t = np.inf
            batch = 0
            sweep = self._repair_sweep(space, gi, current, memory)
            for chunk in batch_iterations(sweep):
                # The rest of the sweep is priced with its first chunk.
                times = evaluator.evaluate_many(
                    chunk, upcoming=sweep[batch + len(chunk):]
                )
                batch += len(chunk)
                stop = False
                if batch % ITERATION_BATCH == 0:
                    evaluator.end_iteration()
                    # A budget spent at the iteration boundary ends the
                    # sweep before the boundary setting is compared.
                    stop = evaluator.exhausted
                    if stop:
                        chunk, times = chunk[:-1], times[:-1]
                for setting, t in zip(chunk, times):
                    if t is not None and t < best_t:
                        best_t = t
                        best_vals = {name: setting[name] for name in gi.group}
                if stop:
                    break
            if batch % ITERATION_BATCH != 0:
                evaluator.end_iteration()
            current.update(best_vals)

        return {
            "memory_type": memory,
            "sampled_size": len(sampled),
            "groups": [list(g) for g in DIMENSION_GROUPS],
        }
