"""The Artemis baseline (Rawat et al., IPDPS'19).

Artemis prunes the search space by *hierarchical auto-tuning*: it tunes
the computation for high-impact optimizations first and carries a few
high-performance candidates to the next level (Section II-C). The
impact ordering and the per-level candidate sets encode expert
knowledge — exactly what makes Artemis effective on most stencils yet
brittle on the rest (Sections V-C/V-D).

Levels (high impact → low impact):

1. thread-block geometry (coalescing-friendly candidates only);
2. streaming (off, or each dimension with a few concurrency factors);
3. loop unrolling (innermost-biased factors);
4. merging (block/cyclic, small factors — expert rule: large merges
   spill);
5. memory switches (shared/constant/retiming/prefetching).

A beam of ``beam_width`` candidates survives each level.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import (
    ITERATION_BATCH,
    BaselineTuner,
)
from repro.core import searchstats
from repro.core.budget import Evaluator
from repro.profiler.dataset import PerformanceDataset
from repro.space.setting import Setting, settings_from_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern

#: Neutral starting point every Artemis search expands from.
_NEUTRAL: dict[str, int] = {
    "TBx": 32, "TBy": 4, "TBz": 1,
    "useShared": 1, "useConstant": 1,
    "useStreaming": 1, "SD": 1, "SB": 1,
    "UFx": 1, "UFy": 1, "UFz": 1,
    "CMx": 1, "CMy": 1, "CMz": 1,
    "BMx": 1, "BMy": 1, "BMz": 1,
    "useRetiming": 1, "usePrefetching": 1,
}


def _level_tb() -> list[dict[str, int]]:
    """Expert thread-block candidates: coalescing-friendly, warp-sized."""
    out = []
    for tbx in (16, 32, 64, 128, 256):
        for tby in (1, 2, 4, 8, 16):
            for tbz in (1, 2, 4):
                if tbx * tby * tbz <= 1024 and tbx * tby * tbz >= 32:
                    out.append({"TBx": tbx, "TBy": tby, "TBz": tbz})
    return out


def _level_streaming() -> list[dict[str, int]]:
    out: list[dict[str, int]] = [{"useStreaming": 1, "SD": 1, "SB": 1}]
    for sd in (1, 2, 3):
        for sb in (1, 2, 4, 8):
            out.append({"useStreaming": 2, "SD": sd, "SB": sb})
    return out


def _level_unroll() -> list[dict[str, int]]:
    out = []
    for ufx in (1, 2, 4):
        for ufy in (1, 2):
            for ufz in (1, 2, 4, 8):
                out.append({"UFx": ufx, "UFy": ufy, "UFz": ufz})
    return out


def _level_merge() -> list[dict[str, int]]:
    out = []
    for bmy in (1, 2, 4):
        for cmx in (1, 2, 4):
            for cmy in (1, 2):
                out.append(
                    {"BMx": 1, "BMy": bmy, "BMz": 1,
                     "CMx": cmx, "CMy": cmy, "CMz": 1}
                )
    return out


def _level_switches() -> list[dict[str, int]]:
    out = []
    for sh in (1, 2):
        for co in (1, 2):
            for rt in (1, 2):
                for pf in (1, 2):
                    out.append(
                        {"useShared": sh, "useConstant": co,
                         "useRetiming": rt, "usePrefetching": pf}
                    )
    return out


LEVELS: tuple = (
    ("thread-block", _level_tb),
    ("streaming", _level_streaming),
    ("unrolling", _level_unroll),
    ("merging", _level_merge),
    ("switches", _level_switches),
)


class ArtemisTuner(BaselineTuner):
    """Hierarchical impact-ordered tuning with a candidate beam."""

    name = "Artemis"

    def __init__(self, simulator, *, seed: int = 0, beam_width: int = 3) -> None:
        super().__init__(simulator, seed=seed)
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        self.beam_width = beam_width

    @staticmethod
    def _repair_level(
        space: SearchSpace,
        base: dict[str, int],
        updates: list[dict[str, int]],
    ) -> list[Setting]:
        """Batch-repair one beam entry's level expansion.

        All of a level's candidate dicts share the same key set, so the
        expansion is the base row tiled with one column block scattered
        — a single ``repair_full_matrix`` call over the level.
        """
        names = space.names
        keys = tuple(updates[0])
        cols = [names.index(k) for k in keys]
        base_row = np.array([base[n] for n in names], dtype=np.int64)
        mat = np.tile(base_row, (len(updates), 1))
        mat[:, cols] = np.array(
            [[u[k] for k in keys] for u in updates], dtype=np.int64
        )
        searchstats.bump("settings_repaired", mat.shape[0])
        return settings_from_matrix(space.repair_full_matrix(mat), names)

    def _candidates(
        self,
        space: SearchSpace,
        beam: list[dict[str, int]],
        updates: list[dict[str, int]],
    ) -> list[Setting]:
        """One level's distinct candidates, beam entry by beam entry."""
        seen: dict[Setting, None] = {}  # first occurrences, in order
        for base in beam:
            for setting in self._repair_level(space, base, updates):
                seen.setdefault(setting)
        return list(seen)

    def _search(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        evaluator: Evaluator,
        rng: np.random.Generator,
        dataset: PerformanceDataset | None,
    ) -> dict[str, object] | None:
        # The neutral start; a parameter it lacks (an extended space's)
        # starts at its domain's first value.
        beam = [{n: _NEUTRAL.get(n, space.param(n).values[0]) for n in space.names}]
        levels_done = []

        for level_name, level_fn in LEVELS:
            if evaluator.exhausted:
                break
            scored: list[tuple[float, dict[str, int]]] = []
            batch = 0
            # The whole level is known up front and priced with its
            # first chunk.
            cands = self._candidates(space, beam, level_fn())
            for start in range(0, len(cands), ITERATION_BATCH):
                chunk = cands[start:start + ITERATION_BATCH]
                times = evaluator.evaluate_many(
                    chunk, upcoming=cands[start + ITERATION_BATCH:]
                )
                # Stop right after the setting that spent the budget.
                stop = evaluator.exhausted_at
                n = len(chunk) if stop is None else stop + 1
                batch += n
                if batch % ITERATION_BATCH == 0:
                    evaluator.end_iteration()
                scored.extend(
                    (t, s.to_dict())
                    for s, t in zip(chunk[:n], times[:n])
                    if t is not None
                )
                if evaluator.exhausted:
                    break
            if batch % ITERATION_BATCH != 0:
                evaluator.end_iteration()
            if scored:
                scored.sort(key=lambda x: x[0])
                beam = [vals for _, vals in scored[: self.beam_width]]
            levels_done.append(level_name)

        return {"levels": levels_done, "beam_width": self.beam_width}
