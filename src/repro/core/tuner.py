"""The csTuner facade: the full auto-tuning pipeline of Fig 5.

``CsTuner.tune`` wires the stages together:

1. *Offline*: collect (or accept) the stencil performance dataset —
   128 randomly-sampled profiled settings by default. Excluded from
   the online overhead accounting, as in Section V-F.
2. *Pre-processing* (timed per phase for Fig 12):
   - parameter grouping — pairwise best-response CVs + Algorithm 1;
   - search-space sampling — metric combination (Algorithm 2), PMNF
     model fitting, pool filtering and group re-indexing (Fig 7);
   - code generation — CUDA kernels for every sampled setting.
3. *Search*: the multi-population genetic algorithm with
   per-group approximation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro import obs
from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import build_plan_arrays, plans_from_arrays
from repro.core.budget import Budget, Evaluator
from repro.core.genetic import EvolutionarySearch, GAConfig
from repro.core.grouping import group_parameters, pairwise_cv
from repro.core.result import TuningResult
from repro.core.sampling import (
    SampledSpace,
    SamplingConfig,
    sample_search_space,
    with_seed_settings,
)
from repro.gpusim.simulator import GpuSimulator
from repro.profiler.dataset import PerformanceDataset
from repro.profiler.nsight import NsightCollector
from repro.space.setting import Setting, settings_matrix
from repro.space.space import SearchSpace, build_space
from repro.stencil.pattern import StencilPattern
from repro.utils.timer import Stopwatch


@dataclass(frozen=True)
class CsTunerConfig:
    """End-to-end csTuner configuration (defaults from Section V-A2)."""

    dataset_size: int = 128
    probe_limit: int = 6
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    seed: int = 0

    def with_ratio(self, ratio: float) -> "CsTunerConfig":
        """Copy with a different sampling ratio (Fig 11 sweeps this)."""
        return replace(self, sampling=replace(self.sampling, ratio=ratio))


@dataclass
class Preprocessed:
    """Pre-processing artefacts, reusable across budgets/runs."""

    groups: list[list[str]]
    sampled: SampledSpace
    kernels: dict[int, str]
    watch: Stopwatch


class CsTuner:
    """Scalable auto-tuning for complex stencil computations."""

    name = "csTuner"

    def __init__(
        self, simulator: GpuSimulator, config: CsTunerConfig | None = None
    ) -> None:
        self.simulator = simulator
        self.config = config or CsTunerConfig()

    # -- offline --------------------------------------------------------------

    def collect_dataset(
        self, pattern: StencilPattern, space: SearchSpace
    ) -> PerformanceDataset:
        """Offline stencil dataset (profiled once, amortised forever)."""
        collector = NsightCollector(self.simulator)
        return collector.collect_dataset(
            pattern, space, n=self.config.dataset_size, seed=self.config.seed
        )

    # -- pre-processing --------------------------------------------------------

    def preprocess(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        dataset: PerformanceDataset,
    ) -> Preprocessed:
        """Grouping, sampling and code generation, individually timed."""
        watch = Stopwatch()
        with watch.phase("grouping"), obs.span(
            "phase.grouping", stencil=pattern.name
        ) as span:
            cvs = pairwise_cv(
                self.simulator,
                pattern,
                space,
                dataset.best().setting,
                probe_limit=self.config.probe_limit,
            )
            span.set(candidates=cvs.candidates, feasible=cvs.feasible)
            groups = group_parameters(cvs)
        with watch.phase("sampling"), obs.span(
            "phase.sampling", stencil=pattern.name
        ):
            sampled = sample_search_space(
                space,
                dataset,
                groups,
                config=self.config.sampling,
                seed=self.config.seed + 1,
            )
        with watch.phase("codegen"), obs.span(
            "phase.codegen", stencil=pattern.name
        ):
            # Every plan from one pass over the sampled settings' matrix.
            settings = sampled.settings
            plans = plans_from_arrays(
                pattern,
                settings,
                build_plan_arrays(pattern, settings_matrix(settings)),
            )
            kernels = {i: generate_cuda(plan) for i, plan in enumerate(plans)}
            obs.count("codegen.kernels_generated", len(kernels))
        return Preprocessed(groups=groups, sampled=sampled, kernels=kernels, watch=watch)

    # -- full pipeline ---------------------------------------------------------

    def tune(
        self,
        pattern: StencilPattern,
        budget: Budget,
        *,
        space: SearchSpace | None = None,
        dataset: PerformanceDataset | None = None,
        preprocessed: Preprocessed | None = None,
        seed: int | None = None,
        seed_settings: Sequence[Setting] | None = None,
    ) -> TuningResult:
        """Run the whole pipeline and return the tuning result.

        ``dataset`` and ``preprocessed`` may be supplied to reuse the
        offline stage across repeated runs (e.g. the 10 repetitions the
        paper averages over); the online budget covers only the search.
        ``seed_settings`` warm-starts the GA: the settings (typically
        nearest-neighbor records from the results database) are
        injected at the head of the sampled space, so the first
        generation evaluates them before anything else. ``None`` or an
        empty sequence is the cold path, bit-identical to before the
        parameter existed.
        """
        with obs.span(
            "tuner.run",
            tuner=self.name,
            stencil=pattern.name,
            device=self.simulator.device.name,
        ):
            return self._tune(
                pattern, budget, space=space, dataset=dataset,
                preprocessed=preprocessed, seed=seed,
                seed_settings=seed_settings,
            )

    def _tune(
        self,
        pattern: StencilPattern,
        budget: Budget,
        *,
        space: SearchSpace | None,
        dataset: PerformanceDataset | None,
        preprocessed: Preprocessed | None,
        seed: int | None,
        seed_settings: Sequence[Setting] | None = None,
    ) -> TuningResult:
        space = space or build_space(pattern, self.simulator.device)
        if preprocessed is None:
            if dataset is None:
                dataset = self.collect_dataset(pattern, space)
            preprocessed = self.preprocess(pattern, space, dataset)
        warm_injected = 0
        if seed_settings:
            sampled = with_seed_settings(
                preprocessed.sampled, space, seed_settings
            )
            warm_injected = len(sampled.settings) - len(preprocessed.sampled)
            if warm_injected:
                preprocessed = Preprocessed(
                    groups=preprocessed.groups,
                    sampled=sampled,
                    kernels=preprocessed.kernels,
                    watch=preprocessed.watch,
                )

        evaluator = Evaluator(self.simulator, pattern, budget)
        watch = Stopwatch()
        with watch.phase("search"), obs.span(
            "phase.search", stencil=pattern.name
        ):
            search = EvolutionarySearch(
                sampled=preprocessed.sampled,
                space=space,
                evaluator=evaluator,
                config=self.config.ga,
                seed=self.config.seed if seed is None else seed,
            )
            search.run()

        phases = dict(preprocessed.watch.totals)
        phases["search"] = watch.totals.get("search", 0.0)
        return evaluator.result(
            self.name,
            phase_seconds=phases,
            meta={
                "groups": [list(g) for g in preprocessed.groups],
                "sampled_size": len(preprocessed.sampled),
                "representative_metrics": list(
                    preprocessed.sampled.representatives
                ),
                "generations": search.generations,
                "search_cost_s": evaluator.cost_s,
                "search_info": search.search_info(),
                "warm_seeds": warm_injected,
            },
        )


def make_cstuner(
    simulator: GpuSimulator, config: CsTunerConfig | None = None
) -> CsTuner:
    """Convenience constructor mirroring the baseline factories."""
    return CsTuner(simulator, config)
