"""Ablation — PMNF-guided sampling vs. uniform random sampling.

Isolates csTuner's sampling stage (DESIGN.md §4): the evolutionary
search runs on (a) the PMNF-filtered sampled space and (b) a randomly
chosen space of the same size (Garvey-style), everything else equal.
The guided space should yield a better or equal final setting.
"""

import numpy as np

from _scale import bench_stencils
from repro.core import Budget, CsTuner, CsTunerConfig, Evaluator
from repro.core.genetic import EvolutionarySearch
from repro.core.reindex import build_group_indexes
from repro.core.sampling import SampledSpace
from repro.experiments import format_table
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space import build_space
from repro.space.setting import settings_matrix
from repro.stencil.suite import get_stencil

BUDGET_S = 60.0


def _search_on(sampled, space, pattern, device, seed):
    sim = GpuSimulator(device=device, seed=seed)
    evaluator = Evaluator(sim, pattern, Budget(max_cost_s=BUDGET_S))
    EvolutionarySearch(
        sampled=sampled, space=space, evaluator=evaluator, seed=seed
    ).run()
    return evaluator.best_time_s


def test_ablation_pmnf_vs_random_sampling(benchmark, report):
    names = bench_stencils()[:3]

    def run():
        rows = []
        for name in names:
            pattern = get_stencil(name)
            sim = GpuSimulator(device=A100, seed=0)
            space = build_space(pattern, A100)
            tuner = CsTuner(sim, CsTunerConfig(seed=0))
            dataset = tuner.collect_dataset(pattern, space)
            pre = tuner.preprocess(pattern, space, dataset)

            guided_ms = _search_on(pre.sampled, space, pattern, A100, 0) * 1e3

            rng = np.random.default_rng(1)
            random_settings = space.sample(rng, len(pre.sampled))
            random_space = SampledSpace(
                settings=random_settings,
                groups=pre.sampled.groups,
                group_indexes=build_group_indexes(
                    pre.sampled.groups,
                    settings_matrix(random_settings, space.names),
                    space.names,
                ),
            )
            random_ms = _search_on(random_space, space, pattern, A100, 0) * 1e3
            rows.append([name, guided_ms, random_ms, random_ms / guided_ms])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(
        ["stencil", "PMNF-guided (ms)", "random (ms)", "random/guided"],
        rows,
        title="Ablation — sampled-space guidance (same GA, same budget)",
    ))
    # Guided must win on average.
    ratios = [r[3] for r in rows]
    assert float(np.exp(np.mean(np.log(ratios)))) >= 0.95
