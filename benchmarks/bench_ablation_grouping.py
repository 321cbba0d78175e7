"""Ablation — CV-based grouping vs. by-dimension vs. singleton groups.

Isolates csTuner's grouping stage (DESIGN.md §4): the same sampled
pool is re-indexed under three grouping policies and searched with the
same GA and budget. The paper's claim is that measured-correlation
grouping generalizes where expert by-dimension grouping does not.
"""

import numpy as np

from _scale import bench_stencils
from repro.baselines.garvey import DIMENSION_GROUPS, MEMORY_PARAMS
from repro.core import Budget, CsTuner, CsTunerConfig, Evaluator
from repro.core.genetic import EvolutionarySearch
from repro.core.reindex import build_group_indexes
from repro.core.sampling import SampledSpace
from repro.experiments import format_table
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space import build_space
from repro.space.setting import settings_matrix
from repro.space.parameters import PARAMETER_ORDER
from repro.stencil.suite import get_stencil

BUDGET_S = 60.0


def _regroup(sampled, groups):
    return SampledSpace(
        settings=sampled.settings,
        groups=tuple(tuple(g) for g in groups),
        group_indexes=build_group_indexes(
            groups, settings_matrix(sampled.settings), PARAMETER_ORDER
        ),
    )


def _search(sampled, space, pattern, seed=0):
    sim = GpuSimulator(device=A100, seed=seed)
    ev = Evaluator(sim, pattern, Budget(max_cost_s=BUDGET_S))
    EvolutionarySearch(sampled=sampled, space=space, evaluator=ev, seed=seed).run()
    return ev.best_time_s * 1e3


def test_ablation_grouping_policies(benchmark, report):
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

            cv_ms = _search(pre.sampled, space, pattern)
            by_dim = list(DIMENSION_GROUPS) + [list(MEMORY_PARAMS)]
            dim_ms = _search(_regroup(pre.sampled, by_dim), space, pattern)
            singles = [[p] for p in PARAMETER_ORDER]
            single_ms = _search(_regroup(pre.sampled, singles), space, pattern)
            rows.append([name, cv_ms, dim_ms, single_ms])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(
        ["stencil", "CV grouping (ms)", "by-dimension (ms)", "singletons (ms)"],
        rows,
        title="Ablation — grouping policy under identical GA and budget",
    ))
    assert all(r[1] > 0 for r in rows)
