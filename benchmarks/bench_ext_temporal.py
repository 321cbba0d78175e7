"""Extension — temporal blocking as a 20th tuning parameter.

The paper's future work asks for more optimization techniques; this
benchmark tunes each stencil over the base Table I space and over the
temporally-extended space under the same budget. Memory-bound stencils
should benefit (traffic amortized across fused steps); compute-bound
ones should simply tune TBT back to 1.
"""

from _scale import bench_stencils
from repro.core import Budget, CsTuner, CsTunerConfig
from repro.experiments import format_table
from repro.ext import TEMPORAL_PARAMETER, TemporalSimulator, TemporalSpace
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space import build_space
from repro.stencil.suite import get_stencil

BUDGET_S = 60.0


def test_ext_temporal_blocking(benchmark, report):
    names = bench_stencils()[:3]

    def run():
        rows = []
        for name in names:
            pattern = get_stencil(name)
            base_sim = GpuSimulator(device=A100, seed=0)
            base_space = build_space(pattern, A100)
            base = CsTuner(base_sim, CsTunerConfig(seed=0)).tune(
                pattern, Budget(max_cost_s=BUDGET_S), space=base_space
            )
            ext_sim = TemporalSimulator(device=A100, seed=0)
            ext_space = TemporalSpace(build_space(pattern, A100))
            ext = CsTuner(ext_sim, CsTunerConfig(seed=0)).tune(
                pattern, Budget(max_cost_s=BUDGET_S), space=ext_space
            )
            tbt = ext.best_setting[TEMPORAL_PARAMETER]
            rows.append(
                [name, base.best_time_s * 1e3, ext.best_time_s * 1e3, tbt]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(
        ["stencil", "19-param best (ms)", "20-param best (ms)", "chosen TBT"],
        rows,
        title="Extension — temporal blocking joins the optimization space",
    ))
    assert all(r[1] > 0 and r[2] > 0 for r in rows)
