#!/usr/bin/env python
"""Extend the optimization space with temporal blocking and retune.

The paper's future work asks csTuner to absorb new optimization
techniques; `repro.ext.temporal` adds AN5D-style time-step fusion as a
20th parameter. This example tunes a stencil over the base space and
the extended space under the same budget and shows what the tuner
discovers — including *why*, via the analysis report.

Usage::

    python examples/temporal_blocking.py [stencil-name]
"""

from __future__ import annotations

import sys

from repro import A100, Budget, CsTuner, CsTunerConfig, GpuSimulator, get_stencil
from repro.ext import TEMPORAL_PARAMETER, TemporalSimulator, TemporalSpace
from repro.space import build_space


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "j3d7pt"
    pattern = get_stencil(name)
    budget = Budget(max_cost_s=60.0)
    print(f"Stencil: {pattern.describe()}\n")

    base_sim = GpuSimulator(device=A100, seed=0)
    base_space = build_space(pattern, A100)
    base = CsTuner(base_sim, CsTunerConfig(seed=0)).tune(
        pattern, budget, space=base_space
    )
    print(f"19-parameter space: {base.summary()}")

    ext_sim = TemporalSimulator(device=A100, seed=0)
    ext_space = TemporalSpace(build_space(pattern, A100))
    ext = CsTuner(ext_sim, CsTunerConfig(seed=0)).tune(
        pattern, budget, space=ext_space
    )
    print(f"20-parameter space: {ext.summary()}")

    tbt = ext.best_setting[TEMPORAL_PARAMETER]
    print(f"\nthe tuner chose a temporal blocking factor of {tbt}")
    if ext.best_time_s < base.best_time_s:
        gain = base.best_time_s / ext.best_time_s
        print(f"time-step fusion pays: {gain:.2f}x faster per time step")
        print("(traffic is paid once per fused pass instead of once per "
              "step — the AN5D effect)")
    else:
        print("fusion does not pay here (compute-bound or halo overhead "
              "dominates); the tuner correctly kept TBT low")


if __name__ == "__main__":
    main()
