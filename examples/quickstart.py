#!/usr/bin/env python
"""Quickstart: auto-tune one complex stencil with csTuner.

Runs the full pipeline from the paper on the j3d7pt stencil (Table III)
against the simulated A100: collect the offline performance dataset,
group parameters, sample the search space with PMNF guidance, and run
the evolutionary search under a 100-second iso-time budget.

Usage::

    python examples/quickstart.py [stencil-name]
"""

from __future__ import annotations

import sys

from repro import A100, Budget, CsTuner, CsTunerConfig, GpuSimulator, get_stencil
from repro.codegen import build_plan, generate_cuda
from repro.space import build_space


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "j3d7pt"
    pattern = get_stencil(name)
    print(f"Tuning {pattern.describe()}")
    print(f"Device: {A100.name} ({A100.sm_count} SMs, "
          f"{A100.dram_bandwidth_gbs:.0f} GB/s, {A100.fp64_tflops} FP64 TFLOP/s)")

    simulator = GpuSimulator(device=A100, seed=0)
    space = build_space(pattern, A100)
    print(f"Optimization space: {len(space.parameters)} parameters, "
          f"{space.nominal_size():.3g} nominal settings\n")

    tuner = CsTuner(simulator, CsTunerConfig(seed=0))

    print("[1/3] collecting offline dataset (128 profiled settings)...")
    dataset = tuner.collect_dataset(pattern, space)
    print(f"      dataset best: {dataset.best().time_s * 1e3:.3f} ms")

    print("[2/3] pre-processing (grouping / sampling / codegen)...")
    pre = tuner.preprocess(pattern, space, dataset)
    print(f"      parameter groups: {pre.groups}")
    print(f"      sampled search space: {len(pre.sampled)} settings")
    print(f"      PMNF metrics: {pre.sampled.representatives}")

    print("[3/3] evolutionary search (100 s tuning budget)...")
    result = tuner.tune(
        pattern, Budget(max_cost_s=100.0), space=space, preprocessed=pre
    )
    print(f"\n{result.summary()}")
    print(f"speedup over dataset best: "
          f"{dataset.best().time_s / result.best_time_s:.2f}x")
    print(f"\nbest setting:\n  {result.best_setting!r}")

    print("\ngenerated CUDA kernel for the best setting:")
    print("-" * 60)
    print(generate_cuda(build_plan(pattern, result.best_setting)))


if __name__ == "__main__":
    main()
