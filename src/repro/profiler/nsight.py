"""Simulated Nsight Compute collection.

Wraps the GPU simulator behind the interface the paper's pipeline uses:
profile a setting, get GPU metrics; profile a random sample of the
space, get the offline stencil dataset (collected once per stencil and
amortised over all subsequent tuning, Section V-F).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.gpusim.simulator import GpuSimulator, MeasuredRun
from repro.profiler.dataset import DatasetRecord, PerformanceDataset
from repro.space.setting import Setting
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern
from repro.utils.rng import rng_from_seed


class NsightCollector:
    """Metric collector bound to one simulator (device)."""

    def __init__(self, simulator: GpuSimulator) -> None:
        self.simulator = simulator

    def profile(self, pattern: StencilPattern, setting: Setting) -> DatasetRecord:
        """Profile one setting: kernel time plus the full metric set."""
        run = self.simulator.run(pattern, setting)
        return self._record(run)

    @staticmethod
    def _record(run: MeasuredRun) -> DatasetRecord:
        metrics = {k: v for k, v in run.metrics.items() if k != "elapsed_time"}
        return DatasetRecord(
            setting=run.setting, time_s=run.time_s, metrics=metrics
        )

    def profile_many(
        self, pattern: StencilPattern, settings: Sequence[Setting]
    ) -> PerformanceDataset:
        """Profile an explicit list of settings (batched model evaluation)."""
        ds = PerformanceDataset(pattern.name, self.simulator.device.name)
        for run in self.simulator.run_batch(pattern, settings):
            ds.add(self._record(run))  # type: ignore[arg-type]
        return ds

    def collect_dataset(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        n: int = 128,
        seed: int | np.random.Generator | None = 0,
    ) -> PerformanceDataset:
        """The offline stencil dataset: ``n`` random valid settings.

        The paper uses 128 settings per stencil; collection takes under
        five minutes of Nsight time on hardware and is excluded from
        the online auto-tuning overhead accounting.
        """
        with obs.span(
            "phase.dataset", stencil=pattern.name,
            device=self.simulator.device.name, n=n,
        ):
            rng = rng_from_seed(seed)
            settings = space.sample(rng, n)
            dataset = self.profile_many(pattern, settings)
        obs.count("profiler.datasets_collected")
        obs.count("profiler.settings_profiled", len(dataset))
        return dataset
