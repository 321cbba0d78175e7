"""Deterministic analytical GPU performance simulator.

This package replaces the paper's hardware testbed (2x NVIDIA A100 and
2x V100). Given a :class:`~repro.codegen.plan.KernelPlan` and a
:class:`DeviceSpec`, it produces an execution time and a set of
Nsight-style metrics from an occupancy calculator, a memory-traffic /
coalescing model and a roofline-with-latency timing model, perturbed by
a deterministic per-setting "hardware roughness" term so the tuning
landscape is realistically rugged (see DESIGN.md §1).
"""

from repro.gpusim.device import DeviceSpec, A100, V100, get_device, DEVICES
from repro.gpusim.model import (
    METRIC_NAMES,
    BatchResult,
    MemoryTraffic,
    Occupancy,
    TimingBreakdown,
    compute_occupancy,
    compute_timing,
    compute_traffic,
    derive_metrics,
    evaluate_settings,
    valid_mask,
)
from repro.gpusim.records import MetricsRow, MetricsTable
from repro.gpusim.simulator import GpuSimulator, MeasuredRun

__all__ = [
    "MetricsRow",
    "MetricsTable",
    "DeviceSpec",
    "A100",
    "V100",
    "get_device",
    "DEVICES",
    "Occupancy",
    "compute_occupancy",
    "MemoryTraffic",
    "compute_traffic",
    "TimingBreakdown",
    "compute_timing",
    "derive_metrics",
    "METRIC_NAMES",
    "BatchResult",
    "evaluate_settings",
    "valid_mask",
    "GpuSimulator",
    "MeasuredRun",
]
