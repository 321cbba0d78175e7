"""Analytical GEMM performance model + simulator facade.

Implements the same evaluation protocol as
:class:`repro.gpusim.simulator.GpuSimulator` (``run`` / ``true_time`` /
``violation`` / cost accounting), reusing the device models and the
occupancy calculator, so the budgeted evaluator and all tuners work on
GEMM unmodified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidSettingError
from repro.gemm.problem import GemmProblem
from repro.gemm.space import _registers, _shared_bytes
from repro.gpusim.device import A100, DeviceSpec
from repro.gpusim.model import compute_occupancy
from repro.gpusim.simulator import MeasuredRun
from repro.space.setting import Setting
from repro.utils.hashing import stable_hash, unit_hash


@dataclass(frozen=True)
class _GemmPlan:
    """Duck-typed stand-in for a kernel plan (occupancy calculator input)."""

    threads_per_block: int
    registers_per_thread: int
    shared_memory_per_block: int
    total_blocks: int


def _plan(problem: GemmProblem, setting: Setting) -> _GemmPlan:
    bm = setting["TBy"] * setting["TM"]
    bn = setting["TBx"] * setting["TN"]
    blocks = (
        math.ceil(problem.m / bm)
        * math.ceil(problem.n / bn)
        * setting["SPLITK"]
    )
    return _GemmPlan(
        threads_per_block=setting["TBx"] * setting["TBy"],
        registers_per_thread=_registers(setting),
        shared_memory_per_block=_shared_bytes(problem, setting),
        total_blocks=blocks,
    )


def gemm_metrics_and_time(
    problem: GemmProblem, setting: Setting, device: DeviceSpec
) -> tuple[float, dict[str, float]]:
    """Model one blocked-GEMM variant; returns (seconds, metrics)."""
    plan = _plan(problem, setting)
    occ = compute_occupancy(plan, device)
    if occ.blocks_per_sm < 1:
        raise InvalidSettingError("GEMM plan cannot launch (zero resident blocks)")

    bm = setting["TBy"] * setting["TM"]
    bn = setting["TBx"] * setting["TN"]
    elem = problem.dtype_bytes

    # --- traffic -----------------------------------------------------------
    if setting["useShared"] == 2:
        # Each A tile is re-read once per block column, each B tile once
        # per block row: the classic O(mnk / tile) traffic law.
        a_bytes = problem.m * problem.k * elem * math.ceil(problem.n / bn)
        b_bytes = problem.k * problem.n * elem * math.ceil(problem.m / bm)
        gld_eff = 1.0
        fma_base = 0.75
    else:
        # Register-only tiling: block-level operand reuse is lost; only
        # the per-thread tile and incidental L1 line sharing (a few
        # consumers per line) cut re-reads, and operands trickling
        # through the cache pipeline depress the FMA rate.
        reuse_a = max(1, setting["TN"] * 8)
        reuse_b = max(1, setting["TM"] * 8)
        a_bytes = problem.m * problem.k * elem * math.ceil(problem.n / reuse_a)
        b_bytes = problem.k * problem.n * elem * math.ceil(problem.m / reuse_b)
        gld_eff = 0.8
        fma_base = 0.60
    c_bytes = problem.m * problem.n * elem * (1 + setting["SPLITK"])
    dram_bytes = (a_bytes + b_bytes) / gld_eff + c_bytes

    # --- timing -------------------------------------------------------------
    blocks_per_wave = occ.blocks_per_sm * device.sm_count
    waves = max(1, math.ceil(plan.total_blocks / blocks_per_wave))
    if plan.total_blocks >= blocks_per_wave:
        util = plan.total_blocks / (waves * blocks_per_wave)  # tail effect
    else:
        util = plan.total_blocks / blocks_per_wave  # SM starvation
    tail = max(util, 0.02)
    latency = min(1.0, occ.active_warps_per_sm / device.latency_hiding_warps)
    warp_fill = plan.threads_per_block / (
        math.ceil(plan.threads_per_block / device.warp_size) * device.warp_size
    )
    ilp = min(1.30, 1.0 + 0.03 * setting["TM"] * setting["TN"] / 4.0)
    if setting["useDB"] == 2:
        ilp *= 1.06  # loads overlap FMAs
    compute_eff = max(0.01, latency * tail * warp_fill * ilp * fma_base)
    compute_s = problem.total_flops() / (device.peak_fp64_flops * compute_eff)

    bw_util = max(0.3, min(1.0, occ.occupancy / 0.25))
    memory_s = dram_bytes / (device.dram_bandwidth_bytes * bw_util)

    splitk_reduce_s = (
        problem.m * problem.n * elem * setting["SPLITK"]
        / device.dram_bandwidth_bytes
        if setting["SPLITK"] > 1
        else 0.0
    )
    total = (
        max(compute_s, memory_s)
        + 0.2 * min(compute_s, memory_s)
        + splitk_reduce_s
        + device.launch_overhead_s
    )
    total *= 1.0 + 0.06 * (
        unit_hash("gemm", device.name, problem.name, *setting.values_tuple(
            tuple(sorted(setting))
        )) - 0.5
    )

    flops_rate = problem.total_flops() / total
    metrics = {
        "achieved_occupancy": occ.occupancy,
        "sm_efficiency": latency * tail,
        "flop_dp_efficiency": min(1.0, flops_rate / device.peak_fp64_flops),
        "dram_read_throughput": (a_bytes + b_bytes) / total / 1e9,
        "dram_write_throughput": c_bytes / total / 1e9,
        "gld_efficiency": gld_eff,
        "registers_per_thread": float(plan.registers_per_thread),
        "static_shared_memory": float(plan.shared_memory_per_block),
        "l2_hit_rate": 0.6 if setting["useShared"] == 2 else 0.45,
        "stall_memory_dependency": memory_s / max(total, 1e-12),
        "eligible_warps_per_cycle": occ.active_warps_per_sm * compute_eff / 4.0,
        "ipc": 4.0 * compute_eff,
    }
    return total, metrics


@dataclass
class GemmSimulator:
    """Evaluation facade for GEMM variants (GpuSimulator-compatible)."""

    problem: GemmProblem
    device: DeviceSpec = field(default_factory=lambda: A100)
    seed: int = 0
    noise: float = 0.01
    compile_cost_s: float = 0.25
    trials: int = 3
    evaluations: int = 0
    _cache: dict[Setting, tuple[float, dict[str, float]]] = field(
        default_factory=dict, repr=False
    )
    _compiled: set[Setting] = field(default_factory=set, repr=False)

    def violation(self, problem: GemmProblem, setting: Setting) -> str | None:
        from repro.gemm.space import GemmSpace

        return GemmSpace(problem, self.device).violation(setting)

    def _true(self, setting: Setting) -> tuple[float, dict[str, float]]:
        cached = self._cache.get(setting)
        if cached is None:
            cached = gemm_metrics_and_time(self.problem, setting, self.device)
            self._cache[setting] = cached
        return cached

    def true_time(self, problem: GemmProblem, setting: Setting) -> float:
        return self._true(setting)[0]

    def run(self, problem: GemmProblem, setting: Setting) -> MeasuredRun:
        true_time, metrics = self._true(setting)
        cost = true_time * self.trials
        if setting not in self._compiled:
            self._compiled.add(setting)
            cost += self.compile_cost_s
        measured = true_time
        if self.noise > 0:
            rng = np.random.default_rng(
                stable_hash(self.seed, problem.name,
                            tuple(sorted(setting.items())), self.evaluations)
            )
            samples = true_time * (1 + self.noise * rng.standard_normal(self.trials))
            measured = float(np.median(np.abs(samples)))
        self.evaluations += 1
        return MeasuredRun(
            stencil=problem.name,
            device=self.device.name,
            setting=setting,
            time_s=measured,
            true_time_s=true_time,
            tuning_cost_s=cost,
            metrics=dict(metrics),
        )

    def reset_cost_accounting(self) -> None:
        self._compiled.clear()
        self.evaluations = 0
