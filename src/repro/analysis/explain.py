"""Explain why a setting performs the way it does.

Surfaces the simulator's internal quantities — launch geometry,
occupancy limiter, roofline bound, coalescing efficiency — as a
structured, printable report. This is the "why was this chosen"
companion to the tuners' "what was chosen".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.plan import KernelPlan, build_plan
from repro.gpusim.device import DeviceSpec
from repro.gpusim.model import (
    MemoryTraffic,
    Occupancy,
    TimingBreakdown,
    compute_occupancy,
    compute_timing,
    compute_traffic,
)
from repro.space.setting import Setting
from repro.stencil.pattern import StencilPattern


@dataclass(frozen=True)
class SettingReport:
    """Structured explanation of one (stencil, setting, device) triple."""

    stencil: str
    device: str
    setting: Setting
    time_ms: float
    bound: str
    occupancy: float
    occupancy_limiter: str
    registers_per_thread: int
    shared_memory_per_block: int
    threads_per_block: int
    total_blocks: int
    waves: int
    gld_efficiency: float
    l1_hit_rate: float
    l2_hit_rate: float
    dram_gb: float
    notes: tuple[str, ...]

    def render(self) -> str:
        lines = [
            f"{self.stencil} on {self.device}: {self.time_ms:.3f} ms "
            f"({self.bound}-bound)",
            f"  launch: {self.total_blocks} blocks x "
            f"{self.threads_per_block} threads ({self.waves} wave(s))",
            f"  occupancy: {self.occupancy:.2f} (limited by "
            f"{self.occupancy_limiter})",
            f"  registers/thread: {self.registers_per_thread}, "
            f"shared/block: {self.shared_memory_per_block} B",
            f"  memory: {self.dram_gb:.2f} GB DRAM traffic, "
            f"gld eff {self.gld_efficiency:.2f}, "
            f"L1 {self.l1_hit_rate:.2f}, L2 {self.l2_hit_rate:.2f}",
        ]
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _advisory_notes(
    plan: KernelPlan,
    occ: Occupancy,
    traffic: MemoryTraffic,
    timing: TimingBreakdown,
    setting: Setting,
) -> list[str]:
    notes: list[str] = []
    if traffic.gld_efficiency < 0.5:
        notes.append(
            "poor coalescing: block merging in x strides warp accesses "
            f"(BMx={setting['BMx']}, TBx={setting['TBx']})"
        )
    if occ.occupancy < 0.25:
        notes.append(
            f"low occupancy ({occ.occupancy:.2f}) — {occ.limiter} bound; "
            "latency is not hidden"
        )
    if timing.tail_utilization < 0.6:
        notes.append(
            f"wave tail: {plan.total_blocks} blocks fill the last wave to "
            f"{timing.tail_utilization:.0%}"
        )
    if plan.registers_per_thread > 128:
        notes.append(
            f"register pressure high ({plan.registers_per_thread}/thread); "
            "close to spilling"
        )
    if setting.enabled("useShared") and traffic.bank_conflict_factor > 1.0:
        notes.append(
            f"shared-memory bank conflicts x{traffic.bank_conflict_factor:.0f}"
        )
    if timing.sync_s > 0.1 * timing.total_s:
        notes.append("synchronization dominates — consider prefetching")
    return notes


def explain_setting(
    pattern: StencilPattern, setting: Setting, device: DeviceSpec
) -> SettingReport:
    """Analyze a setting through the full simulator pipeline."""
    plan = build_plan(pattern, setting)
    occ = compute_occupancy(plan, device)
    traffic = compute_traffic(plan, device)
    timing = compute_timing(plan, device, traffic, occ)
    return SettingReport(
        stencil=pattern.name,
        device=device.name,
        setting=setting,
        time_ms=timing.total_s * 1e3,
        bound=timing.bound,
        occupancy=occ.occupancy,
        occupancy_limiter=occ.limiter,
        registers_per_thread=plan.registers_per_thread,
        shared_memory_per_block=plan.shared_memory_per_block,
        threads_per_block=plan.threads_per_block,
        total_blocks=plan.total_blocks,
        waves=timing.waves,
        gld_efficiency=traffic.gld_efficiency,
        l1_hit_rate=traffic.l1_hit_rate,
        l2_hit_rate=traffic.l2_hit_rate,
        dram_gb=traffic.dram_bytes / 1e9,
        notes=tuple(_advisory_notes(plan, occ, traffic, timing, setting)),
    )
