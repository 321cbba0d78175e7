"""The analytical GPU model: plan → occupancy → traffic → timing → metrics.

Each stage is written once and runs on one setting or on many. A
:class:`~repro.codegen.plan.KernelPlan` is a *row*: the stage computes
with Python ints/floats, builtins and :mod:`math`. A
:class:`~repro.codegen.plan.PlanArrays` holds *columns*: the same
formula runs as NumPy array operations over every setting at once. The
input type picks the op table (:data:`~repro.space.setting.ROW` or
:data:`~repro.space.setting.COLUMNS`, shared with the constraints and
the plan) that supplies the handful of operations the two kinds of
value spell differently — selects, min/max/clip, integer ceil,
``bit_length`` and float conversion. Everything else is plain
``+ - * / //`` on either.

Row results are exact Python ``int``/``float``, and row *i* of the
column results equals the row result of setting *i* bit for bit: the
model uses no transcendentals, both tables evaluate each expression in
the same order, ``bit_length`` on columns is ``np.frexp`` (exact for
the positive integers that reach it), and a select evaluates both sides
and keeps one, so a branch costs nothing in accuracy. The committed
identity fixtures (``tests/fixtures/identity/``) pin the values.

The model captures the effects the paper's Section II-B discusses:

* occupancy follows NVIDIA's calculator — resident blocks per SM are
  bounded by the thread, block-slot, register-file and shared-memory
  budgets, and the binding one is the *limiter*;
* shared-memory tiling replaces redundant neighbour loads with one
  halo-padded tile load per block, and streaming reuses the sliding
  plane window along the streaming dimension;
* block merging in the innermost dimension strides warp accesses and
  destroys coalescing, tiny ``TBx`` leaves 32-byte sectors partly used,
  and constant memory removes coefficient traffic only while the table
  fits the constant cache;
* time is the partially-overlapped maximum of the compute and memory
  roofline terms, degraded by latency hiding, wave quantization and
  warp fill, plus barriers and launch overhead; prefetching overlaps
  the next plane's loads and recovers most of the barrier cost;
* Nsight-style metrics (Section IV-D) fall into correlated families —
  compute, memory and occupancy — some strongly predictive of time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.codegen.plan import (
    KernelPlan,
    PlanArrays,
    build_plan_arrays,
    plans_from_arrays,
)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.noise import roughness_factors
from repro.gpusim.records import MetricsTable
from repro.space.constraints import feasible_mask
from repro.space.setting import COLUMNS, ROW, Ops, Setting, settings_matrix
from repro.stencil.pattern import StencilPattern, StencilShape

#: Register allocation granularity (registers are allocated per warp in
#: multiples of this many registers on Volta/Ampere).
_REG_ALLOC_UNIT = 256

#: Shared memory allocation granularity in bytes.
_SMEM_ALLOC_UNIT = 1024

#: Doubles per 32-byte DRAM sector.
_SECTOR_DOUBLES = 4

#: Coefficient-table capacity of the constant cache (entries) under
#: which useConstant pays off.
_CONST_CACHE_ENTRIES = 64

#: Occupancy limiters in the order the calculator consults them; ties
#: go to the first, and ``Occupancy.limiter_index`` indexes this tuple.
_LIMIT_NAMES = ("threads", "blocks", "registers", "shared_memory")

#: Names of all metrics emitted per run, in stable order.
METRIC_NAMES: tuple[str, ...] = (
    "achieved_occupancy",
    "sm_efficiency",
    "warp_execution_efficiency",
    "ipc",
    "flop_dp_efficiency",
    "l1_hit_rate",
    "l2_hit_rate",
    "tex_hit_rate",
    "gld_efficiency",
    "gst_efficiency",
    "dram_read_throughput",
    "dram_write_throughput",
    "dram_utilization",
    "shared_load_transactions_per_request",
    "stall_memory_dependency",
    "stall_sync",
    "registers_per_thread",
    "static_shared_memory",
    "eligible_warps_per_cycle",
)


def _ops(plan: KernelPlan | PlanArrays) -> Ops:
    """Columns for a :class:`PlanArrays`, a row for a :class:`KernelPlan`."""
    return COLUMNS if isinstance(plan, PlanArrays) else ROW


# ---------------------------------------------------------------------------
# Stage results: scalars for a row, arrays for columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Occupancy:
    """Resident blocks/warps per SM and the binding resource."""

    blocks_per_sm: Any
    active_warps_per_sm: Any
    occupancy: Any
    #: Index into :data:`_LIMIT_NAMES` of the binding resource.
    limiter_index: Any

    @property
    def limiter(self) -> str:
        """Name of the binding resource (a row's occupancy only)."""
        return _LIMIT_NAMES[self.limiter_index]


@dataclass(frozen=True)
class MemoryTraffic:
    """Traffic volumes (bytes per sweep) and memory-efficiency figures."""

    dram_read_bytes: Any
    dram_write_bytes: Any
    l1_hit_rate: Any
    l2_hit_rate: Any
    gld_efficiency: Any
    gst_efficiency: Any
    shared_bytes: Any
    bank_conflict_factor: Any

    @property
    def dram_bytes(self) -> Any:
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass(frozen=True)
class TimingBreakdown:
    """Component times (seconds) and the efficiency factors behind them."""

    compute_s: Any
    memory_s: Any
    sync_s: Any
    launch_s: float
    total_s: Any
    compute_efficiency: Any
    bandwidth_utilization: Any
    waves: Any
    tail_utilization: Any
    warp_fill: Any
    latency_hiding: Any

    @property
    def bound(self) -> str:
        """Which roofline term dominates, "compute" or "memory" (a row)."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _round_up(value: Any, unit: int) -> Any:
    return ((value + unit - 1) // unit) * unit


def compute_occupancy(plan: Any, device: DeviceSpec) -> Occupancy:
    """Resident blocks/warps per SM and the binding resource.

    Reads only ``threads_per_block``, ``registers_per_thread`` and
    ``shared_memory_per_block``. A plan that cannot launch at all (zero
    resident blocks) yields ``occupancy == 0`` with the binding limiter
    named; the simulator rejects such plans upstream, but this stays
    total so diagnostics can run on anything.
    """
    ops = _ops(plan)
    where, minimum, maximum = ops.where, ops.minimum, ops.maximum
    tpb = plan.threads_per_block
    warps_per_block = (tpb + device.warp_size - 1) // device.warp_size

    lim_threads = device.max_threads_per_sm // maximum(1, tpb)
    lim_blocks = device.max_blocks_per_sm
    regs_per_block = (
        _round_up(plan.registers_per_thread * device.warp_size, _REG_ALLOC_UNIT)
        * warps_per_block
    )
    lim_regs = where(
        regs_per_block > 0,
        device.regs_per_sm // maximum(regs_per_block, 1),
        lim_blocks,
    )
    smem = plan.shared_memory_per_block
    smem_rounded = _round_up(smem, _SMEM_ALLOC_UNIT)
    lim_smem = where(
        smem > 0, device.smem_per_sm // maximum(smem_rounded, 1), lim_blocks
    )

    # First strictly smallest limit, in _LIMIT_NAMES order.
    best, index = lim_threads, 0
    for k, lim in enumerate((lim_blocks, lim_regs, lim_smem), start=1):
        index = where(lim < best, k, index)
        best = minimum(best, lim)
    blocks = maximum(0, best)
    warps = minimum(blocks * warps_per_block, device.max_warps_per_sm)
    return Occupancy(
        blocks_per_sm=blocks,
        active_warps_per_sm=warps,
        occupancy=warps / device.max_warps_per_sm,
        limiter_index=index,
    )


def _taps_per_point(pattern: StencilPattern) -> int | float:
    """Tap reads per output point summed over all input arrays."""
    if pattern.shape is StencilShape.MULTI:
        # Array 0 carries a full star; remaining inputs one axis sweep.
        star = 1 + 6 * pattern.order
        axis = 2 * pattern.order
        return star + (pattern.inputs - 1) * axis
    return float(pattern.taps_per_point)


def compute_traffic(plan: Any, device: DeviceSpec) -> MemoryTraffic:
    """Per-sweep DRAM traffic, hit rates and coalescing efficiencies."""
    ops = _ops(plan)
    where, minimum, maximum, clip = ops.where, ops.minimum, ops.maximum, ops.clip
    p = plan.pattern
    setting = plan.setting
    points = ops.to_float(plan.covered_points())
    elem = float(p.dtype_bytes)
    use_shared = setting.enabled("useShared")
    streaming = plan.streaming
    total_taps = _taps_per_point(p)

    # --- coalescing: stores see the same pattern as loads -----------------
    tbx = setting["TBx"]
    stride = plan.coalescing_stride  # BMx
    eff = where(stride > 1, 1.0 / minimum(stride, _SECTOR_DOUBLES), 1.0)
    eff = where(tbx < _SECTOR_DOUBLES, eff * (tbx / _SECTOR_DOUBLES), eff)
    # 32-byte sectors with 8-byte elements waste at most 4x.
    gld_eff = clip(eff, 1.0 / _SECTOR_DOUBLES, 1.0)
    gst_eff = gld_eff

    # --- L1 with shared-memory staging ------------------------------------
    # Neighbour taps are served from shared memory; global loads are the
    # halo-padded tile (staged arrays) plus cache-path reads for the
    # remaining inputs. Along the streaming dimension the sliding window
    # loads each plane once, so it carries no halo.
    r = p.order
    halo = 1.0
    for dim, s in ((1, "x"), (2, "y"), (3, "z")):
        tile = setting[f"TB{s}"] * setting[f"UF{s}"]
        tile = tile * setting[f"CM{s}"] * setting[f"BM{s}"]
        on_window = streaming & (plan.streaming_dim == dim)
        halo = where(on_window, halo, halo * ((tile + 2 * r) / tile))
    staged = 1 if p.shape is not StencilShape.MULTI else min(2, p.inputs)
    cache_taps = total_taps * max(0, p.inputs - staged) / max(1, p.inputs)

    # --- L1 on the cache path ---------------------------------------------
    # Caches capture most of the spatial neighbour reuse; higher order
    # and box shapes blow the working set, a register window removes one
    # dimension's misses, and wider blocks reuse lines within the warp.
    l1_base = 0.80 - 0.06 * (p.order - 1)
    if p.shape is StencilShape.BOX:
        l1_base -= 0.10
    l1_cached = where(streaming, l1_base + 0.06, l1_base)
    l1_cached = l1_cached + 0.02 * minimum(5, maximum(0, ops.bit_length(tbx) - 1))

    l1_hit = where(use_shared, 0.35, clip(l1_cached, 0.20, 0.92))
    staged_loads = where(use_shared, points * halo * staged, 0.0)
    cache_loads = where(use_shared, points * cache_taps, points * total_taps)
    shared_bytes = where(use_shared, points * total_taps * elem, 0.0)
    l1_miss_loads = staged_loads + cache_loads * (1.0 - l1_hit)

    # --- L2 ----------------------------------------------------------------
    plane_bytes = p.grid[0] * p.grid[1] * elem * p.io_arrays
    window = plane_bytes * (2 * p.order + 1)
    fit = max(0.0, min(1.0, device.l2_bytes / max(window, 1.0)))
    l2_base = 0.25 + 0.55 * fit
    l2_hit = clip(where(streaming, l2_base + 0.08, l2_base + 0.0), 0.05, 0.90)

    dram_reads = l1_miss_loads * (1.0 - l2_hit) * elem
    # Every input array is streamed from DRAM at least once.
    dram_reads = maximum(dram_reads, float(p.points()) * p.inputs * elem)

    # Coefficient traffic rides on top: through the regular cache path
    # it costs a small fraction of the grid traffic; a fitting constant
    # table eliminates it, an overflowing table thrashes the constant
    # cache and costs more than the default path.
    const_factor = 0.0 if p.coefficients <= _CONST_CACHE_ENTRIES else 0.06
    coeff_factor = where(setting.enabled("useConstant"), const_factor, 0.02)
    dram_reads = dram_reads * (1.0 + coeff_factor) / gld_eff
    dram_writes = points * p.outputs * elem / gst_eff

    # Shared-memory bank conflicts: block merging in x makes threads in a
    # warp hit the same bank group.
    bank = where(use_shared & (stride > 1), ops.to_float(minimum(stride, 4)), 1.0)

    return MemoryTraffic(
        dram_read_bytes=dram_reads,
        dram_write_bytes=dram_writes,
        l1_hit_rate=l1_hit,
        l2_hit_rate=l2_hit,
        gld_efficiency=gld_eff,
        gst_efficiency=gst_eff,
        shared_bytes=shared_bytes,
        bank_conflict_factor=bank,
    )


def compute_timing(
    plan: Any,
    device: DeviceSpec,
    traffic: MemoryTraffic,
    occ: Occupancy,
) -> TimingBreakdown:
    """Combine plan, occupancy and traffic into an execution time.

    Raises :class:`ValueError` when a plan cannot launch at all (zero
    resident blocks; for columns, the first such row) before computing
    anything — such settings must be filtered by the implicit resource
    constraints before reaching the timing model.
    """
    ops = _ops(plan)
    where, minimum, maximum, clip = ops.where, ops.minimum, ops.maximum, ops.clip
    limiter = ops.first_true(occ.blocks_per_sm < 1, occ.limiter_index)
    if limiter is not None:
        raise ValueError(
            "plan cannot launch: zero resident blocks "
            f"({_LIMIT_NAMES[limiter]}-limited)"
        )
    setting = plan.setting
    p = plan.pattern

    # --- parallelism factors ----------------------------------------------
    total_blocks = plan.total_blocks
    blocks_per_wave = occ.blocks_per_sm * device.sm_count
    waves = maximum(1, ops.ceil_int(total_blocks / blocks_per_wave))
    tail = total_blocks / (waves * blocks_per_wave)
    tpb = plan.threads_per_block
    warp_fill = tpb / (ops.ceil_int(tpb / device.warp_size) * device.warp_size)
    latency_hiding = clip(
        occ.active_warps_per_sm / device.latency_hiding_warps, 0.15, 1.0
    )
    # Work overshoot: blocks covering points past the grid edge are
    # predicated off but still occupy issue slots.
    covered = plan.covered_points()
    cover = p.points() / maximum(1, covered)

    # --- compute term -----------------------------------------------------
    unroll = setting["UFx"] * setting["UFy"] * setting["UFz"]
    ilp = 1.0 + 0.04 * minimum(4, maximum(0, ops.bit_length(unroll) - 1))
    # Homogenized accumulation raises FMA utilization for wide stencils,
    # costs a little bookkeeping for order-1 ones.
    retiming_gain = 1.08 if p.order >= 2 else 0.96
    ilp = where(setting.enabled("useRetiming"), ilp * retiming_gain, ilp)
    compute_eff = clip(
        latency_hiding * tail * warp_fill * ilp * maximum(cover, 0.05), 0.02, 1.0
    )
    flops = ops.to_float(covered) * p.flops
    compute_s = flops / (device.peak_fp64_flops * compute_eff)

    # --- memory term --------------------------------------------------------
    # DRAM saturates well below full occupancy on memory-bound kernels.
    bw_util = clip(occ.occupancy / 0.25, 0.30, 1.0) * clip(tail, 0.40, 1.0)
    memory_s = traffic.dram_bytes / (device.dram_bandwidth_bytes * bw_util)
    # Serialized shared-memory replays act on the memory pipeline.
    bank = traffic.bank_conflict_factor
    memory_s = where(bank > 1.0, memory_s * (1.0 + 0.08 * (bank - 1.0)), memory_s)

    # --- synchronization ------------------------------------------------------
    sync_s = plan.sync_points * device.sync_overhead_s * waves
    # Loads for plane s+1 overlap the compute of plane s.
    prefetch = setting.enabled("usePrefetching") & plan.streaming
    sync_s = where(prefetch, sync_s * 0.30, sync_s)
    memory_s = where(prefetch, memory_s * 0.95, memory_s)

    # --- combine (imperfect compute/memory overlap) -------------------------
    overlap = 0.20
    total = (
        maximum(compute_s, memory_s)
        + overlap * minimum(compute_s, memory_s)
        + sync_s
        + device.launch_overhead_s
    )
    return TimingBreakdown(
        compute_s=compute_s,
        memory_s=memory_s,
        sync_s=sync_s,
        launch_s=device.launch_overhead_s,
        total_s=total,
        compute_efficiency=compute_eff,
        bandwidth_utilization=bw_util,
        waves=waves,
        tail_utilization=tail,
        warp_fill=warp_fill,
        latency_hiding=latency_hiding,
    )


def derive_metrics(
    plan: Any,
    device: DeviceSpec,
    occ: Occupancy,
    traffic: MemoryTraffic,
    timing: TimingBreakdown,
) -> dict[str, Any]:
    """The Nsight-style metrics, keyed in :data:`METRIC_NAMES` order.

    One float per metric for a row, one column per metric for columns.
    """
    ops = _ops(plan)
    minimum, maximum = ops.minimum, ops.maximum
    total = maximum(timing.total_s, 1e-12)
    mem_fraction = timing.memory_s / maximum(timing.compute_s + timing.memory_s, 1e-12)

    dram_read_tp = traffic.dram_read_bytes / total / 1e9  # GB/s
    dram_write_tp = traffic.dram_write_bytes / total / 1e9

    flops = ops.to_float(plan.covered_points()) * plan.pattern.flops
    ipc = 4.0 * timing.compute_efficiency  # 4 schedulers per SM
    return {
        "achieved_occupancy": occ.occupancy,
        "sm_efficiency": timing.tail_utilization * timing.latency_hiding,
        "warp_execution_efficiency": timing.warp_fill,
        "ipc": ipc,
        "flop_dp_efficiency": minimum(1.0, flops / total / device.peak_fp64_flops),
        "l1_hit_rate": traffic.l1_hit_rate,
        "l2_hit_rate": traffic.l2_hit_rate,
        # Texture path mirrors L1 for read-only data, slightly better.
        "tex_hit_rate": minimum(0.98, traffic.l1_hit_rate * 1.08),
        "gld_efficiency": traffic.gld_efficiency,
        "gst_efficiency": traffic.gst_efficiency,
        "dram_read_throughput": dram_read_tp,
        "dram_write_throughput": dram_write_tp,
        "dram_utilization": minimum(
            1.0, (dram_read_tp + dram_write_tp) / device.dram_bandwidth_gbs
        ),
        "shared_load_transactions_per_request": traffic.bank_conflict_factor,
        "stall_memory_dependency": mem_fraction * (1.0 - timing.latency_hiding * 0.5),
        "stall_sync": timing.sync_s / total,
        "registers_per_thread": ops.to_float(plan.registers_per_thread),
        "static_shared_memory": ops.to_float(plan.shared_memory_per_block),
        "eligible_warps_per_cycle": (
            occ.active_warps_per_sm * timing.compute_efficiency / 4.0
        ),
    }


def run_model(
    plan: KernelPlan | PlanArrays, device: DeviceSpec
) -> tuple[TimingBreakdown, dict[str, Any]]:
    """All four stages: the noise-free timing and the metrics."""
    occ = compute_occupancy(plan, device)
    traffic = compute_traffic(plan, device)
    timing = compute_timing(plan, device, traffic, occ)
    return timing, derive_metrics(plan, device, occ, traffic, timing)


# ---------------------------------------------------------------------------
# Many settings at once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Noise-free evaluation of many settings on one pattern.

    ``metrics`` is columnar (:class:`~repro.gpusim.records.MetricsTable`);
    ``metrics[i]`` is a lazy per-setting mapping view. ``timing`` holds
    the component columns behind ``true_times`` (before roughness).
    """

    true_times: np.ndarray
    metrics: MetricsTable
    plans: list[KernelPlan]
    timing: TimingBreakdown


def valid_mask(
    pattern: StencilPattern,
    device: DeviceSpec,
    values: np.ndarray,
    arrays: PlanArrays | None = None,
) -> np.ndarray:
    """Validity of every row (explicit AND resource constraints).

    Row-for-row equivalent to ``GpuSimulator.violation(...) is None``:
    both read :data:`repro.space.constraints.RULES`. Pass ``arrays``
    when the plan columns of these rows are already built.
    """
    return feasible_mask(pattern, values, device, plan=arrays)


def evaluate_settings(
    pattern: StencilPattern,
    device: DeviceSpec,
    settings: Sequence[Setting],
    *,
    values: np.ndarray | None = None,
    arrays: PlanArrays | None = None,
) -> BatchResult:
    """Run the noise-free model over many settings as columns.

    Settings are assumed valid (see :func:`valid_mask`). Callers that
    already lowered the settings can pass ``values`` (and ``arrays``)
    to skip recomputing them. The metrics table keeps
    :data:`METRIC_NAMES` order; the simulator appends ``elapsed_time``.
    """
    settings = list(settings)
    if values is None:
        values = settings_matrix(settings)
    if arrays is None:
        arrays = build_plan_arrays(pattern, values)
    timing, columns = run_model(arrays, device)
    rough = roughness_factors(
        device.name, pattern.name, [s.values_tuple() for s in settings]
    )
    data = np.stack([columns[name] for name in METRIC_NAMES], axis=1)
    return BatchResult(
        true_times=timing.total_s * np.array(rough),
        metrics=MetricsTable(METRIC_NAMES, data),
        plans=plans_from_arrays(pattern, settings, arrays),
        timing=timing,
    )
