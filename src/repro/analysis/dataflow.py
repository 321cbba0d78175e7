"""Kernel dataflow/memory analyzer.

:func:`analyze_dataflow` reasons about *what the generated kernel's
memory traffic must look like* from its emitted source — the index
setup, the merge-loop nest, the storage-class declarations — and from
the launch geometry the setting selects. It derives, per
``(setting, DeviceSpec)``:

* a **coalescing class** for the global accesses (block merging in the
  innermost dimension strides warp accesses; narrow ``TBx`` leaves
  32-byte sectors partially used), with the provable upper bound on
  load/store efficiency;
* the **shared-memory footprint** and **bank-conflict degree** of the
  staged tile;
* a **register-pressure bound** recounted from the source and the
  allocation-granularity-aware **occupancy bound** it implies;
* a **roofline lower bound** on execution time built only from
  provable floors (compulsory DRAM traffic over peak bandwidth,
  arithmetic work over peak FLOP/s).

The bounds are then cross-validated against what :mod:`repro.gpusim`'s
analytic model actually claims for the same plan; a model that promises
more than the statically provable resource limits allow is a drift bug
and reported as ``MODEL4xx``. Like the plan-vs-source cross-checker,
the derivations here deliberately *restate* the arithmetic of the
occupancy/memory models instead of importing it — the point is to catch
the two sides disagreeing.

``MEM401``  (warning)
    Block merging strides the warp's global accesses (coalescing lost).
``MEM402``  (warning)
    Thread block narrower than one 32-byte DRAM sector (``TBx < 4``).
``MEM403``  (error)
    Declared shared-memory footprint exceeds the device's per-block
    limit.
``MEM404``  (warning)
    Shared-tile accesses conflict on banks (degree > 1).
``MEM405``  (error)
    Register bound recounted from source exceeds the device ceiling.
``MEM406``  (warning)
    Occupancy bound below the latency-hiding floor (or zero resident
    blocks after allocation granularity — statically unlaunchable).
``MODEL411`` (error)
    Simulator occupancy exceeds the statically provable bound.
``MODEL412`` (error)
    Modelled load efficiency exceeds the static coalescing bound.
``MODEL413`` (error)
    Modelled bank-conflict factor disagrees with the static degree.
``MODEL414`` (error)
    Modelled execution time beats the static roofline lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.crosscheck import SourceFacts, extract_facts, recount_registers
from repro.analysis.cudalint import ParsedKernel, parse_kernel
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    SourceSpan,
    emit,
    register_rule,
)
from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import KernelPlan, build_plan
from repro.codegen.registers import MAX_REGISTERS_PER_THREAD
from repro.gpusim.device import DeviceSpec
from repro.gpusim.model import compute_occupancy, compute_timing, compute_traffic
from repro.space.setting import Setting
from repro.stencil.pattern import StencilPattern

register_rule("MEM401", Severity.WARNING,
              "block merging strides warp accesses (coalescing lost)")
register_rule("MEM402", Severity.WARNING,
              "thread block narrower than a DRAM sector")
register_rule("MEM403", Severity.ERROR,
              "shared-memory footprint exceeds device per-block limit")
register_rule("MEM404", Severity.WARNING,
              "shared-tile accesses conflict on banks")
register_rule("MEM405", Severity.ERROR,
              "register bound exceeds device ceiling")
register_rule("MEM406", Severity.WARNING,
              "occupancy bound below the latency-hiding floor")
register_rule("MODEL411", Severity.ERROR,
              "simulator occupancy exceeds statically provable bound")
register_rule("MODEL412", Severity.ERROR,
              "modelled load efficiency exceeds static coalescing bound")
register_rule("MODEL413", Severity.ERROR,
              "modelled bank-conflict factor != static degree")
register_rule("MODEL414", Severity.ERROR,
              "modelled time beats the static roofline lower bound")

_SUFFIX = ("x", "y", "z")

# Independent restatements of the model's hardware constants (kept in
# sync by the MODEL4xx cross-checks, not by imports — see module doc).
#: Doubles per 32-byte DRAM sector.
SECTOR_DOUBLES = 4
#: Register allocation granularity per warp (Volta/Ampere).
REG_ALLOC_UNIT = 256
#: Shared-memory allocation granularity in bytes.
SMEM_ALLOC_UNIT = 1024
#: Constant-cache capacity (coefficient entries) under which
#: ``useConstant`` removes coefficient traffic entirely.
CONST_CACHE_ENTRIES = 64
#: Coefficient-traffic fractions: default cache path / thrashing
#: constant cache (mirrors the memory model's charges).
COEFF_DEFAULT_FACTOR = 0.02
COEFF_THRASH_FACTOR = 0.06
#: Fraction of the memory term prefetching provably still overlaps.
PREFETCH_MEMORY_FACTOR = 0.95

#: Numerical slack for cross-validating float quantities: the static
#: bound and the model compute the same physics through different
#: expression trees, so the last few ulps may differ.
_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class OccupancyBound:
    """Granularity-aware static bound on resident blocks/warps per SM."""

    blocks_per_sm: int
    warps_per_sm: int
    limiter: str


@dataclass(frozen=True)
class DataflowSummary:
    """Statically derived memory behaviour of one generated kernel."""

    #: ``"coalesced"`` or ``"strided(k)"`` (innermost block merging).
    coalescing_class: str
    #: Fraction of each 32-byte sector a warp row actually uses.
    sector_fraction: float
    #: Provable upper bound on global load/store efficiency.
    gld_bound: float
    #: Declared shared-memory footprint, bytes per block.
    smem_bytes: int
    #: Shared-memory bank-conflict degree (1 = conflict-free).
    bank_conflict_degree: int
    #: Registers/thread recounted from the emitted source.
    register_bound: int
    #: Static occupancy bound (allocation-granularity aware).
    occupancy: OccupancyBound
    #: Roofline lower bound on kernel time, seconds (model scale —
    #: multiply by :func:`repro.gpusim.noise.min_roughness_factor` to
    #: bound perturbed times). ``None`` when statically unlaunchable.
    lower_bound_s: float | None


def static_gld_bound(tbx: int, stride: int) -> float:
    """Provable upper bound on load/store efficiency for a warp row.

    Block merging with stride ``k`` touches ``min(k, 4)`` sectors per
    element group; a thread block narrower than one sector uses only
    ``tbx/4`` of each. 8-byte elements in 32-byte sectors waste at most
    4x, so the bound never drops below 1/4.
    """
    eff = 1.0
    if stride > 1:
        eff /= min(stride, SECTOR_DOUBLES)
    if tbx < SECTOR_DOUBLES:
        eff *= tbx / SECTOR_DOUBLES
    return max(1.0 / SECTOR_DOUBLES, min(1.0, eff))


def static_bank_conflict_degree(use_shared: bool, stride: int) -> int:
    """Bank-conflict serialization degree of the staged tile's accesses.

    Block merging in x makes the warp's lanes hit the same bank group;
    with 8-byte words the replay degree saturates at 4.
    """
    if use_shared and stride > 1:
        return min(stride, SECTOR_DOUBLES)
    return 1


def static_occupancy_bound(
    threads_per_block: int,
    registers_per_thread: int,
    smem_bytes: int,
    device: DeviceSpec,
) -> OccupancyBound:
    """Upper bound on resident blocks/SM from provable resource limits.

    Restates the occupancy calculator with warp-granular register
    allocation (:data:`REG_ALLOC_UNIT`) and page-granular shared memory
    (:data:`SMEM_ALLOC_UNIT`): no scheduler can place more blocks than
    this on an SM, so a model claiming more is wrong (``MODEL411``).
    """
    warps_per_block = -(-threads_per_block // device.warp_size)
    limits = {
        "threads": device.max_threads_per_sm // max(1, threads_per_block),
        "blocks": device.max_blocks_per_sm,
    }
    regs_warp = registers_per_thread * device.warp_size
    regs_warp = -(-regs_warp // REG_ALLOC_UNIT) * REG_ALLOC_UNIT
    regs_block = regs_warp * warps_per_block
    limits["registers"] = (
        device.regs_per_sm // regs_block if regs_block > 0 else limits["blocks"]
    )
    if smem_bytes > 0:
        smem = -(-smem_bytes // SMEM_ALLOC_UNIT) * SMEM_ALLOC_UNIT
        limits["shared_memory"] = device.smem_per_sm // smem
    else:
        limits["shared_memory"] = limits["blocks"]
    limiter = min(limits, key=lambda k: limits[k])
    blocks = max(0, limits[limiter])
    warps = min(blocks * warps_per_block, device.max_warps_per_sm)
    return OccupancyBound(blocks_per_sm=blocks, warps_per_sm=warps,
                          limiter=limiter)


def _covered_points(
    pattern: StencilPattern, setting: Setting
) -> tuple[int, int]:
    """(covered output points, stream iterations) from launch geometry.

    Restates the plan's decomposition from the setting alone: per-dim
    block counts cover the grid, so the launch updates at least
    ``pattern.points()`` points (block overshoot rounds up).
    """
    streaming = setting.enabled("useStreaming")
    sd = setting["SD"] if streaming else None
    sb = setting["SB"]
    total_blocks = 1
    stream_iters = 1
    ppt = 1
    for dim, s in enumerate(_SUFFIX, start=1):
        per_thread = setting[f"UF{s}"] * setting[f"CM{s}"] * setting[f"BM{s}"]
        ppt *= per_thread
        extent = pattern.grid[dim - 1]
        if streaming and dim == sd:
            total_blocks *= sb
            planes = max(1, extent // sb)
            stream_iters = math.ceil(planes / per_thread)
        else:
            total_blocks *= math.ceil(extent / (setting[f"TB{s}"] * per_thread))
    tpb = setting["TBx"] * setting["TBy"] * setting["TBz"]
    return total_blocks * tpb * ppt * stream_iters, stream_iters


def static_lower_bound_s(
    pattern: StencilPattern,
    setting: Setting,
    device: DeviceSpec,
    gld_bound: float,
) -> float:
    """Sound roofline lower bound on the modelled kernel time, seconds.

    Built only from floors every execution must pay: the covered
    arithmetic work at peak FLOP/s, and the compulsory DRAM traffic —
    every input array streamed once, every covered output stored once,
    both inflated by the provable coalescing loss — at peak bandwidth.
    Efficiency factors only ever *shrink* the model's denominators, so
    ``timing.total_s`` can never legitimately fall below this
    (``MODEL414``).
    """
    covered, _ = _covered_points(pattern, setting)
    elem = float(pattern.dtype_bytes)

    flops_lb = covered * pattern.flops / device.peak_fp64_flops

    if setting.enabled("useConstant"):
        coeff = (0.0 if pattern.coefficients <= CONST_CACHE_ENTRIES
                 else COEFF_THRASH_FACTOR)
    else:
        coeff = COEFF_DEFAULT_FACTOR
    reads = float(pattern.points()) * pattern.inputs * elem
    reads = reads * (1.0 + coeff) / gld_bound
    writes = covered * pattern.outputs * elem / gld_bound
    mem_lb = (reads + writes) / device.dram_bandwidth_bytes
    if setting.enabled("usePrefetching") and setting.enabled("useStreaming"):
        mem_lb *= PREFETCH_MEMORY_FACTOR

    return max(flops_lb, mem_lb) + device.launch_overhead_s


def analyze_dataflow(
    pattern: StencilPattern,
    setting: Setting,
    device: DeviceSpec,
    *,
    source: str | None = None,
    parsed: ParsedKernel | None = None,
    plan: KernelPlan | None = None,
    facts: SourceFacts | None = None,
) -> tuple[DataflowSummary, list[Diagnostic]]:
    """Run every MEM4xx/MODEL4xx rule for one (setting, device) pair."""
    if plan is None:
        plan = build_plan(pattern, setting)
    if source is None:
        source = generate_cuda(plan)
    if parsed is None:
        parsed = parse_kernel(source)
    if facts is None:
        facts = extract_facts(parsed)
    out: list[Diagnostic] = []
    subject = f"{pattern.name}@{device.name}"

    # --- coalescing class (from the source's block-merge loop) -----------
    stride = facts.factors["BMx"]
    tbx = setting["TBx"]
    gld_bound = static_gld_bound(tbx, stride)
    sector_fraction = min(tbx, SECTOR_DOUBLES) / SECTOR_DOUBLES
    merge_line = next(
        (lp.line for lp in parsed.loops if lp.var == "bx"), None
    )
    if stride > 1:
        emit(out, "MEM401",
             f"block merge bx strides warp accesses by {stride}: load "
             f"efficiency capped at {gld_bound:.2f}",
             subject=subject,
             span=SourceSpan.at(merge_line) if merge_line else None)
    if tbx < SECTOR_DOUBLES:
        emit(out, "MEM402",
             f"TBx={tbx} uses {sector_fraction:.0%} of each 32-byte "
             f"sector",
             subject=subject)

    # --- shared memory footprint and bank behaviour ----------------------
    smem_bytes = facts.shared_elems * pattern.dtype_bytes
    tile_line = next(
        (line for _, line in parsed.shared_arrays.values()), None
    )
    if smem_bytes > device.max_smem_per_block:
        emit(out, "MEM403",
             f"declared tile needs {smem_bytes} B/block; {device.name} "
             f"allows {device.max_smem_per_block}",
             subject=subject,
             span=SourceSpan.at(tile_line) if tile_line else None)
    bank = static_bank_conflict_degree(facts.use_shared, stride)
    if bank > 1:
        emit(out, "MEM404",
             f"strided tile accesses serialize {bank}-way on banks",
             subject=subject,
             span=SourceSpan.at(tile_line) if tile_line else None)

    # --- register pressure and occupancy bound ---------------------------
    regs = recount_registers(pattern, facts)
    max_regs = min(MAX_REGISTERS_PER_THREAD, device.max_regs_per_thread)
    if regs > max_regs:
        emit(out, "MEM405",
             f"source recount needs {regs} regs/thread; {device.name} "
             f"caps at {max_regs}",
             subject=subject)
    tpb = setting["TBx"] * setting["TBy"] * setting["TBz"]
    bound = static_occupancy_bound(tpb, regs, smem_bytes, device)
    if bound.blocks_per_sm < 1:
        emit(out, "MEM406",
             f"zero resident blocks after allocation granularity "
             f"({bound.limiter}-limited): statically unlaunchable",
             subject=subject)
    elif bound.warps_per_sm < device.latency_hiding_warps:
        emit(out, "MEM406",
             f"occupancy bound {bound.warps_per_sm} warps/SM below the "
             f"latency-hiding floor of {device.latency_hiding_warps}",
             subject=subject)

    # --- cross-validation against the analytic model ---------------------
    occ = compute_occupancy(plan, device)
    if occ.blocks_per_sm > bound.blocks_per_sm:
        emit(out, "MODEL411",
             f"model claims {occ.blocks_per_sm} blocks/SM; static "
             f"{bound.limiter} limit proves at most {bound.blocks_per_sm}",
             subject=subject)
    traffic = compute_traffic(plan, device)
    if traffic.gld_efficiency > gld_bound + _FLOAT_SLACK:
        emit(out, "MODEL412",
             f"model claims gld efficiency {traffic.gld_efficiency:.3f}; "
             f"coalescing analysis proves at most {gld_bound:.3f}",
             subject=subject)
    if abs(traffic.bank_conflict_factor - bank) > _FLOAT_SLACK:
        emit(out, "MODEL413",
             f"model charges bank factor {traffic.bank_conflict_factor:g}; "
             f"static degree is {bank}",
             subject=subject)

    lower_bound: float | None = None
    if bound.blocks_per_sm >= 1 and occ.blocks_per_sm >= 1:
        lower_bound = static_lower_bound_s(pattern, setting, device, gld_bound)
        timing = compute_timing(plan, device, traffic, occ)
        if timing.total_s < lower_bound * (1.0 - _FLOAT_SLACK):
            emit(out, "MODEL414",
                 f"model time {timing.total_s:.3e}s beats the provable "
                 f"roofline floor {lower_bound:.3e}s",
                 subject=subject)

    summary = DataflowSummary(
        coalescing_class="coalesced" if stride == 1 else f"strided({stride})",
        sector_fraction=sector_fraction,
        gld_bound=gld_bound,
        smem_bytes=smem_bytes,
        bank_conflict_degree=bank,
        register_bound=regs,
        occupancy=bound,
        lower_bound_s=lower_bound,
    )
    return summary, out
