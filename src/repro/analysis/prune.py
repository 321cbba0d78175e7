"""Analysis-driven static pre-pruning of the tuning space.

The dataflow analyzer's roofline lower bound is *sound*: no execution
of a setting can beat it under the analytic model (and, scaled by
:func:`repro.gpusim.noise.min_roughness_factor`, under the perturbed
model the simulator actually reports). That soundness buys a pruning
rule that can never discard the optimum:

1. evaluate a small seeded probe set exactly and take the best time as
   the **reference** — the true optimum is at least this good;
2. discard any candidate whose *perturbed lower bound* already exceeds
   the reference — its real time provably exceeds the reference too,
   so it cannot be the optimum;
3. discard statically-unlaunchable candidates (zero resident blocks
   after allocation granularity) — the simulator rejects them with an
   exception anyway.

Everything is vectorized over settings matrices so the pruner rides
the same batch screening path the sampler already uses. Wired into
:class:`~repro.space.space.SearchSpace` behind ``--prune-static``
(default off; the off path is byte-identical to a pruner-less space).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.analysis.dataflow import (
    CONST_CACHE_ENTRIES,
    COEFF_DEFAULT_FACTOR,
    COEFF_THRASH_FACTOR,
    PREFETCH_MEMORY_FACTOR,
    REG_ALLOC_UNIT,
    SECTOR_DOUBLES,
    SMEM_ALLOC_UNIT,
)
from repro.codegen.plan import PlanArrays, build_plan, build_plan_arrays
from repro.gpusim.device import DeviceSpec
from repro.gpusim.model import compute_occupancy, compute_timing, compute_traffic
from repro.gpusim.noise import min_roughness_factor, roughness_factors
from repro.space.parameters import PARAM_INDEX
from repro.space.setting import Setting, settings_matrix
from repro.stencil.pattern import StencilPattern
from repro.utils.rng import rng_from_seed

if TYPE_CHECKING:
    from repro.space.space import SearchSpace

#: Value a flag parameter takes when enabled (matches ``Setting.enabled``).
_FLAG_ON = 2


def static_blocks_per_sm(
    pattern: StencilPattern,
    device: DeviceSpec,
    values: NDArray[np.int64],
    arrays: PlanArrays | None = None,
) -> NDArray[np.int64]:
    """Vectorized static occupancy bound (resident blocks per SM)."""
    if arrays is None:
        arrays = build_plan_arrays(pattern, values)
    tpb = arrays.threads_per_block
    warps_per_block = -(-tpb // device.warp_size)
    blocks = np.minimum(
        device.max_threads_per_sm // np.maximum(tpb, 1),
        device.max_blocks_per_sm,
    )
    regs_warp = arrays.registers_per_thread * device.warp_size
    regs_warp = -(-regs_warp // REG_ALLOC_UNIT) * REG_ALLOC_UNIT
    regs_block = np.maximum(regs_warp * warps_per_block, 1)
    blocks = np.minimum(blocks, device.regs_per_sm // regs_block)
    smem = arrays.shared_memory_per_block
    page = -(-smem // SMEM_ALLOC_UNIT) * SMEM_ALLOC_UNIT
    smem_limit = np.where(
        smem > 0,
        device.smem_per_sm // np.maximum(page, 1),
        device.max_blocks_per_sm,
    )
    return np.maximum(np.minimum(blocks, smem_limit), 0)


def static_lower_bounds_s(
    pattern: StencilPattern,
    device: DeviceSpec,
    values: NDArray[np.int64],
    arrays: PlanArrays | None = None,
) -> NDArray[np.float64]:
    """Vectorized roofline lower bound (model scale), one per setting.

    The batch twin of
    :func:`repro.analysis.dataflow.static_lower_bound_s` — same floors,
    same factors, evaluated over a settings matrix.
    """
    if arrays is None:
        arrays = build_plan_arrays(pattern, values)
    covered = arrays.covered_points().astype(np.float64)
    elem = float(pattern.dtype_bytes)

    flops_lb = covered * pattern.flops / device.peak_fp64_flops

    stride = arrays.coalescing_stride.astype(np.float64)
    tbx = values[:, PARAM_INDEX["TBx"]].astype(np.float64)
    eff = np.ones(len(values), dtype=np.float64)
    eff = np.where(stride > 1, eff / np.minimum(stride, SECTOR_DOUBLES), eff)
    eff = np.where(tbx < SECTOR_DOUBLES, eff * tbx / SECTOR_DOUBLES, eff)
    gld = np.clip(eff, 1.0 / SECTOR_DOUBLES, 1.0)

    use_constant = values[:, PARAM_INDEX["useConstant"]] == _FLAG_ON
    coeff_on = (0.0 if pattern.coefficients <= CONST_CACHE_ENTRIES
                else COEFF_THRASH_FACTOR)
    coeff = np.where(use_constant, coeff_on, COEFF_DEFAULT_FACTOR)
    reads = float(pattern.points()) * pattern.inputs * elem
    reads = reads * (1.0 + coeff) / gld
    writes = covered * pattern.outputs * elem / gld
    mem_lb = (reads + writes) / device.dram_bandwidth_bytes
    prefetch_stream = (
        (values[:, PARAM_INDEX["usePrefetching"]] == _FLAG_ON)
        & (values[:, PARAM_INDEX["useStreaming"]] == _FLAG_ON)
    )
    mem_lb = np.where(
        prefetch_stream, mem_lb * PREFETCH_MEMORY_FACTOR, mem_lb
    )
    return np.maximum(flops_lb, mem_lb) + device.launch_overhead_s


@dataclass
class StaticPruner:
    """Rejects provably-dominated/unlaunchable settings before evaluation.

    ``ref_time_s`` is an *achieved* perturbed model time (from the probe
    set); any setting whose perturbed lower bound exceeds
    ``margin * ref_time_s`` is discarded. ``margin`` > 1 loosens the
    rule (prunes less), never the soundness: with margin ≥ 1 the
    optimum always survives.
    """

    pattern: StencilPattern
    device: DeviceSpec
    ref_time_s: float
    margin: float = 1.0
    #: cumulative count of settings screened / pruned (observability)
    screened: int = field(default=0, compare=False)
    pruned: int = field(default=0, compare=False)

    def dominated_mask(
        self, values: NDArray[np.int64], arrays: PlanArrays | None = None
    ) -> NDArray[np.bool_]:
        """Boolean mask over a settings matrix: True = statically pruned."""
        if arrays is None:
            arrays = build_plan_arrays(self.pattern, values)
        unlaunchable = (
            static_blocks_per_sm(self.pattern, self.device, values, arrays)
            < 1
        )
        lb_true = (
            static_lower_bounds_s(self.pattern, self.device, values, arrays)
            * min_roughness_factor()
        )
        mask = unlaunchable | (lb_true > self.margin * self.ref_time_s)
        self.screened += len(values)
        self.pruned += int(mask.sum())
        return mask

    def violation(self, setting: Setting) -> str | None:
        """Scalar pruning verdict (same arithmetic as the batch mask)."""
        values = settings_matrix([setting])
        arrays = build_plan_arrays(self.pattern, values)
        if static_blocks_per_sm(
            self.pattern, self.device, values, arrays
        )[0] < 1:
            return "statically unlaunchable: zero resident blocks per SM"
        lb = float(
            static_lower_bounds_s(self.pattern, self.device, values, arrays)[0]
            * min_roughness_factor()
        )
        if lb > self.margin * self.ref_time_s:
            return (
                f"statically dominated: lower bound {lb:.3e}s exceeds "
                f"reference {self.ref_time_s:.3e}s"
            )
        return None


def probe_reference_time_s(
    pattern: StencilPattern,
    device: DeviceSpec,
    settings: list[Setting],
) -> float:
    """Best achieved perturbed model time over a probe set.

    Unlaunchable probes are skipped (the simulator would reject them);
    at least one probe must survive.
    """
    best = np.inf
    for setting in settings:
        plan = build_plan(pattern, setting)
        occ = compute_occupancy(plan, device)
        if occ.blocks_per_sm < 1:
            continue
        traffic = compute_traffic(plan, device)
        timing = compute_timing(plan, device, traffic, occ)
        t = timing.total_s * roughness_factors(
            device.name, pattern.name, [setting.values_tuple()]
        )[0]
        best = min(best, t)
    if not np.isfinite(best):
        raise ValueError(
            f"{pattern.name}@{device.name}: no launchable probe "
            "(cannot anchor the static pruner)"
        )
    return float(best)


def build_pruner(
    space: "SearchSpace",
    device: DeviceSpec,
    *,
    probes: int = 64,
    seed: int = 0,
    margin: float = 1.0,
) -> StaticPruner:
    """Anchor a :class:`StaticPruner` on a seeded probe of ``space``.

    Uses the space's own sampler on a private RNG (the tuner's streams
    are untouched) and evaluates the probes exactly, so the reference
    is an achieved — not estimated — time.
    """
    rng = rng_from_seed(seed)
    settings = space.sample(rng, probes)
    ref = probe_reference_time_s(space.pattern, device, settings)
    return StaticPruner(
        pattern=space.pattern, device=device, ref_time_s=ref, margin=margin
    )
