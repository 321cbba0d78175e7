"""Kernel plans: the bridge from a parameter setting to launchable work.

The plan captures everything the simulator needs about the generated
kernel — launch geometry, per-thread work, resource footprints and the
memory-access descriptors (coalescing stride, staging mode) the
memory model uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.codegen.registers import (
    MAX_REGISTERS_PER_THREAD,
    estimate_registers,
    estimate_registers_array,
    estimate_shared_memory,
    estimate_shared_memory_array,
)
from repro.space.parameters import PARAM_INDEX
from repro.space.setting import Setting
from repro.stencil.pattern import StencilPattern

if TYPE_CHECKING:  # import-light at runtime: gpusim imports this module
    from repro.gpusim.device import DeviceSpec

_SUFFIX = ("x", "y", "z")


@dataclass(frozen=True)
class KernelPlan:
    """Resolved execution plan for one (stencil, setting) pair.

    All quantities are device-independent; the simulator combines them
    with a :class:`~repro.gpusim.device.DeviceSpec` to produce timings.
    """

    pattern: StencilPattern
    setting: Setting
    threads_per_block: int
    points_per_thread: int
    blocks: tuple[int, int, int]
    stream_iters: int
    registers_per_thread: int
    shared_memory_per_block: int
    #: Innermost-dimension block-merging factor; values > 1 disrupt
    #: memory coalescing (Section II-B2).
    coalescing_stride: int
    streaming: bool
    streaming_dim: int | None

    @property
    def total_blocks(self) -> int:
        return self.blocks[0] * self.blocks[1] * self.blocks[2]

    @property
    def total_threads(self) -> int:
        return self.total_blocks * self.threads_per_block

    @property
    def flops_per_thread(self) -> float:
        """FLOPs one thread performs across all its stream iterations."""
        return float(
            self.pattern.flops * self.points_per_thread * self.stream_iters
        )

    @property
    def sync_points(self) -> int:
        """Block-wide barriers executed per thread (streaming shifts)."""
        if not (self.streaming and self.setting.enabled("useShared")):
            return 1 if self.setting.enabled("useShared") else 0
        return self.stream_iters

    def covered_points(self) -> int:
        """Output points the whole launch updates (>= pattern.points())."""
        return self.total_threads * self.points_per_thread * self.stream_iters


def build_plan(pattern: StencilPattern, setting: Setting) -> KernelPlan:
    """Resolve launch geometry and resource footprints for a setting.

    The setting is assumed to satisfy the explicit constraints; the plan
    is still constructed for resource-violating settings so the
    violation can be *reported* (and so Fig 12's codegen phase can be
    timed on arbitrary candidates).
    """
    tpb = setting["TBx"] * setting["TBy"] * setting["TBz"]
    ppt = 1
    for s in _SUFFIX:
        ppt *= setting[f"UF{s}"] * setting[f"CM{s}"] * setting[f"BM{s}"]

    streaming = setting.enabled("useStreaming")
    sd = setting["SD"] if streaming else None
    sb = setting["SB"]

    blocks = [1, 1, 1]
    stream_iters = 1
    for dim in (1, 2, 3):
        s = _SUFFIX[dim - 1]
        extent = pattern.grid[dim - 1]
        per_thread = (
            setting[f"UF{s}"] * setting[f"CM{s}"] * setting[f"BM{s}"]
        )
        tile = setting[f"TB{s}"] * per_thread
        if streaming and dim == sd:
            blocks[dim - 1] = sb
            planes = max(1, extent // sb)
            stream_iters = math.ceil(planes / per_thread)
        else:
            blocks[dim - 1] = math.ceil(extent / tile)

    return KernelPlan(
        pattern=pattern,
        setting=setting,
        threads_per_block=tpb,
        points_per_thread=ppt,
        blocks=(blocks[0], blocks[1], blocks[2]),
        stream_iters=stream_iters,
        registers_per_thread=estimate_registers(pattern, setting),
        shared_memory_per_block=estimate_shared_memory(pattern, setting),
        coalescing_stride=setting["BMx"],
        streaming=streaming,
        streaming_dim=sd,
    )


class SettingColumns:
    """Name → column view of a settings matrix.

    Reads like a :class:`~repro.space.setting.Setting` (``cols["TBx"]``,
    ``cols.enabled("useShared")``), but each lookup yields that
    parameter's column over every row, so one model formula reads a
    :class:`KernelPlan` and a :class:`PlanArrays` alike.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[:, PARAM_INDEX[name]]

    def enabled(self, switch: str) -> np.ndarray:
        """True where a boolean switch (1/2 convention) is set to 2."""
        return self[switch] == 2


@dataclass(frozen=True)
class PlanArrays:
    """Structure-of-arrays form of many kernel plans at once.

    Each plan field is an int64/bool array with one entry per setting,
    equal row for row to the :class:`KernelPlan` of that setting;
    ``pattern`` and ``setting`` read as they do on a plan, so the
    simulator model (:mod:`repro.gpusim.model`) takes either.
    """

    pattern: StencilPattern
    setting: SettingColumns
    threads_per_block: np.ndarray
    points_per_thread: np.ndarray
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]
    stream_iters: np.ndarray
    registers_per_thread: np.ndarray
    shared_memory_per_block: np.ndarray
    coalescing_stride: np.ndarray
    streaming: np.ndarray  # bool
    streaming_dim: np.ndarray  # SD value; meaningful only where streaming

    def __len__(self) -> int:
        return len(self.threads_per_block)

    @property
    def total_blocks(self) -> np.ndarray:
        return self.blocks[0] * self.blocks[1] * self.blocks[2]

    @property
    def total_threads(self) -> np.ndarray:
        return self.total_blocks * self.threads_per_block

    def covered_points(self) -> np.ndarray:
        return self.total_threads * self.points_per_thread * self.stream_iters

    @property
    def sync_points(self) -> np.ndarray:
        """Column form of :attr:`KernelPlan.sync_points`."""
        use_shared = self.setting.enabled("useShared")
        return np.where(
            self.streaming & use_shared,
            self.stream_iters,
            np.where(use_shared, 1, 0),
        )


def build_plan_arrays(pattern: StencilPattern, values: np.ndarray) -> PlanArrays:
    """Vectorized :func:`build_plan` over a settings matrix.

    ``values`` is the ``(n, n_params)`` int64 matrix from
    :func:`repro.space.setting.settings_matrix`. Every derived quantity
    matches the scalar plan exactly (integer arithmetic throughout;
    per-dimension block counts use the same float-division ceil).
    """
    col = PARAM_INDEX
    n = len(values)
    tpb = (
        values[:, col["TBx"]] * values[:, col["TBy"]] * values[:, col["TBz"]]
    )
    per_thread = {}
    ppt = np.ones(n, dtype=np.int64)
    for s in _SUFFIX:
        per_thread[s] = (
            values[:, col[f"UF{s}"]]
            * values[:, col[f"CM{s}"]]
            * values[:, col[f"BM{s}"]]
        )
        ppt = ppt * per_thread[s]

    streaming = values[:, col["useStreaming"]] == 2
    sd = values[:, col["SD"]]
    sb = values[:, col["SB"]]

    blocks: list[np.ndarray] = []
    stream_iters = np.ones(n, dtype=np.int64)
    for dim in (1, 2, 3):
        s = _SUFFIX[dim - 1]
        extent = pattern.grid[dim - 1]
        tile = values[:, col[f"TB{s}"]] * per_thread[s]
        on_sd = streaming & (sd == dim)
        # Non-stream block count: same float division + ceil as math.ceil.
        regular = np.ceil(extent / tile).astype(np.int64)
        blocks.append(np.where(on_sd, sb, regular))
        planes = np.maximum(1, extent // np.maximum(sb, 1))
        si = np.ceil(planes / per_thread[s]).astype(np.int64)
        stream_iters = np.where(on_sd, si, stream_iters)

    return PlanArrays(
        pattern=pattern,
        setting=SettingColumns(values),
        threads_per_block=tpb,
        points_per_thread=ppt,
        blocks=(blocks[0], blocks[1], blocks[2]),
        stream_iters=stream_iters,
        registers_per_thread=estimate_registers_array(pattern, values),
        shared_memory_per_block=estimate_shared_memory_array(pattern, values),
        coalescing_stride=values[:, col["BMx"]],
        streaming=streaming,
        streaming_dim=sd,
    )


def plans_from_arrays(
    pattern: StencilPattern,
    settings: "list[Setting]",
    arrays: PlanArrays,
) -> list[KernelPlan]:
    """Materialize per-setting :class:`KernelPlan` objects from arrays.

    The objects compare equal to what :func:`build_plan` returns; the
    batch path uses this to keep the simulator's plan cache identical
    to the scalar path's.
    """
    bx, by, bz = (b.tolist() for b in arrays.blocks)
    tpb = arrays.threads_per_block.tolist()
    ppt = arrays.points_per_thread.tolist()
    si = arrays.stream_iters.tolist()
    regs = arrays.registers_per_thread.tolist()
    smem = arrays.shared_memory_per_block.tolist()
    stride = arrays.coalescing_stride.tolist()
    streaming = arrays.streaming.tolist()
    sd = arrays.streaming_dim.tolist()
    # Frozen-dataclass __init__ pays one object.__setattr__ per field;
    # assembling the instance dict directly yields an identical object
    # (same fields, eq, hash) at a fraction of the cost.
    new = KernelPlan.__new__
    plans: list[KernelPlan] = []
    for i, s in enumerate(settings):
        plan = new(KernelPlan)
        plan.__dict__.update({
            "pattern": pattern,
            "setting": s,
            "threads_per_block": tpb[i],
            "points_per_thread": ppt[i],
            "blocks": (bx[i], by[i], bz[i]),
            "stream_iters": si[i],
            "registers_per_thread": regs[i],
            "shared_memory_per_block": smem[i],
            "coalescing_stride": stride[i],
            "streaming": streaming[i],
            "streaming_dim": sd[i] if streaming[i] else None,
        })
        plans.append(plan)
    return plans


def resource_ok_array(
    pattern: StencilPattern,
    device: "DeviceSpec",
    values: np.ndarray,
    arrays: PlanArrays | None = None,
) -> np.ndarray:
    """Vectorized :func:`resource_violation` predicate (True = no violation).

    Pass ``arrays`` when plan arrays were already built for these
    settings to avoid recomputing them.
    """
    if arrays is None:
        arrays = build_plan_arrays(pattern, values)
    max_regs = min(MAX_REGISTERS_PER_THREAD, device.max_regs_per_thread)
    ok = arrays.registers_per_thread <= max_regs
    ok &= arrays.registers_per_thread * arrays.threads_per_block <= device.regs_per_sm
    ok &= arrays.shared_memory_per_block <= device.max_smem_per_block
    return ok


def resource_violation(
    pattern: StencilPattern, setting: Setting, device: "DeviceSpec"
) -> str | None:
    """Implicit (resource) constraint check — Section IV-B.

    ``device`` is imported for typing only, keeping this layer
    import-light at runtime. Returns the first violated resource rule
    or ``None``.
    """
    plan = build_plan(pattern, setting)
    max_regs = min(MAX_REGISTERS_PER_THREAD, device.max_regs_per_thread)
    if plan.registers_per_thread > max_regs:
        return (
            f"register spill: {plan.registers_per_thread} regs/thread "
            f"exceeds {max_regs}"
        )
    if plan.registers_per_thread * plan.threads_per_block > device.regs_per_sm:
        return (
            f"block needs {plan.registers_per_thread * plan.threads_per_block}"
            f" registers, SM has {device.regs_per_sm}"
        )
    if plan.shared_memory_per_block > device.max_smem_per_block:
        return (
            f"shared memory {plan.shared_memory_per_block} B/block exceeds "
            f"{device.max_smem_per_block} B"
        )
    return None
