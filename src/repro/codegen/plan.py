"""Kernel plans: the bridge from a parameter setting to launchable work.

The plan captures everything the simulator needs about the generated
kernel — launch geometry, per-thread work, resource footprints and the
memory-access descriptors (coalescing stride, staging mode) the
memory model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.codegen.registers import estimate_registers, estimate_shared_memory
from repro.space.constraints import RESOURCE_RULES, first_violation, thread_work
from repro.space.setting import Setting, SettingColumns, ops_for
from repro.stencil.pattern import StencilPattern

if TYPE_CHECKING:  # import-light at runtime: gpusim imports this module
    from repro.gpusim.device import DeviceSpec


class _LaunchTotals:
    """Quantities derived from the plan fields, for a row or for columns."""

    __slots__ = ()

    @property
    def total_blocks(self) -> Any:
        return self.blocks[0] * self.blocks[1] * self.blocks[2]

    @property
    def total_threads(self) -> Any:
        return self.total_blocks * self.threads_per_block

    def covered_points(self) -> Any:
        """Output points the whole launch updates (>= pattern.points())."""
        return self.total_threads * self.points_per_thread * self.stream_iters

    @property
    def sync_points(self) -> Any:
        """Block-wide barriers executed per thread (streaming shifts)."""
        where = ops_for(self.setting).where
        use_shared = self.setting.enabled("useShared")
        return where(
            self.streaming & use_shared, self.stream_iters, where(use_shared, 1, 0)
        )


@dataclass(frozen=True)
class KernelPlan(_LaunchTotals):
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
    def flops_per_thread(self) -> float:
        """FLOPs one thread performs across all its stream iterations."""
        return float(
            self.pattern.flops * self.points_per_thread * self.stream_iters
        )


@dataclass(frozen=True)
class PlanArrays(_LaunchTotals):
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

    def take(self, rows: np.ndarray) -> "PlanArrays":
        """The plans of ``rows`` (an index array), in that order."""
        fields = vars(self).items()
        arrays = {k: v[rows] for k, v in fields if isinstance(v, np.ndarray)}
        return PlanArrays(
            pattern=self.pattern, setting=SettingColumns(self.setting.values[rows]),
            blocks=tuple(b[rows] for b in self.blocks), **arrays,
        )


def _plan_fields(pattern: StencilPattern, setting: Any) -> dict[str, Any]:
    """Every plan field of a row or of columns (see :func:`ops_for`).

    Block counts off the streaming dimension are a float-division ceil;
    along it a launch has ``SB`` blocks, each streaming
    ``ceil(planes / work)`` iterations over its ``M_SD // SB`` planes.
    """
    ops = ops_for(setting)
    where = ops.where
    work = thread_work(setting)
    tb = (setting["TBx"], setting["TBy"], setting["TBz"])
    streaming = setting["useStreaming"] == 2
    sd, sb = setting["SD"], setting["SB"]
    blocks = []
    stream_iters = 1
    for dim, (extent, t, w) in enumerate(zip(pattern.grid, tb, work), start=1):
        on_sd = streaming & (sd == dim)
        blocks.append(where(on_sd, sb, ops.ceil_int(extent / (t * w))))
        planes = ops.maximum(1, extent // ops.maximum(sb, 1))
        stream_iters = where(on_sd, ops.ceil_int(planes / w), stream_iters)
    return dict(
        pattern=pattern,
        setting=setting,
        threads_per_block=tb[0] * tb[1] * tb[2],
        points_per_thread=work[0] * work[1] * work[2],
        blocks=(blocks[0], blocks[1], blocks[2]),
        stream_iters=stream_iters,
        registers_per_thread=estimate_registers(pattern, setting),
        shared_memory_per_block=estimate_shared_memory(pattern, setting),
        coalescing_stride=setting["BMx"],
        streaming=streaming,
        streaming_dim=sd,
    )


def build_plan(pattern: StencilPattern, setting: Setting) -> KernelPlan:
    """Resolve launch geometry and resource footprints for a setting.

    The setting is assumed to satisfy the explicit constraints; the plan
    is still constructed for resource-violating settings so the
    violation can be *reported* (and so Fig 12's codegen phase can be
    timed on arbitrary candidates).
    """
    fields = _plan_fields(pattern, setting)
    if not fields["streaming"]:
        fields["streaming_dim"] = None
    return KernelPlan(**fields)


def build_plan_arrays(pattern: StencilPattern, values: np.ndarray) -> PlanArrays:
    """:func:`build_plan` over a settings matrix, as columns.

    ``values`` is the ``(n, n_params)`` int64 matrix from
    :func:`repro.space.setting.settings_matrix`; row *i* of every field
    equals the field of ``build_plan`` on setting *i*.
    """
    return PlanArrays(**_plan_fields(pattern, SettingColumns(values)))


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


def resource_violation(
    pattern: StencilPattern, setting: Setting, device: "DeviceSpec"
) -> str | None:
    """Implicit (resource) constraint check — Section IV-B.

    Returns the reason of the first violated resource rule of
    :data:`repro.space.constraints.RESOURCE_RULES`, or ``None``.
    """
    return first_violation(pattern, setting, device, rules=RESOURCE_RULES)
