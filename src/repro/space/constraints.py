"""The constraint system of Section IV-B, written once as a rule table.

The paper enumerates explicit constraints between optimization
parameters:

* the thread-block size ``TBx * TBy * TBz`` must not exceed 1,024;
* ``SD`` and ``SB`` are only valid when streaming is enabled (when it
  is disabled they are pinned to their neutral value 1, which also
  de-duplicates otherwise-identical settings);
* prefetching overlaps the load of the *next streaming plane* with
  computation, so it is only meaningful under streaming;
* under streaming ``SD`` names a grid dimension (1, 2 or 3);
* ``SB`` cannot exceed the extent of the streaming dimension;
* under streaming the thread block is two-dimensional over the
  non-stream dimensions (2.5-D blocking), so ``TB`` along ``SD`` is 1;
* concurrent streaming bounds the streaming-dimension unroll factor by
  the number of stream tiles (``UF_SD <= SB``);
* along every dimension the per-thread work tile
  ``TB_n * UF_n * CM_n * BM_n`` must fit in the grid extent ``M_n``
  (along the streaming dimension the extent is the stream tile,
  ``M_SD / SB``).

The implicit *resource* constraints — no register spill, and the block
fits the SM's register file and shared memory — read the footprint
estimates of :mod:`repro.codegen.registers` against a
:class:`~repro.gpusim.device.DeviceSpec`.

Each constraint is one :class:`Rule` of :data:`RULES`: a reject
expression over a :class:`Candidate` and the reason a row gives. A
candidate is one setting (a row) or a matrix of settings (columns,
through :class:`~repro.space.setting.SettingColumns`), so the same
expression yields a bool or a mask. Three readers share the table: the
first reason of a row (:func:`first_violation`), the all-ok mask of
columns (:func:`feasible_mask`) and the per-rule masks of columns
(:func:`rule_masks`, which the space prover analyses).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.space.parameters import PARAM_INDEX
from repro.space.setting import SettingColumns, ops_for
from repro.stencil.pattern import StencilPattern

if TYPE_CHECKING:  # import-light at runtime: gpusim sits above this layer
    from repro.gpusim.device import DeviceSpec

#: Hard CUDA limit on threads per block.
MAX_THREADS_PER_BLOCK = 1024

#: Architectural ceiling before the compiler must spill to local memory.
MAX_REGISTERS_PER_THREAD = 255


def thread_work(setting: Any) -> tuple[Any, Any, Any]:
    """Points one thread updates along x, y, z: ``UF * CM * BM``.

    Columns keep theirs (``SettingColumns.work``), so the plan, both
    footprints and the rules multiply it out once.
    """
    s = setting
    columns = isinstance(s, SettingColumns)
    if columns and s.work is not None:
        return s.work
    work = (
        s["UFx"] * s["CMx"] * s["BMx"],
        s["UFy"] * s["CMy"] * s["BMy"],
        s["UFz"] * s["CMz"] * s["BMz"],
    )
    if columns:
        s.work = work
    return work


class Candidate:
    """One setting or many, with the quantities the rules read.

    ``setting`` is a row (a :class:`~repro.space.setting.Setting` or any
    name → value mapping) or columns (a
    :class:`~repro.space.setting.SettingColumns`). Out-of-range ``SD``
    values read the nearest dimension, so every quantity is defined;
    the ``stream_sd`` rule rejects such rows first. The register and
    shared-memory footprints are estimated on first use (from ``plan``
    when the caller already built one).
    """

    def __init__(
        self,
        pattern: StencilPattern,
        setting: Any,
        device: "DeviceSpec | None" = None,
        plan: Any = None,
    ) -> None:
        ops = ops_for(setting)
        where, choose = ops.where, ops.choose
        self.pattern, self.setting = pattern, setting
        self.device, self._plan = device, plan
        self.streaming = setting["useStreaming"] == 2
        self.not_streaming = setting["useStreaming"] != 2
        self.prefetch = setting["usePrefetching"] == 2
        sd = self.sd = setting["SD"]
        sb = self.sb = setting["SB"]
        tb = (setting["TBx"], setting["TBy"], setting["TBz"])
        self.tb_total = tb[0] * tb[1] * tb[2]
        sd_ix = ops.clip(sd - 1, 0, 2)
        self.m_sd = choose(sd_ix, pattern.grid)
        self.tb_sd = choose(sd_ix, tb)
        self.uf_sd = choose(sd_ix, (setting["UFx"], setting["UFy"], setting["UFz"]))
        wx, wy, wz = thread_work(setting)
        self.tiles = (tb[0] * wx, tb[1] * wy, tb[2] * wz)
        stream_extent = ops.maximum(1, self.m_sd // ops.maximum(sb, 1))
        self.extents = tuple(
            where(self.streaming & (sd == dim), stream_extent, m)
            for dim, m in enumerate(pattern.grid, start=1)
        )
        self._regs: Any = None
        self._smem: Any = None

    @property
    def regs(self) -> Any:
        """Estimated registers per thread."""
        if self._regs is None:
            if self._plan is not None:
                self._regs = self._plan.registers_per_thread
            else:  # imported here: repro.codegen imports this module
                from repro.codegen.registers import estimate_registers

                self._regs = estimate_registers(self.pattern, self.setting)
        return self._regs

    @property
    def smem(self) -> Any:
        """Estimated shared-memory bytes per block."""
        if self._smem is None:
            if self._plan is not None:
                self._smem = self._plan.shared_memory_per_block
            else:  # imported here: repro.codegen imports this module
                from repro.codegen.registers import estimate_shared_memory

                self._smem = estimate_shared_memory(self.pattern, self.setting)
        return self._smem

    @property
    def max_regs(self) -> int:
        """Registers per thread before the kernel spills (needs a device)."""
        return min(MAX_REGISTERS_PER_THREAD, self.device.max_regs_per_thread)


class Rule(NamedTuple):
    """One named constraint: where it rejects, and the reason a row gives."""

    name: str
    rejects: Callable[[Candidate], Any]
    reason: Callable[[Candidate], str]


def _tile_rule(d: int) -> Rule:
    return Rule(
        f"tile_fit_{'xyz'[d]}",
        lambda c: c.tiles[d] > c.extents[d],
        lambda c: (
            f"work tile {c.tiles[d]} along dimension {d + 1} "
            f"exceeds extent {c.extents[d]}"
        ),
    )


#: The explicit constraints, in check order.
EXPLICIT_RULES: tuple[Rule, ...] = (
    Rule(
        "tb_limit",
        lambda c: c.tb_total > MAX_THREADS_PER_BLOCK,
        lambda c: f"thread block size {c.tb_total} exceeds {MAX_THREADS_PER_BLOCK}",
    ),
    Rule(
        "sd_gate",
        lambda c: c.not_streaming & (c.sd != 1),
        lambda c: "SD is only valid when streaming is enabled",
    ),
    Rule(
        "sb_gate",
        lambda c: c.not_streaming & (c.sb != 1),
        lambda c: "SB is only valid when streaming is enabled",
    ),
    Rule(
        "prefetch_gate",
        lambda c: c.not_streaming & c.prefetch,
        lambda c: "prefetching requires streaming",
    ),
    Rule(
        "stream_sd",
        lambda c: c.streaming & ((c.sd < 1) | (c.sd > 3)),
        lambda c: f"streaming dimension SD={c.sd} is not 1, 2 or 3",
    ),
    Rule(
        "sb_extent",
        lambda c: c.streaming & (c.sb > c.m_sd),
        lambda c: f"SB={c.sb} exceeds streaming dimension extent {c.m_sd}",
    ),
    Rule(
        "stream_tb",
        lambda c: c.streaming & (c.tb_sd != 1),
        lambda c: f"2.5-D streaming requires TB=1 along SD (got {c.tb_sd})",
    ),
    Rule(
        "stream_uf",
        lambda c: c.streaming & (c.sb > 1) & (c.uf_sd > c.sb),
        lambda c: f"concurrent streaming requires UF_SD<=SB ({c.uf_sd}>{c.sb})",
    ),
    _tile_rule(0),
    _tile_rule(1),
    _tile_rule(2),
)

#: The implicit resource constraints (they need a device), in check order.
RESOURCE_RULES: tuple[Rule, ...] = (
    Rule(
        "regs_spill",
        lambda c: c.regs > c.max_regs,
        lambda c: f"register spill: {c.regs} regs/thread exceeds {c.max_regs}",
    ),
    Rule(
        "regs_block",
        lambda c: c.regs * c.tb_total > c.device.regs_per_sm,
        lambda c: (
            f"block needs {c.regs * c.tb_total} registers, "
            f"SM has {c.device.regs_per_sm}"
        ),
    ),
    Rule(
        "smem_block",
        lambda c: c.smem > c.device.max_smem_per_block,
        lambda c: (
            f"shared memory {c.smem} B/block exceeds "
            f"{c.device.max_smem_per_block} B"
        ),
    ),
)

#: Every constraint, in check order.
RULES: tuple[Rule, ...] = EXPLICIT_RULES + RESOURCE_RULES


def _rules_for(device: "DeviceSpec | None") -> tuple[Rule, ...]:
    """All rules with a device, the explicit ones without."""
    return RULES if device is not None else EXPLICIT_RULES


# The three readers. ``rules`` defaults to every rule the device allows
# checking; ``plan`` (the KernelPlan or PlanArrays of the same settings)
# saves re-estimating the footprints.


def first_violation(
    pattern: StencilPattern,
    setting: Mapping[str, int],
    device: "DeviceSpec | None" = None,
    *,
    plan: Any = None,
    rules: tuple[Rule, ...] | None = None,
) -> str | None:
    """The reason of the first rule rejecting one setting, or ``None``."""
    candidate = Candidate(pattern, setting, device, plan)
    for rule in rules if rules is not None else _rules_for(device):
        if rule.rejects(candidate):
            return rule.reason(candidate)
    return None


def rule_masks(
    pattern: StencilPattern,
    values: np.ndarray,
    device: "DeviceSpec | None" = None,
    *,
    plan: Any = None,
    rules: tuple[Rule, ...] | None = None,
) -> dict[str, np.ndarray]:
    """Per-rule reject masks of a settings matrix, in table order. With
    ``plan`` (the :class:`~repro.codegen.plan.PlanArrays` of ``values``)
    the rules read its columns."""
    columns = plan.setting if plan is not None else SettingColumns(values)
    candidate = Candidate(pattern, columns, device, plan)
    return {
        rule.name: rule.rejects(candidate)
        for rule in (rules if rules is not None else _rules_for(device))
    }


def feasible_mask(
    pattern: StencilPattern,
    values: np.ndarray,
    device: "DeviceSpec | None" = None,
    *,
    plan: Any = None,
    rules: tuple[Rule, ...] | None = None,
) -> np.ndarray:
    """True for the rows of a settings matrix no rule rejects."""
    masks = rule_masks(pattern, values, device, plan=plan, rules=rules)
    return ~np.logical_or.reduce(list(masks.values()))


def explicit_violation(
    pattern: StencilPattern, values: Mapping[str, int]
) -> str | None:
    """First violated explicit constraint, or ``None`` when all hold.

    Returning the reason (not just a bool) lets tuners and tests report
    why a candidate was rejected.
    """
    return first_violation(pattern, values, rules=EXPLICIT_RULES)


def _canonical_updates(pattern: StencilPattern, setting: Any) -> dict[str, Any]:
    """The gated parameters' repaired values, for a row or for columns.

    Without streaming ``SD``, ``SB`` and ``usePrefetching`` pin to 1.
    With it, ``SB`` clips to the streaming extent, ``TB`` along ``SD``
    pins to 1 and, under concurrent streaming, ``UF`` along ``SD`` clips
    to ``SB``.
    """
    ops = ops_for(setting)
    where = ops.where
    streaming = setting["useStreaming"] == 2
    sd = where(streaming, setting["SD"], 1)
    m_sd = ops.choose(ops.clip(sd - 1, 0, 2), pattern.grid)
    sb = where(streaming, ops.minimum(setting["SB"], m_sd), 1)
    out = {
        "SD": sd,
        "SB": sb,
        "usePrefetching": where(streaming, setting["usePrefetching"], 1),
    }
    concurrent = sb > 1
    for dim, tb, uf in ((1, "TBx", "UFx"), (2, "TBy", "UFy"), (3, "TBz", "UFz")):
        on_sd = streaming & (sd == dim)
        out[tb] = where(on_sd, 1, setting[tb])
        out[uf] = where(on_sd & concurrent, ops.minimum(setting[uf], sb), setting[uf])
    return out


def canonicalize_values(
    pattern: StencilPattern, values: Mapping[str, int]
) -> dict[str, int]:
    """Repair gating violations by pinning dependent parameters.

    This is the *repair* operator used by samplers and the GA mutation:
    it only touches parameters whose value is meaningless in context
    (e.g. ``SB`` when streaming is off), never performance-relevant free
    choices.
    """
    return {**values, **_canonical_updates(pattern, values)}


def canonicalize_matrix(pattern: StencilPattern, values: np.ndarray) -> np.ndarray:
    """:func:`canonicalize_values` over an ``(n, 19)`` matrix, row for row.

    Returns a new matrix; the input is not mutated.
    """
    out = values.copy()
    updates = _canonical_updates(pattern, SettingColumns(values))
    for name, column in updates.items():
        out[:, PARAM_INDEX[name]] = column
    return out
