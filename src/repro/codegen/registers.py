"""Register and shared-memory footprint estimation.

These models stand in for the compiler's resource allocation (the paper
reads real figures out of NVCC/Nsight). They are calibrated to produce
the qualitative behaviour the paper's Section II-B describes:

* merging/unrolling multiplies live accumulators and can spill;
* prefetching double-buffers the streaming window and *adds* registers;
* retiming homogenizes accesses and *relieves* pressure for high-order
  stencils while adding a small constant overhead for low-order ones;
* shared-memory tiling moves neighbour staging out of registers but
  costs a per-block tile whose halo grows with the stencil order.

Each estimate is written once and takes one setting (a row: an exact
Python ``int``) or a :class:`~repro.space.setting.SettingColumns` (an
int64 column over many settings); see :func:`repro.space.setting.ops_for`.
"""

from __future__ import annotations

from typing import Any

from repro.space.constraints import MAX_REGISTERS_PER_THREAD, thread_work
from repro.space.setting import ops_for
from repro.stencil.pattern import StencilPattern, StencilShape

__all__ = [
    "MAX_REGISTERS_PER_THREAD",
    "estimate_registers",
    "estimate_shared_memory",
]

#: Baseline registers any generated stencil kernel consumes (indexing,
#: loop counters, base pointers).
_BASE_REGISTERS = 22


def estimate_registers(pattern: StencilPattern, setting: Any) -> Any:
    """Estimated registers per thread for the generated kernel.

    Deliberately integer-valued and monotone in the merge/unroll factors
    so the induced implicit constraint carves a realistic feasible
    region out of the Table I space.
    """
    ops = ops_for(setting)
    where = ops.where
    wx, wy, wz = thread_work(setting)
    ppt = wx * wy * wz
    order = pattern.order
    use_shared = setting["useShared"] == 2
    streaming = setting["useStreaming"] == 2

    # Live accumulators: one partial sum (plus address arithmetic) per
    # merged output point and output array.
    accumulators = 2 * ppt * pattern.outputs + ppt

    # Neighbour staging: reading taps through shared memory needs only a
    # couple of registers; register-resident staging holds a halo's
    # worth of values per input actually kept live.
    staged_inputs = min(pattern.inputs, 4)
    width = 2 * order + 1
    if pattern.shape is StencilShape.BOX:
        width = width * width  # a full plane of the box is kept live
    staging = where(use_shared, 2 * staged_inputs + order, width * staged_inputs)

    # Streaming keeps a sliding window of planes in registers when shared
    # memory is off; unrolling the stream loop lengthens the window.
    uf_sd = ops.choose(
        ops.clip(setting["SD"] - 1, 0, 2),
        (setting["UFx"], setting["UFy"], setting["UFz"]),
    )
    window = 2 * order + uf_sd
    extra = where(streaming, where(use_shared, window, 2 * window), 0)
    # Prefetching double-buffers the loads for the next plane.
    prefetch = streaming & (setting["usePrefetching"] == 2)
    extra = extra + where(prefetch, order * 3 + staged_inputs, 0)

    retiming = setting["useRetiming"] == 2
    if order >= 2:
        # Homogenized accesses: decomposition reuses registers.
        staging = where(retiming, ops.maximum(4, staging * 2 // 3), staging)
        extra = extra + where(retiming, 2, 0)
    else:
        extra = extra + where(retiming, 6, 0)  # bookkeeping, nothing to reuse

    # Coefficient indexing through the constant bank.
    extra = extra + where(setting["useConstant"] == 2, 2, 0)

    return _BASE_REGISTERS + accumulators + staging + extra


def estimate_shared_memory(pattern: StencilPattern, setting: Any) -> Any:
    """Estimated shared-memory bytes per thread block.

    Zero when the shared-memory switch is off. The tile covers the
    block's work footprint plus a halo of ``order`` on each face; under
    streaming only a ``2*order + 1``-plane sliding window is resident.
    """
    where = ops_for(setting).where
    order = pattern.order
    streaming = setting["useStreaming"] == 2
    sd = setting["SD"]
    tb = (setting["TBx"], setting["TBy"], setting["TBz"])
    tile_elems = 1
    for dim, (t, work) in enumerate(zip(tb, thread_work(setting)), start=1):
        window = streaming & (sd == dim)  # sliding window of planes
        tile_elems = tile_elems * where(window, 2 * order + 1, t * work + 2 * order)
    staged_arrays = 1 if pattern.shape is not StencilShape.MULTI else min(
        2, pattern.inputs
    )
    smem = tile_elems * staged_arrays * pattern.dtype_bytes
    return where(setting["useShared"] == 2, smem, 0)
