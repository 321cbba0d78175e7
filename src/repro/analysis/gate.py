"""Analysis drivers and the pre-simulation strict gate.

:func:`analyze_kernel` runs the source-level passes (CUDA lint +
plan-vs-source cross-check) on one generated kernel;
:func:`analyze_stencil` adds the space/constraint proof and a sampled
sweep of generated kernels for one stencil × device;
:func:`analyze_suite` covers the whole Table III suite on both paper
platforms — the configuration CI runs via ``repro analyze --all``.

:func:`strict_gate` is the hook :class:`~repro.gpusim.simulator.
GpuSimulator` calls in strict mode. Deep source analysis costs ~1 ms
per setting while a batched model evaluation costs ~25 µs, so gating
*every* evaluation would dwarf the work being gated. Instead the gate
deep-checks a deterministic hash-selected subset (default 1 in
``DEFAULT_STRICT_EVERY``): selection depends only on the (stencil,
setting) pair, so scalar and batch evaluation paths check exactly the
same settings, and results are memoized so re-evaluations never pay
twice. Because codegen is deterministic, a drift bug affects whole
classes of settings, which sampling catches quickly across a sweep;
the <5 % overhead contract is enforced by
``benchmarks/bench_strict_overhead.py``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.analysis.crosscheck import crosscheck_kernel
from repro.analysis.cudalint import lint_kernel, parse_kernel
from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.diagnostics import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    merge_reports,
)
from repro.analysis.prover import ProofResult, prove_space
from repro.codegen.cuda import generate_cuda
from repro.codegen.plan import KernelPlan, build_plan
from repro.gpusim.device import A100, V100, DeviceSpec
from repro.space.setting import Setting
from repro.space.space import SearchSpace, build_space
from repro.stencil.pattern import StencilPattern
from repro.stencil.suite import STENCIL_SUITE
from repro.utils.hashing import stable_hash
from repro.utils.rng import rng_from_seed

#: Default deep-check sampling period for strict mode (1 in N settings).
DEFAULT_STRICT_EVERY = 1024

#: Bound on the strict-gate memo (distinct settings deep-checked).
_GATE_CACHE_CAPACITY = 4096

_gate_cache: dict[tuple[str, tuple[int, ...]], tuple[Diagnostic, ...]] = {}


def analyze_kernel(
    pattern: StencilPattern,
    setting: Setting,
    *,
    source: str | None = None,
    plan: KernelPlan | None = None,
    device: DeviceSpec | None = None,
    deep: bool = False,
) -> AnalysisReport:
    """Lint + cross-check one generated kernel (source-level passes).

    With ``deep=True`` (requires ``device``) the dataflow/memory
    analyzer also runs, adding the MEM4xx bounds and the MODEL4xx
    model-vs-static cross-validation.
    """
    if plan is None:
        plan = build_plan(pattern, setting)
    if source is None:
        source = generate_cuda(plan)
    parsed = parse_kernel(source)
    passes = ["cudalint", "crosscheck"]
    if deep:
        if device is None:
            raise ValueError("deep analysis needs a DeviceSpec")
        passes.append("dataflow")
    report = AnalysisReport(subject=f"kernel:{pattern.name}", passes=passes)
    report.extend(lint_kernel(pattern, setting, source, parsed=parsed))
    report.extend(crosscheck_kernel(pattern, plan, source, parsed=parsed))
    if deep and device is not None:
        _, diags = analyze_dataflow(
            pattern, setting, device, source=source, parsed=parsed, plan=plan
        )
        report.extend(diags)
    return report


def analyze_space(
    space: SearchSpace, device: DeviceSpec | None = None, *, seed: int = 0
) -> tuple[AnalysisReport, ProofResult]:
    """Run the constraint-consistency proof as an :class:`AnalysisReport`."""
    result, diags = prove_space(space, device, seed=seed)
    dev = device.name if device is not None else "generic"
    report = AnalysisReport(
        subject=f"space:{space.pattern.name}@{dev}", passes=["prover"]
    )
    report.extend(diags)
    return report, result


def analyze_stencil(
    pattern: StencilPattern,
    device: DeviceSpec,
    *,
    samples: int = 32,
    seed: int = 0,
    deep: bool = False,
) -> AnalysisReport:
    """Full analysis of one stencil × device.

    Proves the constraint system, then lints and cross-checks the
    generated kernel for ``samples`` seeded-sampled valid settings —
    the stratified stand-in for "every kernel codegen can emit". With
    ``deep=True`` each sampled kernel additionally goes through the
    dataflow/memory analyzer (MEM4xx + MODEL4xx).
    """
    space = build_space(pattern, device)
    space_report, _ = analyze_space(space, device, seed=seed)
    reports = [space_report]
    if samples > 0:
        rng = rng_from_seed(seed)
        for setting in space.sample(rng, samples):
            reports.append(
                analyze_kernel(pattern, setting, device=device, deep=deep)
            )
    merged = merge_reports(f"{pattern.name}@{device.name}", reports)
    return merged


def analyze_suite(
    *,
    stencils: list[StencilPattern] | None = None,
    devices: tuple[DeviceSpec, ...] = (A100, V100),
    samples: int = 32,
    seed: int = 0,
    deep: bool = False,
) -> list[AnalysisReport]:
    """Analyze every suite stencil on every paper platform (CI entry)."""
    stencils = list(STENCIL_SUITE) if stencils is None else stencils
    return [
        analyze_stencil(pattern, device, samples=samples, seed=seed, deep=deep)
        for pattern in stencils
        for device in devices
    ]


# -- strict gate ------------------------------------------------------------


#: FNV-1a 64-bit multiplier for the selection mix below.
_MIX_MULT = 0x100000001B3
_MASK64 = (1 << 64) - 1

_salt_cache: dict[str, int] = {}


def _pattern_salt(pattern_name: str) -> int:
    salt = _salt_cache.get(pattern_name)
    if salt is None:
        salt = _salt_cache[pattern_name] = stable_hash(
            "strict-gate", pattern_name
        )
    return salt


def gate_selected(pattern_name: str, setting: Setting, every: int) -> bool:
    """Whether strict mode deep-checks this setting.

    Pure function of (stencil, setting values): the scalar and batch
    evaluation paths — and separate simulator instances — always agree
    on the checked subset. ``every <= 1`` checks everything.

    The per-stencil salt goes through BLAKE2 once; the per-setting mix
    is a 64-bit FNV-1a fold so that screening a whole sweep stays cheap
    (this runs on every uncached evaluation in strict mode, and
    :func:`gate_selected_batch` must be vectorizable).
    """
    if every <= 1:
        return True
    h = _pattern_salt(pattern_name)
    for v in setting.values_tuple():
        h = ((h ^ v) * _MIX_MULT) & _MASK64
    return h % every == 0


def gate_selected_batch(
    pattern_name: str, values: NDArray[np.int64], every: int
) -> NDArray[np.bool_]:
    """Vectorized :func:`gate_selected` over a settings-matrix.

    ``values`` is the ``(n, n_parameters)`` int matrix from
    :func:`repro.space.setting.settings_matrix`; the returned boolean
    mask agrees element-wise with the scalar predicate.
    """
    n = values.shape[0]
    if every <= 1:
        return np.ones(n, dtype=bool)
    h = np.full(n, _pattern_salt(pattern_name), dtype=np.uint64)
    mult = np.uint64(_MIX_MULT)
    for col in values.T:
        h = (h ^ col.astype(np.uint64)) * mult
    return h % np.uint64(every) == 0


def strict_gate(
    pattern: StencilPattern,
    setting: Setting,
    plan: KernelPlan,
    *,
    every: int = DEFAULT_STRICT_EVERY,
) -> None:
    """Deep-check a hash-selected setting; raise on ERROR findings.

    Generates the kernel source, lints it and cross-checks it against
    ``plan``; raises :class:`AnalysisError` carrying the diagnostics if
    any ERROR-severity finding is produced. Results are memoized per
    (stencil, setting), so repeat evaluations of a checked setting are
    a dict hit.
    """
    if not gate_selected(pattern.name, setting, every):
        return
    key = (pattern.name, setting.values_tuple())
    errors = _gate_cache.get(key)
    if errors is None:
        report = analyze_kernel(pattern, setting, plan=plan)
        errors = tuple(report.errors)
        if len(_gate_cache) >= _GATE_CACHE_CAPACITY:
            _gate_cache.clear()
        _gate_cache[key] = errors
    if errors:
        raise AnalysisError(
            f"strict gate rejected {pattern.name} setting: "
            + "; ".join(d.render() for d in errors),
            list(errors),
        )
