"""Space/constraint consistency prover.

Checks one :class:`~repro.space.space.SearchSpace` (per stencil ×
device) for three pathologies of the Table I constraint system:

``SPACE301`` (error)
    The constraint set is unsatisfiable — no valid setting exists (or
    none could be found; see below).
``SPACE302`` (info)
    A dead parameter value: a domain value no valid setting uses. Dead
    values inflate the nominal space and waste sampler draws; they are
    reported, not gated, because Table I deliberately keeps uniform
    power-of-two domains per dimension.
``SPACE303`` (info)
    A redundant constraint: over the probe set, every candidate it
    rejects is also rejected by some other constraint.

Small spaces (``nominal_size() <= exhaustive_limit``) are proved
*exhaustively* — the full cartesian product is materialized and
screened with the vectorized constraint kernels, so SPACE301/302 are
exact. Large (paper-scale) spaces use stratified witness search: every
``(parameter, value)`` pair gets a deterministic family of minimal
targeted candidates (all other numeric parameters at their minimum,
every optimization-switch combination, every streaming dimension),
plus a seeded constraint-aware sample pool. A value is reported dead
when *no witness was found* in either set; because the resource models
are monotone in the merge/unroll factors, the minimal targeted family
makes this exact for the shipped constraint system.

Everything is deterministic: the targeted families are enumerated in a
fixed order and the pool is drawn from a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    emit,
    register_rule,
)
from repro.errors import SearchError
from repro.gpusim.device import DeviceSpec
from repro.space.constraints import feasible_mask, rule_masks
from repro.space.parameters import PARAM_INDEX, PARAMETER_ORDER
from repro.space.space import SearchSpace
from repro.utils.rng import rng_from_seed

register_rule("SPACE301", Severity.ERROR, "unsatisfiable constraint set")
register_rule("SPACE302", Severity.INFO, "dead parameter value")
register_rule("SPACE303", Severity.INFO, "redundant constraint")

_SWITCHES = ("useShared", "useConstant", "useStreaming",
             "useRetiming", "usePrefetching")


@dataclass
class ProofResult:
    """Machine-readable outcome of one prover run."""

    satisfiable: bool
    exhaustive: bool
    #: (parameter, value) pairs with no valid witness, sorted.
    dead_values: list[tuple[str, int]] = field(default_factory=list)
    #: Constraint names whose rejections are covered by the others.
    redundant_constraints: list[str] = field(default_factory=list)
    probes: int = 0
    valid_probes: int = 0


def _rule_reject_masks(
    space: SearchSpace, device: DeviceSpec | None, values: NDArray[np.int64]
) -> dict[str, NDArray[np.bool_]]:
    """Per-constraint reject masks (True = this rule rejects the row).

    One mask per rule of :data:`repro.space.constraints.RULES` — the
    resource rules only when a device is known. The union of all masks
    equals ``~valid``.
    """
    return rule_masks(space.pattern, values, device)


def _valid_mask(
    space: SearchSpace, device: DeviceSpec | None, values: NDArray[np.int64]
) -> NDArray[np.bool_]:
    """Validity of in-domain rows under the rule table."""
    return feasible_mask(space.pattern, values, device)


def _all_ones_row(space: SearchSpace) -> NDArray[np.int64]:
    """The minimal candidate: every parameter at its smallest value."""
    return np.array(
        [space.param(n).values[0] for n in PARAMETER_ORDER], dtype=np.int64
    )


def targeted_candidates(
    space: SearchSpace, param: str, value: int
) -> NDArray[np.int64]:
    """Deterministic minimal-context witness family for ``param=value``.

    Starts from the all-minimum row, pins ``param=value``, and
    enumerates every optimization-switch combination × streaming
    dimension (resource relief is not monotone in the switches:
    shared-memory staging and retiming *reduce* register pressure).
    Rows that violate gating constraints are included and simply fail
    the screen — completeness matters here, not draw efficiency.
    """
    base = _all_ones_row(space)
    base[PARAM_INDEX[param]] = value
    rows: list[NDArray[np.int64]] = []
    sd_options = (
        (value,) if param == "SD" else (1, 2, 3)
    )
    for combo in range(2 ** len(_SWITCHES)):
        row = base.copy()
        for bit, name in enumerate(_SWITCHES):
            if param == name:
                continue  # pinned
            row[PARAM_INDEX[name]] = 2 if combo >> bit & 1 else 1
        streaming = row[PARAM_INDEX["useStreaming"]] == 2
        if not streaming:
            rows.append(row)
            continue
        for sd in sd_options:
            r = row.copy()
            if param != "SD":
                r[PARAM_INDEX["SD"]] = sd
            rows.append(r)
    return np.unique(np.stack(rows), axis=0)


def _enumerate_space(space: SearchSpace) -> NDArray[np.int64]:
    """Full cartesian product of the domains as an int64 matrix."""
    domains = [np.asarray(space.param(n).values, dtype=np.int64)
               for n in PARAMETER_ORDER]
    mesh = np.meshgrid(*domains, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def prove_space(
    space: SearchSpace,
    device: DeviceSpec | None = None,
    *,
    seed: int = 0,
    pool: int = 256,
    exhaustive_limit: int = 1 << 17,
) -> tuple[ProofResult, list[Diagnostic]]:
    """Run the SPACE3xx consistency proof over one search space."""
    device = device if device is not None else _space_device(space)
    subject = f"space:{space.pattern.name}" + (
        f"@{device.name}" if device is not None else ""
    )
    out: list[Diagnostic] = []

    exhaustive = space.nominal_size() <= exhaustive_limit
    if exhaustive:
        values = _enumerate_space(space)
        ok = _valid_mask(space, device, values)
        alive: set[tuple[str, int]] = set()
        for j, name in enumerate(PARAMETER_ORDER):
            for v in np.unique(values[ok, j]).tolist():
                alive.add((name, int(v)))
        satisfiable = bool(ok.any())
        probe_values, probe_ok = values, ok
    else:
        # Phase 1 — constraint-aware pool (marks most values alive).
        rng = rng_from_seed(seed)
        try:
            sampled = space.sample(rng, pool, unique=True)
        except SearchError:
            sampled = []
        alive = set()
        for s in sampled:
            for name in PARAMETER_ORDER:
                alive.add((name, s[name]))
        # Phase 2 — deterministic minimal witnesses for the remainder.
        probe_rows: list[NDArray[np.int64]] = []
        probe_valid: list[NDArray[np.bool_]] = []
        for name in PARAMETER_ORDER:
            for v in space.param(name).values:
                cands = targeted_candidates(space, name, int(v))
                ok = _valid_mask(space, device, cands)
                probe_rows.append(cands)
                probe_valid.append(ok)
                if (name, v) not in alive and ok.any():
                    alive.add((name, int(v)))
        probe_values = np.concatenate(probe_rows)
        probe_ok = np.concatenate(probe_valid)
        satisfiable = bool(sampled) or bool(probe_ok.any())

    dead = sorted(
        (name, int(v))
        for name in PARAMETER_ORDER
        for v in space.param(name).values
        if (name, v) not in alive
    )

    if not satisfiable:
        emit(out, "SPACE301",
             "no valid setting exists"
             + ("" if exhaustive else " (no witness found)"),
             subject=subject)
    for name, v in dead:
        emit(out, "SPACE302",
             f"{name}={v} appears in no valid setting"
             + ("" if exhaustive else " (no witness found)"),
             subject=subject)

    # Redundancy: union the probe set with uniform domain draws so each
    # rule sees rejections the constraint-aware candidates avoid.
    rng = rng_from_seed(seed + 1)
    uniform = np.stack([
        np.asarray(space.param(n).values, dtype=np.int64)[
            rng.integers(space.param(n).cardinality, size=2048)
        ]
        for n in PARAMETER_ORDER
    ], axis=1)
    probe_all = np.concatenate([probe_values, uniform])
    masks = _rule_reject_masks(space, device, probe_all)
    redundant: list[str] = []
    for name, mask in masks.items():
        if not mask.any():
            continue  # never fires on the probes: nothing to judge
        others = np.zeros(len(probe_all), dtype=bool)
        for other, m in masks.items():
            if other != name:
                others |= m
        if bool(np.all(others[mask])):
            redundant.append(name)
            emit(out, "SPACE303",
                 f"constraint {name!r} is redundant over "
                 f"{len(probe_all)} probes ({int(mask.sum())} rejection(s) "
                 f"all covered by other constraints)",
                 subject=subject)

    result = ProofResult(
        satisfiable=satisfiable,
        exhaustive=exhaustive,
        dead_values=dead,
        redundant_constraints=redundant,
        probes=int(len(probe_all)),
        valid_probes=int(probe_ok.sum()),
    )
    return result, out


def _space_device(space: SearchSpace) -> DeviceSpec | None:
    dev = space.resource_device
    return dev if isinstance(dev, DeviceSpec) else None
