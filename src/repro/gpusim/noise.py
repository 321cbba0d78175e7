"""Deterministic landscape roughness and measurement noise.

Real kernels deviate from any analytical model: instruction scheduling,
cache-replacement accidents and DVFS produce setting-specific effects.
We model this as a *deterministic* multiplicative perturbation hashed
from the (device, stencil, setting) triple — the same setting always
gets the same perturbation, so the optimization landscape is rugged but
reproducible — plus optional zero-mean measurement noise applied per
run by the simulator.

A handful of fixed parameter *pairs* contribute interaction terms the
smooth model does not contain, which is what makes the paper's pairwise
correlation analysis (Fig 3) non-degenerate.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.space.parameters import PARAM_INDEX
from repro.space.setting import Setting, settings_matrix
from repro.utils.hashing import hash_prefix, unit_hash, unit_hash_with_prefix

#: Pairs carrying hash-based interaction effects (beyond the physical
#: couplings already present in the occupancy/memory models).
INTERACTION_PAIRS: tuple[tuple[str, str], ...] = (
    ("TBx", "TBy"),
    ("TBy", "TBz"),
    ("useShared", "SD"),
    ("UFx", "BMx"),
    ("CMy", "UFy"),
    ("useRetiming", "UFz"),
    ("SB", "usePrefetching"),
)

#: Peak-to-peak magnitude of the single-setting roughness term.
_SETTING_AMPLITUDE = 0.06

#: Peak-to-peak magnitude of each pairwise interaction term.
_PAIR_AMPLITUDE = 0.035


def min_roughness_factor() -> float:
    """Provable lower bound of :func:`roughness_factor` over all inputs.

    Each hash term lies in ``[1 - amplitude/2, 1 + amplitude/2)``, so the
    product of the setting term and every pairwise term can never fall
    below this value. The static pruner multiplies its roofline lower
    bound by this factor to bound the *perturbed* model time from below.
    """
    lo = 1.0 - _SETTING_AMPLITUDE / 2
    return lo * (1.0 - _PAIR_AMPLITUDE / 2) ** len(INTERACTION_PAIRS)


#: Memoized pairwise interaction terms, keyed by (device, stencil) and
#: then by (pair index, value_a, value_b); :func:`roughness_factor` and
#: :func:`roughness_factors` read and fill the same tables. The pair
#: domains are tiny, so the tables saturate after a few hundred
#: evaluations; the per-setting term cannot be memoized (it hashes the
#: full value tuple) but is a single BLAKE2 call.
_PAIR_TERM_CACHE: dict[tuple[str, str], dict[tuple[int, int, int], float]] = {}


def _pair_term(
    terms: dict[tuple[int, int, int], float],
    device_name: str,
    stencil_name: str,
    k: int,
    va: int,
    vb: int,
) -> float:
    """Interaction term of pair ``k`` at values ``(va, vb)``, memoized in
    ``terms`` (the ``_PAIR_TERM_CACHE`` table of the device/stencil)."""
    key = (k, va, vb)
    term = terms.get(key)
    if term is None:
        a, b = INTERACTION_PAIRS[k]
        u = unit_hash("pair", device_name, stencil_name, a, va, b, vb)
        term = terms[key] = 1.0 + _PAIR_AMPLITUDE * (u - 0.5)
    return term


def roughness_factor(device_name: str, stencil_name: str, setting: Setting) -> float:
    """Multiplicative perturbation in roughly ``[0.85, 1.15]``.

    Deterministic in all arguments; independent settings receive
    independent perturbations (via BLAKE2 hashing).
    """
    factor = 1.0 + _SETTING_AMPLITUDE * (
        unit_hash("setting", device_name, stencil_name, *setting.values_tuple())
        - 0.5
    )
    terms = _PAIR_TERM_CACHE.setdefault((device_name, stencil_name), {})
    for k, (a, b) in enumerate(INTERACTION_PAIRS):
        factor *= _pair_term(
            terms, device_name, stencil_name, k, setting[a], setting[b]
        )
    return factor


#: Per-value bit width used to pack a pair index and its two values
#: into one integer key for ``np.unique`` (values are at most 1024).
_PACK_BITS = 20

#: Each interaction pair's two value columns, and its index as packed.
_PAIR_A, _PAIR_B = np.array([[PARAM_INDEX[n] for n in p] for p in INTERACTION_PAIRS]).T
_PAIR_INDEX = np.arange(len(INTERACTION_PAIRS)) << 2 * _PACK_BITS


def roughness_factors(
    device_name: str,
    stencil_name: str,
    settings: Sequence[Setting],
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Batched :func:`roughness_factor` — identical values, amortized cost.

    The per-setting term is one BLAKE2 call per row (with the constant
    hash parts hoisted). The ``(n, pairs)`` pair keys, packed as (pair
    index, value_a, value_b), go through one ``np.unique``; each distinct
    key is looked up once in the memo both functions share. The terms
    are then multiplied in pair by pair in the scalar function's order,
    so the products accumulate in the same sequence and the floats match
    bit for bit.
    """
    if values is None:
        values = settings_matrix(settings)
    prefix = hash_prefix("setting", device_name, stencil_name)
    out = np.array(
        [
            1.0 + _SETTING_AMPLITUDE * (unit_hash_with_prefix(prefix, row) - 0.5)
            for row in values.tolist()
        ],
        dtype=np.float64,
    )

    terms = _PAIR_TERM_CACHE.setdefault((device_name, stencil_name), {})
    low = (1 << _PACK_BITS) - 1
    packed, inverse = np.unique(
        _PAIR_INDEX | values[:, _PAIR_A] << _PACK_BITS | values[:, _PAIR_B],
        return_inverse=True,
    )
    uniq = np.array([
        _pair_term(terms, device_name, stencil_name, key >> 2 * _PACK_BITS,
                   key >> _PACK_BITS & low, key & low)
        for key in packed.tolist()
    ], dtype=np.float64)
    for column in uniq[inverse.reshape(-1, len(INTERACTION_PAIRS))].T:
        out *= column
    return out
