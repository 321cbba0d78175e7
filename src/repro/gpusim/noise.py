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

from collections.abc import Iterable, Sequence

from repro.space.parameters import PARAM_INDEX
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
    """Provable lower bound of :func:`roughness_factors` over all inputs.

    Each hash term lies in ``[1 - amplitude/2, 1 + amplitude/2)``, so the
    product of the setting term and every pairwise term can never fall
    below this value. The static pruner multiplies its roofline lower
    bound by this factor to bound the *perturbed* model time from below.
    """
    lo = 1.0 - _SETTING_AMPLITUDE / 2
    return lo * (1.0 - _PAIR_AMPLITUDE / 2) ** len(INTERACTION_PAIRS)


#: Memoized pairwise interaction terms, keyed by (device, stencil): one
#: table per pair of :data:`INTERACTION_PAIRS`, keyed by the pair's two
#: values. The pair domains are tiny, so the tables saturate after a few
#: hundred evaluations; the per-setting term cannot be memoized (it
#: hashes the full value tuple) but is a single BLAKE2 call.
_PAIR_TERM_CACHE: dict[tuple[str, str], tuple[dict[tuple[int, int], float], ...]] = {}

#: Each interaction pair's names and value positions in a row.
_PAIRS = tuple((a, b, PARAM_INDEX[a], PARAM_INDEX[b]) for a, b in INTERACTION_PAIRS)


def roughness_factors(
    device_name: str, stencil_name: str, rows: Iterable[Sequence[int]]
) -> list[float]:
    """Multiplicative perturbation, in roughly ``[0.85, 1.15]``, per row.

    ``rows`` are full settings' value tuples in
    :data:`~repro.space.parameters.PARAMETER_ORDER`
    (``Setting.values_tuple()``). Deterministic in all arguments;
    independent settings receive independent perturbations (via BLAKE2
    hashing). A row's factor is its setting term times its pair terms,
    multiplied in :data:`INTERACTION_PAIRS` order; the pair terms come
    from the memo this function fills.
    """
    tables = _PAIR_TERM_CACHE.get((device_name, stencil_name))
    if tables is None:
        tables = _PAIR_TERM_CACHE.setdefault(
            (device_name, stencil_name), tuple({} for _ in INTERACTION_PAIRS)
        )
    prefix = hash_prefix("setting", device_name, stencil_name)
    pairs = [(t.get, t, a, b, ia, ib) for t, (a, b, ia, ib) in zip(tables, _PAIRS)]
    out = []
    for row in rows:
        factor = 1.0 + _SETTING_AMPLITUDE * (unit_hash_with_prefix(prefix, row) - 0.5)
        for get, table, a, b, ia, ib in pairs:
            key = (row[ia], row[ib])
            term = get(key)
            if term is None:
                u = unit_hash("pair", device_name, stencil_name, a, key[0], b, key[1])
                term = table[key] = 1.0 + _PAIR_AMPLITUDE * (u - 0.5)
            factor *= term
        out.append(factor)
    return out
