"""Nearest-neighbor warm starts for new tuning jobs.

Instead of cold-starting the GA from the sampled space alone, a warm
start seeds the population with the best settings the results database
already knows for *nearby* problems: records from devices in the same
architecture family, from the stencils closest in feature space (see
:mod:`repro.resultsdb.features`), golden records first.

Donor settings were tuned for a different stencil/device, so they may
violate the target space's constraints; the collected pool is
batch-repaired through the same matrix-native genotype path the GA
itself uses (:meth:`~repro.space.space.SearchSpace.repair_full_matrix`
+ batch validity screening), deduplicated and capped. The caller
injects the survivors into the sampled space via
:func:`repro.core.sampling.with_seed_settings`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.gpusim.diskcache import device_token
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.features import rank_donor_stencils, same_family
from repro.space.setting import Setting, settings_from_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern

#: Donor-pool bound: at most this many raw candidate value tuples are
#: collected before repair (keeps huge databases cheap to seed from).
_POOL_CAP = 256


def _collect_candidates(
    db: ResultsDB,
    pattern: StencilPattern,
    device: DeviceSpec,
    *,
    per_shard: int,
) -> list[tuple[int, ...]]:
    """Raw donor value tuples, nearest problems first."""
    tok = device_token(device)
    candidates: list[tuple[int, ...]] = []

    # Golden records first — they are the distilled best-known answers.
    # Exact (stencil, device) golden leads, then same-family goldens by
    # stencil distance.
    golden = db.golden()
    exact = golden.serve(pattern.name, tok, tuple(pattern.grid))
    if exact is not None:
        candidates.append(exact.values)
    family_records = [
        r for r in golden.records.values()
        if r.fresh
        and r.device_name is not None
        and same_family(r.device_name, device.name)
    ]
    ranked_stencils = rank_donor_stencils(
        pattern, sorted({r.stencil for r in family_records})
    )
    for _dist, stencil in ranked_stencils:
        for record in family_records:
            if record.stencil == stencil:
                candidates.append(record.values)

    # Then the fastest shard records, same family, nearest stencils
    # first (same device before sibling devices within a stencil).
    names: dict[str, str | None] = {}

    def name_of(shard_tok: str) -> str | None:
        if shard_tok not in names:
            names[shard_tok] = db.shard_device_name(shard_tok)
        return names[shard_tok]

    shard_keys = [
        (shard_tok, stencil)
        for shard_tok, stencil in db.shard_keys()
        if (name := name_of(shard_tok)) is not None
        and same_family(name, device.name)
    ]
    ranked = rank_donor_stencils(
        pattern, sorted({stencil for _t, stencil in shard_keys})
    )
    for _dist, stencil in ranked:
        keyed = [
            (0 if shard_tok == tok else 1, shard_tok)
            for shard_tok, s in shard_keys
            if s == stencil
        ]
        for _pref, shard_tok in sorted(keyed):
            shard = db.load_shard(shard_tok, stencil)
            fastest = sorted(
                shard.records.items(), key=lambda kv: (kv[1][0], kv[0])
            )[:per_shard]
            candidates.extend(values for values, _v in fastest)
            if len(candidates) >= _POOL_CAP:
                return candidates[:_POOL_CAP]
    return candidates[:_POOL_CAP]


def repair_candidates(
    space: SearchSpace, candidates: list[tuple[int, ...]], k: int
) -> list[Setting]:
    """Project donor value tuples into the target space; keep the first
    ``k`` distinct valid settings (order preserved).

    A donor is a row over ``space.names``. A donor of any other width
    (a record of a space with other parameters) is refused and counted
    under ``resultsdb.warm_donors_refused``.
    """
    width = len(space.names)
    usable = [v for v in candidates if len(v) == width]
    if len(usable) < len(candidates):
        obs.count("resultsdb.warm_donors_refused", len(candidates) - len(usable))
    if not usable:
        return []
    seeds: list[Setting] = []
    seen: set[Setting] = set()
    repaired = space.repair_full_matrix(np.array(usable, dtype=np.int64))
    ok = space._batch_valid_matrix(repaired)
    for setting, good in zip(
        settings_from_matrix(repaired, space.names), ok.tolist()
    ):
        if good and setting not in seen:
            seen.add(setting)
            seeds.append(setting)
            if len(seeds) >= k:
                break
    return seeds


def warm_start_settings(
    db: ResultsDB,
    pattern: StencilPattern,
    device: DeviceSpec,
    space: SearchSpace,
    *,
    k: int = 8,
    per_shard: int = 4,
) -> list[Setting]:
    """Up to ``k`` valid warm-start settings for a new tuning job.

    Empty when the database holds nothing transferable (no same-family
    records, or none survive repair) — callers fall back to a cold
    start. Emits the ``resultsdb.warm_seeds`` counter with the number
    of seeds produced (one count per job, never per setting).
    """
    candidates = _collect_candidates(
        db, pattern, device, per_shard=per_shard
    )
    seeds = repair_candidates(space, candidates, k)
    obs.count("resultsdb.warm_seeds", len(seeds))
    return seeds
