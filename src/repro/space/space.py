"""The search space: domains + constraints + sampling + encodings.

:class:`SearchSpace` is the single object every tuner interacts with.
It owns the Table I parameter domains for one stencil, checks the
constraint rule table of :mod:`repro.space.constraints` (the explicit
rules, plus the implicit register-spill / shared-memory rules when it
knows its device), and provides constraint-aware random sampling, lazy
enumeration of valid settings, repair, neighbourhood moves and
index-vector encodings.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SearchError, UnknownParameterError
from repro.space.constraints import (
    MAX_THREADS_PER_BLOCK,
    RESOURCE_RULES,
    Candidate,
    canonicalize_matrix,
    canonicalize_values,
    feasible_mask,
    first_violation,
)
from repro.space.parameters import (
    PARAM_INDEX,
    PARAMETER_ORDER,
    Parameter,
    build_parameters,
)
from repro.space.setting import Setting, SettingColumns, settings_matrix
from repro.stencil.pattern import StencilPattern
from repro.utils.rng import _PCG64Replay

if TYPE_CHECKING:  # import-light at runtime: gpusim sits above this layer
    from repro.analysis.prune import StaticPruner
    from repro.gpusim.device import DeviceSpec

_DIM_SUFFIX = {1: "x", 2: "y", 3: "z"}

#: Construction attempts before the sampler declares the space
#: over-constrained (per valid setting drawn).
_MAX_DRAW_TRIES = 500

#: Halves one sampler attempt reads when no draw rejects: five
#: switches, ``SD`` and ``SB``, two for the dimension order and two
#: per dimension.
_ATTEMPT_HALVES = 15


def _shuffled_dims(j2: int, j1: int) -> tuple[int, int, int]:
    """``Generator.shuffle([1, 2, 3])`` whose Fisher-Yates draws were
    ``j2`` (swap with position 2), then ``j1`` (with position 1)."""
    dims = [1, 2, 3]
    dims[2], dims[j2] = dims[j2], dims[2]
    dims[1], dims[j1] = dims[j1], dims[1]
    return dims[0], dims[1], dims[2]


#: Every dimension order the sampler's shuffle makes, at ``2 * j2 + j1``.
_DIM_ORDERS = tuple(_shuffled_dims(j2, j1) for j2 in range(3) for j1 in range(2))


class SearchSpace:
    """Constraint-aware optimization space for one stencil pattern.

    Parameters
    ----------
    pattern:
        The stencil being tuned (grid extents gate the domains).
    parameters:
        Parameter list; defaults to the full Table I set via
        :func:`repro.space.parameters.build_parameters`.
    resource_device:
        Optional :class:`repro.gpusim.DeviceSpec`. When given, the
        implicit resource rules (register spill, register file, shared
        memory) apply against its limits; ``None`` means only the
        explicit constraints apply.
    static_pruner:
        Optional :class:`repro.analysis.prune.StaticPruner`. When set,
        settings it proves dominated or unlaunchable are treated as
        invalid (after every other constraint). ``None`` — the default —
        leaves behaviour byte-identical to a pruner-less space.
    """

    def __init__(
        self,
        pattern: StencilPattern,
        parameters: Sequence[Parameter] | None = None,
        resource_device: "DeviceSpec | None" = None,
        static_pruner: "StaticPruner | None" = None,
    ) -> None:
        self.pattern = pattern
        self.parameters: tuple[Parameter, ...] = tuple(
            parameters if parameters is not None else build_parameters(pattern)
        )
        self._by_name = {p.name: p for p in self.parameters}
        if set(self._by_name) != set(PARAMETER_ORDER):
            missing = set(PARAMETER_ORDER) - set(self._by_name)
            extra = set(self._by_name) - set(PARAMETER_ORDER)
            raise ValueError(
                f"parameter set mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        self.resource_device = resource_device
        self.static_pruner = static_pruner
        self._dim_tuples_cache: dict[int, list[tuple[int, int, int, int]]] = {}
        self._candidate_cache: dict[
            tuple[int, int, int | None, bool],
            list[list[tuple[int, int, int, int]]],
        ] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return PARAMETER_ORDER

    def param(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownParameterError(f"unknown parameter {name!r}") from None

    def nominal_size(self) -> int:
        """Product of domain cardinalities (before any constraint)."""
        n = 1
        for p in self.parameters:
            n *= p.cardinality
        return n

    # -- validity ------------------------------------------------------------

    def violation(self, setting: Setting) -> str | None:
        """First violated constraint (domain, explicit, then implicit)."""
        for p in self.parameters:
            if not p.contains(setting[p.name]):
                return f"{p.name}={setting[p.name]} outside domain"
        reason = first_violation(self.pattern, setting, self.resource_device)
        if reason is not None:
            return reason
        if self.static_pruner is not None:
            return self.static_pruner.violation(setting)
        return None

    def is_valid(self, setting: Setting) -> bool:
        return self.violation(setting) is None

    def _batch_valid(self, settings: Sequence[Setting]) -> np.ndarray:
        """Vectorized :meth:`is_valid` over many settings."""
        if not settings:
            return np.zeros(0, dtype=bool)
        return self._batch_valid_matrix(settings_matrix(settings))

    def _batch_valid_matrix(self, values: np.ndarray) -> np.ndarray:
        """:meth:`_batch_valid` over an already-lowered value matrix.

        ``values`` is an ``(n, 19)`` int64 matrix in
        :data:`~repro.space.parameters.PARAMETER_ORDER` column order.
        Domains, then the rule table as columns, then the static pruner.
        """
        values = np.asarray(values, dtype=np.int64)
        n = values.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        ok = np.ones(n, dtype=bool)
        for j, name in enumerate(PARAMETER_ORDER):
            ok &= self.param(name).contains_array(values[:, j])
        ok &= feasible_mask(self.pattern, values, self.resource_device)
        if self.static_pruner is not None and ok.any():
            keep = np.flatnonzero(ok)
            pruned = self.static_pruner.dominated_mask(values[keep])
            ok[keep[pruned]] = False
        return ok

    def repair(self, values: dict[str, int]) -> Setting:
        """Clip values into their domains and fix gated parameters.

        Used after GA mutation and by samplers; the result satisfies the
        domain and gating constraints but may still violate tile or
        resource constraints (callers re-validate).
        """
        clipped = {
            name: self.param(name).clip(int(v)) for name, v in values.items()
        }
        return Setting(canonicalize_values(self.pattern, clipped))

    def repair_full(self, values: dict[str, int]) -> Setting:
        """Project arbitrary values onto the valid set.

        Deterministic halving repair used by genetic operators whose
        recombinations violate the tile/resource constraints: after
        gating repair, oversized thread blocks, work tiles and
        register-spilling merge factors are halved (largest factor
        first) until every constraint holds. All domains contain 1, so
        the projection always terminates at a valid setting.
        """
        setting = self.repair(values)
        vals = setting.to_dict()

        # Thread-block budget.
        while vals["TBx"] * vals["TBy"] * vals["TBz"] > MAX_THREADS_PER_BLOCK:
            biggest = max(("TBx", "TBy", "TBz"), key=lambda n: vals[n])
            vals[biggest] //= 2

        # Per-dimension work tiles (extents read once, before the loops).
        extents = Candidate(self.pattern, vals).extents
        for dim in (1, 2, 3):
            s = _DIM_SUFFIX[dim]
            extent = extents[dim - 1]
            names = [f"TB{s}", f"UF{s}", f"CM{s}", f"BM{s}"]
            while (
                vals[names[0]] * vals[names[1]] * vals[names[2]] * vals[names[3]]
                > extent
            ):
                shrinkable = [n for n in names if vals[n] > 1]
                vals[max(shrinkable, key=lambda n: vals[n])] //= 2

        # Implicit resource constraints: shrink merge factors until the
        # kernel stops spilling.
        candidate = Setting(canonicalize_values(self.pattern, vals))
        while self.resource_device is not None and first_violation(
            self.pattern, candidate, self.resource_device, rules=RESOURCE_RULES
        ):
            merges = [
                n
                for n in ("UFx", "UFy", "UFz", "CMx", "CMy", "CMz",
                          "BMx", "BMy", "BMz", "TBx", "TBy", "TBz")
                if vals[n] > 1
            ]
            if not merges:
                break  # nothing left to shrink; caller sees the violation
            vals[max(merges, key=lambda n: vals[n])] //= 2
            candidate = Setting(canonicalize_values(self.pattern, vals))
        return candidate

    @cached_property
    def _nearest(self) -> tuple[int, np.ndarray]:
        """``(vmin, table)``: ``table[j, v - vmin]`` is the domain value
        of parameter ``j`` nearest ``v`` (ties resolve downward, as in
        :meth:`Parameter.clip`), for every ``v`` from the smallest to
        the largest domain value of any parameter.

        In a sorted domain ``d`` the nearest value switches from
        ``d[k]`` to ``d[k + 1]`` just past their midpoint, so a row is
        ``d`` indexed by the number of midpoints below ``v``; comparing
        doubled values keeps this in integers, and ``v`` on a midpoint
        stays with the lower value.
        """
        domains = [self.param(name).values_array for name in PARAMETER_ORDER]
        vmin = min(int(d[0]) for d in domains)
        vmax = max(int(d[-1]) for d in domains)
        v2 = 2 * np.arange(vmin, vmax + 1, dtype=np.int64)
        table = np.empty((len(domains), v2.size), dtype=np.int64)
        for j, d in enumerate(domains):
            table[j] = d[np.searchsorted(d[:-1] + d[1:], v2)]
        return vmin, table

    def repair_matrix(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`repair` over an ``(n, 19)`` value matrix.

        Row ``i`` of the result equals
        ``repair(dict(zip(PARAMETER_ORDER, values[i]))).values_tuple()``.
        Domain repair is one gather from :attr:`_nearest`: below the
        table every parameter's nearest value is the one nearest its
        first entry, above it the one nearest its last.
        """
        values = np.asarray(values, dtype=np.int64)
        vmin, table = self._nearest
        index = np.clip(values, vmin, vmin + table.shape[1] - 1) - vmin
        out = table[np.arange(len(PARAMETER_ORDER)), index]
        return canonicalize_matrix(self.pattern, out)

    def repair_full_matrix(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`repair_full` — bit-identical row for row.

        Every scalar repair stage is transcribed as a masked fixpoint
        loop over the whole matrix: each pass halves, for every
        still-violating row, exactly the factor the scalar loop would
        pick (``np.argmax`` returns the first maximum, matching
        ``max()``'s first-maximal tie-breaking over the same name
        order). Rows converge independently; converged rows drop out of
        subsequent passes.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.shape[0] == 0:
            return values.copy()
        col = PARAM_INDEX
        work = self.repair_matrix(values)

        # Thread-block budget.
        tb_cols = np.array([col["TBx"], col["TBy"], col["TBz"]])
        while True:
            tb = work[:, tb_cols]
            bad = np.flatnonzero(
                tb[:, 0] * tb[:, 1] * tb[:, 2] > MAX_THREADS_PER_BLOCK
            )
            if bad.size == 0:
                break
            pick = np.argmax(tb[bad], axis=1)
            work[bad, tb_cols[pick]] //= 2

        # Per-dimension work tiles (extents read once, before the loops,
        # exactly like the scalar code).
        extents = Candidate(self.pattern, SettingColumns(work)).extents
        for dim in (1, 2, 3):
            s = _DIM_SUFFIX[dim]
            names = np.array([col[f"TB{s}"], col[f"UF{s}"],
                              col[f"CM{s}"], col[f"BM{s}"]])
            extent = extents[dim - 1]
            while True:
                tile = work[:, names]
                prod = tile[:, 0] * tile[:, 1] * tile[:, 2] * tile[:, 3]
                bad = np.flatnonzero(prod > extent)
                if bad.size == 0:
                    break
                vals4 = tile[bad]
                # A violating row always has a factor > 1 (extent >= 1),
                # so masking non-shrinkable entries to 0 never empties a
                # row and argmax picks the scalar loop's choice.
                pick = np.argmax(np.where(vals4 > 1, vals4, 0), axis=1)
                work[bad, names[pick]] //= 2

        # Implicit resource constraints: shrink merge factors until the
        # kernel stops spilling (or nothing is shrinkable).
        cand = canonicalize_matrix(self.pattern, work)
        if self.resource_device is not None:

            def resource_ok(rows: np.ndarray) -> np.ndarray:
                return feasible_mask(
                    self.pattern, rows, self.resource_device, rules=RESOURCE_RULES
                )

            merge_cols = np.array([
                col[n]
                for n in ("UFx", "UFy", "UFz", "CMx", "CMy", "CMz",
                          "BMx", "BMy", "BMz", "TBx", "TBy", "TBz")
            ])
            active = np.flatnonzero(~resource_ok(cand))
            while active.size:
                vals12 = work[np.ix_(active, merge_cols)]
                shrinkable = (vals12 > 1).any(axis=1)
                active = active[shrinkable]  # dead-ends keep the violation
                if active.size == 0:
                    break
                vals12 = vals12[shrinkable]
                pick = np.argmax(np.where(vals12 > 1, vals12, 0), axis=1)
                work[active, merge_cols[pick]] //= 2
                cand[active] = canonicalize_matrix(self.pattern, work[active])
                active = active[~resource_ok(cand[active])]
        return cand

    # -- sampling --------------------------------------------------------

    def _dim_tuples(self, dim: int) -> list[tuple[int, int, int, int]]:
        """All (TB, UF, CM, BM) combinations whose product fits ``M_dim``."""
        if dim not in self._dim_tuples_cache:
            s = _DIM_SUFFIX[dim]
            extent = self.pattern.grid[dim - 1]
            tuples = [
                (tb, uf, cm, bm)
                for tb in self.param(f"TB{s}").values
                for uf in self.param(f"UF{s}").values
                for cm in self.param(f"CM{s}").values
                for bm in self.param(f"BM{s}").values
                if tb * uf * cm * bm <= extent
            ]
            self._dim_tuples_cache[dim] = tuples
        return self._dim_tuples_cache[dim]

    def _candidate_groups(
        self,
        dim: int,
        budget: int,
        *,
        uf_cap: int | None = None,
        stream: bool = False,
    ) -> list[list[tuple[int, int, int, int]]]:
        """Feasible (TB, UF, CM, BM) tuples grouped by TB value.

        The grouping realizes the sampler's two-stage draw (TB uniform,
        then merge triple uniform within the TB). Results are memoised
        per (dim, budget, uf_cap, stream) — the sampler hits only a
        handful of distinct budget values, so this turns the per-draw
        filtering from O(|tuples|) Python loops into a dict lookup.
        """
        key = (dim, budget, uf_cap, stream)
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        groups: dict[int, list[tuple[int, int, int, int]]] = {}
        for t in self._dim_tuples(dim):
            tb, uf, cm, bm = t
            if stream and tb != 1:
                continue
            if uf_cap is not None and uf > uf_cap:
                continue
            if uf * cm * bm > budget:
                continue
            groups.setdefault(tb, []).append(t)
        out = [groups[tb] for tb in sorted(groups)]
        self._candidate_cache[key] = out
        return out

    def _ppt_budget(self) -> int:
        """Heuristic cap on merged points per thread.

        The register model charges roughly ``2 * outputs + 1`` registers
        per merged point, so settings beyond this budget are certain to
        spill; pre-filtering keeps the sampler's rejection rate low.
        Only a bias — the real resource check still has the last word.
        """
        return max(4, 200 // (2 * self.pattern.outputs + 1))

    def _draw_settings(
        self,
        rng: np.random.Generator,
        n: int,
        *,
        unique: bool,
        limit: int,
        max_misses: int,
    ) -> list[Setting]:
        """The sampler: draw valid settings until ``n`` or ``limit`` draws.

        Each construction attempt draws the switches, the streaming
        ``SD`` / ``SB``, a shuffled dimension order and, per dimension, a
        TB value then a merge triple that fits the remaining per-thread
        work budget (see :meth:`_candidate_groups`). Attempts are built
        in chunks as value rows in
        :data:`~repro.space.parameters.PARAMETER_ORDER` and screened in
        one :meth:`_batch_valid_matrix` call each. ``draws`` counts
        valid draws, duplicates included, against ``limit``; ``misses``
        counts consecutive failed attempts against ``max_misses``.

        The draws are replayed over the generator's raw words
        (:class:`_PCG64Replay`), read by index from its half list with
        Lemire's method inlined, and the generator is left exactly where
        drawing each value with ``rng.integers`` / ``rng.shuffle`` would
        leave it, on every exit. A chunk never holds more attempts than
        drawing and checking one attempt at a time would make: each
        valid draw takes at least one attempt.
        """
        grid = self.pattern.grid
        switch_domains = [
            self.param(name).values
            for name in ("useShared", "useConstant", "useStreaming",
                         "useRetiming", "usePrefetching")
        ]
        sd_domain = self.param("SD").values
        sb_values = self.param("SB").values
        sb_domains = {
            sd: [v for v in sb_values if v <= grid[sd - 1]] for sd in sd_domain
        }
        ppt_cap = self._ppt_budget()
        groups_for = self._candidate_groups
        cache = self._candidate_cache
        draw = _PCG64Replay(rng)
        resume = draw.resume
        need = _ATTEMPT_HALVES
        mask32 = 0xFFFFFFFF

        out: list[Setting] = []
        seen: set[tuple[int, ...]] = set()
        draws = 0  # valid settings drawn (duplicates included)
        misses = 0  # consecutive attempts without a valid setting
        halves, pos = draw.window(need)
        try:
            while len(out) < n and draws < limit:
                chunk = min(n - len(out), limit - draws)
                rows: list[tuple[int, ...] | None] = []
                for _ in range(chunk):
                    # One construction attempt, its draws read by index:
                    # ``need`` halves cover it unless a draw rejects, and
                    # every rejection tops the reserve up again. Each
                    # draw is ``integers(len(domain))`` with Lemire's
                    # method inlined: a one-value domain reads nothing.
                    if len(halves) - pos < need:
                        halves, pos = draw.window(need, pos)
                    switches = []
                    for domain in switch_domains:
                        value = domain[0]
                        k = len(domain)
                        if k > 1:
                            m = halves[pos] * k
                            pos += 1
                            if m & mask32 < k:
                                m, halves, pos = resume(m, k, pos, need)
                            value = domain[m >> 32]
                        switches.append(value)
                    shared, constant, streaming, retiming, prefetching = switches
                    stream = streaming == 2
                    if stream:
                        sd = sd_domain[0]
                        k = len(sd_domain)
                        if k > 1:
                            m = halves[pos] * k
                            pos += 1
                            if m & mask32 < k:
                                m, halves, pos = resume(m, k, pos, need)
                            sd = sd_domain[m >> 32]
                        sb_domain = sb_domains[sd]
                        sb = sb_domain[0]
                        k = len(sb_domain)
                        if k > 1:
                            m = halves[pos] * k
                            pos += 1
                            if m & mask32 < k:
                                m, halves, pos = resume(m, k, pos, need)
                            sb = sb_domain[m >> 32]
                    else:
                        sd, sb, prefetching = 1, 1, 1
                    # ``shuffle([1, 2, 3])`` avoids biasing early
                    # dimensions to big work: ``random_interval(2)``
                    # rejects a masked 3, ``random_interval(1)`` never.
                    j2 = halves[pos] & 3
                    pos += 1
                    if j2 == 3:
                        j2, halves, pos = draw.resume_interval(2, pos, need)
                    dims = _DIM_ORDERS[2 * j2 + (halves[pos] & 1)]
                    pos += 1
                    budget = ppt_cap
                    tiles: list[tuple[int, int, int, int]] = [(1, 1, 1, 1)] * 3
                    for dim in dims:
                        if stream and dim == sd:
                            extent = max(1, grid[dim - 1] // sb)
                            uf_cap = sb if sb > 1 else extent
                            groups = groups_for(
                                dim, min(budget, extent), uf_cap=uf_cap,
                                stream=True,
                            )
                        else:
                            groups = cache.get((dim, budget, None, False))
                            if groups is None:
                                groups = groups_for(dim, budget)
                        if not groups:
                            break
                        # Two-stage draw: TB first (uniform over its
                        # feasible values), then the merge triple uniform
                        # among combos that still fit. Tuple-uniform
                        # sampling would weight TB towards 1 (small TBs
                        # admit far more merge combos), skewing the
                        # sample towards low-parallelism settings.
                        sub = groups[0]
                        k = len(groups)
                        if k > 1:
                            m = halves[pos] * k
                            pos += 1
                            if m & mask32 < k:
                                m, halves, pos = resume(m, k, pos, need)
                            sub = groups[m >> 32]
                        tile = sub[0]
                        k = len(sub)
                        if k > 1:
                            m = halves[pos] * k
                            pos += 1
                            if m & mask32 < k:
                                m, halves, pos = resume(m, k, pos, need)
                            tile = sub[m >> 32]
                        budget //= tile[1] * tile[2] * tile[3]  # domains start at 1
                        tiles[dim - 1] = tile
                    else:
                        (tbx, ufx, cmx, bmx), (tby, ufy, cmy, bmy), (
                            tbz, ufz, cmz, bmz
                        ) = tiles
                        if tbx * tby * tbz <= MAX_THREADS_PER_BLOCK:
                            rows.append((
                                tbx, tby, tbz, shared, constant, streaming,
                                sd, sb, ufx, ufy, ufz, cmx, cmy, cmz,
                                bmx, bmy, bmz, retiming, prefetching,
                            ))
                            continue
                    rows.append(None)  # the attempt dead-ended
                built = np.array(
                    [r for r in rows if r is not None], dtype=np.int64
                )
                verdicts = iter(self._batch_valid_matrix(built).tolist())
                for row in rows:
                    if row is None or not next(verdicts):
                        misses += 1
                        if misses >= max_misses:
                            raise _over_constrained(max_misses)
                        continue
                    misses = 0
                    draws += 1
                    if unique:
                        if row in seen:
                            continue
                        seen.add(row)
                    out.append(Setting._from_row(row))
        finally:
            draw.sync(pos)
        if len(out) < n:
            raise SearchError(
                f"only found {len(out)} of {n} distinct valid settings"
            )
        return out

    def random_setting(
        self, rng: np.random.Generator, *, max_tries: int = _MAX_DRAW_TRIES
    ) -> Setting:
        """Draw one valid setting, approximately uniform over valid space.

        Constraint-aware construction (per-dimension work-tile tuples,
        a per-thread work budget matching the register model, gated
        streaming parameters) keeps the rejection rate low even though
        unconstrained uniform sampling would be valid well under 1 % of
        the time. This is the sampler of :meth:`sample` checking one
        attempt at a time; ``max_tries`` attempts in a row that all fail
        raise :class:`~repro.errors.SearchError`. ``rng`` must be a
        PCG64 generator (:func:`numpy.random.default_rng`).
        """
        if max_tries < 1:
            raise _over_constrained(max_tries)
        (setting,) = self._draw_settings(
            rng, 1, unique=False, limit=1, max_misses=max_tries
        )
        return setting

    def sample(
        self,
        rng: np.random.Generator,
        n: int,
        *,
        unique: bool = True,
        max_tries_factor: int = 50,
    ) -> list[Setting]:
        """Draw ``n`` valid settings (distinct by default).

        Returns the settings, in order, that repeated
        :meth:`random_setting` calls would draw (skipping duplicates
        when ``unique``), and leaves ``rng`` — which must be a PCG64
        generator, as :func:`numpy.random.default_rng` makes — in the
        same state. Attempts are constructed in chunks and
        validity-screened in batch; the draws are replayed over the
        generator's raw words instead of one ``rng.integers`` call per
        value. At most ``max(1, n) * max_tries_factor`` valid draws are
        made; 500 failed attempts in a row raise
        :class:`~repro.errors.SearchError`.
        """
        if n < 0:
            raise ValueError(f"cannot sample a negative count: {n}")
        return self._draw_settings(
            rng, n, unique=unique, limit=max(1, n) * max_tries_factor,
            max_misses=_MAX_DRAW_TRIES,
        )

    # -- enumeration & neighbourhoods -------------------------------------

    def enumerate_valid(self, *, limit: int | None = None) -> Iterator[Setting]:
        """Lazily yield valid settings in lexicographic domain order.

        Intended for scaled-down spaces in tests and for the exhaustive
        degeneration of small parameter groups; enumerating the full
        Table I space would take geological time, hence ``limit``.
        """
        domains = [self.param(name).values for name in PARAMETER_ORDER]
        count = 0
        for combo in product(*domains):
            setting = Setting(dict(zip(PARAMETER_ORDER, combo)))
            if self.is_valid(setting):
                yield setting
                count += 1
                if limit is not None and count >= limit:
                    return

    def neighbors(self, setting: Setting) -> list[Setting]:
        """Valid one-step moves: one parameter nudged one domain index.

        Candidates are constructed first and validity-screened in one
        :meth:`_batch_valid` call (the resource model dominates the
        cost); the returned list is identical to checking each
        candidate with :meth:`is_valid` in construction order.
        """
        cands: list[Setting] = []
        base = setting.to_dict()
        for p in self.parameters:
            idx = p.index_of(setting[p.name])
            for step in (-1, 1):
                j = idx + step
                if 0 <= j < p.cardinality:
                    cand = self.repair({**base, p.name: p.values[j]})
                    if cand != setting:
                        cands.append(cand)
        ok = self._batch_valid(cands)
        return [c for c, good in zip(cands, ok.tolist()) if good]

    # -- encodings ---------------------------------------------------------

    def encode(self, setting: Setting) -> np.ndarray:
        """Setting → per-parameter domain-index vector (int64)."""
        return np.array(
            [self.param(n).index_of(setting[n]) for n in PARAMETER_ORDER],
            dtype=np.int64,
        )

    def decode(self, indices: np.ndarray) -> Setting:
        """Inverse of :meth:`encode` (with gating repair applied)."""
        if len(indices) != len(PARAMETER_ORDER):
            raise ValueError(
                f"expected {len(PARAMETER_ORDER)} indices, got {len(indices)}"
            )
        values = {}
        for name, idx in zip(PARAMETER_ORDER, indices):
            p = self.param(name)
            i = int(np.clip(idx, 0, p.cardinality - 1))
            values[name] = p.values[i]
        return self.repair(values)

    def decode_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`decode` over an ``(n, 19)`` index matrix.

        Returns the repaired ``(n, 19)`` value matrix; row ``i`` equals
        ``decode(indices[i]).values_tuple()``, out-of-range indices
        clipped to the domain exactly as :meth:`decode` clips them.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != len(PARAMETER_ORDER):
            raise ValueError(
                f"expected an (n, {len(PARAMETER_ORDER)}) index matrix, "
                f"got shape {indices.shape}"
            )
        values = np.empty_like(indices)
        for j, name in enumerate(PARAMETER_ORDER):
            p = self.param(name)
            values[:, j] = p.values_array[
                np.clip(indices[:, j], 0, p.cardinality - 1)
            ]
        return self.repair_matrix(values)

    def estimate_valid_fraction(
        self, rng: np.random.Generator, n: int = 2000
    ) -> float:
        """Monte-Carlo estimate of the valid fraction of the nominal space."""
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        # One integer per parameter per row, in ``self.parameters``
        # order: the same stream as one ``rng.integers`` call per value.
        cards = [p.cardinality for p in self.parameters]
        indices = rng.integers(0, cards, size=(n, len(cards)))
        values = np.empty_like(indices)
        for j, p in enumerate(self.parameters):
            values[:, PARAM_INDEX[p.name]] = p.values_array[indices[:, j]]
        return int(self._batch_valid_matrix(values).sum()) / n


def _over_constrained(tries: int) -> SearchError:
    return SearchError(
        f"could not draw a valid setting in {tries} tries "
        f"(space may be over-constrained)"
    )


def build_space(
    pattern: StencilPattern,
    device: "DeviceSpec | None" = None,
    *,
    max_factor: int | None = None,
    prune_static: bool = False,
    prune_probes: int = 64,
    prune_seed: int = 0,
    prune_margin: float = 1.0,
) -> SearchSpace:
    """Construct the standard space for a stencil, wiring resource checks.

    When ``device`` (a :class:`repro.gpusim.DeviceSpec`) is given, the
    implicit register-spill and shared-memory constraints are enforced
    through the kernel planner, matching the paper's "only non-spilled
    parameter settings are explored".

    ``prune_static=True`` (requires ``device``) additionally anchors a
    :class:`repro.analysis.prune.StaticPruner` on a seeded probe of the
    space, rejecting provably-dominated and statically-unlaunchable
    settings before any evaluation. Off — the default — the space is
    byte-identical to one built without these arguments.
    """
    parameters = build_parameters(pattern, max_factor=max_factor)
    space = SearchSpace(pattern, parameters, resource_device=device)
    if prune_static:
        if device is None:
            raise ValueError("prune_static requires a device")
        from repro.analysis.prune import build_pruner

        space.static_pruner = build_pruner(
            space, device,
            probes=prune_probes, seed=prune_seed, margin=prune_margin,
        )
    return space
