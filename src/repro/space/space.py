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
from itertools import islice, pairwise, product
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
from repro.space.setting import COLUMNS, Setting, SettingColumns, settings_matrix
from repro.stencil.pattern import StencilPattern
from repro.utils.pow2 import powers_of_two_upto
from repro.utils.rng import _PCG64Replay

if TYPE_CHECKING:  # import-light at runtime: gpusim sits above this layer
    from repro.analysis.prune import StaticPruner
    from repro.gpusim.device import DeviceSpec

_DIM_SUFFIX = {1: "x", 2: "y", 3: "z"}

#: Construction attempts before the sampler declares the space
#: over-constrained (per valid setting drawn).
_MAX_DRAW_TRIES = 500

#: Offsets one sampler block starts attempts at, and halves one round
#: chains, at most: a block's decode holds a few arrays per start, a
#: round's rows are screened in one call.
_BLOCK_STARTS, _ROUND_HALVES = 1 << 12, 1 << 14

#: Halves a sampler round decodes per setting still wanted (about 13 an
#: attempt, 2.5 attempts a setting), and beyond, so small draws take one.
_SETTING_HALVES = 32
_SPARE_HALVES = 96

#: Every order ``Generator.shuffle([1, 2, 3])`` makes, at ``2 * j2 + j1``
#: for its swaps ``2 <-> j2``, ``1 <-> j1``; and each dimension's stage.
_DIM_ORDERS = ((2, 3, 1), (3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3))
_DIM_STAGES = np.argsort(_DIM_ORDERS, axis=1)
#: What an attempt draws from a domain, in draw order.
_DRAWN = ("useShared", "useConstant", "useStreaming", "useRetiming",
          "usePrefetching", "SD", "SB")
#: Per dimension, the (TB, UF, CM, BM) columns of its work tile.
_TILE_COLUMNS = np.array([[PARAM_INDEX[p + s] for p in ("TB", "UF", "CM", "BM")]
                          for s in "xyz"])
#: Merge-factor columns in the order the resource repair halves them
#: (UFx, UFy, UFz, then CM, BM and TB alike: the scalar order).
_MERGE_COLUMNS = _TILE_COLUMNS[:, [1, 2, 3, 0]].T.ravel()
#: Halving states of every still-spilling row that the resource repair
#: builds ahead and screens in one rule pass.
_HALVING_BLOCK = 4


def _draws(k) -> np.ndarray:
    """``[k, threshold, step]`` of Lemire's ``integers(k)`` (0, 1: no read)."""
    one = np.maximum(k := np.asarray(k, dtype=np.int64), 1)
    return np.stack([k, (2**32 - one) % one, k > 1], axis=-1)


def _fitting_tiles(space: "SearchSpace", dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimension ``dim``'s (TB, UF, CM, BM) tiles whose product fits its
    extent, as columns in nested domain order (TB slowest), and each
    tile's work ``UF * CM * BM``."""
    tb, uf, cm, bm = (space.param(name + _DIM_SUFFIX[dim]).values_array
                      for name in ("TB", "UF", "CM", "BM"))
    work = np.multiply.outer(uf, np.multiply.outer(cm, bm))
    fit = np.multiply.outer(tb, work) <= space.pattern.grid[dim - 1]
    i = np.unravel_index(np.flatnonzero(fit), fit.shape)
    return np.stack([tb[i[0]], uf[i[1]], cm[i[2]], bm[i[3]]]), work[i[1:]]


def _key_rows(space: "SearchSpace", dim: int) -> list[tuple[int, int, bool, int]]:
    """Dimension ``dim``'s ``(dim, uf_cap, streamed, clamp)`` key rows: the
    plain one, then, when ``dim`` can be ``SD``, one per ``SB`` (UF capped
    by ``SB``, or by the extent left per ``SB`` tile, which also clamps
    the budget)."""
    ufs = space.param("UF" + _DIM_SUFFIX[dim]).values
    rows = [(dim, ufs[-1], False, space._ppt_budget())]
    if dim in space.param("SD").values:
        for sb in space.param("SB").values:
            extent = max(1, space.pattern.grid[dim - 1] // sb)
            rows.append((dim, sb if sb > 1 else extent, True, extent))
    return rows


def _keyed_tiles(
    tiles: np.ndarray, work: np.ndarray, rows: list, budgets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (key, tile) pair of one dimension, by key then tile: the key
    ``row * len(budgets) + budget`` and the tile's column. A key holds
    the tiles with ``UF <= uf_cap``, ``TB == 1`` when streamed, and work
    within its budget and its row's clamp."""
    cap, streamed, clamp = (np.array([r[i] for r in rows])[:, None] for i in (1, 2, 3))
    allowed = (tiles[1] <= cap) & ((tiles[0] == 1) | ~streamed)
    fits = allowed[:, None] & (work <= np.minimum(budgets, clamp)[..., None])
    row, budget, tile = np.unravel_index(np.flatnonzero(fits), fits.shape)
    return row * len(budgets) + budget, tile


class _Tiles:
    """The sampler's candidate (TB, UF, CM, BM) tables for one space.

    ``tuples``: each dimension's tiles that fit its extent
    (:func:`_fitting_tiles`). A key row (:func:`_key_rows`) and one of
    ``budgets`` (each ``ppt // p``, from 0) make a key, which holds its
    tiles (:func:`_keyed_tiles`) in runs of one TB. ``keys`` /
    ``groups``: a count's :func:`_draws` row and the first group / entry;
    ``entries``: a tile and the budget index left. An empty key points at
    a sentinel that leaves index 0, so a dead end reads no more.
    ``lead``, ``sd``, ``sb``: stage keys and SD / SB draws.
    """

    def __init__(self, space: "SearchSpace") -> None:
        ppt = space._ppt_budget()
        self.budgets = np.array(sorted({ppt // p for p in range(1, ppt + 2)}))
        self.rows: list[tuple[int, int, bool, int]] = []
        tuples, keys, entries = [], [], []
        for dim in (1, 2, 3):
            tiles, work = _fitting_tiles(space, dim)
            rows = _key_rows(space, dim)
            key, tile = _keyed_tiles(tiles, work, rows, self.budgets)
            keys.append(key + len(self.rows) * len(self.budgets))
            entries.append(tile + sum(t.shape[1] for t in tuples))
            self.rows += rows
            tuples.append(tiles)
        self.tuples = np.concatenate(tuples, axis=1)
        self._group(np.concatenate(keys), np.concatenate(entries))
        self._stages(space)

    def _group(self, key: np.ndarray, entry: np.ndarray) -> None:
        """``keys``, ``groups`` and ``entries`` from the (key, tile) pairs."""
        nb = len(self.budgets)
        tb = self.tuples[0, entry]
        starts = np.ones(len(key), dtype=bool)
        starts[1:] = (key[1:] != key[:-1]) | (tb[1:] != tb[:-1])
        bounds = np.append(np.flatnonzero(starts), len(key))
        counts = np.bincount(key[bounds[:-1]], minlength=len(self.rows) * nb)
        first = np.cumsum(counts) - counts
        first[counts == 0] = len(bounds) - 1  # the sentinel group
        self.keys = np.column_stack([_draws(counts), first]).astype(np.int32)
        sizes = np.diff(bounds, append=len(key) + 1)
        self.groups = np.column_stack([_draws(sizes), bounds]).astype(np.int32)
        left = self.budgets[key % nb] // self.tuples[1:, entry].prod(axis=0)
        then = np.append(np.searchsorted(self.budgets, left), 0)
        self.entries = np.column_stack([np.append(entry, 0), then]).astype(np.int32)

    def _stages(self, space: "SearchSpace") -> None:
        """``lead``: per stage, the key row (times ``len(budgets)``) of each
        dimension order and streaming code (0, or ``1 + sd * len(SB) + sb``
        for the SD and SB indices); ``sd`` / ``sb``: the :func:`_draws` rows
        of SD and of SB per SD (a streamed SB fits its dimension's extent)."""
        grid = space.pattern.grid
        sds, sbs = space.param("SD").values, space.param("SB").values
        plain = [r for r, row in enumerate(self.rows) if not row[2]]
        codes = [(0, 0)] + [(sd, 1 + i) for sd in sds for i in range(len(sbs))]
        self.lead = len(self.budgets) * np.array([
            [plain[o[s] - 1] + (i if o[s] == sd else 0) for o in _DIM_ORDERS
             for sd, i in codes] for s in range(3)])
        self.sd = _draws(len(sds))
        self.sb = _draws([0] + [sum(v <= grid[sd - 1] for v in sbs) for sd in sds])

    @cached_property
    def candidates(self) -> dict[tuple[int, int, int | None, bool], list[list]]:
        """Each ``(dim, budget, uf_cap, stream)`` key the rows reach: its
        (TB, UF, CM, BM) tuples as lists, in runs of one TB."""
        tuples = list(zip(*self.tuples[:, self.entries[:-1, 0]].tolist()))
        bounds, out = self.groups[:, 3].tolist(), {}
        for r, (dim, cap, streamed, clamp) in enumerate(self.rows):
            for i, b in enumerate(self.budgets.tolist()):
                count, first = self.keys[r * len(self.budgets) + i, [0, 3]].tolist()
                runs = pairwise(bounds[first:first + count + 1])
                key = dim, min(b, clamp), cap if streamed else None, streamed
                out[key] = [tuples[a:z] for a, z in runs]
        return out


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

    @cached_property
    def _domains(self) -> tuple[np.ndarray, ...]:
        """The domains over :data:`PARAMETER_ORDER` columns: ``table``,
        each padded with its last value to the widest, its largest index
        ``top``, the most set bits a member has (1 where the domain is all
        powers of two up to its last value) and ``listed``, the domains
        that are neither that nor a range."""
        domains = [self.param(name).values for name in PARAMETER_ORDER]
        width = max(map(len, domains))
        table = np.array([d + d[-1:] * (width - len(d)) for d in domains])
        ranged = np.array([d == tuple(range(d[0], d[-1] + 1)) for d in domains])
        pow2 = ~ranged & [d == tuple(powers_of_two_upto(d[-1])) for d in domains]
        top = np.array([len(d) - 1 for d in domains])
        return table, top, np.where(pow2, 1, 64), ~pow2 & ~ranged

    def _batch_valid_matrix(self, values: np.ndarray) -> np.ndarray:
        """:meth:`_batch_valid` over an already-lowered value matrix.

        ``values`` is an ``(n, 19)`` int64 matrix in
        :data:`~repro.space.parameters.PARAMETER_ORDER` column order.
        Domains (every column within its bounds at once, power-of-two
        columns with one set bit; ``np.isin`` only for a domain of neither
        shape), then the rule table as columns, then the static pruner.
        """
        values = np.asarray(values, dtype=np.int64)
        table, _, bits, listed = self._domains
        ok = ~(
            (values < table[:, 0]) | (values > table[:, -1])
            | (np.bitwise_count(values) > bits)
        ).any(axis=1)
        for j in np.flatnonzero(listed):
            ok &= np.isin(values[:, j], self.param(PARAMETER_ORDER[j]).values_array)
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
        subsequent passes. The three per-dimension tile loops are one loop
        over the ``(n, 3, 4)`` tile block, so each stage is a constant
        number of NumPy calls a pass.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.shape[0] == 0:
            return values.copy()
        work = self.repair_matrix(values)

        # Thread-block budget.
        tb_cols = _TILE_COLUMNS[:, 0]
        while True:
            tb = work[:, tb_cols]
            bad = np.flatnonzero(
                tb[:, 0] * tb[:, 1] * tb[:, 2] > MAX_THREADS_PER_BLOCK
            )
            if bad.size == 0:
                break
            pick = np.argmax(tb[bad], axis=1)
            work[bad, tb_cols[pick]] //= 2

        # Work tiles: every dimension in one loop over an (n, 3, 4) block.
        # The dimensions touch disjoint columns and the extents are read
        # once, before the loop, as the scalar code does, so halving them
        # side by side ends where the scalar loops, one after another, do.
        extents = np.stack(Candidate(self.pattern, SettingColumns(work)).extents, 1)
        while True:
            tile = work[:, _TILE_COLUMNS]
            row, dim = np.nonzero(tile.prod(axis=2) > extents)
            if row.size == 0:
                break
            vals4 = tile[row, dim]
            # A violating tile always has a factor > 1 (extent >= 1), so
            # masking non-shrinkable entries to 0 never empties a row and
            # argmax picks the scalar loop's choice.
            pick = np.argmax(np.where(vals4 > 1, vals4, 0), axis=1)
            work[row, _TILE_COLUMNS[dim, pick]] //= 2

        # Implicit resource constraints: shrink merge factors until the
        # kernel stops spilling (or nothing is shrinkable).
        cand = canonicalize_matrix(self.pattern, work)
        if self.resource_device is not None:

            def resource_ok(rows: np.ndarray) -> np.ndarray:
                return feasible_mask(
                    self.pattern, rows, self.resource_device, rules=RESOURCE_RULES
                )

            active = np.flatnonzero(~resource_ok(cand))
            while active.size:
                # A row's halving chain depends on its own values only, so
                # the next few states of every spilling row are built
                # first and screened in one pass. ``halved[r, b]``: state
                # ``b`` of row ``r`` exists (state ``b - 1`` had a factor
                # left to halve).
                state, states, halved = work[active], [], []
                for _ in range(_HALVING_BLOCK):
                    vals12 = state[:, _MERGE_COLUMNS]
                    big = vals12 > 1
                    halved.append(big.any(axis=1))
                    rows = np.flatnonzero(halved[-1])
                    pick = np.argmax(np.where(big, vals12, 0), axis=1)[rows]
                    state = state.copy()
                    state[rows, _MERGE_COLUMNS[pick]] //= 2
                    states.append(state)
                block = canonicalize_matrix(self.pattern, np.concatenate(states))
                ok = resource_ok(block).reshape(_HALVING_BLOCK, -1).T
                block = block.reshape(_HALVING_BLOCK, active.size, -1)
                halved = np.stack(halved, axis=1)
                # A row ends at its first passing state, or at a dead end,
                # which keeps the violation of the state before it; the
                # others go on from the block's last state.
                stop = ok | ~halved
                ends = stop.any(axis=1)
                first = stop.argmax(axis=1)
                final = np.where(ends, first - ~halved[np.arange(active.size), first],
                                 _HALVING_BLOCK - 1)
                rows = np.flatnonzero(final >= 0)
                cand[active[rows]] = block[final[rows], rows]
                active = active[~ends]
                work[active] = state[~ends]
        return cand

    # -- sampling --------------------------------------------------------

    @cached_property
    def _tiles(self) -> _Tiles:
        """The sampler's candidate tables, built on first use."""
        return _Tiles(self)

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
        then merge triple uniform within the TB), as :attr:`_tiles` holds
        them for a key the sampler reaches.
        """
        return self._tiles.candidates[dim, budget, uf_cap, stream]

    def _ppt_budget(self) -> int:
        """Heuristic cap on merged points per thread.

        The register model charges roughly ``2 * outputs + 1`` registers
        per merged point, so settings beyond this budget are certain to
        spill; pre-filtering keeps the sampler's rejection rate low.
        Only a bias — the real resource check still has the last word.
        """
        return max(4, 200 // (2 * self.pattern.outputs + 1))

    def _decode(self, halves: np.ndarray, starts: int) -> tuple[np.ndarray, list]:
        """A speculative construction attempt at each of the first
        ``starts`` offsets of ``halves``: its end cursor and its draws.

        An attempt draws the switches, ``SD`` / ``SB`` when streaming, the
        shuffled dimension order and, per dimension, a TB group and a tile
        in it from its work budget's key (see :class:`_Tiles`). Each draw
        runs over all cursors; only those whose draw rejected read on. A
        cursor that ran past ``len(halves)`` marks an incomplete attempt.
        """
        tiles, size = self._tiles, len(halves)
        halves = np.append(halves, np.zeros(5, halves.dtype))  # in-step switches
        c = np.arange(starts)

        def integers(k: np.ndarray, thr: np.ndarray, step: np.ndarray) -> np.ndarray:
            m = halves.take(c, mode="clip") * k
            c[:] += step
            redo = np.flatnonzero(m & 0xFFFFFFFF < thr)
            while redo.size:  # the biased sliver: read on, if there is more
                past = c[redo] >= size
                c[redo[past]] = size + 1
                redo = redo[~past]
                m[redo] = halves[c[redo]] * k[redo]
                c[redo] += 1
                redo = redo[m[redo] & 0xFFFFFFFF < thr[redo]]
            return m >> 32

        # Until a draw could reject, every cursor is its start plus one
        # offset, so a power-of-two switch (which never rejects) is one
        # shifted slice; the general draw would gather, test and scan.
        picks, in_step = [], True
        for k in (self.param(name).cardinality for name in _DRAWN[:5]):
            in_step = in_step and not k & (k - 1)
            if in_step:
                picks.append(halves[c[0]:c[0] + starts] >> (33 - k.bit_length()))
                c += k > 1
            else:
                picks.append(integers(*np.repeat(_draws([k]), starts, axis=0).T))
        stream = self.param("useStreaming").values_array[picks[2]] == 2
        picks.append(integers(*tiles.sd[:, None] * stream))
        picks.append(integers(*tiles.sb.take((picks[5] + 1) * stream, axis=0).T))
        # ``shuffle([1, 2, 3])``: ``random_interval(2)`` reads on past a
        # masked 3, ``random_interval(1)`` never.
        pair = (halves[:size] & 3) * 2
        nxt = np.where(pair != 6, np.arange(size), size)
        nxt = np.append(np.minimum.accumulate(nxt[::-1])[::-1], size)
        at = nxt.take(c, mode="clip")
        pair[:-1] += halves[1:size] & 1
        order = pair.take(at, mode="clip")
        c[:] = at + 2
        code = (1 + picks[5] * len(self.param("SB").values) + picks[6]) * stream
        lead = order * (tiles.lead.shape[1] // len(_DIM_ORDERS)) + code
        budget, tids = len(tiles.budgets) - 1, []
        for stage in tiles.lead:
            key = tiles.keys.take(stage.take(lead, mode="clip") + budget, axis=0)
            group = tiles.groups.take(key[:, 3] + integers(*key[:, :3].T), axis=0)
            entry = tiles.entries.take(group[:, 3] + integers(*group[:, :3].T), axis=0)
            tids.append(entry[:, 0])
            budget = entry[:, 1]
        return c, [*picks, order, *tids, budget]

    def _valid_rows(self, fields: np.ndarray) -> tuple[list, np.ndarray]:
        """The valid value rows of decoded attempts, one per column of
        ``fields`` (:meth:`_decode`'s draws), and which attempts they are:
        not dead-ended, thread block within budget, valid in one screen."""
        n = fields.shape[1]
        values = np.empty((len(PARAMETER_ORDER), n), dtype=np.int64)
        stages = _DIM_STAGES.take(fields[7], axis=0)
        for d, s in enumerate("xyz"):
            tid = fields.ravel().take((8 + stages[:, d]) * n + np.arange(n))
            rows = [PARAM_INDEX[p + s] for p in ("TB", "UF", "CM", "BM")]
            values[rows] = self._tiles.tuples.take(tid, axis=1)
        for j, name in enumerate(_DRAWN):
            values[PARAM_INDEX[name]] = self.param(name).values_array.take(fields[j])
        unstreamed = values[PARAM_INDEX["useStreaming"]] != 2
        for name in ("SD", "SB", "usePrefetching"):
            values[PARAM_INDEX[name], unstreamed] = 1
        tb = values[[PARAM_INDEX["TBx"], PARAM_INDEX["TBy"], PARAM_INDEX["TBz"]]]
        ok = (tb.prod(axis=0) <= MAX_THREADS_PER_BLOCK) & (fields[11] > 0)
        ok[ok] = self._batch_valid_matrix(values.T[ok])
        return values.T[ok].tolist(), ok

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

        The per-call loop's draws, in chunks of as many attempts as settings
        are still wanted; ``draws`` (duplicates included) count against
        ``limit``, failed attempts in a row against ``max_misses``. A round
        decodes blocks of speculative starts (:meth:`_decode`), follows the
        chain of real attempts from the cursor, screens their rows in one
        :meth:`_batch_valid_matrix` call and walks them with the chunk,
        miss, draw and ``unique`` rules. The generator ends where the
        per-call draws leave it: after the last chunk, or the chunk holding
        the ``max_misses``-th miss in a row.
        """
        draw = _PCG64Replay(rng)
        out: list[Setting] = []
        seen: set[tuple[int, ...]] = set()
        draws = misses = 0
        error: SearchError | None = None
        pos, room, left = None, _SETTING_HALVES, min(n, limit)  # left: in the chunk
        try:
            while left > 0:
                wanted = min(n - len(out), limit - draws)
                want = min(_SETTING_HALVES * wanted + _SPARE_HALVES, _ROUND_HALVES)
                span, fields, ends = 0, [], []
                while span < want:
                    starts = min(_BLOCK_STARTS, want - span)
                    halves, pos = draw.block(span + starts + room, pos)
                    size = starts + room
                    stops, drawn = self._decode(halves[pos + span:][:size], starts)
                    stops, chain, p = stops.tolist(), [], 0
                    while p < starts and stops[p] <= size:
                        chain.append(p)
                        p = stops[p]
                    if not chain:  # the first attempt ran past the halves
                        room *= 2
                        continue
                    chain = np.array(chain)
                    fields.append(np.array([f.take(chain) for f in drawn], np.int32))
                    del drawn  # before the next block's decode
                    ends.append(span + np.append(chain[1:], p))
                    span += p
                valid, ok = self._valid_rows(np.concatenate(fields, axis=1))
                kept = map(tuple, valid)
                at = np.arange(len(ok))
                last = np.maximum.accumulate(np.where(ok, at, -1))
                run = np.where(ok, 0, at - last + misses * (last < 0))  # run of misses
                stop = np.append(np.flatnonzero(run >= max_misses), len(ok))[0]
                i = 0
                while True:
                    j = min(i + left, len(ok))
                    if error is None:
                        count = int(np.count_nonzero(ok[i:min(j, stop)]))
                        draws += count
                        rows = islice(kept, count)
                        if unique:  # first sightings only (``add`` returns None)
                            rows = [r for r in rows if not (r in seen or seen.add(r))]
                        out += map(Setting._from_row, rows)
                        if stop < j:
                            error = _over_constrained(max_misses)
                    left -= j - i
                    i = j
                    if left or error is not None or len(out) == n or draws == limit:
                        break
                    left = min(n - len(out), limit - draws)
                misses = int(run[i - 1])
                pos += int(np.concatenate(ends)[i - 1])
            if error is not None:
                raise error
        finally:
            draw.sync(pos)
        if len(out) < n:
            raise SearchError(f"only found {len(out)} of {n} distinct valid settings")
        return out

    def random_setting(
        self, rng: np.random.Generator, *, max_tries: int = _MAX_DRAW_TRIES
    ) -> Setting:
        """Draw one valid setting, approximately uniform over valid space.

        Constraint-aware construction (per-dimension work-tile tuples,
        a per-thread work budget matching the register model, gated
        streaming parameters) keeps the rejection rate low even though
        unconstrained uniform sampling would be valid well under 1 % of
        the time. This is the sampler of :meth:`sample` for one setting;
        ``max_tries`` attempts in a row that all fail raise
        :class:`~repro.errors.SearchError`. ``rng`` must be a PCG64
        generator (:func:`numpy.random.default_rng`).
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
        same state. Attempts are decoded a block of the generator's raw
        words at a time and validity-screened in batch, instead of one
        ``rng.integers`` call per value. At most ``max(1, n) *
        max_tries_factor`` valid draws are made; 500 failed attempts in
        a row raise :class:`~repro.errors.SearchError`.
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
        """Inverse of :meth:`encode` (with gating repair applied): one row
        of :meth:`decode_matrix`."""
        (row,) = self.decode_matrix(np.asarray(indices)[None]).tolist()
        return Setting._from_row(tuple(row))

    def decode_matrix(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`decode` over an ``(n, 19)`` index matrix.

        Returns the repaired ``(n, 19)`` value matrix: each index clipped
        into its parameter's domain, its value looked up, and the row
        then gating-repaired as :meth:`repair` does. One gather from the
        padded domain table; the values are in their domains already, so
        only the gating repair is left.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != len(PARAMETER_ORDER):
            raise ValueError(
                f"expected an (n, {len(PARAMETER_ORDER)}) index matrix, "
                f"got shape {indices.shape}"
            )
        table, top, _, _ = self._domains
        values = table[np.arange(len(top)), COLUMNS.clip(indices, 0, top)]
        return canonicalize_matrix(self.pattern, values)

    def estimate_valid_fraction(
        self, rng: np.random.Generator, n: int = 2000
    ) -> float:
        """Monte-Carlo estimate of the valid fraction of the nominal space."""
        if n <= 0:
            raise ValueError(f"sample count must be positive, got {n}")
        # One integer per parameter per row, in ``self.parameters``
        # order: the same stream as one ``rng.integers`` call per value.
        cards = [p.cardinality for p in self.parameters]
        cols = [PARAM_INDEX[p.name] for p in self.parameters]
        indices = rng.integers(0, cards, size=(n, len(cards)))
        values = self._domains[0][cols, indices][:, np.argsort(cols)]
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
