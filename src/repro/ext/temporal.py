"""Temporal blocking as an additional tuning parameter.

Temporal blocking (AN5D, Matsumura et al., CGO'20) fuses ``T``
consecutive time steps of an iterative stencil into one kernel pass:
off-chip traffic is paid once per pass instead of once per step, at the
cost of redundant halo computation that grows with ``T`` and the
stencil order.

``TemporalSpace`` extends any stencil :class:`~repro.space.space.SearchSpace`
with the ``TBT`` parameter (time steps per pass, power of two). Its
value matrices have 20 columns, :data:`TEMPORAL_ORDER`: the base
space's 19, then ``TBT``; validity, repair and decoding work on them as
the base space's matrix primitives do. ``TemporalSimulator`` is a
:class:`~repro.gpusim.simulator.GpuSimulator` whose model pass prices
the fused pass as columns, scaling the model's compute, memory, sync
and launch terms, and reports *per-time-step* cost so settings with
different ``TBT`` compare directly. csTuner and the baselines tune the
extended space through the same protocol as the base one.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.codegen.plan import PlanArrays
from repro.errors import SearchError
from repro.gpusim import model as _model
from repro.gpusim.noise import roughness_factors
from repro.gpusim.records import MetricsTable
from repro.gpusim.simulator import BatchModel, GpuSimulator
from repro.space.parameters import (
    PARAM_INDEX,
    PARAMETER_ORDER,
    Parameter,
    ParameterKind,
)
from repro.space.setting import Setting, settings_from_matrix, settings_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern

#: Name of the added parameter: time steps fused per kernel pass.
TEMPORAL_PARAMETER = "TBT"

#: Column order of an extended setting: the base row, then ``TBT``.
TEMPORAL_ORDER: tuple[str, ...] = PARAMETER_ORDER + (TEMPORAL_PARAMETER,)

#: Domain of the temporal blocking factor.
_TBT_VALUES: tuple[int, ...] = (1, 2, 4, 8)

_STREAMING, _SD, _SB = (PARAM_INDEX[n] for n in ("useStreaming", "SD", "SB"))


class TemporalSpace:
    """A stencil search space extended with the ``TBT`` parameter."""

    def __init__(self, base: SearchSpace) -> None:
        self.base = base
        self.pattern: StencilPattern = base.pattern
        self._tbt_param = Parameter(
            TEMPORAL_PARAMETER, ParameterKind.POW2, _TBT_VALUES
        )
        self.parameters = tuple(base.parameters) + (self._tbt_param,)

    @property
    def names(self) -> tuple[str, ...]:
        return TEMPORAL_ORDER

    def param(self, name: str) -> Parameter:
        if name == TEMPORAL_PARAMETER:
            return self._tbt_param
        return self.base.param(name)

    def nominal_size(self) -> int:
        return self.base.nominal_size() * len(_TBT_VALUES)

    def _one(self, rows: np.ndarray) -> Setting:
        (setting,) = settings_from_matrix(rows, TEMPORAL_ORDER)
        return setting

    @staticmethod
    def _row(values: Mapping[str, int]) -> np.ndarray:
        """A ``(1, 20)`` matrix of ``values`` (``TBT`` 1 when absent)."""
        row = [values[n] for n in PARAMETER_ORDER]
        return np.array([row + [values.get(TEMPORAL_PARAMETER, 1)]], dtype=np.int64)

    def _clip_tbt(self, tbt: np.ndarray) -> np.ndarray:
        """Nearest ``TBT`` domain value (ties downward, as ``clip``)."""
        d = self._tbt_param.values_array
        return d[np.searchsorted(d[:-1] + d[1:], 2 * np.asarray(tbt, np.int64))]

    # -- validity ------------------------------------------------------------

    def violation(self, setting: Setting) -> str | None:
        tbt = setting[TEMPORAL_PARAMETER]
        if not self._tbt_param.contains(tbt):
            return f"{TEMPORAL_PARAMETER}={tbt} outside domain"
        if tbt > 1:
            if not setting.enabled("useStreaming"):
                return "temporal blocking requires streaming"
            halo, extent = self._halo_and_extent(setting["SD"], setting["SB"], tbt)
            if halo >= extent:
                return f"temporal halo {halo} swallows the stream tile ({extent})"
        base = Setting({n: setting[n] for n in PARAMETER_ORDER})
        return self.base.violation(base)

    def _halo_and_extent(self, sd: Any, sb: Any, tbt: Any) -> tuple[Any, Any]:
        """The fused halo ``2 * order * TBT`` and the streaming tile it
        must fit, ``max(1, grid[SD - 1] // SB)``; a row or columns."""
        grid = np.asarray(self.pattern.grid)
        extent = grid[np.clip(sd, 1, 3) - 1] // np.maximum(sb, 1)
        return 2 * self.pattern.order * tbt, np.maximum(1, extent)

    def is_valid(self, setting: Setting) -> bool:
        return self.violation(setting) is None

    def _batch_valid(self, settings: Sequence[Setting]) -> np.ndarray:
        return self._batch_valid_matrix(settings_matrix(settings, TEMPORAL_ORDER))

    def _batch_valid_matrix(self, values: np.ndarray) -> np.ndarray:
        """:meth:`is_valid` over a ``(n, 20)`` value matrix."""
        values = np.asarray(values, dtype=np.int64)
        tbt = values[:, -1]
        halo, extent = self._halo_and_extent(values[:, _SD], values[:, _SB], tbt)
        fused = (values[:, _STREAMING] == 2) & (halo < extent)
        ok = np.isin(tbt, self._tbt_param.values_array) & ((tbt <= 1) | fused)
        if ok.any():
            ok[ok] = self.base._batch_valid_matrix(values[ok, :-1])
        return ok

    # -- repair and decoding -----------------------------------------------

    def repair_matrix(self, values: np.ndarray) -> np.ndarray:
        """Domain and gating repair: ``TBT`` clipped, and 1 unless the
        repaired base row streams."""
        values = np.asarray(values, dtype=np.int64)
        base = self.base.repair_matrix(values[:, :-1])
        tbt = np.where(base[:, _STREAMING] == 2, self._clip_tbt(values[:, -1]), 1)
        return np.column_stack([base, tbt])

    def repair(self, values: Mapping[str, int]) -> Setting:
        return self._one(self.repair_matrix(self._row(values)))

    def repair_full_matrix(self, values: np.ndarray) -> np.ndarray:
        """Project rows onto the valid set: the base row's full repair,
        then ``TBT`` (clipped) halved until the row is valid."""
        values = np.asarray(values, dtype=np.int64)
        out = np.column_stack([
            self.base.repair_full_matrix(values[:, :-1]),
            self._clip_tbt(values[:, -1]),
        ])
        rows = np.flatnonzero(out[:, -1] > 1)
        while rows.size:
            rows = rows[~self._batch_valid_matrix(out[rows])]
            out[rows, -1] //= 2
            rows = rows[out[rows, -1] > 1]
        return out

    def repair_full(self, values: Mapping[str, int]) -> Setting:
        return self._one(self.repair_full_matrix(self._row(values)))

    def decode_matrix(self, indices: np.ndarray) -> np.ndarray:
        """``(n, 20)`` index matrix → repaired value matrix."""
        indices = np.asarray(indices, dtype=np.int64)
        base = self.base.decode_matrix(indices[:, :-1])
        top = self._tbt_param.cardinality - 1
        tbt = self._tbt_param.values_array[np.clip(indices[:, -1], 0, top)]
        return self.repair_matrix(np.column_stack([base, tbt]))

    def decode(self, indices: np.ndarray) -> Setting:
        return self._one(self.decode_matrix(np.asarray(indices)[None]))

    def encode(self, setting: Setting) -> np.ndarray:
        return np.array(
            [self.param(n).index_of(setting[n]) for n in TEMPORAL_ORDER],
            dtype=np.int64,
        )

    # -- sampling and neighbourhoods ---------------------------------------

    def _draws(self, rng: np.random.Generator, k: int, **kw: Any) -> list[Setting]:
        """``k`` draws, each a base setting and then its ``TBT``, fully
        repaired in one matrix call."""
        rows = [
            (*self.base.random_setting(rng, **kw).values_tuple(),
             _TBT_VALUES[int(rng.integers(len(_TBT_VALUES)))])
            for _ in range(k)
        ]
        repaired = self.repair_full_matrix(np.array(rows, dtype=np.int64))
        return settings_from_matrix(repaired, TEMPORAL_ORDER)

    def random_setting(self, rng: np.random.Generator, **kw: Any) -> Setting:
        (setting,) = self._draws(rng, 1, **kw)
        return setting

    def sample(
        self, rng: np.random.Generator, n: int, *, unique: bool = True,
        max_tries_factor: int = 50,
    ) -> list[Setting]:
        """The settings, in order, that repeated :meth:`random_setting`
        calls draw (duplicates skipped when ``unique``), at most ``n *
        max_tries_factor`` draws. A draw adds at most one setting, so a
        round of as many draws as settings are still wanted never draws
        past where the per-call loop stops."""
        out: list[Setting] = []
        seen: set[Setting] = set()
        tries, limit = 0, n * max_tries_factor
        while len(out) < n and tries < limit:
            batch = self._draws(rng, min(n - len(out), limit - tries))
            tries += len(batch)
            for s in batch:
                if unique and s in seen:
                    continue
                seen.add(s)
                out.append(s)
        if len(out) < n:
            raise SearchError(f"only {len(out)} of {n} extended settings")
        return out

    def neighbors(self, setting: Setting) -> list[Setting]:
        """Valid one-step moves: one parameter nudged one domain index."""
        rows = []
        for name in TEMPORAL_ORDER:
            p = self.param(name)
            idx = p.index_of(setting[name])
            for j in (idx - 1, idx + 1):
                if 0 <= j < p.cardinality:
                    rows.append({**setting, name: p.values[j]})
        if not rows:
            return []
        moved = self.repair_matrix(
            np.array([[r[n] for n in TEMPORAL_ORDER] for r in rows], dtype=np.int64)
        )
        ok = self._batch_valid_matrix(moved)
        cands = settings_from_matrix(moved[ok], TEMPORAL_ORDER)
        return [s for s in cands if s != setting]


def _temporal_row(setting: Setting) -> tuple[int, ...]:
    return setting.values_tuple(TEMPORAL_ORDER)


def _items_repr(setting: Setting) -> str:
    return repr(tuple(sorted(setting.items())))


class TemporalSimulator(GpuSimulator):
    """Per-time-step cost model for temporally-blocked passes.

    A pass fusing ``T`` steps performs the computation of ``T`` sweeps
    plus redundant halo updates (growing with ``order * T``), but pays
    the off-chip traffic roughly once. The model pass reuses the base
    model's compute/memory/sync/launch decomposition of each row and
    reports pass time divided by ``T``, with a landscape roughness of
    its own per ``T``. Settings are keyed by all 20 values; the metrics
    are the base model's (its time as ``elapsed_time``), then
    ``temporal_blocking_factor``.
    """

    _token = staticmethod(_temporal_row)
    _noise_key = staticmethod(_items_repr)

    def _lower(self, settings: Sequence[Setting]) -> np.ndarray:
        return settings_matrix(settings, TEMPORAL_ORDER)

    def _valid_rows(
        self, pattern: StencilPattern, values: np.ndarray, arrays: PlanArrays
    ) -> np.ndarray:
        fused = values[:, -1] > 1
        streaming = values[:, _STREAMING] == 2
        return super()._valid_rows(pattern, values, arrays) & (~fused | streaming)

    def _timed(
        self, pattern: StencilPattern, values: np.ndarray, result: _model.BatchResult
    ) -> tuple[np.ndarray, MetricsTable]:
        _, metrics = super()._timed(pattern, values, result)
        tbt, timing = values[:, -1], result.timing
        # Redundant halo work: each fused step t recomputes a shell of
        # width order*t around its tile.
        redundancy = 1.0 + 0.06 * pattern.order * (tbt - 1)
        compute_pass = timing.compute_s * tbt * redundancy
        # Off-chip traffic amortizes across the fused steps, with a
        # residual per-step component (intermediate spill, halos).
        memory_pass = timing.memory_s * (1.0 + 0.25 * (tbt - 1))
        pass_time = (
            np.maximum(compute_pass, memory_pass)
            + 0.2 * np.minimum(compute_pass, memory_pass)
            + timing.sync_s * tbt
            + timing.launch_s
        )
        rough = np.empty(len(tbt))
        for t in np.unique(tbt).tolist():
            rows = np.flatnonzero(tbt == t)
            rough[rows] = roughness_factors(
                self.device.name, f"{pattern.name}+tbt{t}", values[rows, :-1].tolist()
            )
        factor = tbt.astype(np.float64)
        return pass_time * rough / tbt, metrics.with_column(
            "temporal_blocking_factor", factor
        )

    def _price_rows(
        self, pattern: StencilPattern, todo: list[Setting], model: BatchModel
    ) -> None:
        """Temporal passes are priced as columns at every batch size."""
        if todo:
            self._price_columns(pattern, todo, model)

    def violation(self, pattern: StencilPattern, setting: Setting) -> str | None:
        if setting[TEMPORAL_PARAMETER] > 1 and not setting.enabled("useStreaming"):
            return "temporal blocking requires streaming"
        return super().violation(pattern, setting)
