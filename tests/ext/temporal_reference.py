"""Per-setting reference for :mod:`repro.ext.temporal`.

The temporal-blocking extension as it was written before it joined the
matrix protocol: ``TemporalSpace`` validates, repairs and decodes one
setting at a time, and ``TemporalSimulator`` wraps a base
:class:`~repro.gpusim.simulator.GpuSimulator`, pricing each setting
from the base model's row timing and taking its metrics from a
``base.run``. ``tests/ext/test_temporal_reference.py`` checks the live
matrix-path classes against it row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidSettingError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.simulator import GpuSimulator, MeasuredRun
from repro.space.parameters import Parameter, ParameterKind
from repro.space.setting import Setting
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern
from repro.utils.hashing import stable_hash

#: Name of the added parameter: time steps fused per kernel pass.
TEMPORAL_PARAMETER = "TBT"

#: Domain of the temporal blocking factor.
_TBT_VALUES: tuple[int, ...] = (1, 2, 4, 8)


def _split(setting: Setting) -> tuple[Setting, int]:
    """Extended setting → (base stencil setting, TBT)."""
    values = setting.to_dict()
    tbt = values.pop(TEMPORAL_PARAMETER, 1)
    return Setting(values), tbt


class TemporalSpace:
    """A stencil search space extended with the ``TBT`` parameter."""

    def __init__(self, base: SearchSpace) -> None:
        self.base = base
        self.pattern: StencilPattern = base.pattern
        self._tbt_param = Parameter(
            TEMPORAL_PARAMETER, ParameterKind.POW2, _TBT_VALUES
        )
        self.parameters = tuple(base.parameters) + (self._tbt_param,)

    # -- protocol ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.base.names) + (TEMPORAL_PARAMETER,)

    def param(self, name: str) -> Parameter:
        if name == TEMPORAL_PARAMETER:
            return self._tbt_param
        return self.base.param(name)

    def nominal_size(self) -> int:
        return self.base.nominal_size() * len(_TBT_VALUES)

    def violation(self, setting: Setting) -> str | None:
        base_setting, tbt = _split(setting)
        if not self._tbt_param.contains(tbt):
            return f"{TEMPORAL_PARAMETER}={tbt} outside domain"
        if tbt > 1:
            if not base_setting.enabled("useStreaming"):
                return "temporal blocking requires streaming"
            # The fused halo (order * TBT) must fit the streaming tile.
            sd = base_setting["SD"]
            extent = self.pattern.grid[sd - 1] // base_setting["SB"]
            if 2 * self.pattern.order * tbt >= max(1, extent):
                return (
                    f"temporal halo {2 * self.pattern.order * tbt} swallows "
                    f"the stream tile ({extent})"
                )
        return self.base.violation(base_setting)

    def is_valid(self, setting: Setting) -> bool:
        return self.violation(setting) is None

    def repair(self, values: dict[str, int]) -> Setting:
        vals = dict(values)
        tbt = self._tbt_param.clip(int(vals.pop(TEMPORAL_PARAMETER, 1)))
        base = self.base.repair(vals)
        if not base.enabled("useStreaming"):
            tbt = 1
        return Setting({**base.to_dict(), TEMPORAL_PARAMETER: tbt})

    def repair_full(self, values: dict[str, int]) -> Setting:
        vals = dict(values)
        tbt = self._tbt_param.clip(int(vals.pop(TEMPORAL_PARAMETER, 1)))
        base = self.base.repair_full(vals)
        candidate = Setting({**base.to_dict(), TEMPORAL_PARAMETER: tbt})
        while tbt > 1 and self.violation(candidate) is not None:
            tbt //= 2
            candidate = Setting({**base.to_dict(), TEMPORAL_PARAMETER: tbt})
        return candidate

    def random_setting(self, rng: np.random.Generator, **kw) -> Setting:
        base = self.base.random_setting(rng, **kw)
        tbt = _TBT_VALUES[int(rng.integers(len(_TBT_VALUES)))]
        candidate = Setting({**base.to_dict(), TEMPORAL_PARAMETER: tbt})
        return self.repair_full(candidate.to_dict())

    def sample(
        self, rng: np.random.Generator, n: int, *, unique: bool = True,
        max_tries_factor: int = 50,
    ) -> list[Setting]:
        out: list[Setting] = []
        seen: set[Setting] = set()
        tries = 0
        while len(out) < n and tries < n * max_tries_factor:
            tries += 1
            s = self.random_setting(rng)
            if unique and s in seen:
                continue
            seen.add(s)
            out.append(s)
        if len(out) < n:
            from repro.errors import SearchError

            raise SearchError(f"only {len(out)} of {n} extended settings")
        return out

    def encode(self, setting: Setting) -> np.ndarray:
        base_setting, tbt = _split(setting)
        base_vec = self.base.encode(base_setting)
        return np.append(base_vec, self._tbt_param.index_of(tbt))

    def decode(self, indices: np.ndarray) -> Setting:
        base = self.base.decode(np.asarray(indices)[:-1])
        idx = int(np.clip(indices[-1], 0, self._tbt_param.cardinality - 1))
        return self.repair(
            {**base.to_dict(), TEMPORAL_PARAMETER: self._tbt_param.values[idx]}
        )

    def neighbors(self, setting: Setting) -> list[Setting]:
        base_setting, tbt = _split(setting)
        out = [
            self.repair({**n.to_dict(), TEMPORAL_PARAMETER: tbt})
            for n in self.base.neighbors(base_setting)
        ]
        idx = self._tbt_param.index_of(tbt)
        for step in (-1, 1):
            j = idx + step
            if 0 <= j < self._tbt_param.cardinality:
                cand = Setting(
                    {**base_setting.to_dict(),
                     TEMPORAL_PARAMETER: self._tbt_param.values[j]}
                )
                if self.is_valid(cand):
                    out.append(cand)
        return [s for s in out if s != setting and self.is_valid(s)]


@dataclass
class TemporalSimulator:
    """Per-time-step cost model for temporally-blocked passes.

    A pass fusing ``T`` steps performs the computation of ``T`` sweeps
    plus redundant halo updates (growing with ``order * T``), but pays
    the off-chip traffic roughly once. We reuse the base simulator's
    compute/memory decomposition and report pass time divided by ``T``.
    """

    base: GpuSimulator
    seed: int = 0
    evaluations: int = 0
    _compiled: set[Setting] = field(default_factory=set, repr=False)

    @property
    def device(self) -> DeviceSpec:
        return self.base.device

    @property
    def compile_cost_s(self) -> float:
        return self.base.compile_cost_s

    @property
    def trials(self) -> int:
        return self.base.trials

    @property
    def noise(self) -> float:
        return self.base.noise

    def _step_time(self, pattern: StencilPattern, setting: Setting) -> float:
        from repro.codegen.plan import build_plan
        from repro.gpusim import model
        from repro.gpusim.noise import roughness_factors

        base_setting, tbt = _split(setting)
        plan = build_plan(pattern, base_setting)
        occ = model.compute_occupancy(plan, self.device)
        if occ.blocks_per_sm < 1:
            raise InvalidSettingError("temporal plan cannot launch")
        traffic = model.compute_traffic(plan, self.device)
        timing = model.compute_timing(plan, self.device, traffic, occ)

        # Redundant halo work: each fused step t recomputes a shell of
        # width order*t around its tile.
        redundancy = 1.0 + 0.06 * pattern.order * (tbt - 1)
        compute_pass = timing.compute_s * tbt * redundancy
        # Off-chip traffic amortizes across the fused steps, with a
        # residual per-step component (intermediate spill, halos).
        memory_pass = timing.memory_s * (1.0 + 0.25 * (tbt - 1))
        sync_pass = timing.sync_s * tbt
        pass_time = (
            max(compute_pass, memory_pass)
            + 0.2 * min(compute_pass, memory_pass)
            + sync_pass
            + timing.launch_s
        )
        rough = roughness_factors(
            self.device.name, pattern.name + f"+tbt{tbt}",
            [base_setting.values_tuple()],
        )[0]
        return pass_time * rough / tbt

    def violation(self, pattern: StencilPattern, setting: Setting) -> str | None:
        base_setting, tbt = _split(setting)
        if tbt > 1 and not base_setting.enabled("useStreaming"):
            return "temporal blocking requires streaming"
        return self.base.violation(pattern, base_setting)

    def true_time(self, pattern: StencilPattern, setting: Setting) -> float:
        reason = self.violation(pattern, setting)
        if reason is not None:
            raise InvalidSettingError(f"{pattern.name}: {reason}")
        return self._step_time(pattern, setting)

    def run(self, pattern: StencilPattern, setting: Setting) -> MeasuredRun:
        true_time = self.true_time(pattern, setting)
        cost = true_time * self.trials
        if setting not in self._compiled:
            self._compiled.add(setting)
            cost += self.compile_cost_s
        measured = true_time
        if self.noise > 0:
            rng = np.random.default_rng(
                stable_hash(self.seed, pattern.name,
                            tuple(sorted(setting.items())), self.evaluations)
            )
            samples = true_time * (1 + self.noise * rng.standard_normal(self.trials))
            measured = float(np.median(np.abs(samples)))
        self.evaluations += 1
        base_setting, tbt = _split(setting)
        metrics = dict(self.base.run(pattern, base_setting).metrics)
        metrics["temporal_blocking_factor"] = float(tbt)
        return MeasuredRun(
            stencil=pattern.name,
            device=self.device.name,
            setting=setting,
            time_s=measured,
            true_time_s=true_time,
            tuning_cost_s=cost,
            metrics=metrics,
        )

    def reset_cost_accounting(self) -> None:
        self._compiled.clear()
        self.evaluations = 0
        self.base.reset_cost_accounting()
