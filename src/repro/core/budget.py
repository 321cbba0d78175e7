"""Budgeted evaluation: the shared currency of tuner comparisons.

Both comparison modes of the paper are expressed as budgets: a fixed
number of iterations (iso-iteration) or a fixed wall-clock search time
(iso-time — 100 seconds in Section V-C, charged as compile time plus
timed kernel trials per distinct candidate). All tuners evaluate
through one :class:`Evaluator`, which enforces the budget, caches
duplicate candidates (re-running a compiled kernel variant is free on
real hardware too, relative to the cache granularity used here), and
records the best-so-far trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.result import TracePoint, TuningResult
from repro.errors import InvalidSettingError
from repro.gpusim.simulator import GpuSimulator, MeasuredRun
from repro.space.setting import Setting
from repro.stencil.pattern import StencilPattern


@dataclass(frozen=True)
class Budget:
    """Stopping criterion: iterations, tuning cost, or both (first hit)."""

    max_iterations: int | None = None
    max_cost_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_iterations is None and self.max_cost_s is None:
            raise ValueError("budget needs max_iterations and/or max_cost_s")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1: {self.max_iterations}")
        if self.max_cost_s is not None and self.max_cost_s <= 0:
            raise ValueError(f"max_cost_s must be > 0: {self.max_cost_s}")


class Evaluator:
    """Budget-enforcing, caching evaluation front-end to the simulator."""

    def __init__(
        self,
        simulator: GpuSimulator,
        pattern: StencilPattern,
        budget: Budget,
        *,
        charge_invalid: bool = False,
    ) -> None:
        self.simulator = simulator
        self.pattern = pattern
        self.budget = budget
        #: Charge compile time for constraint-violating candidates.
        #: csTuner, Garvey and Artemis validate candidates before code
        #: generation (stencil-specific knowledge); a general-purpose
        #: tuner like OpenTuner only discovers invalidity when the
        #: compiled variant fails, paying the compile cost.
        self.charge_invalid = charge_invalid
        self.evaluations = 0
        self.iteration = 0
        self.cost_s = 0.0
        self.best_setting: Setting | None = None
        self.best_time_s = np.inf
        self.trace: list[TracePoint] = []
        self._cache: dict[Setting, float] = {}
        simulator.reset_cost_accounting()

    # -- budget ------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        b = self.budget
        if b.max_iterations is not None and self.iteration >= b.max_iterations:
            return True
        if b.max_cost_s is not None and self.cost_s >= b.max_cost_s:
            return True
        return False

    def end_iteration(self) -> None:
        """Mark an iteration boundary (one GA generation, one batch…)."""
        self.iteration += 1
        self.trace.append(
            TracePoint(self.evaluations, self.iteration, self.cost_s, self.best_time_s)
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, setting: Setting) -> float | None:
        """Measured time for ``setting``; ``None`` if it violates constraints.

        Invalid settings cost nothing: csTuner (and the baselines, to
        keep the comparison fair) check constraints *before* generating
        and running search codes. Duplicate valid settings return the
        cached measurement without additional cost.
        """
        cached = self._cache.get(setting)
        if cached is not None:
            return cached
        if self.exhausted:
            return None
        try:
            # Hot path: branch on the tracing flag instead of paying a
            # no-op context manager per candidate evaluation.
            if obs.tracing():
                with obs.span("phase.measurement", n=1):
                    run = self.simulator.run(self.pattern, setting)
            else:
                run = self.simulator.run(self.pattern, setting)
        except InvalidSettingError:
            if self.charge_invalid:
                self.cost_s += self.simulator.compile_cost_s
            return None
        self.evaluations += 1
        self.cost_s += run.tuning_cost_s
        self._cache[setting] = run.time_s
        if run.time_s < self.best_time_s:
            self.best_time_s = run.time_s
            self.best_setting = setting
            self.trace.append(
                TracePoint(
                    self.evaluations, self.iteration, self.cost_s, self.best_time_s
                )
            )
        return run.time_s

    def evaluate_many(self, settings: Sequence[Setting]) -> list[float | None]:
        """Evaluate a batch of settings; one result slot per setting.

        Results, budget accounting, caching, noise seeding and the
        best-so-far trace are exactly what sequential :meth:`evaluate`
        calls would produce. For a :class:`GpuSimulator` the batch runs
        end-to-end through :meth:`GpuSimulator.run_batch` and the
        per-setting bookkeeping consumes the returned
        :class:`~repro.gpusim.simulator.MeasuredRun` objects directly —
        no per-setting dict or scalar-replay pass. Otherwise (duck-typed
        simulators, cost-bounded budgets whose exhaustion can trip
        mid-batch, active tracing) the batch warms the simulator cache
        and replays each setting through :meth:`evaluate`.
        """
        settings = list(settings)
        with obs.span("phase.measurement", n=len(settings)):
            sim = self.simulator
            if (
                isinstance(sim, GpuSimulator)
                and self.budget.max_cost_s is None
                and not obs.tracing()
            ):
                return self._evaluate_many_bulk(settings)
            true_run_batch = getattr(sim, "_true_run_batch", None)
            if true_run_batch is not None:  # duck-typed simulators: scalar only
                todo = [
                    s
                    for s in settings
                    if s not in self._cache
                    and not sim.cache_contains(self.pattern, s)
                ]
                if todo and not self.exhausted:
                    # Warm the simulator's cache; invalid settings are
                    # skipped here and rediscovered (for charging) by
                    # the scalar replay.
                    true_run_batch(self.pattern, todo, on_invalid="skip")
            return [self.evaluate(s) for s in settings]

    def _evaluate_many_bulk(self, settings: list[Setting]) -> list[float | None]:
        """Bulk :meth:`evaluate_many`: one ``run_batch`` per batch.

        Valid only when exhaustion cannot change mid-batch (iteration
        budgets advance at :meth:`end_iteration`, never inside a batch),
        so the budget gate is hoisted out of the loop and the per-setting
        pass is pure bookkeeping over the batch's ``MeasuredRun`` rows.
        """
        if self.exhausted:
            # evaluate() serves cached settings even when exhausted.
            return [self._cache.get(s) for s in settings]
        sim = self.simulator
        cache = self._cache
        todo: list[Setting] = []
        seen: set[Setting] = set()
        for s in settings:
            if s not in cache and s not in seen:
                seen.add(s)
                todo.append(s)
        run_by: dict[Setting, MeasuredRun | None] = {}
        if todo:
            runs = sim.run_batch(self.pattern, todo, on_invalid="skip")
            run_by = dict(zip(todo, runs))
        out: list[float | None] = []
        append = out.append
        invalid_seen: set[Setting] = set()
        trace = self.trace
        for s in settings:
            t = cache.get(s)
            if t is not None:
                append(t)
                continue
            run = run_by.get(s)
            if run is None:
                # Invalid candidate. The batch already replayed the
                # first occurrence's cache-miss accounting; repeats
                # must miss again, as sequential evaluate() would.
                if s in invalid_seen:
                    try:
                        sim.run(self.pattern, s)
                    except InvalidSettingError:
                        pass
                else:
                    invalid_seen.add(s)
                if self.charge_invalid:
                    self.cost_s += sim.compile_cost_s
                append(None)
                continue
            self.evaluations += 1
            self.cost_s += run.tuning_cost_s
            time_s = run.time_s
            cache[s] = time_s
            if time_s < self.best_time_s:
                self.best_time_s = time_s
                self.best_setting = s
                trace.append(
                    TracePoint(
                        self.evaluations, self.iteration, self.cost_s,
                        self.best_time_s,
                    )
                )
            append(time_s)
        return out

    # -- result assembly ------------------------------------------------------

    def result(
        self,
        tuner: str,
        *,
        phase_seconds: dict[str, float] | None = None,
        meta: dict[str, object] | None = None,
    ) -> TuningResult:
        return TuningResult(
            stencil=self.pattern.name,
            device=self.simulator.device.name,
            tuner=tuner,
            best_setting=self.best_setting,
            best_time_s=float(self.best_time_s),
            evaluations=self.evaluations,
            iterations=self.iteration,
            cost_s=self.cost_s,
            trace=list(self.trace),
            phase_seconds=dict(phase_seconds or {}),
            meta=dict(meta or {}),
        )
