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
from repro.gpusim.simulator import BatchModel, GpuSimulator, MeasuredRun
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
        #: The last pricing pass of :meth:`evaluate_many`, kept for reuse.
        self._model: BatchModel | None = None
        #: Batch index after which the last :meth:`evaluate_many` call
        #: found the budget exhausted (``None``: it never was).
        self.exhausted_at: int | None = None
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

    def evaluate_many(
        self, settings: Sequence[Setting], upcoming: Sequence[Setting] = ()
    ) -> list[float | None]:
        """Evaluate a batch of settings; one result slot per setting.

        Results, budget accounting, caching, noise seeding, the
        best-so-far trace, the simulator's call stream, its
        ``cache_info()`` and its store journal are exactly what a loop
        of :meth:`evaluate` calls would produce, with or without a cost
        budget and with tracing on or off.

        The settings a sequential loop would send to the simulator form
        the *stream*: every occurrence not yet cached, except repeats of
        a valid setting, which the loop serves from its cache. One
        :meth:`GpuSimulator.run_batch` commits the admitted prefix of
        it. A pure model pass (:meth:`GpuSimulator.model_batch`) prices
        the stream first: validity decides which repeats reach the
        simulator, the costs where a cost budget cuts the stream, and
        the commit reuses the values.

        ``upcoming``, the rest of a stream the caller already knows (a
        sweep's later chunks), is priced in the same pass. The evaluator
        keeps the pass and commits a later call's stream from it while
        it covers it; results are the same with or without it (see
        :meth:`GpuSimulator.run_batch`).

        A cost budget that runs out mid-batch is handled as the
        sequential loop handles it: the budget is checked before each
        stream entry, so the entry that crosses ``max_cost_s`` is still
        measured and charged, and every later one is not. Settings past
        that point get ``None`` unless the evaluator's cache already
        holds them (cached settings are served even when exhausted).
        :attr:`exhausted_at` reports the batch index after which
        :attr:`exhausted` first held — where a caller that stops on
        exhaustion would have stopped — or ``None``.
        """
        settings = list(settings)
        with obs.span("phase.measurement", n=len(settings)) as span:
            out, cached, admitted = self._evaluate_many_bulk(settings, upcoming)
            span.set(cached=cached, admitted=admitted)
            return out

    def _evaluate_many_bulk(
        self, settings: list[Setting], upcoming: Sequence[Setting]
    ) -> tuple[list[float | None], int, int]:
        """Price, cut and commit one batch; returns (results, cached,
        admitted)."""
        cache = self._cache
        if self.exhausted:
            # evaluate() serves cached settings even when exhausted.
            self.exhausted_at = 0 if settings else None
            out = [cache.get(s) for s in settings]
            return out, len(out) - out.count(None), 0
        sim, pattern = self.simulator, self.pattern
        limit = self.budget.max_cost_s
        uncached = [s for s in settings if s not in cache]
        stream = list(dict.fromkeys(uncached))
        if not stream:
            return (*self._book(settings, []), 0)
        model = self._model
        if model is None or not model.covers(stream):
            model = self._model = sim.model_batch(pattern, [*stream, *upcoming])
        if len(stream) < len(uncached):
            # Validity decides which repeats reach the simulator:
            # invalid ones do, valid ones hit the cache.
            stream = []
            queued: set[Setting] = set()
            for s in uncached:
                if s not in queued:
                    if model.is_valid(s):
                        queued.add(s)
                    stream.append(s)
        if limit is not None:
            # The budget gate evaluate() runs before each measurement,
            # over the same float additions in the same order.
            spent = self.cost_s
            charge = sim.compile_cost_s if self.charge_invalid else 0.0
            for k, cost in enumerate(sim.tuning_costs(pattern, stream, model)):
                if spent >= limit:
                    del stream[k:]
                    break
                spent += charge if cost is None else cost
        runs: list[MeasuredRun | None] = []
        if stream:
            runs = sim.run_batch(pattern, stream, on_invalid="skip", model=model)
        out, cached = self._book(settings, runs)
        return out, cached, len(stream)

    def _book(
        self, settings: list[Setting], runs: list[MeasuredRun | None]
    ) -> tuple[list[float | None], int]:
        """Per-setting bookkeeping over the committed stream's runs, in
        :meth:`evaluate` order; returns (results, cache hits)."""
        cache = self._cache
        limit = self.budget.max_cost_s
        trace = self.trace
        out: list[float | None] = []
        append = out.append
        exhausted_at = None
        p = cached = 0
        for i, s in enumerate(settings):
            t = cache.get(s)
            if t is not None:
                cached += 1
            elif p < len(runs):
                run = runs[p]
                p += 1
                if run is None:  # invalid candidate
                    if self.charge_invalid:
                        self.cost_s += self.simulator.compile_cost_s
                else:
                    self.evaluations += 1
                    self.cost_s += run.tuning_cost_s
                    t = run.time_s
                    cache[s] = t
                    if t < self.best_time_s:
                        self.best_time_s = t
                        self.best_setting = s
                        trace.append(
                            TracePoint(
                                self.evaluations, self.iteration, self.cost_s,
                                self.best_time_s,
                            )
                        )
                if exhausted_at is None and limit is not None and self.cost_s >= limit:
                    exhausted_at = i
            append(t)
        self.exhausted_at = exhausted_at
        return out, cached

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
