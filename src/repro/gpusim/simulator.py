"""The simulator facade every tuner talks to.

:class:`GpuSimulator` turns (stencil, setting) into a
:class:`MeasuredRun` — execution time plus Nsight-style metrics —
through the plan → occupancy → traffic → timing pipeline, with
deterministic landscape roughness and optional per-measurement noise.

It also accounts the *auto-tuning cost* of an evaluation (compile time
plus timed kernel trials), which is the budget currency of the paper's
iso-time comparisons (Figs 9-11).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.codegen.plan import (
    KernelPlan,
    PlanArrays,
    build_plan,
    build_plan_arrays,
    plans_from_arrays,
)
from repro.errors import InvalidSettingError
from repro.gpusim import diskcache as _diskcache
from repro.gpusim import model as _model
from repro.gpusim import records as _records
from repro.gpusim.device import A100, DeviceSpec
from repro.gpusim.fastrng import standard_normal_rows
from repro.gpusim.noise import roughness_factors
from repro.space.constraints import first_violation
from repro.space.setting import Setting, settings_matrix
from repro.stencil.pattern import StencilPattern
from repro.utils.hashing import hash_prefix

#: NVCC compilation cost charged per distinct kernel variant (seconds).
DEFAULT_COMPILE_COST_S = 0.25

#: Timed repetitions per evaluation (median-of-N measurement).
DEFAULT_TRIALS = 3

#: Default bound on the noise-free evaluation cache (entries). Large
#: enough to hold any single tuning campaign; small enough that
#: paper-scale multi-stencil sweeps cannot grow memory without bound.
DEFAULT_TRUE_CACHE_CAPACITY = 50_000

#: Uncached settings from which a batch is priced as columns: below it,
#: the row op table's per-setting cost beats the column model's fixed
#: cost of small NumPy ops.
COLUMN_BATCH = 8

#: A cache or compile-record key: (stencil name, setting value tuple).
_Key = tuple[str, tuple[int, ...]]


def _median_rows(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=1)`` of finite rows, bit for bit, without its
    fixed cost: the middle of each sorted row, or for an even width the
    mean of the two middles, summed then halved as ``np.mean`` does."""
    a = np.sort(a, axis=1)
    k = a.shape[1] // 2
    return a[:, k] if a.shape[1] % 2 else (a[:, k - 1] + a[:, k]) / 2


@dataclass(frozen=True)
class MeasuredRun:
    """Result of evaluating one setting.

    ``time_s`` is the (noisy) measured kernel time; ``true_time_s`` the
    noise-free model output used as ground truth by the motivation
    experiments; ``tuning_cost_s`` what the evaluation charged against
    an iso-time budget.

    ``metrics`` is a read-only mapping — usually a lazy
    :class:`~repro.gpusim.records.MetricsRow` view shared with the
    evaluation cache, so treat it as immutable and copy
    (``dict(run.metrics)``) before mutating.
    """

    stencil: str
    device: str
    setting: Setting
    time_s: float
    true_time_s: float
    tuning_cost_s: float
    metrics: Mapping[str, float]

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3


@dataclass
class BatchModel:
    """Noise-free values of a batch, from :meth:`GpuSimulator.model_batch`.

    Keyed by each setting's row (``token``, the simulator's): ``invalid``
    holds constraint-violating settings; ``true_times`` the noise-free
    time of every valid one (cached in the simulator's LRU or not);
    ``computed`` the full value (time, metrics, kernel plan) of the
    valid settings the LRU lacked, ``stored`` those of them found in the
    evaluation store and ``gated`` those strict mode checks. Values
    modelled as columns live in ``table`` (row per ``rows``) until a
    commit journals them; a batch priced as rows leaves ``table`` unset
    and journals from ``computed``.
    """

    invalid: set[tuple[int, ...]] = field(default_factory=set)
    true_times: dict[tuple[int, ...], float] = field(default_factory=dict)
    computed: dict[
        tuple[int, ...], tuple[float, Mapping[str, float], KernelPlan]
    ] = field(default_factory=dict)
    stored: set[tuple[int, ...]] = field(default_factory=set)
    gated: set[tuple[int, ...]] = field(default_factory=set)
    table: _records.MetricsTable | None = None
    rows: dict[tuple[int, ...], int] = field(default_factory=dict)
    token: Callable[[Setting], tuple[int, ...]] = Setting.values_tuple

    def is_valid(self, setting: Setting) -> bool:
        return self.token(setting) not in self.invalid

    def covers(self, settings: Sequence[Setting]) -> bool:
        """Does this model price every one of ``settings``?"""
        times, invalid, token = self.true_times, self.invalid, self.token
        return all((t := token(s)) in times or t in invalid for s in settings)


@dataclass
class GpuSimulator:
    """Analytical GPU simulator with evaluation caching.

    Every evaluation is committed through one path, :meth:`run_batch`:
    :meth:`run`, :meth:`true_time` and :meth:`plan` are a batch of one.
    The model pass prices fewer than :data:`COLUMN_BATCH` uncached
    settings with the model's row op table and larger batches with its
    column op table; the commit then walks the batch in order. The
    noise-free cache is one ``OrderedDict`` LRU and the compile record
    one set, both keyed by ``(stencil name, setting value tuple)``.
    Column-priced records stay columnar (lazy
    :class:`~repro.gpusim.records.MetricsRow` views), and each
    evaluation's noise is replayed by :mod:`repro.gpusim.fastrng`.
    Seeded runs are pinned bit for bit by the identity fixtures
    (``tests/test_identity_fixtures.py``).

    Parameters
    ----------
    device:
        Device model (defaults to the paper's A100 platform).
    seed:
        Seed for measurement noise; the landscape itself is seed-free.
    noise:
        Relative standard deviation of per-measurement noise. The
        repeated-trial median partially averages it out, as on real
        hardware.
    compile_cost_s / trials:
        Parameters of the tuning-cost accounting.
    true_cache_capacity:
        Bound on the noise-free evaluation cache (LRU eviction); ``None``
        disables the bound and a negative value raises
        :class:`ValueError`. Hits/misses are counted in ``cache_hits`` /
        ``cache_misses`` (see :meth:`cache_info`).
    strict / strict_every:
        Strict mode runs the static-analysis gate
        (:func:`repro.analysis.gate.strict_gate`) on evaluated settings
        before they enter the cache, raising
        :class:`~repro.analysis.diagnostics.AnalysisError` when the
        generated kernel fails a lint or plan-consistency rule. Deep
        source analysis is ~40x the cost of a batched model evaluation,
        so only a deterministic hash-selected 1-in-``strict_every``
        subset is checked (the same subset at any batch size);
        ``strict_every=1`` checks every uncached setting.
    store:
        Persistent evaluation store
        (:class:`repro.gpusim.diskcache.EvaluationStore`). ``None``
        attaches the process-wide default store installed by the
        orchestration layer (also usually ``None``). Disk hits skip the
        model pipeline — validity is still re-checked and the kernel
        plan rebuilt, so stale journal entries can never resurrect an
        invalid setting — and fresh evaluations are journaled. Stored
        values are noise-free, so warm-started runs reproduce measured
        runs bit-for-bit.
    """

    device: DeviceSpec = field(default_factory=lambda: A100)
    seed: int = 0
    noise: float = 0.01
    compile_cost_s: float = DEFAULT_COMPILE_COST_S
    trials: int = DEFAULT_TRIALS
    evaluations: int = 0
    strict: bool = False
    strict_every: int = 1024
    true_cache_capacity: int | None = DEFAULT_TRUE_CACHE_CAPACITY
    cache_hits: int = 0
    cache_misses: int = 0
    store: _diskcache.EvaluationStore | None = None
    disk_hits: int = 0
    cache_inserts: int = 0
    cache_evictions: int = 0
    _device_token: str = field(default="", repr=False, init=False)
    #: Noise-free values (time, metrics, kernel plan), least- to
    #: most-recently used.
    _cache: OrderedDict[_Key, tuple[float, Mapping[str, float], KernelPlan]] = (
        field(default_factory=OrderedDict, repr=False, init=False)
    )
    #: Compiled kernel variants (charged once until the next reset).
    _compiled: set[_Key] = field(default_factory=set, repr=False, init=False)
    _noise_heads: dict[str, "hashlib.blake2b"] = field(
        default_factory=dict, repr=False, init=False
    )

    def __post_init__(self) -> None:
        cap = self.true_cache_capacity
        if cap is not None and cap < 0:
            raise ValueError(f"true_cache_capacity must be >= 0 or None: {cap}")
        if self.store is None:
            self.store = _diskcache.get_default_store()
        if self.store is not None:
            self._device_token = _diskcache.device_token(self.device)

    # -- the setting protocol ------------------------------------------------

    #: A setting's row: its cache, compile-record, model and store key.
    _token = staticmethod(Setting.values_tuple)
    #: The setting's part of an evaluation's noise seed.
    _noise_key = staticmethod(Setting.values_repr)

    def _tokens(self, settings: Sequence[Setting]) -> list[tuple[int, ...]]:
        token = self._token
        return [token(s) for s in settings]

    def _lower(self, settings: Sequence[Setting]) -> np.ndarray:
        """The value matrix a column pricing pass reads."""
        return settings_matrix(settings)

    def _valid_rows(
        self, pattern: StencilPattern, values: np.ndarray, arrays: PlanArrays
    ) -> np.ndarray:
        """Row-for-row ``violation(...) is None`` of a lowered matrix."""
        return _model.valid_mask(pattern, self.device, values, arrays)

    def _timed(
        self, pattern: StencilPattern, values: np.ndarray, result: _model.BatchResult
    ) -> tuple[np.ndarray, _records.MetricsTable]:
        """Noise-free times and metrics of modelled rows: the model's
        time, also reported as the ``elapsed_time`` metric."""
        return result.true_times, result.metrics.with_column(
            "elapsed_time", result.true_times
        )

    # -- validity ------------------------------------------------------------

    def violation(self, pattern: StencilPattern, setting: Setting) -> str | None:
        """First explicit or implicit constraint violated by ``setting``."""
        return first_violation(pattern, setting, self.device)

    def _strict_check(
        self, pattern: StencilPattern, setting: Setting, plan: KernelPlan
    ) -> None:
        """Run the hash-sampled static-analysis gate on one setting.

        Imported lazily: ``repro.analysis`` depends on this module's
        package, and non-strict simulators never pay for the import.
        """
        from repro.analysis.gate import strict_gate

        strict_gate(pattern, setting, plan, every=self.strict_every)

    # -- evaluation cache ----------------------------------------------------

    def cache_info(self) -> dict[str, int | None]:
        """Hit/miss/insert/evict counters and occupancy of the
        noise-free cache (identical for a batch and the equivalent
        sequential loop)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "inserts": self.cache_inserts,
            "evictions": self.cache_evictions,
            "size": len(self._cache),
            "capacity": self.true_cache_capacity,
            "disk_hits": self.disk_hits,
        }

    def cache_contains(self, pattern: StencilPattern, setting: Setting) -> bool:
        """Is a noise-free evaluation cached? Counters are untouched."""
        return (pattern.name, self._token(setting)) in self._cache

    def _evict(self) -> int:
        """Drop least-recently-used entries down to the capacity bound;
        returns how many were dropped."""
        cap, cache = self.true_cache_capacity, self._cache
        n = 0
        if cap is not None:
            while len(cache) > cap:
                cache.popitem(last=False)
                n += 1
        return n

    # -- persistent store ----------------------------------------------------

    def _store_lookup(
        self, stencil: str, token: tuple[int, ...]
    ) -> tuple[float, dict[str, float]] | None:
        if self.store is None:
            return None
        value = self.store.lookup(self._device_token, stencil, token)
        if value is not None:
            self.disk_hits += 1
            obs.count("sim.disk_hits")
        return value

    # -- core model ---------------------------------------------------------

    def model_batch(
        self, pattern: StencilPattern, settings: Sequence[Setting]
    ) -> BatchModel:
        """Noise-free values for ``settings`` without touching any state.

        The pure half of :meth:`run_batch`: validity, LRU peeks, store
        peeks and the model run here, but no cache counter,
        LRU order, store counter, journal line, compile record or
        evaluation index changes. Pass the result to :meth:`run_batch`
        (or :meth:`tuning_costs`) to commit any subset of ``settings``
        without evaluating the model again — also after other commits
        of this simulator, in any number of later calls (see
        :meth:`run_batch`).
        """
        settings = list(settings)
        tokens = self._tokens(settings)
        get, name = self._cache.get, pattern.name
        cached = [get((name, t)) for t in tokens]
        return self._model_pass(pattern, settings, tokens, cached)

    def _model_pass(
        self,
        pattern: StencilPattern,
        settings: list[Setting],
        tokens: list[tuple[int, ...]],
        cached: list[tuple[float, Mapping[str, float], KernelPlan] | None],
    ) -> BatchModel:
        model = BatchModel(token=self._token)
        todo: list[Setting] = []
        seen: set[tuple[int, ...]] = set()
        for s, t, value in zip(settings, tokens, cached):
            if t in seen:
                continue
            seen.add(t)
            if value is not None:
                model.true_times[t] = value[0]
            else:
                todo.append(s)
        if len(todo) < COLUMN_BATCH:
            self._price_rows(pattern, todo, model)
        else:
            self._price_columns(pattern, todo, model)
        return model

    def _price_rows(
        self, pattern: StencilPattern, todo: list[Setting], model: BatchModel
    ) -> None:
        """Price uncached settings one by one with the row op table."""
        name, device, store = pattern.name, self.device, self.store
        if self.strict:
            from repro.analysis.gate import gate_selected
        for s, t in zip(todo, self._tokens(todo)):
            plan = build_plan(pattern, s)
            if first_violation(pattern, s, device, plan=plan) is not None:
                model.invalid.add(t)
                continue
            if self.strict and gate_selected(name, s, self.strict_every):
                model.gated.add(t)
            stored = (
                None if store is None
                else store.peek(self._device_token, name, t)
            )
            if stored is not None:
                true_time, metrics = stored[0], dict(stored[1])
                model.stored.add(t)
            else:
                timing, metrics = _model.run_model(plan, device)
                rough = roughness_factors(device.name, name, [t])[0]
                true_time = timing.total_s * rough
                metrics["elapsed_time"] = true_time
            model.computed[t] = (true_time, metrics, plan)
            model.true_times[t] = true_time

    def _price_columns(
        self, pattern: StencilPattern, todo: list[Setting], model: BatchModel
    ) -> None:
        """Price uncached settings as columns, in one model run. The plan
        columns are built once; invalid rows, store hits and misses take
        row subsets of them."""
        name = pattern.name
        todo_tokens = self._tokens(todo)
        values = self._lower(todo)
        arrays = build_plan_arrays(pattern, values)
        ok = self._valid_rows(pattern, values, arrays)
        if not ok.all():
            model.invalid = {todo_tokens[j] for j in np.flatnonzero(~ok)}
            keep = np.flatnonzero(ok)
            todo = [todo[j] for j in keep.tolist()]
            todo_tokens = [todo_tokens[j] for j in keep.tolist()]
            values, arrays = values[keep], arrays.take(keep)
        if not todo:
            return
        if self.strict:
            from repro.analysis.gate import gate_selected_batch

            gate = gate_selected_batch(name, values, self.strict_every)
            model.gated = {todo_tokens[j] for j in np.flatnonzero(gate)}
        stored_vals: list[tuple[float, Mapping[str, float]] | None]
        stored_vals = [None] * len(todo)
        if self.store is not None:
            peek, tok_dev = self.store.peek, self._device_token
            stored_vals = [peek(tok_dev, name, t) for t in todo_tokens]
        hits_j = [j for j, v in enumerate(stored_vals) if v is not None]
        if hits_j:
            hit_plans = plans_from_arrays(
                pattern, [todo[j] for j in hits_j], arrays.take(np.array(hits_j))
            )
            for j, plan in zip(hits_j, hit_plans):
                true_time, stored_metrics = stored_vals[j]  # type: ignore[misc]
                t = todo_tokens[j]
                model.computed[t] = (true_time, dict(stored_metrics), plan)
                model.true_times[t] = true_time
                model.stored.add(t)
        miss_j = [j for j, v in enumerate(stored_vals) if v is None]
        if miss_j:
            sub = [todo[j] for j in miss_j]
            if len(miss_j) < len(todo):
                rows = np.array(miss_j)
                values, arrays = values[rows], arrays.take(rows)
            result = _model.evaluate_settings(
                pattern, self.device, sub, values=values, arrays=arrays,
            )
            # Settings stay columnar: appended metric columns, lazy row
            # views shared between cache, callers and the journal.
            times, table = self._timed(pattern, values, result)
            model.table = table
            for r, (j, tt) in enumerate(zip(miss_j, times.tolist())):
                t = todo_tokens[j]
                model.computed[t] = (tt, table.row(r), result.plans[r])
                model.true_times[t] = tt
                model.rows[t] = r

    def tuning_costs(
        self,
        pattern: StencilPattern,
        settings: Sequence[Setting],
        model: BatchModel,
    ) -> list[float | None]:
        """What :meth:`run_batch` would charge each of ``settings``, in order.

        Pure: the compile record is peeked, not updated, so the costs
        are those of measuring ``settings`` next. ``None`` marks an
        invalid setting (no compile, no charge). ``model`` must cover
        every setting (see :meth:`model_batch`). The float operations
        are the commit's own (``true_time * trials``, then the compile
        cost added), so summing the result in order reproduces a
        sequential caller's running total bit for bit.
        """
        name, compiled = pattern.name, self._compiled
        charged: set[tuple[int, ...]] = set()
        trials, compile_cost = self.trials, self.compile_cost_s
        invalid, true_times = model.invalid, model.true_times
        out: list[float | None] = []
        for t in self._tokens(settings):
            if t in invalid:
                out.append(None)
                continue
            cost = true_times[t] * trials
            if t not in charged and (name, t) not in compiled:
                charged.add(t)
                cost += compile_cost
            out.append(cost)
        return out

    def _true_run_batch(
        self,
        pattern: StencilPattern,
        settings: Sequence[Setting],
        *,
        on_invalid: str = "raise",
        model: BatchModel | None = None,
    ) -> list[tuple[float, Mapping[str, float], KernelPlan] | None]:
        """Noise-free values of ``settings``, committed to the cache.

        The uncached settings are validated and evaluated in one model
        pass (or taken from ``model``, a :meth:`model_batch` over a
        superset of ``settings``); results are then committed to the
        cache in setting order, so hit/miss counters, LRU eviction, disk
        hits and journal lines are exactly what a loop of one-setting
        calls produces.

        ``on_invalid`` selects what happens when a setting violates a
        constraint: ``"raise"`` raises :class:`InvalidSettingError` for
        the first invalid setting (by position) *before any state is
        mutated* — no earlier setting has been evaluated or charged yet;
        ``"skip"`` returns ``None`` in that setting's slot instead,
        counting one cache miss per occurrence.
        """
        if on_invalid not in ("raise", "skip"):
            raise ValueError(f"on_invalid must be 'raise' or 'skip': {on_invalid!r}")
        settings = list(settings)
        if obs.tracing():
            with obs.span(
                "sim.batch_eval", n=len(settings), stencil=pattern.name,
                device=self.device.name,
            ):
                return self._commit_batch(pattern, settings, on_invalid, model)
        return self._commit_batch(pattern, settings, on_invalid, model)

    def _commit_batch(
        self,
        pattern: StencilPattern,
        settings: list[Setting],
        on_invalid: str,
        model: BatchModel | None,
    ) -> list[tuple[float, Mapping[str, float], KernelPlan] | None]:
        """The cache is probed once for the whole batch. A fully-warm
        batch then commits by touching its entries in order. Mixed
        batches take the missing values from the model pass and commit
        sequentially, so counters, LRU order, eviction choices and
        journal contents stay exactly what a loop of one-setting calls
        produces.
        """
        obs.count("sim.batch_calls")
        obs.count("sim.batch_settings", len(settings))
        cache = self._cache
        name = pattern.name
        tokens = self._tokens(settings)
        keys = [(name, t) for t in tokens]
        get, touch = cache.get, cache.move_to_end
        cached = [get(k) for k in keys]

        if cached and None not in cached:
            for k in keys:
                touch(k)
            self.cache_hits += len(settings)
            return cached

        if model is None:
            model = self._model_pass(pattern, settings, tokens, cached)
        invalid, computed = model.invalid, model.computed
        if invalid and on_invalid == "raise":
            for i, t in enumerate(tokens):
                if t in invalid:
                    reason = self.violation(pattern, settings[i])
                    raise InvalidSettingError(f"{pattern.name}: {reason}")
        if model.gated:
            # Strict checks may raise: run them before any state changes.
            checked: set[tuple[int, ...]] = set()
            for s, t in zip(settings, tokens):
                if t in model.gated and t not in checked:
                    checked.add(t)
                    self._strict_check(pattern, s, computed[t][2])

        # Sequential commit, in setting order. This commit's own
        # inserts may evict entries the bulk probe found, so every
        # position re-probes.
        out: list[tuple[float, Mapping[str, float], KernelPlan] | None] = []
        append_out = out.append
        hits = misses = inserts = evictions = 0
        evict = self._evict
        store = self.store
        committed: set[tuple[int, ...]] = set()
        journal: list[tuple[int, ...]] = []
        for i, setting in enumerate(settings):
            t = tokens[i]
            if t in invalid:
                misses += 1  # a one-setting attempt misses too
                append_out(None)
                continue
            key = keys[i]
            value = get(key)
            if value is not None:
                hits += 1
                touch(key)
                append_out(value)
                continue
            misses += 1
            value = computed.get(t)
            if value is None:
                # Cached at probe time but evicted by this commit: a
                # sequential loop would miss and recompute here, journal
                # lines in order.
                self._journal_rows(name, model, journal)
                journal = []
                again = self._model_pass(pattern, [setting], [t], [None])
                value = again.computed[t]
                if again.gated:
                    self._strict_check(pattern, setting, value[2])
                if store is not None:
                    self._store_lookup(name, t)
                    if t not in again.stored:
                        self._journal_rows(name, again, [t])
            elif store is not None and t not in committed:
                committed.add(t)
                # The store hit or miss a sequential loop counts here.
                self._store_lookup(name, t)
                if t not in model.stored:
                    journal.append(t)
            cache[key] = value
            inserts += 1
            evictions += evict()
            append_out(value)
        self._journal_rows(name, model, journal)
        self.cache_hits += hits
        self.cache_misses += misses
        self.cache_inserts += inserts
        self.cache_evictions += evictions
        if inserts:
            obs.count("sim.cache_inserts", inserts)
        if evictions:
            obs.count("sim.cache_evictions", evictions)
        return out

    def _journal_rows(
        self, stencil: str, model: BatchModel, tokens: list[tuple[int, ...]]
    ) -> None:
        """Journal freshly modelled values, in commit order, in one write."""
        if not tokens:
            return
        store, table = self.store, model.table
        assert store is not None
        if table is None:  # priced as rows: one record per row, same bytes
            for t in tokens:
                true_time, metrics, _ = model.computed[t]
                store.record(self._device_token, stencil, t, true_time, metrics)
            return
        rows = [model.rows[t] for t in tokens]
        store.record_batch(
            self._device_token, stencil, tokens,
            [model.true_times[t] for t in tokens],
            _records.MetricsTable(table.names, table.data[rows]),
        )

    def _true_run_one(
        self, pattern: StencilPattern, setting: Setting
    ) -> tuple[float, Mapping[str, float], KernelPlan]:
        """The noise-free value of one setting, as a batch of one."""
        value = self._true_run_batch(pattern, [setting], on_invalid="skip")[0]
        if value is None:
            reason = self.violation(pattern, setting)
            raise InvalidSettingError(f"{pattern.name}: {reason}")
        return value

    def run(self, pattern: StencilPattern, setting: Setting) -> MeasuredRun:
        """Evaluate one setting: compile (first time), run, profile.

        A batch of one: for a valid setting ``run(p, s)`` is
        ``run_batch(p, [s])[0]``, so both share one commit path, one
        cache and one noise stream. The single-call edges (also of
        :meth:`true_time` and :meth:`plan`):

        * A setting violating any constraint raises
          :class:`InvalidSettingError` with the :meth:`violation`
          message — tuners must filter candidates first, exactly as
          csTuner "checks the above constraints before generating the
          search codes". It counts one cache miss and uses no
          evaluation index and no compile record.
        * A strict-gate failure raises before any state changes: every
          counter, the cache and the compile record are left as they
          were.
        """
        value = self._true_run_one(pattern, setting)
        return self._measured_run_batch(pattern, [setting], [value])[0]  # type: ignore[return-value]

    def run_batch(
        self,
        pattern: StencilPattern,
        settings: Sequence[Setting],
        *,
        on_invalid: str = "raise",
        model: BatchModel | None = None,
    ) -> list[MeasuredRun | None]:
        """Evaluate many settings at once — bit-identical to a loop of
        :meth:`run` calls, at array speed.

        The noise-free model runs once over the batch's uncached
        settings; the per-evaluation bookkeeping (compile cost,
        measurement noise seeded by the running evaluation index, cache
        updates) then replays in setting order, so every returned
        :class:`MeasuredRun` equals what a loop of :meth:`run` calls
        would produce. With ``on_invalid="raise"`` (default) a
        constraint-violating setting raises :class:`InvalidSettingError`
        — *before* any setting in the batch is evaluated or charged,
        the one intentional difference from a loop (which would have
        processed the earlier ones first). ``on_invalid="skip"``
        returns ``None`` in invalid settings' slots instead; the valid
        settings are measured exactly as if the invalid ones had raised
        and been skipped by a loop of :meth:`run` calls (same
        evaluation indices, same noise stream).

        ``model`` (from :meth:`model_batch` of this simulator over a
        superset of ``settings``) supplies the noise-free values, so a
        caller that first priced the batch with :meth:`tuning_costs`
        commits exactly the prefix it admits without modelling it
        twice. It stays valid across commits: a caller may price a
        whole sweep once and commit it in chunks. Validity and the
        values do not depend on state, and the commit re-probes the
        cache at every position: an entry cached since the pricing is a
        hit, and one evicted since is modelled again, as a loop of
        :meth:`run` calls would. The store is looked up at commit time
        too, and journaling a key twice writes nothing.
        """
        settings = list(settings)
        results = self._true_run_batch(
            pattern, settings, on_invalid=on_invalid, model=model
        )
        return self._measured_run_batch(pattern, settings, results)

    def _measured_run_batch(
        self,
        pattern: StencilPattern,
        settings: list[Setting],
        results: list[tuple[float, Mapping[str, float], KernelPlan] | None],
    ) -> list[MeasuredRun | None]:
        """Per-evaluation bookkeeping: tuning cost, noise, eval counter.

        Compile-cost charging and noise seeding walk the settings in
        order: each evaluation's noise comes from a fresh PCG64
        generator seeded by (simulator seed, stencil, setting values,
        running evaluation index), replayed by
        :func:`repro.gpusim.fastrng.standard_normal_rows`. The
        arithmetic on the draws and the median-of-trials reduction run
        as array operations. ``None`` slots (invalid settings under
        ``on_invalid="skip"``) consume no evaluation index, no compile
        cost and no noise draw.
        """
        if any(r is None for r in results):
            dense_i = [i for i, r in enumerate(results) if r is not None]
            dense = self._measured_run_batch(
                pattern,
                [settings[i] for i in dense_i],
                [results[i] for i in dense_i],
            )
            out: list[MeasuredRun | None] = [None] * len(settings)
            for i, run in zip(dense_i, dense):
                out[i] = run
            return out

        n = len(settings)
        name = pattern.name
        true_times = [r[0] for r in results]  # type: ignore[index]
        trials, compile_cost = self.trials, self.compile_cost_s
        costs = [t * trials for t in true_times]
        compiled = self._compiled
        for i, t in enumerate(self._tokens(settings)):
            key = (name, t)
            if key not in compiled:
                compiled.add(key)
                costs[i] += compile_cost

        measured = true_times
        if self.noise > 0.0:
            prefix = hash_prefix(self.seed, name)
            base = self.evaluations
            # The seed is the low 64 bits of the BLAKE2b-256 digest of
            # the "\x1f"-joined reprs of (seed, stencil, values, index).
            # Each setting's head is absorbed once and memoized; an
            # evaluation feeds its index into a copy() of it.
            heads, blake2b = self._noise_heads, hashlib.blake2b
            noise_key = self._noise_key
            seeds: list[int] = []
            for i, s in enumerate(settings):
                head = prefix + noise_key(s) + "\x1f"
                h = heads.get(head)
                if h is None:
                    h = heads[head] = blake2b(head.encode("utf-8"), digest_size=32)
                d = h.copy()
                d.update(repr(base + i).encode("utf-8"))
                seeds.append(int.from_bytes(d.digest()[-8:], "big"))
            draws = standard_normal_rows(seeds, trials)
            samples = np.array(true_times)[:, None] * (1.0 + self.noise * draws)
            measured = _median_rows(np.abs(samples)).tolist()
        self.evaluations += n

        # Fast MeasuredRun construction (see plans_from_arrays): build
        # the instance dict directly instead of paying the frozen
        # dataclass __init__ per run, and hand out the cached metrics
        # view instead of a per-run dict copy.
        device_name = self.device.name
        new = MeasuredRun.__new__
        runs: list[MeasuredRun | None] = []
        append = runs.append
        for s, r, time_s, true_time, cost in zip(
            settings, results, measured, true_times, costs
        ):
            run = new(MeasuredRun)
            run.__dict__.update({
                "stencil": name,
                "device": device_name,
                "setting": s,
                "time_s": time_s,
                "true_time_s": true_time,
                "tuning_cost_s": cost,
                "metrics": r[1],  # type: ignore[index]
            })
            append(run)
        return runs

    def true_time(self, pattern: StencilPattern, setting: Setting) -> float:
        """Noise-free model time (ground truth for motivation studies);
        a batch of one, with :meth:`run`'s single-call edges."""
        return self._true_run_one(pattern, setting)[0]

    def true_time_batch(
        self,
        pattern: StencilPattern,
        settings: Sequence[Setting],
        *,
        invalid: str = "raise",
    ) -> np.ndarray:
        """Vectorized :meth:`true_time` over many settings.

        ``invalid="raise"`` rejects the batch on the first invalid
        setting (before evaluating anything); ``invalid="nan"`` yields
        NaN in that setting's slot instead.
        """
        if invalid not in ("raise", "nan"):
            raise ValueError(f"invalid must be 'raise' or 'nan': {invalid!r}")
        results = self._true_run_batch(
            pattern, settings, on_invalid="raise" if invalid == "raise" else "skip"
        )
        return np.array(
            [r[0] if r is not None else math.nan for r in results],
            dtype=np.float64,
        )

    def plan(self, pattern: StencilPattern, setting: Setting) -> KernelPlan:
        """The kernel plan backing an evaluation (for diagnostics); a
        batch of one, with :meth:`run`'s single-call edges."""
        return self._true_run_one(pattern, setting)[2]

    def reset_cost_accounting(self) -> None:
        """Forget compile caching — each tuner run starts cold."""
        self._compiled.clear()
        self.evaluations = 0
