"""Layer tracer: spans recorded around calls into repro's public functions.

The benchmark never turns on repro's own ``obs`` tracer, because doing so
sends ``Evaluator.evaluate_many`` down a different code path. Instead,
:func:`install` replaces the public entry points listed in
:data:`TARGETS` with thin wrappers that record one :class:`Span` per
call (layer, start, end, parent span, job id) into memory. Spans are
reduced to per-layer numbers only after the timed work is over.

Every per-layer metric and the end-to-end metric and workload it is
expected to move are listed in :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections.abc import Callable, Iterable
from typing import Any

#: (layer, "module" or "module:Class", attribute) of every wrapped entry
#: point. Module-level names are patched where the caller looks them up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("dataset", "repro.core.tuner:CsTuner", "collect_dataset"),
    ("grouping", "repro.core.tuner", "pairwise_cv"),
    ("grouping", "repro.core.tuner", "group_parameters"),
    ("sampling", "repro.core.tuner", "sample_search_space"),
    ("fitting", "repro.core.sampling", "fit_pmnf"),
    ("codegen", "repro.core.tuner", "generate_cuda"),
    ("search", "repro.core.genetic:EvolutionarySearch", "run"),
    ("search", "repro.baselines.base:BaselineTuner", "tune"),
    ("forest", "repro.ml.forest:RandomForestRegressor", "fit"),
    ("forest", "repro.ml.forest:RandomForestRegressor", "predict"),
    ("forest", "repro.ml.forest:RandomForestClassifier", "fit"),
    ("forest", "repro.ml.forest:RandomForestClassifier", "predict"),
    ("evaluator.scalar", "repro.core.budget:Evaluator", "evaluate"),
    ("evaluator.batch", "repro.core.budget:Evaluator", "evaluate_many"),
    ("sim.run", "repro.gpusim.simulator:GpuSimulator", "run"),
    ("sim.run", "repro.gpusim.simulator:GpuSimulator", "true_time"),
    ("sim.batch", "repro.gpusim.simulator:GpuSimulator", "run_batch"),
    ("sim.batch", "repro.gpusim.simulator:GpuSimulator", "true_time_batch"),
    # The private batch path: cost-budgeted Evaluator.evaluate_many warms
    # the simulator through it directly.
    ("sim.batch", "repro.gpusim.simulator:GpuSimulator", "_true_run_batch"),
    ("space.sample", "repro.space.space:SearchSpace", "sample"),
    ("space.decode", "repro.space.space:SearchSpace", "decode"),
    ("space.repair", "repro.space.space:SearchSpace", "repair"),
    ("space.repair", "repro.space.space:SearchSpace", "repair_full"),
    ("space.repair", "repro.space.space:SearchSpace", "repair_matrix"),
    ("space.repair", "repro.space.space:SearchSpace", "repair_full_matrix"),
    ("store.open", "repro.gpusim.diskcache:EvaluationStore", "__init__"),
    ("store.close", "repro.gpusim.diskcache:EvaluationStore", "close"),
    ("resultsdb.serve", "repro.resultsdb.db:ResultsDB", "serve"),
    ("resultsdb.warmstart", "repro.resultsdb.warmstart", "warm_start_settings"),
)

#: Daemon-only entry points: the fsync'd queue journal appends
#: (``claim_next`` appends through ``transition``).
SERVICE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("queue.append", "repro.service.queue:JobQueue", "submit"),
    ("queue.append", "repro.service.queue:JobQueue", "transition"),
)

#: Per-layer metric -> (unit, better, what it should move). All values
#: are per-job means over the traced jobs of one run.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "grouping.busy_s": ("s", "lower", "job_p50_s on service_mix; 0 elsewhere"),
    "space.sample_s": ("s", "lower", "job_p50_s on service_mix"),
    "space.decode_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "space.decode_calls": ("count", "lower", "job_p50_s on iso_time_search"),
    "space.repair_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "sampling.busy_s": ("s", "lower", "job_p50_s on service_mix"),
    "fitting.busy_s": ("s", "lower", "job_p50_s on service_mix"),
    "forest.busy_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "dataset.busy_s": ("s", "lower", "iso_time_search; small, predicted no move"),
    "codegen.busy_s": ("s", "lower", "service_mix; small, predicted no move"),
    "codegen.kernels": ("count", "lower", "service_mix; predicted no move"),
    "search.busy_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "search.iterations": ("count", "lower", "job_p50_s on iso_time_search"),
    "evaluator.busy_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "evaluator.scalar_calls": ("count", "lower", "job_p50_s on iso_time_search"),
    "evaluator.batch_calls": ("count", "lower", "job_p50_s on iso_time_search"),
    "sim.run_calls": ("count", "lower", "job_p50_s on iso_time_search"),
    "sim.run_s": ("s", "lower", "job_p50_s on iso_time_search"),
    "sim.batch_calls": ("count", "lower", "job_p50_s on service_mix"),
    "sim.batch_settings": ("count", "lower", "job_p50_s on service_mix"),
    "sim.batch_s": ("s", "lower", "job_p50_s on service_mix, iso_time_search"),
    "sim.cache_hit_ratio": ("ratio", "higher", "service_mix and iso_time_search"),
    "store.open_s": ("s", "lower", "job_p50_s on service_mix"),
    "store.close_s": ("s", "lower", "job_p50_s on service_mix"),
    "store.hit_ratio": ("ratio", "higher", "job_p50_s on service_mix"),
    "store.journal_lines": ("count", "lower", "job_p50_s on service_mix"),
    "resultsdb.serve_s": ("s", "lower", "job_p50_s on service_mix"),
    "resultsdb.warmstart_s": ("s", "lower", "job_p50_s on service_mix"),
    "resultsdb.golden_hits": ("count", "higher", "job_tail_s on service_mix"),
    "http.submit_s": ("s", "lower", "job_p50_s, job_tail_s on service_mix"),
    "http.get_s": ("s", "lower", "job_p50_s, job_tail_s on service_mix"),
    "queue.wait_s": ("s", "lower", "job_p50_s, job_tail_s on service_mix"),
    # Self time: the daemon's job run outside the tuning layers.
    "service.run_s": ("s", "lower", "job_p50_s, job_tail_s on service_mix"),
    "queue.append_s": ("s", "lower", "job_p50_s, job_tail_s on service_mix"),
    "service.retries": ("count", "lower", "job_tail_s on service_mix"),
    "service.errored": ("count", "lower", "job_tail_s on service_mix"),
    "unattributed_s": ("s", "lower", "job_p50_s on every workload"),
    "trace_overhead": ("ratio", "lower", "nothing: cost of the wrappers"),
}


class Span:
    """One wrapped call. ``parent`` is the enclosing span on the thread."""

    __slots__ = ("layer", "start", "end", "parent", "job", "n", "hit")

    def __init__(self, layer: str, parent: Span | None, job: str | None) -> None:
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = time.perf_counter()
        self.end = self.start
        self.n = 1  # settings in a batch, kernels emitted, ...
        self.hit = 0  # golden hits

    def to_list(self) -> list[Any]:
        return [self.layer, self.start, self.end, self.job, self.n, self.hit]


class Tracer:
    """In-memory span recorder; spans of a job carry its id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.simulators: list[Any] = []
        self.stores: list[tuple[int, int]] = []  # (hits, misses) at close
        self.job: str | None = None
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = getattr(local, "top", None)
            if parent is not None and parent.layer == layer:
                # A layer calling into itself (run_batch into
                # _true_run_batch, say) is one call of that layer.
                return fn(*args, **kwargs)
            span = Span(layer, parent, tracer.job)
            local.top = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                local.top = parent
                spans.append(span)
            tracer._annotate(span, args, result)
            return result

        return wrapper

    def _annotate(self, span: Span, args: tuple[Any, ...], result: Any) -> None:
        layer = span.layer
        if layer == "sim.batch":
            span.n = len(args[2])
        elif layer == "resultsdb.serve":
            span.hit = int(result is not None)
        elif layer == "store.close":
            store = args[0]
            self.stores.append((store.hits, store.misses))

    # -- installation ------------------------------------------------------

    def install(
        self,
        targets: Iterable[tuple[str, str, str]] = TARGETS,
        *,
        track_simulators: bool = True,
    ) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals.
        ``track_simulators`` keeps each new simulator for its
        ``cache_info()`` until :meth:`take_counters`."""
        for layer, where, attr in targets:
            module_name, _, cls_name = where.partition(":")
            owner: Any = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original))
        if not track_simulators:
            return
        sim_cls = importlib.import_module("repro.gpusim.simulator").GpuSimulator
        post_init = sim_cls.__dict__["__post_init__"]
        self._saved.append((sim_cls, "__post_init__", post_init))
        simulators = self.simulators

        @functools.wraps(post_init)
        def register(sim: Any) -> None:
            post_init(sim)
            simulators.append(sim)

        sim_cls.__post_init__ = register

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def take_counters(self) -> dict[str, float]:
        """Simulator and store counters since the last call, then forget."""
        hits = misses = 0
        for sim in self.simulators:
            info = sim.cache_info()
            hits += int(info["hits"] or 0)
            misses += int(info["misses"] or 0)
        s_hits = sum(h for h, _ in self.stores)
        s_misses = sum(m for _, m in self.stores)
        self.simulators.clear()
        self.stores.clear()
        return {
            "sim_hits": hits, "sim_misses": misses,
            "store_hits": s_hits, "store_misses": s_misses,
        }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            key = id(s.parent)
            child[key] = child.get(key, 0.0) + (s.end - s.start)
    return {id(s): (s.end - s.start) - child.get(id(s), 0.0) for s in spans}


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def dump_spans(spans: list[Span]) -> list[list[Any]]:
    """Spans as JSON rows, parents before children, parent by index."""
    # A parent starts no later than its children and ends no earlier. A
    # parent still open when the spans are written is not among them.
    ordered = sorted(spans, key=lambda s: (s.start, -s.end))
    index = {id(s): i for i, s in enumerate(ordered)}
    return [
        s.to_list() + [index.get(id(s.parent), -1) if s.parent else -1]
        for s in ordered
    ]


def spans_from_dump(rows: list[list[Any]]) -> list[Span]:
    """Rebuild spans written by :func:`dump_spans`."""
    spans: list[Span] = []
    for layer, start, end, job, n, hit, parent in rows:
        s = Span(layer, spans[parent] if parent >= 0 else None, job)
        s.start, s.end, s.n, s.hit = start, end, n, hit
        spans.append(s)
    return spans


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Self time, call and item counts per layer over ``spans``."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s.layer
        out[layer + ".self"] = out.get(layer + ".self", 0.0) + selfs[id(s)]
        out[layer + ".calls"] = out.get(layer + ".calls", 0.0) + 1
        out[layer + ".n"] = out.get(layer + ".n", 0.0) + s.n
        out[layer + ".hit"] = out.get(layer + ".hit", 0.0) + s.hit
    return out


def per_layer_metrics(
    totals: dict[str, float],
    counters: dict[str, float],
    *,
    jobs: int,
    iterations: float,
    journal_lines: int,
    unattributed_s: float,
    trace_overhead: float,
    service: dict[str, float] | None = None,
) -> dict[str, float]:
    """Per-job means of every metric in :data:`LAYER_METRICS`."""
    jobs = max(1, jobs)

    def self_s(layer: str) -> float:
        return totals.get(layer + ".self", 0.0) / jobs

    def calls(layer: str) -> float:
        return totals.get(layer + ".calls", 0.0) / jobs

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    service = service or {}
    return {
        "grouping.busy_s": self_s("grouping"),
        "space.sample_s": self_s("space.sample"),
        "space.decode_s": self_s("space.decode"),
        "space.decode_calls": calls("space.decode"),
        "space.repair_s": self_s("space.repair"),
        "sampling.busy_s": self_s("sampling"),
        "fitting.busy_s": self_s("fitting"),
        "forest.busy_s": self_s("forest"),
        "dataset.busy_s": self_s("dataset"),
        "codegen.busy_s": self_s("codegen"),
        "codegen.kernels": calls("codegen"),
        "search.busy_s": self_s("search"),
        "search.iterations": iterations / jobs,
        "evaluator.busy_s": self_s("evaluator.scalar") + self_s("evaluator.batch"),
        "evaluator.scalar_calls": calls("evaluator.scalar"),
        "evaluator.batch_calls": calls("evaluator.batch"),
        "sim.run_calls": calls("sim.run"),
        "sim.run_s": self_s("sim.run"),
        "sim.batch_calls": calls("sim.batch"),
        "sim.batch_settings": totals.get("sim.batch.n", 0.0) / jobs,
        "sim.batch_s": self_s("sim.batch"),
        "sim.cache_hit_ratio": ratio(
            counters.get("sim_hits", 0.0), counters.get("sim_misses", 0.0)
        ),
        "store.open_s": self_s("store.open"),
        "store.close_s": self_s("store.close"),
        "store.hit_ratio": ratio(
            counters.get("store_hits", 0.0), counters.get("store_misses", 0.0)
        ),
        "store.journal_lines": float(journal_lines),
        "resultsdb.serve_s": self_s("resultsdb.serve"),
        "resultsdb.warmstart_s": self_s("resultsdb.warmstart"),
        "resultsdb.golden_hits": totals.get("resultsdb.serve.hit", 0.0) / jobs,
        "http.submit_s": self_s("http.submit"),
        "http.get_s": self_s("http.get"),
        "queue.wait_s": self_s("queue.wait"),
        "service.run_s": self_s("service.run"),
        "queue.append_s": self_s("queue.append"),
        "service.retries": service.get("retries", 0.0) / jobs,
        "service.errored": service.get("errored", 0.0) / jobs,
        "unattributed_s": unattributed_s,
        "trace_overhead": trace_overhead,
    }
