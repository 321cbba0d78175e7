"""Hierarchical span tracer with a no-op default.

A *span* is one timed region of the pipeline — a tuner run, a
pre-processing phase, a batch of simulator evaluations — with a name,
wall-clock anchors, a monotonic duration and a parent link, so a trace
reconstructs the call tree that produced an experiment. The tracer is
**off by default**: every instrumentation point in the codebase calls
:func:`span`, which returns a shared no-op context manager until
:func:`enable_tracing` is called, so uninstrumented and instrumented
runs are observationally identical (the overhead bound is gated by
``benchmarks/bench_obs_overhead.py``).

Design constraints, in order:

* **Zero dependencies.** This module sits below every other layer of
  ``repro`` (the simulator, the search core and the orchestration pool
  all import it), so it uses only the standard library.
* **Result-neutral.** Spans read clocks and append to a buffer; they
  never touch RNG state, caches or any value that feeds an artifact.
* **Thread- and worker-safe.** Span stacks are per-thread
  (``threading.local``), buffer appends are lock-protected, and
  per-process buffers are :meth:`Tracer.drain`-ed into plain dicts that
  the :mod:`repro.parallel` result channel carries back to the parent,
  where :meth:`Tracer.absorb` merges them. Span identity is the
  ``(pid, span_id)`` pair, so merged buffers never collide.
* **Bounded.** The buffer holds at most ``max_spans`` spans; further
  spans are timed but dropped (counted in :attr:`Tracer.dropped`), so a
  runaway loop cannot exhaust memory.

Durations come from ``time.perf_counter`` (monotonic, highest
resolution available); ``wall_time`` anchors each span to the epoch so
traces from different processes can be ordered approximately.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: Version of the span dict schema written by :meth:`Span.to_dict`.
TRACE_SCHEMA_VERSION = 1

#: Default bound on a tracer's in-memory span buffer.
DEFAULT_MAX_SPANS = 250_000

#: Environment variable that switches the default tracer on at import.
TRACE_ENV_VAR = "REPRO_TRACE"


@dataclass(frozen=True)
class Span:
    """One finished timed region.

    ``span_id`` is unique within ``pid``; ``parent_id`` links to the
    enclosing span of the same process (``None`` for roots). ``attrs``
    carries small JSON-serializable context (stencil, device, tuner,
    batch sizes…).
    """

    name: str
    wall_time: float
    duration_s: float
    span_id: int
    parent_id: int | None
    pid: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "duration_s": self.duration_s,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> Span:
        return cls(
            name=str(obj["name"]),
            wall_time=float(obj["wall_time"]),
            duration_s=float(obj["duration_s"]),
            span_id=int(obj["span_id"]),
            parent_id=(
                int(obj["parent_id"]) if obj.get("parent_id") is not None else None
            ),
            pid=int(obj.get("pid", 0)),
            attrs=dict(obj.get("attrs", {})),
        )


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _SpanContext:
    """Live span: measures on exit, maintains the per-thread stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id", "_parent_id",
                 "_wall", "_t0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> _SpanContext:
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = tracer._next_id()
        stack.append(self._span_id)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> None:
        """Add attributes known only once the timed work is done."""
        self._attrs.update(attrs)

    def __exit__(self, *exc: object) -> None:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._record(
            Span(
                name=self._name,
                wall_time=self._wall,
                duration_s=duration,
                span_id=self._span_id,
                parent_id=self._parent_id,
                pid=os.getpid(),
                attrs=self._attrs,
            )
        )


class Tracer:
    """Span collector with an on/off switch and a bounded buffer."""

    def __init__(self, *, enabled: bool = False,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._buffer: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._id_counter = 0

    # -- internals ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._buffer) >= self.max_spans:
                self.dropped += 1
            else:
                self._buffer.append(span)

    # -- public API --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext | _NoopSpan:
        """Context manager timing ``name``; no-op while disabled."""
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, name, attrs)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def spans(self) -> list[Span]:
        """Snapshot of the finished spans recorded so far."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()
            self.dropped = 0

    def drain(self) -> list[dict[str, Any]]:
        """Export and clear the buffer (picklable dicts, for the pool)."""
        with self._lock:
            out = [s.to_dict() for s in self._buffer]
            self._buffer.clear()
        return out

    def absorb(self, span_dicts: list[dict[str, Any]]) -> None:
        """Merge spans drained from another process (or this one)."""
        spans = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            room = self.max_spans - len(self._buffer)
            if room < len(spans):
                self.dropped += len(spans) - max(0, room)
                spans = spans[: max(0, room)]
            self._buffer.extend(spans)


#: The process-wide default tracer every instrumentation point uses.
_default = Tracer(enabled=os.environ.get(TRACE_ENV_VAR, "") == "1")


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default


def tracing() -> bool:
    """Fast check whether the default tracer is recording."""
    return _default.enabled


def span(name: str, **attrs: Any) -> _SpanContext | _NoopSpan:
    """Time a region on the default tracer (no-op while disabled)."""
    if not _default.enabled:
        return _NOOP
    return _SpanContext(_default, name, attrs)


def enable_tracing() -> bool:
    """Switch the default tracer on; returns the previous state."""
    prev = _default.enabled
    _default.enabled = True
    return prev


def disable_tracing() -> bool:
    """Switch the default tracer off; returns the previous state."""
    prev = _default.enabled
    _default.enabled = False
    return prev
