"""Persistent cross-run evaluation store.

An :class:`EvaluationStore` journals every noise-free model evaluation
to disk so later invocations of the experiment stack can warm-start
:class:`~repro.gpusim.simulator.GpuSimulator` instead of recomputing
the (setting → time) map from scratch. The design follows the
append-only pattern of auto-tuning benchmark suites that reuse large
precomputed evaluation sets across tuner comparisons:

* **Journal** — ``journal.jsonl`` in the cache directory holds one JSON
  record per evaluated (device, stencil, setting) triple. Records are
  only ever appended; replay deduplicates.
* **Shards** — concurrent writers (pool workers, overlapping runs)
  never touch the journal directly. Each writer appends to its own
  ``shard-<pid>-<token>.jsonl`` and the orchestrating process merges
  shards into the journal on close. Crashed writers leave their shard
  behind; the next load replays it and the next merge absorbs it.

Both are :mod:`repro.utils.journal` files; bad lines are counted in
:attr:`EvaluationStore.bad_records`.

A store may live as long as the process that merges into its journal
(``repro serve`` holds one per daemon). It keeps the journal's keys and
tail state from its last read, so a merge appends without replaying
the journal again, and it checks before each merge that the file at
the journal path is still the one it read or appended to: another
store's :meth:`~EvaluationStore.compact` ``os.replace``-s the journal,
and appends to the old file would be lost.

Records are keyed by (device-spec hash, stencil name, setting value
tuple). The *measurement-noise state* deliberately stays out of the
key: entries store the noise-free ground truth, and the simulator
replays measurement noise per evaluation from its own seed and running
evaluation index — so warm runs reproduce measured runs bit-for-bit
under any noise configuration, and one journal serves every seed.
:data:`SCHEMA_VERSION` guards the analytical model itself: bump it when
the plan/occupancy/traffic/timing/roughness pipeline changes meaning,
and old journals are set aside rather than replayed wrongly.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.gpusim.device import DeviceSpec
from repro.utils import journal
from repro.utils.hashing import stable_hash
from repro.utils.journal import Appender, Replay, rewrite

#: Version of the persisted record schema *and* of the analytical model
#: whose outputs the records cache. Mismatched files are replayed as
#: foreign (nothing loads) and set aside before the next append.
SCHEMA_VERSION = 1

#: First line of every journal/shard file.
_HEADER_KIND = "repro-evalstore"
_HEADER = {"kind": _HEADER_KIND, "schema": SCHEMA_VERSION}
_HEADER_LINE = json.dumps(_HEADER, separators=(",", ":")) + "\n"

#: Durability policy: flush per write, no fsync. A record lost to a
#: crash is recomputed by the next run that needs it.
JOURNAL_FSYNC = False

#: In-memory key: (device token, stencil name, setting value tuple).
StoreKey = tuple[str, str, tuple[int, ...]]

#: In-memory value: (true_time_s, metrics).
StoreValue = tuple[float, dict[str, float]]

#: Journal file identity and state: (inode, mtime_ns, size).
Signature = tuple[int, int, int]


def _line(key: StoreKey, value: StoreValue) -> str:
    record = {"k": [key[0], key[1], list(key[2])], "t": value[0], "m": value[1]}
    return json.dumps(record, separators=(",", ":")) + "\n"


def _signature(st: os.stat_result) -> Signature:
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def device_token(device: DeviceSpec) -> str:
    """Stable hash of every field of a device spec.

    Editing any model input on the spec (bandwidth, SM count, overhead
    constants…) changes the token, so cached evaluations can never be
    replayed against a device they weren't measured on.
    """
    fields = sorted(dataclasses.asdict(device).items())
    return f"{stable_hash(_HEADER_KIND, SCHEMA_VERSION, fields):016x}"


class EvaluationStore:
    """Append-only on-disk journal of noise-free evaluations.

    Opening a store replays the journal plus any shard files present in
    ``cache_dir`` (crash leftovers included) into memory. Writes go to
    this process's private shard; :meth:`close` merges every shard into
    the journal and removes them.

    The opening replay also keeps the set of journaled keys and the
    journal's tail state (header present, torn last line, foreign
    offset), which the first merge needs; every later reload of the
    journal replaces both.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.cache_dir / "journal.jsonl"
        self._mem: dict[StoreKey, StoreValue] = {}
        self._shard_out: Appender | None = None
        self._shard_path: Path | None = None
        self._journal_out: Appender | None = None
        self._closed = False
        # The journal as last read or appended to: its signature, its
        # keys, and its tail state for opening the appender (None after
        # an appender was dropped: the Appender then reads the file).
        self._journal_sig: Signature | None = None
        self._journaled: set[StoreKey] = set()
        self._journal_tail: Replay | None = None
        # The journal was replaced or truncated under this store: the
        # next merge re-journals every in-memory record it lacks.
        self._resync = False
        # Counters (see :meth:`stats`).
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.records_loaded = 0
        self.bad_records = 0
        self.shards_merged = 0
        self._published: dict[str, int] = {}  # counters at the last publish
        self._load()

    # -- replay ------------------------------------------------------------

    @staticmethod
    def _decode(obj: dict[str, Any]) -> tuple[StoreKey, StoreValue] | None:
        try:
            tok, stencil, values = obj["k"]
            time_s = obj["t"]
            metrics = obj["m"]
            if not (
                isinstance(tok, str)
                and isinstance(stencil, str)
                and isinstance(values, list)
                and all(isinstance(v, int) for v in values)
                and isinstance(time_s, float)
                and isinstance(metrics, dict)
                and all(
                    isinstance(k, str) and isinstance(v, (int, float))
                    for k, v in metrics.items()
                )
            ):
                return None
            key = (tok, stencil, tuple(values))
            return key, (time_s, {k: float(v) for k, v in metrics.items()})
        except (KeyError, TypeError, ValueError):
            return None

    def _replay(self, path: Path) -> Replay:
        state = journal.replay(path, _HEADER, self._decode)
        self.bad_records += state.bad
        return state

    def _admit(self, records: list[tuple[StoreKey, StoreValue]]) -> None:
        """Take every record whose key is not in memory yet."""
        mem = self._mem
        for key, value in records:
            if key not in mem:
                mem[key] = value
                self.records_loaded += 1

    def _load(self) -> None:
        with obs.span("store.open") as span:
            lines = self._load_journal()
            for path in sorted(self.cache_dir.glob("shard-*.jsonl")):
                state = self._replay(path)
                self._admit(state.records)
                lines += len(state.records) + state.bad
            span.set(lines=lines)

    def _load_journal(self) -> int:
        """Replay the journal into memory, keeping its keys and tail
        state for the next merge; return the record lines read."""
        # Stat before reading: a change during the read then shows up
        # as a signature mismatch at the next check.
        self._journal_sig = self._journal_signature()
        state = self._replay(self.journal_path)
        self._journaled = {key for key, _ in state.records}
        self._admit(state.records)
        self._journal_tail = Replay(
            header=state.header, foreign_at=state.foreign_at, torn=state.torn
        )
        return len(state.records) + state.bad

    def _journal_signature(self) -> Signature | None:
        try:
            return _signature(self.journal_path.stat())
        except OSError:
            return None

    def _sync_journal(self) -> None:
        """Re-read the journal if it changed since this store last read
        or appended to it.

        A file at the path with another inode (another store's
        :meth:`compact` replaced it, or it was deleted) or a smaller
        size (truncated) is not the one the open appender writes to:
        the appender is dropped, and the next merge re-journals every
        in-memory record the file no longer holds.
        """
        sig = self._journal_signature()
        held = self._journal_sig
        if sig == held:
            return
        if held is not None and (
            sig is None or sig[0] != held[0] or sig[2] < held[2]
        ):
            self._detach_journal()
            self._resync = True
        self._load_journal()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` or :meth:`release` ran."""
        return self._closed

    def refresh(self) -> int:
        """Replay files that changed since the last load; return new keys.

        Persistent workers, and pools attaching to a long-lived store,
        call this when a run re-attaches them to a cache directory they
        already hold in memory: if another process merged fresh records
        into the journal in the meantime, they are picked up; if nothing
        changed, the call is a cheap stat.
        """
        shards = sorted(self.cache_dir.glob("shard-*.jsonl"))
        if self._journal_sig == self._journal_signature() and not shards:
            return 0
        before = self.records_loaded
        self._sync_journal()
        for path in shards:
            self._admit(self._replay(path).records)
        return self.records_loaded - before

    # -- lookup / record ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._mem)

    def items(self) -> Iterator[tuple[StoreKey, StoreValue]]:
        """Snapshot iteration over every in-memory record.

        The public ingest surface for tooling layered on top of the
        store (the results database imports journals through this), so
        external readers never touch the journal format directly.
        """
        return iter(list(self._mem.items()))

    def lookup(
        self, tok: str, stencil: str, values: tuple[int, ...]
    ) -> StoreValue | None:
        """Stored (true_time_s, metrics) for one setting, if journaled."""
        value = self._mem.get((tok, stencil, values))
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def peek(
        self, tok: str, stencil: str, values: tuple[int, ...]
    ) -> StoreValue | None:
        """:meth:`lookup` without counting a hit or miss."""
        return self._mem.get((tok, stencil, values))

    def record(
        self,
        tok: str,
        stencil: str,
        values: tuple[int, ...],
        true_time_s: float,
        metrics: Mapping[str, float],
    ) -> None:
        """Journal one evaluation (idempotent per key)."""
        key = (tok, stencil, values)
        if key in self._mem or self._closed:
            return
        value = (float(true_time_s), {k: float(v) for k, v in metrics.items()})
        self._mem[key] = value
        self.puts += 1
        self._shard().write(_line(key, value))

    def record_batch(
        self,
        tok: str,
        stencil: str,
        values_rows: Sequence[tuple[int, ...]],
        true_times: Any,
        metrics_rows: Any,
    ) -> None:
        """Journal a batch of evaluations in one shard write.

        Byte-identical to calling :meth:`record` per row in order
        (idempotent per key, same JSON encoding) but encodes the whole
        batch with one pass over the columnar data and one
        write+flush. ``metrics_rows`` is normally a
        :class:`~repro.gpusim.records.MetricsTable`; any sequence of
        mappings (or a table holding non-finite floats, whose encoding
        the fast formatter can't reproduce) falls back to per-row
        :meth:`record` calls.
        """
        if self._closed:
            return
        names = getattr(metrics_rows, "names", None)
        data = getattr(metrics_rows, "data", None)
        tt = np.asarray(true_times, dtype=np.float64)
        if (
            names is None
            or data is None
            or not np.isfinite(data).all()
            or not np.isfinite(tt).all()
        ):
            rows = (
                metrics_rows.as_dicts()
                if hasattr(metrics_rows, "as_dicts")
                else list(metrics_rows)
            )
            for values, t, m in zip(values_rows, true_times, rows):
                self.record(tok, stencil, tuple(values), float(t), dict(m))
            return
        # Fast path: for finite floats json.dumps emits float.__repr__
        # and for ints str(), so f-string assembly from pre-escaped
        # name fragments reproduces record()'s bytes exactly.
        tok_s = json.dumps(tok)
        st_s = json.dumps(stencil)
        name_s = [json.dumps(n) for n in names]
        mem = self._mem
        lines: list[str] = []
        for values, t, mrow in zip(values_rows, tt.tolist(), data.tolist()):
            key = (tok, stencil, tuple(values))
            if key in mem:
                continue
            mem[key] = (t, dict(zip(names, mrow)))
            self.puts += 1
            vals = ",".join(map(str, key[2]))
            m = ",".join(f"{ns}:{mv!r}" for ns, mv in zip(name_s, mrow))
            lines.append(f'{{"k":[{tok_s},{st_s},[{vals}]],"t":{t!r},"m":{{{m}}}}}')
        if lines:
            self._shard().write("\n".join(lines) + "\n")

    def _shard(self) -> Appender:
        if self._shard_out is None:
            token = f"{stable_hash(os.getpid(), id(self)):08x}"
            self._shard_path = self.cache_dir / f"shard-{os.getpid()}-{token}.jsonl"
            self._shard_out = Appender(
                self._shard_path, _HEADER, _HEADER_LINE, fsync=JOURNAL_FSYNC
            )
        return self._shard_out

    def release_shard(self) -> str | None:
        """Flush and close this process's open shard; return its path.

        Unlike :meth:`close` the store stays live: the next
        :meth:`record` opens a fresh shard. Persistent pool workers use
        this at sync points so the orchestrating process can merge a
        *closed* file into the journal while other workers keep running.
        """
        if self._shard_out is None:
            return None
        self._shard_out.detach()
        self._shard_out = None
        path = str(self._shard_path)
        self._shard_path = None
        return path

    def release(self) -> None:
        """Close the private shard and stop accepting writes — no merge.

        Worker-side teardown: the shard file is left on disk for the
        orchestrating process (the only party allowed to touch the
        journal) to absorb.
        """
        self.release_shard()
        self._closed = True

    # -- shard merging -----------------------------------------------------

    def absorb_shards(self) -> int:
        """Merge every shard in the cache directory into the journal.

        Replays shards (including this process's own and any crash
        leftovers), appends records the journal doesn't already hold,
        then deletes the shard files. Returns the number of shard files
        absorbed. Safe to call repeatedly.
        """
        self.release_shard()
        return self.absorb_shard_paths(
            sorted(self.cache_dir.glob("shard-*.jsonl"))
        )

    def absorb_shard_paths(self, paths: Sequence[str | Path]) -> int:
        """Merge specific *closed* shard files into the journal.

        The incremental form of :meth:`absorb_shards`: the warm pool
        calls it per worker as soon as that worker's shard is flushed
        and closed, overlapping journal I/O with evaluation still in
        flight on the other workers. Never pass a shard another process
        may still be appending to.
        """
        shards = [Path(p) for p in paths if Path(p).exists()]
        self._sync_journal()
        if not shards and not self._resync:
            return 0
        with obs.span("store.merge", shards=len(shards)) as span:
            journaled = self._journaled
            fresh: dict[StoreKey, StoreValue] = {}
            if self._resync:
                fresh = {
                    k: v for k, v in self._mem.items() if k not in journaled
                }
                self._resync = False
            for shard in shards:
                for key, value in self._replay(shard).records:
                    if key not in journaled and key not in fresh:
                        fresh[key] = value
                    if key not in self._mem:
                        self._mem[key] = value
                        self.records_loaded += 1
            if fresh:
                if self._journal_out is None:
                    self._journal_out = Appender(
                        self.journal_path, _HEADER, _HEADER_LINE,
                        fsync=JOURNAL_FSYNC, replayed=self._journal_tail,
                    )
                self._journal_out.write(
                    "".join(_line(key, value) for key, value in fresh.items())
                )
                journaled.update(fresh)
                # The appender's own file: one replaced since the write
                # fails the next check instead of passing it.
                self._journal_sig = _signature(self._journal_out.stat())
            span.set(lines=len(fresh))
        for shard in shards:
            try:
                shard.unlink()
            except OSError:
                pass
        self.shards_merged += len(shards)
        return len(shards)

    def compact(self) -> dict[str, int]:
        """Rewrite the journal, dropping corrupt and duplicate lines.

        The journal is append-only, so crash tails, partial writes and
        records re-journaled by concurrent merges accumulate forever.
        Compaction first absorbs any closed shards, then atomically
        rewrites the journal (:func:`~repro.utils.journal.rewrite`),
        keeping exactly the surviving records in first-seen order — a
        reopened store loads the same keys and values, with
        ``bad_records == 0``.

        Returns ``{"kept": n, "dropped_bad": n, "dropped_duplicates": n}``.
        Only the orchestrating process (journal owner) may call this.
        """
        self.absorb_shards()
        self._detach_journal()
        bad_before = self.bad_records
        decoded = self._replay(self.journal_path).records
        kept: dict[StoreKey, StoreValue] = {}
        for key, value in decoded:
            kept.setdefault(key, value)  # first-seen wins
        dropped_bad = self.bad_records - bad_before
        dropped_dup = len(decoded) - len(kept)
        body = "".join(_line(key, value) for key, value in kept.items())
        rewrite(self.journal_path, _HEADER_LINE + body)
        self._journaled = set(kept)
        self._journal_tail = Replay(header=dict(_HEADER))
        self._journal_sig = self._journal_signature()
        return {
            "kept": len(kept),
            "dropped_bad": dropped_bad,
            "dropped_duplicates": dropped_dup,
        }

    def _detach_journal(self) -> None:
        if self._journal_out is not None:
            self._journal_out.detach()
            self._journal_out = None
            self._journal_tail = None  # the appender changed the file

    def publish_stats(self) -> None:
        """Add the counters' movement since the last publish to the
        :mod:`repro.obs.metrics` registry (``diskcache.`` namespace) and
        set the ``diskcache.entries`` gauge, so exporters see the store
        alongside the tracer/search instruments without any per-lookup
        registry cost. :meth:`close` publishes; so does a pool leaving
        a store it attached to."""
        registry = obs.get_registry()
        stats = self.stats()
        registry.gauge("diskcache.entries", stats.pop("entries"))
        published = self._published
        for name, value in stats.items():
            registry.count(f"diskcache.{name}", value - published.get(name, 0))
        self._published = stats

    def close(self) -> None:
        """Flush, merge all shards into the journal, stop accepting
        writes, and :meth:`publish_stats`."""
        if self._closed:
            return
        self.absorb_shards()
        self._detach_journal()
        self._closed = True
        self.publish_stats()

    def __enter__(self) -> EvaluationStore:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- stats -------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Monotonic counters, for delta accounting across task boundaries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
        }

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._mem),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "records_loaded": self.records_loaded,
            "bad_records": self.bad_records,
            "shards_merged": self.shards_merged,
        }


# ---------------------------------------------------------------------------
# Process-wide default store
# ---------------------------------------------------------------------------

_DEFAULT_STORE: EvaluationStore | None = None


def get_default_store() -> EvaluationStore | None:
    """The store newly constructed simulators attach to (may be None)."""
    return _DEFAULT_STORE


def set_default_store(store: EvaluationStore | None) -> EvaluationStore | None:
    """Install the process-wide default store; returns the previous one.

    Worker pools call this when they attach a cache directory (the warm
    workers when configured, the orchestrating process on pool entry)
    so every simulator a task constructs — however deep in the
    experiment stack — reads and journals evaluations without any
    constructor plumbing.
    """
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous
