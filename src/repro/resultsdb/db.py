"""The sharded tuning-results database.

Layout under the database root::

    <root>/
      shards/<device-token>/<stencil>.jsonl   one shard per (device, stencil)
      golden.json                             versioned golden-record table

Each shard is a :mod:`repro.utils.journal` file whose header pins the
kind, schema, device token and stencil; replay deduplicates. Unlike the
flat evaluation journal, records inside a shard don't repeat the device
token and stencil name — the shard path carries them — so a shard line
is ``{"v": [values...], "t": time_s, "m": {metrics}}``.

The database is populated by *ingesting* evaluation-cache directories
(``repro db import --from-cache DIR``) or merging an exported dump
(``--from-json FILE``); :meth:`ResultsDB.compact` rewrites every shard
dropping corrupt and duplicate lines; :meth:`ResultsDB.update_golden`
recomputes the golden table from the shards (see
:mod:`repro.resultsdb.golden`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.gpusim.device import DEVICES, DeviceSpec
from repro.gpusim.diskcache import (
    SCHEMA_VERSION,
    EvaluationStore,
    device_token,
)
from repro.utils.journal import Appender, Replay, replay, rewrite

#: First line of every shard file.
SHARD_KIND = "repro-resultsdb"

#: Durability policy: flush per write, no fsync. Shard records lost to a
#: crash are re-ingested from the evaluation caches they came from.
SHARD_FSYNC = False

#: One shard's records: setting value tuple → (time_s, metrics).
ShardRecords = dict[tuple[int, ...], tuple[float, dict[str, float]]]


def _line(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _record_line(
    values: tuple[int, ...], value: tuple[float, dict[str, float]]
) -> str:
    return _line({"v": list(values), "t": value[0], "m": value[1]})


def _shard_header(
    tok: str, stencil: str, device_name: str | None = None
) -> dict[str, Any]:
    """A shard's header; without a name, exactly the fields replay checks."""
    header = {
        "kind": SHARD_KIND, "schema": SCHEMA_VERSION,
        "device": tok, "stencil": stencil,
    }
    if device_name is not None:
        header["device_name"] = device_name
    return header


def known_device_names() -> dict[str, str]:
    """Device token → registry name, for every registered device.

    Shard headers also carry the device name, but journals ingested
    from old caches only know tokens; this map recovers the name for
    any device the current build registers.
    """
    return {device_token(spec): name for name, spec in DEVICES.items()}


def _header_device_name(path: Path, expect: dict[str, Any]) -> str | None:
    """The ``device_name`` in a shard's header: its first non-blank
    line, when that is a header replay accepts (carries ``expect``)."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape",
                  newline="\n") as fh:
            line = next((text for text in fh if text.strip()), "")
    except OSError:
        return None
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not (isinstance(obj, dict)
            and all(obj.get(k) == v for k, v in expect.items())):
        return None
    name = obj.get("device_name")
    return name if isinstance(name, str) else None


@dataclass
class Shard:
    """One loaded shard: its identity, records and replay health."""

    device_token: str
    stencil: str
    device_name: str | None
    records: ShardRecords = field(default_factory=dict)
    bad_records: int = 0
    duplicates: int = 0


class ResultsDB:
    """Sharded, compacting database of tuning results.

    Thread/process model: a database directory has a single writer (the
    ``repro db`` tooling or the orchestrating process); readers — the
    serve fast path and warm-start seeding — only ever open files, so
    concurrent reads are safe.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        self.golden_path = self.root / "golden.json"
        self._golden: Any = None  # lazy GoldenTable
        #: Decoded shards by (token, stencil), each with the file
        #: signature (inode, mtime, size) it was read at.
        self._shards: dict[tuple[str, str], tuple[tuple[int, int, int], Shard]] = {}

    # -- shard layout --------------------------------------------------------

    def shard_path(self, tok: str, stencil: str) -> Path:
        return self.shards_dir / tok / f"{stencil}.jsonl"

    def shard_keys(self) -> list[tuple[str, str]]:
        """Every (device token, stencil) with a shard on disk, sorted."""
        out = []
        for tok_dir in sorted(self.shards_dir.iterdir()):
            if not tok_dir.is_dir():
                continue
            for path in sorted(tok_dir.glob("*.jsonl")):
                out.append((tok_dir.name, path.stem))
        return out

    @staticmethod
    def _decode_record(
        obj: dict[str, Any],
    ) -> tuple[tuple[int, ...], tuple[float, dict[str, float]]] | None:
        try:
            values = obj["v"]
            time_s = obj["t"]
            metrics = obj["m"]
            if not (
                isinstance(values, list)
                and all(isinstance(v, int) for v in values)
                and isinstance(time_s, float)
                and isinstance(metrics, dict)
                and all(
                    isinstance(k, str) and isinstance(v, (int, float))
                    for k, v in metrics.items()
                )
            ):
                return None
            return tuple(values), (
                float(time_s),
                {k: float(v) for k, v in metrics.items()},
            )
        except (KeyError, TypeError, ValueError):
            return None

    def load_shard(self, tok: str, stencil: str) -> Shard:
        """Replay one shard with corruption tolerance (missing = empty).

        The decoded shard is kept under its file's signature; until an
        append or a rewrite moves that, later loads return the same
        :class:`Shard` without reading the file (treat it as
        read-only). The signature is taken before the read, so a write
        racing it only costs one more replay.
        """
        key = (tok, stencil)
        try:
            st = os.stat(self.shard_path(tok, stencil))
        except OSError:
            self._shards.pop(key, None)
            return self._replay_shard(tok, stencil)[0]
        signature = (st.st_ino, st.st_mtime_ns, st.st_size)
        cached = self._shards.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
        shard = self._replay_shard(tok, stencil)[0]
        self._shards[key] = (signature, shard)
        return shard

    def _replay_shard(self, tok: str, stencil: str) -> tuple[Shard, Replay]:
        path = self.shard_path(tok, stencil)
        state = replay(path, _shard_header(tok, stencil), self._decode_record)
        name = (state.header or {}).get("device_name")
        if not isinstance(name, str):
            name = known_device_names().get(tok)
        shard = Shard(tok, stencil, name, bad_records=state.bad)
        for values, value in state.records:
            if values in shard.records:
                shard.duplicates += 1
            else:
                shard.records[values] = value
        return shard, state

    def shard_device_name(self, tok: str) -> str | None:
        """Device name for a token: the first shard whose header names
        it (or, for a shard without one, the registry map), else the
        registry map. Reads only each shard's header line."""
        known = known_device_names().get(tok)
        tok_dir = self.shards_dir / tok
        if tok_dir.is_dir():
            for path in sorted(tok_dir.glob("*.jsonl")):
                name = _header_device_name(path, _shard_header(tok, path.stem))
                if name is None:
                    name = known
                if name is not None:
                    return name
        return known

    # -- writes --------------------------------------------------------------

    def append(
        self,
        tok: str,
        stencil: str,
        records: ShardRecords,
        device_name: str | None = None,
    ) -> tuple[int, int]:
        """Append records one shard doesn't hold yet; return (added, dups)."""
        if not records:
            return (0, 0)
        existing, state = self._replay_shard(tok, stencil)
        fresh = {
            values: value
            for values, value in records.items()
            if values not in existing.records
        }
        dups = len(records) - len(fresh)
        if not fresh:
            return (0, dups)
        path = self.shard_path(tok, stencil)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = _shard_header(tok, stencil, device_name or existing.device_name)
        out = Appender(
            path, _shard_header(tok, stencil), _line(header),
            fsync=SHARD_FSYNC, replayed=state,
        )
        try:
            out.write("".join(_record_line(v, value) for v, value in fresh.items()))
        finally:
            out.detach()
        return (len(fresh), dups)

    # -- ingest --------------------------------------------------------------

    def ingest_store(self, store: EvaluationStore) -> dict[str, int]:
        """Shard every record of an open evaluation store into the DB."""
        grouped: dict[tuple[str, str], ShardRecords] = {}
        for (tok, stencil, values), value in store.items():
            grouped.setdefault((tok, stencil), {})[values] = value
        added = dups = 0
        for (tok, stencil), records in sorted(grouped.items()):
            a, d = self.append(tok, stencil, records)
            added += a
            dups += d
        return {
            "shards_touched": len(grouped),
            "records_added": added,
            "duplicates_skipped": dups,
            "source_bad_records": store.bad_records,
        }

    def ingest_cache_dir(self, cache_dir: str | Path) -> dict[str, int]:
        """Ingest an evaluation-cache directory (journal + crash shards).

        Opens the cache read-only in the corruption-tolerant replay
        path — the journal and shard files there are left untouched.
        """
        store = EvaluationStore(cache_dir)
        try:
            return self.ingest_store(store)
        finally:
            # Never merge or close: ingest must not mutate the source
            # cache (release drops the private shard without a merge).
            store.release()

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Rewrite every shard dropping corrupt and duplicate lines.

        Every surviving (parseable, schema-current, first-seen) record
        is preserved byte-for-value; rewrites are atomic per shard
        (:func:`~repro.utils.journal.rewrite`).
        """
        kept = dropped_bad = dropped_dup = 0
        keys = self.shard_keys()
        for tok, stencil in keys:
            shard = self.load_shard(tok, stencil)
            header = _shard_header(tok, stencil, shard.device_name)
            body = "".join(
                _record_line(v, value) for v, value in shard.records.items()
            )
            rewrite(self.shard_path(tok, stencil), _line(header) + body)
            kept += len(shard.records)
            dropped_bad += shard.bad_records
            dropped_dup += shard.duplicates
        return {
            "shards": len(keys),
            "kept": kept,
            "dropped_bad": dropped_bad,
            "dropped_duplicates": dropped_dup,
        }

    # -- export / import -----------------------------------------------------

    def export_json(self, path: str | Path) -> dict[str, int]:
        """Dump the whole database (shards + golden) to one JSON file."""
        from repro.resultsdb.golden import save_golden_payload

        shards = []
        records = 0
        for tok, stencil in self.shard_keys():
            shard = self.load_shard(tok, stencil)
            shards.append(
                {
                    "device": tok,
                    "device_name": shard.device_name,
                    "stencil": stencil,
                    "records": [
                        {"v": list(values), "t": t, "m": m}
                        for values, (t, m) in shard.records.items()
                    ],
                }
            )
            records += len(shard.records)
        payload = {
            "kind": f"{SHARD_KIND}-export",
            "schema": SCHEMA_VERSION,
            "shards": shards,
            "golden": save_golden_payload(self.golden()),
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        rewrite(path, json.dumps(payload, indent=2) + "\n")
        return {"shards": len(shards), "records": records}

    def import_json(self, path: str | Path) -> dict[str, int]:
        """Merge an exported dump into this database (golden excluded —
        run ``update-golden`` after importing)."""
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if (
            not isinstance(obj, dict)
            or obj.get("kind") != f"{SHARD_KIND}-export"
            or obj.get("schema") != SCHEMA_VERSION
        ):
            raise ValueError(f"{path}: not a resultsdb export (schema "
                             f"{SCHEMA_VERSION})")
        added = dups = bad = 0
        for entry in obj.get("shards", []):
            tok = entry.get("device")
            stencil = entry.get("stencil")
            if not (isinstance(tok, str) and isinstance(stencil, str)):
                bad += 1
                continue
            records: ShardRecords = {}
            for rec in entry.get("records", []):
                decoded = (
                    self._decode_record(rec) if isinstance(rec, dict) else None
                )
                if decoded is None:
                    bad += 1
                    continue
                records[decoded[0]] = decoded[1]
            name = entry.get("device_name")
            a, d = self.append(
                tok, stencil, records,
                device_name=name if isinstance(name, str) else None,
            )
            added += a
            dups += d
        return {"records_added": added, "duplicates_skipped": dups,
                "bad_records": bad}

    # -- golden / serve ------------------------------------------------------

    def golden(self) -> Any:
        """The golden table, loaded lazily (cached until :meth:`reload`)."""
        if self._golden is None:
            from repro.resultsdb.golden import load_golden

            self._golden = load_golden(self.golden_path)
        return self._golden

    def reload(self) -> None:
        """Drop the cached golden table (next access re-reads disk)."""
        self._golden = None

    def update_golden(self) -> dict[str, int]:
        """Recompute golden records from the shards; persist and return
        a change summary (see :func:`repro.resultsdb.golden.update_golden`)."""
        from repro.resultsdb.golden import update_golden

        summary = update_golden(self)
        self.reload()
        return summary

    def serve(self, pattern: Any, device: DeviceSpec) -> Any:
        """O(1) golden-record lookup for (stencil, device, grid).

        Returns the fresh :class:`~repro.resultsdb.golden.GoldenRecord`
        or ``None``. This is the whole fast path: one dict lookup on the
        loaded golden table — no simulator, no search space, no tuner.
        """
        return self.golden().serve(
            pattern.name, device_token(device), tuple(pattern.grid)
        )

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Database-wide summary (the ``repro db stats`` payload)."""
        per_device: dict[str, dict[str, int]] = {}
        records = bad = 0
        keys = self.shard_keys()
        for tok, stencil in keys:
            shard = self.load_shard(tok, stencil)
            name = shard.device_name or tok[:8]
            dev = per_device.setdefault(name, {"shards": 0, "records": 0})
            dev["shards"] += 1
            dev["records"] += len(shard.records)
            records += len(shard.records)
            bad += shard.bad_records
        golden = self.golden()
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "shards": len(keys),
            "records": records,
            "bad_records": bad,
            "devices": per_device,
            "golden_records": len(golden),
            "golden_version": golden.version,
        }
