"""Crash-safe JSONL journals: the on-disk format under every store.

The evaluation store, the results-DB shards and the service job queue
all persist state as a journal: a header object on the first non-blank
line, then one JSON object per line. This module owns the format rules;
callers keep their own record encoding and decoding.

* **Replay** (:func:`replay`) only reads. Blank lines are skipped; a
  line that does not parse as a JSON object, or that the caller's
  decoder rejects, is bad. The header must carry the caller's expected
  fields. If it does not, or a later line has a ``"kind"`` field
  (another file's header), the file is foreign from that line on: that
  line and every non-blank line after it are bad.
* **Open for append** (:class:`Appender`) terminates a torn last line,
  moves a foreign file aside to ``<name>.foreign`` (the part before the
  foreign line stays live) and writes the header into an empty file, so
  an appended record can never land where replay would drop it.
* **Append** is one ``write`` plus a ``flush``, and an ``fsync`` when
  the caller's durability policy asks for one.
* **Atomic rewrite** (:func:`rewrite`) writes a temp file beside the
  target, fsyncs it and ``os.replace``-s it over the target, so a crash
  leaves either the old file or the new one, never a mix.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Replay:
    """One journal read back: header, decoded records, bad-line count."""

    header: dict[str, Any] | None = None
    records: list[Any] = field(default_factory=list)
    bad: int = 0
    #: Byte offset of the first foreign line (None: nothing foreign).
    foreign_at: int | None = None
    #: The last line has no newline (a write was cut short).
    torn: bool = False


def replay(
    path: str | Path,
    expect: Mapping[str, Any],
    decode: Callable[[dict[str, Any]], Any],
) -> Replay:
    """Read a journal whose header must carry ``expect`` (missing = empty).

    Each record object goes through ``decode``; a ``None`` result counts
    the line bad.
    """
    out = Replay()
    try:
        # surrogateescape: undecodable bytes survive to byte offsets.
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
    except OSError:
        return out
    out.torn = bool(text) and not text.endswith("\n")
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if out.header is None:
            if isinstance(obj, dict) and all(
                obj.get(k) == v for k, v in expect.items()
            ):
                out.header = obj
                continue
        elif not isinstance(obj, dict):
            out.bad += 1
            continue
        elif "kind" not in obj:
            record = decode(obj)
            if record is None:
                out.bad += 1
            else:
                out.records.append(record)
            continue
        out.foreign_at = sum(
            len(done.encode("utf-8", "surrogateescape")) + 1 for done in lines[:i]
        )
        out.bad += sum(1 for rest in lines[i:] if rest.strip())
        break
    return out


def rewrite(path: str | Path, data: str | bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp file + fsync)."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)


class Appender:
    """A journal opened for appending whole lines.

    ``header`` is the caller-encoded header line, newline included,
    written only when the file has none. ``replayed`` may pass a replay
    of the file as it is now, saving a second read; ``fsync`` is the
    caller's durability policy.
    """

    def __init__(
        self,
        path: str | Path,
        expect: Mapping[str, Any],
        header: str,
        *,
        fsync: bool,
        replayed: Replay | None = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        if replayed is None:
            replayed = replay(self.path, expect, lambda obj: obj)
        if replayed.foreign_at is not None:
            data = self.path.read_bytes()
            rewrite(self.path.with_name(self.path.name + ".foreign"), data)
            rewrite(self.path, data[: replayed.foreign_at])
        self._fh = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        text = "\n" if replayed.torn and replayed.foreign_at is None else ""
        if replayed.header is None:
            text += header
        if text:
            self.write(text)

    def write(self, text: str) -> None:
        """Append complete lines: one write, one flush, fsync per policy."""
        self._fh.write(text)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def stat(self) -> os.stat_result:
        """``os.fstat`` of the open file (not of whatever is at the path)."""
        return os.fstat(self._fh.fileno())

    def detach(self) -> None:
        """Close the file; a later :meth:`write` raises."""
        self._fh.close()
