"""Fault injection for every journaled store: a crash at any byte.

Each store records a small journal, which is then cut at every byte
offset, reopened, appended to once and replayed twice: no record whose
line was complete before the cut may be lost, the fresh record lands
exactly once, and replay is idempotent. Whole-file rewrites (store and
results-DB compaction, golden table, export, and the service's
``result.json``, ``orchestration.txt`` and endpoint file and
``save_result``) are crashed between writing the temp file and renaming
it over the target. A live evaluation store has its journal replaced or
truncated underneath it and must still merge into the file at the path.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import pytest

from repro.core.io import save_result
from repro.core.result import TuningResult
from repro.gpusim.device import A100
from repro.gpusim.diskcache import SCHEMA_VERSION, EvaluationStore, device_token
from repro.resultsdb.db import SHARD_KIND, ResultsDB
from repro.resultsdb.golden import (
    GoldenRecord,
    GoldenTable,
    load_golden,
    save_golden,
)
from repro.service.daemon import ENDPOINT_FILE, ServiceDaemon
from repro.service.executor import _write_json, _write_stats
from repro.service.jobs import JobState
from repro.service.queue import JobQueue
from repro.utils.journal import replay

TOK = device_token(A100)


def _keep(obj: dict[str, Any]) -> dict[str, Any]:
    return obj


@dataclass
class StoreCase:
    """One store, reduced to what the byte-cut test needs."""

    journal: Callable[[Path], Path]  # the journal file under a root
    expect: dict[str, Any]  # header fields replay checks
    record: Callable[[Path], None]  # write the small history
    reopen_append: Callable[[Path], None]  # reopen, append one record
    view: Callable[[Path], Any]  # the store's own replayed state
    is_fresh: Callable[[dict[str, Any]], bool]  # the appended record


def _store_record(root: Path) -> None:
    with EvaluationStore(root) as store:
        for i in (1, 2, 3):
            store.record("tok", "s", (i,), i / 2, {"occ": 0.5})


def _store_append(root: Path) -> None:
    store = EvaluationStore(root)
    store.record("tok", "s", (99,), 9.5, {})
    store.close()


def _store_view(root: Path) -> Any:
    store = EvaluationStore(root)
    store.release()
    return dict(store.items()), store.bad_records


def _db_record(root: Path) -> None:
    records = {(i,): (i / 2, {"occ": 0.5}) for i in (1, 2, 3)}
    assert ResultsDB(root).append(TOK, "s", records, "A100") == (3, 0)


def _db_append(root: Path) -> None:
    assert ResultsDB(root).append(TOK, "s", {(99,): (9.5, {})}) == (1, 0)


def _db_view(root: Path) -> Any:
    shard = ResultsDB(root).load_shard(TOK, "s")
    return shard.records, shard.bad_records, shard.device_name


def _queue_record(root: Path) -> None:
    queue = JobQueue(root)
    done, _ = queue.submit("sleep", {"seconds": 1.0}, key="a")
    queue.claim_next()
    queue.transition(done.id, JobState.DONE, result={"n": 1})
    queue.submit("sleep", {"seconds": 1.0}, key="b")
    queue.claim_next()  # left running: replay requeues it
    queue.close()


def _queue_append(root: Path) -> None:
    queue = JobQueue(root)
    queue.submit("sleep", {"seconds": 2.0}, key="fresh")
    queue.close()


def _queue_view(root: Path) -> Any:
    queue = JobQueue(root)
    queue.close()
    jobs = {
        j.id: (j.key, j.state, j.retries, j.result, j.cancel_requested)
        for j in queue.jobs()
    }
    return jobs, queue.bad_lines


CASES = {
    "store": StoreCase(
        journal=lambda root: root / "journal.jsonl",
        expect={"kind": "repro-evalstore", "schema": SCHEMA_VERSION},
        record=_store_record,
        reopen_append=_store_append,
        view=_store_view,
        is_fresh=lambda obj: obj.get("k") == ["tok", "s", [99]],
    ),
    "resultsdb": StoreCase(
        journal=lambda root: ResultsDB(root).shard_path(TOK, "s"),
        expect={"kind": SHARD_KIND, "schema": SCHEMA_VERSION,
                "device": TOK, "stencil": "s"},
        record=_db_record,
        reopen_append=_db_append,
        view=_db_view,
        is_fresh=lambda obj: obj.get("v") == [99],
    ),
    "queue": StoreCase(
        journal=lambda root: root / "queue.jsonl",
        expect={"kind": "repro-jobqueue", "version": 1},
        record=_queue_record,
        reopen_append=_queue_append,
        view=_queue_view,
        is_fresh=lambda obj: obj.get("key") == "fresh",
    ),
}


def _line_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) byte offsets of each non-blank line's JSON text."""
    spans, pos = [], 0
    for line in data.split(b"\n"):
        if line.strip():
            spans.append((pos, pos + len(line)))
        pos += len(line) + 1
    return spans


@pytest.mark.parametrize("name", sorted(CASES))
def test_truncation_at_every_byte_offset(name, tmp_path):
    case = CASES[name]
    case.record(tmp_path / "src")
    data = case.journal(tmp_path / "src").read_bytes()
    full = replay(case.journal(tmp_path / "src"), case.expect, _keep)
    (_, header_end), *records = _line_spans(data)
    assert len(records) == len(full.records) >= 3

    for cut in range(len(data) + 1):
        root = tmp_path / "cut"
        path = case.journal(root)
        path.parent.mkdir(parents=True)
        path.write_bytes(data[:cut])

        case.reopen_append(root)
        first = replay(path, case.expect, _keep)
        second = replay(path, case.expect, _keep)
        assert first == second, cut
        assert case.view(root) == case.view(root), cut

        complete = sum(end <= cut for _, end in records)
        torn = sum(start < cut < end for start, end in records)
        assert first.records[:complete] == full.records[:complete], cut
        assert sum(map(case.is_fresh, first.records)) == 1, cut
        assert first.header is not None, cut
        assert first.bad == torn, cut  # only the cut line itself is lost
        aside = path.with_name(path.name + ".foreign")
        if 0 < cut < header_end:  # torn header: set aside, not dropped
            assert aside.read_bytes() == data[:cut], cut
        else:
            assert not aside.exists(), cut
        shutil.rmtree(root)


# ---------------------------------------------------------------------------
# Crash between the temp-file write and the rename
# ---------------------------------------------------------------------------


def _golden(version: int) -> GoldenTable:
    rec = GoldenRecord(
        stencil="s", device_token=TOK, device_name="A100", grid=None,
        values=(version,), time_s=1.0, schema=SCHEMA_VERSION,
        version=version,
    )
    return GoldenTable({rec.key(): rec}, version=version)


def _dirty_db(root: Path) -> ResultsDB:
    db = ResultsDB(root)
    db.append(TOK, "s", {(1,): (1.0, {"occ": 0.5}), (2,): (2.0, {})})
    with db.shard_path(TOK, "s").open("a", encoding="utf-8") as f:
        f.write("{torn\n" '{"v":[1],"t":9.0,"m":{}}\n')
    return db


def _store_compact(root: Path) -> tuple[Path, Callable[[], Any], Callable[[], Any]]:
    _store_record(root)
    with (root / "journal.jsonl").open("a", encoding="utf-8") as f:
        f.write("{torn\n" '{"k":["tok","s",[1]],"t":9.0,"m":{}}\n')
    store = EvaluationStore(root)

    def view() -> Any:
        items, _ = _store_view(root)
        return items, sorted(p.name for p in root.glob("shard-*.jsonl"))

    return root / "journal.jsonl", store.compact, view


def _db_compact(root: Path) -> tuple[Path, Callable[[], Any], Callable[[], Any]]:
    db = _dirty_db(root)
    return (
        db.shard_path(TOK, "s"),
        db.compact,
        lambda: (db.shard_keys(), db.load_shard(TOK, "s").records),
    )


def _golden_save(root: Path) -> tuple[Path, Callable[[], Any], Callable[[], Any]]:
    path = root / "golden.json"
    save_golden(path, _golden(1))

    def view() -> Any:
        table = load_golden(path)
        return table.version, table.records

    return path, lambda: save_golden(path, _golden(2)), view


def _db_export(root: Path) -> tuple[Path, Callable[[], Any], Callable[[], Any]]:
    db = _dirty_db(root / "db")
    out = root / "export.json"
    db.export_json(out)
    db.append(TOK, "s", {(3,): (3.0, {})})

    def view() -> Any:
        return db.shard_keys(), json.loads(out.read_text(encoding="utf-8"))

    return out, lambda: db.export_json(out), view


def _artifact(
    write: Callable[[Path, int], None], name: str
) -> Callable[[Path], tuple[Path, Callable[[], Any], Callable[[], Any]]]:
    """A whole-file artifact writer, called with version 1 then 2."""

    def case(root: Path) -> tuple[Path, Callable[[], Any], Callable[[], Any]]:
        path = root / name
        write(path, 1)
        return path, lambda: write(path, 2), lambda: path.read_bytes()

    return case


def _tuning_result(version: int) -> TuningResult:
    return TuningResult(
        stencil="s", device="A100", tuner="t", best_setting=None,
        best_time_s=float(version), evaluations=version, iterations=1,
        cost_s=1.0,
    )


def _endpoint(path: Path, version: int) -> None:
    daemon = SimpleNamespace(
        state_dir=path.parent, host="127.0.0.1", port=version, url="u"
    )
    assert path.name == ENDPOINT_FILE
    ServiceDaemon._write_endpoint_file(daemon)  # type: ignore[arg-type]


REWRITES = {
    "store-compact": _store_compact,
    "resultsdb-compact": _db_compact,
    "save-golden": _golden_save,
    "export-json": _db_export,
    "result-json": _artifact(lambda p, v: _write_json(p, {"v": v}), "result.json"),
    "orchestration": _artifact(
        lambda p, v: _write_stats(p, {"chunks": v}), "orchestration.txt"
    ),
    "endpoint": _artifact(_endpoint, ENDPOINT_FILE),
    "save-result": _artifact(
        lambda p, v: save_result(_tuning_result(v), p), "result.json"
    ),
}


@pytest.mark.parametrize("name", sorted(REWRITES))
def test_crash_between_write_and_rename(name, tmp_path, monkeypatch):
    target, rewrite_once, view = REWRITES[name](tmp_path)
    before, seen = target.read_bytes(), view()

    def crash(src: Any, dst: Any) -> None:
        raise OSError("crashed before rename")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crashed before rename"):
            rewrite_once()
    tmp = target.with_name(target.name + ".tmp")
    assert tmp.exists()
    assert target.read_bytes() == before
    assert view() == seen  # the leftover temp file is never read

    rewrite_once()
    assert not tmp.exists()
    assert target.read_bytes() != before


# ---------------------------------------------------------------------------
# The journal swapped underneath a live store
# ---------------------------------------------------------------------------


def _compact_elsewhere(root: Path) -> None:
    EvaluationStore(root).compact()


def _truncate_to_header(root: Path) -> None:
    path = root / "journal.jsonl"
    header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
    with path.open("r+b") as fh:
        fh.truncate(len(header))


@pytest.mark.parametrize(
    "swap", [_compact_elsewhere, _truncate_to_header],
    ids=["compact-replaces", "truncate-to-header"],
)
def test_live_store_survives_swapped_journal(swap, tmp_path):
    _store_record(tmp_path)  # keys 1-3 journaled
    live = EvaluationStore(tmp_path)
    live.record("tok", "s", (4,), 2.0, {})
    live.absorb_shards()  # the live store now holds the journal open
    swap(tmp_path)

    worker = EvaluationStore(tmp_path)
    worker.record("tok", "s", (5,), 2.5, {})
    worker.release()  # a closed shard for the live store to merge
    assert live.absorb_shards() == 1

    fresh = EvaluationStore(tmp_path)  # before the live store closes
    fresh.release()
    live.close()
    assert sorted(k[2] for k, _ in fresh.items()) == [(1,), (2,), (3,), (4,), (5,)]
    assert fresh.bad_records == 0
