"""Tests for the sharded results database (shards, ingest, compaction)."""

import json

import pytest

from repro.gpusim.device import A100
from repro.gpusim.diskcache import (
    SCHEMA_VERSION,
    EvaluationStore,
    device_token,
)
from repro.resultsdb.db import SHARD_KIND, ResultsDB

TOK = device_token(A100)


class TestShardRoundtrip:
    def test_append_then_load(self, tmp_path):
        db = ResultsDB(tmp_path)
        added, dups = db.append(
            TOK, "s", {(1, 2): (0.5, {"occ": 0.75})}, device_name="A100"
        )
        assert (added, dups) == (1, 0)
        shard = db.load_shard(TOK, "s")
        assert shard.records == {(1, 2): (0.5, {"occ": 0.75})}
        assert shard.device_name == "A100"
        assert shard.bad_records == 0

    def test_append_skips_duplicates(self, tmp_path):
        db = ResultsDB(tmp_path)
        db.append(TOK, "s", {(1,): (1.0, {})})
        added, dups = db.append(TOK, "s", {(1,): (9.0, {}), (2,): (2.0, {})})
        assert (added, dups) == (1, 1)
        # First write wins — the duplicate's value never lands.
        assert db.load_shard(TOK, "s").records[(1,)] == (1.0, {})

    def test_missing_shard_is_empty(self, tmp_path):
        shard = ResultsDB(tmp_path).load_shard("nope", "s")
        assert shard.records == {} and shard.bad_records == 0

    def test_shard_keys_sorted(self, tmp_path):
        db = ResultsDB(tmp_path)
        db.append("bbb", "z", {(1,): (1.0, {})})
        db.append("aaa", "s", {(1,): (1.0, {})})
        db.append("aaa", "a", {(1,): (1.0, {})})
        assert db.shard_keys() == [("aaa", "a"), ("aaa", "s"), ("bbb", "z")]


class TestCorruption:
    def test_garbage_and_torn_lines_counted(self, tmp_path):
        db = ResultsDB(tmp_path)
        db.append(TOK, "s", {(1,): (1.0, {})})
        path = db.shard_path(TOK, "s")
        with path.open("a", encoding="utf-8") as f:
            f.write("{torn\n")
            f.write('{"v":"not-a-list","t":1.0,"m":{}}\n')
        shard = db.load_shard(TOK, "s")
        assert shard.records == {(1,): (1.0, {})}
        assert shard.bad_records == 2

    def test_foreign_file_skipped_whole(self, tmp_path):
        db = ResultsDB(tmp_path)
        path = db.shard_path(TOK, "s")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"kind": "something-else", "schema": SCHEMA_VERSION})
            + "\n" + '{"v":[1],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        shard = db.load_shard(TOK, "s")
        assert shard.records == {}
        assert shard.bad_records == 2  # header + everything after it

    def test_stale_schema_skipped_whole(self, tmp_path):
        db = ResultsDB(tmp_path)
        path = db.shard_path(TOK, "s")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"kind": SHARD_KIND, "schema": SCHEMA_VERSION + 1})
            + "\n" + '{"v":[1],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        assert db.load_shard(TOK, "s").records == {}

    def test_append_after_torn_tail_is_kept(self, tmp_path):
        db = ResultsDB(tmp_path)
        db.append(TOK, "s", {(1,): (1.0, {})})
        with db.shard_path(TOK, "s").open("a", encoding="utf-8") as f:
            f.write('{"v":[2],"t":2.')  # crash mid-append
        assert db.append(TOK, "s", {(3,): (3.0, {})}) == (1, 0)
        shard = db.load_shard(TOK, "s")
        assert shard.records == {(1,): (1.0, {}), (3,): (3.0, {})}
        assert shard.bad_records == 1  # only the torn fragment

    def test_append_to_stale_shard_sets_it_aside(self, tmp_path):
        db = ResultsDB(tmp_path)
        path = db.shard_path(TOK, "s")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"kind": SHARD_KIND, "schema": SCHEMA_VERSION + 1})
            + "\n" + '{"v":[1],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        original = path.read_bytes()
        assert db.append(TOK, "s", {(2,): (2.0, {})}) == (1, 0)
        shard = ResultsDB(tmp_path).load_shard(TOK, "s")
        assert shard.records == {(2,): (2.0, {})}
        assert shard.bad_records == 0
        assert path.with_name("s.jsonl.foreign").read_bytes() == original
        assert db.shard_keys() == [(TOK, "s")]


class TestIngest:
    def test_ingest_cache_dir(self, db, pattern, sampled_values):
        shard = db.load_shard(TOK, pattern.name)
        assert len(shard.records) == len(sampled_values)
        for values, time_s in sampled_values:
            assert shard.records[values][0] == time_s

    def test_ingest_is_read_only_on_source(self, tmp_path, cache_dir):
        journal = cache_dir / "journal.jsonl"
        before = journal.read_bytes()
        ResultsDB(tmp_path / "db2").ingest_cache_dir(cache_dir)
        assert journal.read_bytes() == before

    def test_ingest_reports_duplicates(self, db, cache_dir):
        stats = db.ingest_cache_dir(cache_dir)
        assert stats["records_added"] == 0
        assert stats["duplicates_skipped"] > 0

    def test_ingest_absorbs_crash_shards_of_source(self, tmp_path):
        cache = tmp_path / "cache"
        worker = EvaluationStore(cache)
        worker.record(TOK, "s", (1,), 1.0, {})
        worker.release()  # crash shard left behind, journal never written
        db = ResultsDB(tmp_path / "db")
        stats = db.ingest_store(EvaluationStore(cache))
        assert stats["records_added"] == 1
        # The source cache's shard file stayed where the crash left it.
        assert list(cache.glob("shard-*.jsonl"))


class TestCompact:
    def test_compact_preserves_survivors(self, tmp_path):
        db = ResultsDB(tmp_path)
        db.append(TOK, "s", {(1,): (1.0, {"occ": 0.5}), (2,): (2.0, {})})
        path = db.shard_path(TOK, "s")
        with path.open("a", encoding="utf-8") as f:
            f.write("{torn\n")
            f.write('{"v":[1],"t":9.0,"m":{}}\n')  # stale duplicate
        summary = db.compact()
        assert summary == {
            "shards": 1, "kept": 2, "dropped_bad": 1,
            "dropped_duplicates": 1,
        }
        shard = db.load_shard(TOK, "s")
        assert shard.records == {(1,): (1.0, {"occ": 0.5}), (2,): (2.0, {})}
        assert shard.bad_records == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2  # header + exactly the survivors

    def test_compact_idempotent(self, db):
        first = db.compact()
        again = db.compact()
        assert again["kept"] == first["kept"]
        assert again["dropped_bad"] == 0
        assert again["dropped_duplicates"] == 0


class TestExportImport:
    def test_roundtrip(self, tmp_path, db, pattern):
        dump = tmp_path / "dump.json"
        exported = db.export_json(dump)
        other = ResultsDB(tmp_path / "other")
        imported = other.import_json(dump)
        assert imported["records_added"] == exported["records"]
        assert (
            other.load_shard(TOK, pattern.name).records
            == db.load_shard(TOK, pattern.name).records
        )

    def test_import_rejects_foreign_document(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "nope"}', encoding="utf-8")
        with pytest.raises(ValueError):
            ResultsDB(tmp_path / "db").import_json(bogus)


class TestStats:
    def test_stats_shape(self, db, sampled_values):
        stats = db.stats()
        assert stats["shards"] == 1
        assert stats["records"] == len(sampled_values)
        assert stats["bad_records"] == 0
        assert stats["devices"]["A100"]["records"] == len(sampled_values)
        assert stats["golden_records"] == 1
        assert stats["golden_version"] == 1
