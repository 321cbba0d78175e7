"""Tests for the golden-record table: promotion, versioning, serve."""

import builtins
import io

import pytest

from repro.gpusim.device import A100
from repro.gpusim.diskcache import SCHEMA_VERSION, device_token
from repro.resultsdb.golden import (
    GoldenRecord,
    GoldenTable,
    golden_result,
    load_golden,
    save_golden,
)

TOK = device_token(A100)


def _record(time_s=1.0, schema=SCHEMA_VERSION, stencil="j3d7pt", version=1):
    return GoldenRecord(
        stencil=stencil,
        device_token=TOK,
        device_name="A100",
        grid=(512, 512, 512),
        values=tuple(range(19)),
        time_s=time_s,
        schema=schema,
        version=version,
    )


class TestUpdateGolden:
    def test_promotes_fastest_record(self, db, pattern, sampled_values):
        golden = db.golden()
        record = golden.serve(pattern.name, TOK, tuple(pattern.grid))
        assert record is not None
        best_values, best_time = min(
            sampled_values, key=lambda pair: (pair[1], pair[0])
        )
        assert record.values == best_values
        assert record.time_s == best_time
        assert record.schema == SCHEMA_VERSION
        assert record.version == 1

    def test_second_update_retains(self, db):
        summary = db.update_golden()
        assert summary == {
            "promoted": 0, "retained": 1, "total": 1, "version": 1,
        }

    def test_better_record_bumps_version(self, db, pattern, space):
        import numpy as np

        faster = space.sample(np.random.default_rng(99), 1)[0]
        db.append(TOK, pattern.name, {faster.values_tuple(): (0.01, {})})
        summary = db.update_golden()
        assert summary["promoted"] == 1
        assert summary["version"] == 2
        record = db.serve(pattern, A100)
        assert record.time_s == 0.01
        assert record.version == 2

    def test_stale_schema_golden_is_replaced(self, db, pattern):
        # Plant a stale-schema golden that is *faster* than anything in
        # the shards: freshness must trump speed.
        table = db.golden()
        key = (pattern.name, TOK, tuple(pattern.grid))
        old = table.records[key]
        table.records[key] = GoldenRecord(
            **{**old.__dict__, "time_s": 1e-9, "schema": SCHEMA_VERSION - 1}
        )
        save_golden(db.golden_path, table)
        db.reload()
        summary = db.update_golden()
        assert summary["promoted"] == 1
        assert db.serve(pattern, A100).schema == SCHEMA_VERSION


class TestServe:
    def test_serve_requires_fresh_schema(self):
        table = GoldenTable()
        stale = _record(schema=SCHEMA_VERSION - 1)
        table.records[stale.key()] = stale
        assert table.serve("j3d7pt", TOK, (512, 512, 512)) is None

    def test_serve_misses_other_grid(self):
        table = GoldenTable()
        rec = _record()
        table.records[rec.key()] = rec
        assert table.serve("j3d7pt", TOK, (64, 64, 64)) is None
        assert table.serve("j3d7pt", TOK, (512, 512, 512)) is rec


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table = GoldenTable({}, version=3)
        rec = _record(version=3)
        table.records[rec.key()] = rec
        save_golden(tmp_path / "golden.json", table)
        loaded = load_golden(tmp_path / "golden.json")
        assert loaded.version == 3
        assert loaded.records[rec.key()] == rec

    def test_crash_mid_save_keeps_previous_table(self, tmp_path, monkeypatch):
        path = tmp_path / "golden.json"
        old = GoldenTable({}, version=1)
        rec = _record(version=1)
        old.records[rec.key()] = rec
        save_golden(path, old)

        class Crash(BaseException):
            pass

        class TornFile:
            """Writes half of what it is given, then the process dies."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise Crash

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return TornFile(fh) if "w" in mode else fh

        with monkeypatch.context() as m:
            m.setattr(builtins, "open", torn_open)
            m.setattr(io, "open", torn_open)
            with pytest.raises(Crash):
                save_golden(path, GoldenTable(dict(old.records), version=2))
        table = load_golden(path)
        assert table.version == 1
        assert table.records == old.records

    def test_missing_or_corrupt_is_empty(self, tmp_path):
        assert len(load_golden(tmp_path / "nope.json")) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert len(load_golden(bad)) == 0

    def test_malformed_records_skipped(self, tmp_path):
        save_golden(tmp_path / "golden.json", GoldenTable({}, version=1))
        import json

        obj = json.loads((tmp_path / "golden.json").read_text())
        obj["records"] = [{"stencil": 42}, _record().to_dict()]
        (tmp_path / "golden.json").write_text(json.dumps(obj))
        assert len(load_golden(tmp_path / "golden.json")) == 1


class TestGoldenResult:
    def test_zero_cost_result(self):
        rec = _record(time_s=0.002)
        result = golden_result(rec, "csTuner", "j3d7pt", A100)
        assert result.evaluations == 0
        assert result.iterations == 0
        assert result.cost_s == 0.0
        assert result.best_time_s == 0.002
        assert result.meta["golden_served"] is True
        assert result.best_setting == rec.setting()
        # One trace point at cost 0 keeps iso-time plots defined.
        assert len(result.trace) == 1
        assert result.best_at_cost(0.0) == 0.002
