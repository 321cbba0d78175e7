"""Tests for the persistent cross-run evaluation store."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim.device import A100, V100
from repro.gpusim.diskcache import (
    SCHEMA_VERSION,
    EvaluationStore,
    device_token,
    get_default_store,
    set_default_store,
)
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil


@pytest.fixture
def pattern():
    return get_stencil("j3d7pt")


@pytest.fixture
def settings(pattern):
    space = build_space(pattern, A100)
    return space.sample(np.random.default_rng(7), 30)


class TestDeviceToken:
    def test_stable(self):
        assert device_token(A100) == device_token(A100)

    def test_devices_differ(self):
        assert device_token(A100) != device_token(V100)


class TestRoundtrip:
    def test_record_then_lookup(self, tmp_path):
        store = EvaluationStore(tmp_path)
        store.record("tok", "j3d7pt", (1, 2, 3), 0.5, {"occ": 0.75})
        assert store.lookup("tok", "j3d7pt", (1, 2, 3)) == (0.5, {"occ": 0.75})
        assert store.lookup("tok", "j3d7pt", (9, 9, 9)) is None
        assert store.counters() == {"hits": 1, "misses": 1, "puts": 1}

    def test_survives_reopen(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.5, {"m": 2.0})
        assert (tmp_path / "journal.jsonl").exists()

        reopened = EvaluationStore(tmp_path)
        assert reopened.lookup("tok", "s", (1,)) == (1.5, {"m": 2.0})
        assert reopened.records_loaded == 1
        assert reopened.bad_records == 0

    def test_record_is_idempotent(self, tmp_path):
        store = EvaluationStore(tmp_path)
        store.record("tok", "s", (1,), 1.0, {})
        store.record("tok", "s", (1,), 99.0, {})  # ignored: key exists
        assert store.puts == 1
        assert store.lookup("tok", "s", (1,)) == (1.0, {})

    def test_float_bits_roundtrip(self, tmp_path):
        # JSON repr-shortest floats must reproduce the exact float64.
        value = 0.1 + 0.2  # 0.30000000000000004
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), value, {"m": value})
        got = EvaluationStore(tmp_path).lookup("tok", "s", (1,))
        assert got == (value, {"m": value})


class TestCorruptionTolerance:
    def test_truncated_journal_tail(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {})
            store.record("tok", "s", (2,), 2.0, {})
        journal = tmp_path / "journal.jsonl"
        # Simulate a crash mid-append: a half-written record at the tail.
        journal.write_text(
            journal.read_text(encoding="utf-8") + '{"k":["tok","s",[3]],"t":3.',
            encoding="utf-8",
        )

        store = EvaluationStore(tmp_path)
        assert store.records_loaded == 2
        assert store.bad_records == 1
        assert store.lookup("tok", "s", (2,)) == (2.0, {})

    def test_garbage_lines_are_skipped(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {})
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            journal.read_text(encoding="utf-8")
            + "not json at all\n"
            + "[1,2,3]\n"
            + '{"k":["tok","s","not-a-list"],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )

        store = EvaluationStore(tmp_path)
        assert store.records_loaded == 1
        assert store.bad_records == 3

    def test_stale_schema_file_ignored_entirely(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({"kind": "repro-evalstore", "schema": SCHEMA_VERSION + 1})
            + "\n"
            + '{"k":["tok","s",[1]],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        store = EvaluationStore(tmp_path)
        assert store.records_loaded == 0
        assert len(store) == 0

    def test_record_after_stale_schema_journal_persists(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({"kind": "repro-evalstore", "schema": SCHEMA_VERSION + 1})
            + "\n"
            + '{"k":["tok","s",[1]],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        original = journal.read_bytes()
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (2,), 2.0, {})
        reopened = EvaluationStore(tmp_path)
        assert dict(reopened.items()) == {("tok", "s", (2,)): (2.0, {})}
        assert reopened.bad_records == 0
        assert (tmp_path / "journal.jsonl.foreign").read_bytes() == original

    def test_cache_dir_keeps_persisting_after_schema_bump(self, tmp_path):
        # A journal left by a build from before a SCHEMA_VERSION bump.
        (tmp_path / "journal.jsonl").write_text(
            json.dumps({"kind": "repro-evalstore", "schema": SCHEMA_VERSION - 1})
            + "\n"
            + '{"k":["tok","s",[0]],"t":1.0,"m":{}}\n',
            encoding="utf-8",
        )
        for i in (1, 2, 3):
            with EvaluationStore(tmp_path) as store:
                assert len(store) == i - 1  # every earlier session persisted
                store.record("tok", "s", (i,), float(i), {})

    def test_merge_after_torn_journal_tail_keeps_first_record(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {})
        with (tmp_path / "journal.jsonl").open("a", encoding="utf-8") as f:
            f.write('{"k":["tok","s",[2]],"t":2.')  # crash mid-merge
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (3,), 3.0, {})
            store.record("tok", "s", (4,), 4.0, {})
        reopened = EvaluationStore(tmp_path)
        assert reopened.lookup("tok", "s", (3,)) == (3.0, {})
        assert reopened.lookup("tok", "s", (4,)) == (4.0, {})
        assert reopened.bad_records == 1  # only the torn fragment

    def test_truncated_shard_recovered(self, tmp_path):
        # A crashed writer leaves its shard behind, tail cut mid-record.
        writer = EvaluationStore(tmp_path)
        writer.record("tok", "s", (1,), 1.0, {})
        writer.record("tok", "s", (2,), 2.0, {})
        shard = next(tmp_path.glob("shard-*.jsonl"))
        raw = shard.read_bytes()
        shard.write_bytes(raw[:-7])  # cut into the last record

        store = EvaluationStore(tmp_path)
        assert store.lookup("tok", "s", (1,)) == (1.0, {})
        assert store.records_loaded == 1
        assert store.bad_records == 1
        # Merging absorbs the surviving records and clears the shard.
        store.close()
        assert not list(tmp_path.glob("shard-*.jsonl"))
        assert EvaluationStore(tmp_path).lookup("tok", "s", (1,)) is not None


class TestShardMerge:
    def test_concurrent_writers_merge_into_journal(self, tmp_path):
        # Two writers (as pool workers would be), each with its own shard.
        a = EvaluationStore(tmp_path)
        b = EvaluationStore(tmp_path)
        a.record("tok", "s", (1,), 1.0, {})
        b.record("tok", "s", (2,), 2.0, {})
        assert len(list(tmp_path.glob("shard-*.jsonl"))) == 2

        merger = EvaluationStore(tmp_path)
        assert merger.records_loaded == 2
        merged = merger.absorb_shards()
        assert merged == 2
        assert not list(tmp_path.glob("shard-*.jsonl"))

        reopened = EvaluationStore(tmp_path)
        assert reopened.lookup("tok", "s", (1,)) == (1.0, {})
        assert reopened.lookup("tok", "s", (2,)) == (2.0, {})

    def test_merge_deduplicates_against_journal(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {})
        dup = EvaluationStore(tmp_path)
        # Reopened store refuses duplicate puts, so fake a foreign shard.
        shard = tmp_path / "shard-1-deadbeef.jsonl"
        shard.write_text(
            json.dumps({"kind": "repro-evalstore", "schema": SCHEMA_VERSION})
            + "\n"
            + '{"k":["tok","s",[1]],"t":99.0,"m":{}}\n',
            encoding="utf-8",
        )
        dup.absorb_shards()
        # Journal keeps exactly one record for the key — the original.
        assert EvaluationStore(tmp_path).lookup("tok", "s", (1,)) == (1.0, {})
        journal_lines = (
            (tmp_path / "journal.jsonl").read_text(encoding="utf-8").splitlines()
        )
        assert len(journal_lines) == 2  # header + one record


class TestSimulatorWarmStart:
    def test_warm_runs_identical(self, tmp_path, pattern, settings):
        cold_sim = GpuSimulator(
            device=A100, seed=0, store=EvaluationStore(tmp_path)
        )
        cold = [cold_sim.run(pattern, s) for s in settings]
        assert cold_sim.disk_hits == 0
        cold_sim.store.close()

        warm_sim = GpuSimulator(
            device=A100, seed=0, store=EvaluationStore(tmp_path)
        )
        warm = [warm_sim.run(pattern, s) for s in settings]
        assert warm_sim.disk_hits > 0
        for a, b in zip(cold, warm):
            assert a.time_s == b.time_s
            assert a.true_time_s == b.true_time_s
            assert a.tuning_cost_s == b.tuning_cost_s
            assert a.metrics == b.metrics

    def test_warm_batch_identical(self, tmp_path, pattern, settings):
        cold_sim = GpuSimulator(
            device=A100, seed=0, store=EvaluationStore(tmp_path)
        )
        cold = cold_sim.run_batch(pattern, settings)
        cold_sim.store.close()

        warm_sim = GpuSimulator(
            device=A100, seed=0, store=EvaluationStore(tmp_path)
        )
        warm = warm_sim.run_batch(pattern, settings)
        assert warm_sim.disk_hits > 0
        for a, b in zip(cold, warm):
            assert a.time_s == b.time_s
            assert a.true_time_s == b.true_time_s
            assert a.metrics == b.metrics

    def test_different_seed_still_identical_to_its_own_cold_run(
        self, tmp_path, pattern, settings
    ):
        # The journal stores noise-free truth; measurement noise replays
        # in-process, so one journal serves every seed bit-for-bit.
        with EvaluationStore(tmp_path) as store:
            GpuSimulator(device=A100, seed=0, store=store).run_batch(
                pattern, settings
            )

        reference = GpuSimulator(device=A100, seed=3, store=None)
        ref_runs = reference.run_batch(pattern, settings)
        warm_sim = GpuSimulator(
            device=A100, seed=3, store=EvaluationStore(tmp_path)
        )
        warm_runs = warm_sim.run_batch(pattern, settings)
        assert warm_sim.disk_hits > 0
        for a, b in zip(ref_runs, warm_runs):
            assert a.time_s == b.time_s
            assert a.metrics == b.metrics


class TestDefaultStore:
    def test_set_and_restore(self, tmp_path):
        store = EvaluationStore(tmp_path)
        previous = set_default_store(store)
        try:
            assert get_default_store() is store
            sim = GpuSimulator(device=A100, seed=0)
            assert sim.store is store
        finally:
            set_default_store(previous)
        assert get_default_store() is previous


class TestStoreSpans:
    def _spans(self, tmp_path):
        from repro import obs

        with EvaluationStore(tmp_path) as store:
            for i in (1, 2, 3):
                store.record("tok", "s", (i,), 1.0, {})
        obs.get_tracer().clear()
        store = EvaluationStore(tmp_path)
        store.record("tok", "s", (4,), 1.0, {})
        store.close()
        return [(s.name, s.attrs) for s in obs.get_tracer().spans()]

    def test_open_and_merge_spans_when_tracing(self, tmp_path):
        from repro import obs

        was = obs.enable_tracing()
        try:
            spans = self._spans(tmp_path)
        finally:
            obs.get_tracer().clear()
            if not was:
                obs.disable_tracing()
        assert spans == [
            ("store.open", {"lines": 3}),
            ("store.merge", {"shards": 1, "lines": 1}),
        ]

    def test_no_spans_when_tracing_off(self, tmp_path):
        from repro import obs

        was = obs.disable_tracing()
        try:
            assert self._spans(tmp_path) == []
        finally:
            if was:
                obs.enable_tracing()


class TestPublishedStats:
    def test_each_publish_adds_only_the_movement(self, tmp_path):
        from repro import obs

        def puts():
            return obs.get_registry().counters("diskcache.").get(
                "diskcache.puts", 0
            )

        before = puts()
        store = EvaluationStore(tmp_path)
        store.record("tok", "s", (1,), 1.0, {})
        store.publish_stats()  # a pool leaving a store it attached to
        assert puts() - before == 1
        store.record("tok", "s", (2,), 1.0, {})
        store.close()
        assert puts() - before == 2  # the lifetime total, counted once


class TestMidRunAbsorption:
    def test_truncated_shard_absorbed_while_another_worker_evaluates(
        self, tmp_path, pattern, settings
    ):
        # A worker crashed mid-write: its shard's tail is cut inside the
        # last record. The orchestrator absorbs that specific shard via
        # absorb_shard_paths while a second worker store is still live
        # and evaluating — the surviving record lands in the journal,
        # the torn one is counted bad, and the live worker's results
        # arrive intact at its own sync point.
        crashed = EvaluationStore(tmp_path)
        crashed.record("tok", "s", (1,), 1.0, {})
        crashed.record("tok", "s", (2,), 2.0, {})
        crashed_path = crashed.release_shard()
        raw = Path(crashed_path).read_bytes()
        Path(crashed_path).write_bytes(raw[:-7])  # tear the last record

        worker = EvaluationStore(tmp_path)
        sim = GpuSimulator(device=A100, seed=0, store=worker)
        sim.run(pattern, settings[0])  # worker mid-run, shard open

        merger = EvaluationStore(tmp_path)
        bad_at_open = merger.bad_records  # replay already saw the tear
        absorbed = merger.absorb_shard_paths([crashed_path])
        assert absorbed == 1
        assert merger.bad_records == bad_at_open + 1
        assert merger.lookup("tok", "s", (1,)) == (1.0, {})
        assert merger.lookup("tok", "s", (2,)) is None

        # The live worker keeps evaluating and syncs afterwards.
        sim.run(pattern, settings[1])
        worker_shard = worker.release_shard()
        assert merger.absorb_shard_paths([worker_shard]) == 1

        reopened = EvaluationStore(tmp_path)
        assert reopened.lookup("tok", "s", (1,)) == (1.0, {})
        assert reopened.bad_records == 0  # journal itself is clean
        # Both of the worker's evaluations survived the interleaving.
        token = device_token(A100)
        worker_keys = [
            k for k in dict(reopened.items()) if k[0] == token
        ]
        assert len(worker_keys) >= 2


class TestCompaction:
    def _grow_dirty_journal(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {"occ": 0.5})
            store.record("tok", "s", (2,), 2.0, {})
        journal = tmp_path / "journal.jsonl"
        with journal.open("a", encoding="utf-8") as f:
            f.write("{torn json\n")  # crash tail
            f.write('{"k":["tok","s",[1]],"t":9.0,"m":{}}\n')  # stale dup
            f.write('{"k":["tok","s",[3]],"t":3.0,"m":{}}\n')  # late record
        return journal

    def test_compact_preserves_every_surviving_record(self, tmp_path):
        journal = self._grow_dirty_journal(tmp_path)
        store = EvaluationStore(tmp_path)
        before = dict(store.items())

        summary = store.compact()
        assert summary == {"kept": 3, "dropped_bad": 1,
                           "dropped_duplicates": 1}
        # First-seen wins: the original (1,) value, not the stale dup.
        assert dict(store.items()) == before
        assert store.lookup("tok", "s", (1,)) == (1.0, {"occ": 0.5})

        reopened = EvaluationStore(tmp_path)
        assert dict(reopened.items()) == before
        assert reopened.bad_records == 0
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 3  # header + exactly the survivors

    def test_compact_is_idempotent(self, tmp_path):
        self._grow_dirty_journal(tmp_path)
        store = EvaluationStore(tmp_path)
        store.compact()
        again = store.compact()
        assert again == {"kept": 3, "dropped_bad": 0,
                         "dropped_duplicates": 0}

    def test_compact_absorbs_open_shards_first(self, tmp_path):
        with EvaluationStore(tmp_path) as store:
            store.record("tok", "s", (1,), 1.0, {})
        writer = EvaluationStore(tmp_path)
        shard = tmp_path / "shard-9-feedface.jsonl"
        shard.write_text(
            json.dumps({"kind": "repro-evalstore", "schema": SCHEMA_VERSION})
            + "\n"
            + '{"k":["tok","s",[2]],"t":2.0,"m":{}}\n',
            encoding="utf-8",
        )
        summary = writer.compact()
        assert summary["kept"] == 2
        assert not list(tmp_path.glob("shard-*.jsonl"))
        assert EvaluationStore(tmp_path).lookup("tok", "s", (2,)) == (2.0, {})
