"""The results DB keeps decoded shards until their files move.

A warm start reads the fastest records of several shards and the device
name of every shard token. ``ResultsDB.load_shard`` keeps each decoded
shard under its file signature (inode, mtime, size) and replays it only
when that moves; ``shard_device_name`` reads header lines only.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.resultsdb.db as db_module
from repro.gpusim.device import A100, V100
from repro.gpusim.diskcache import device_token
from repro.resultsdb.db import ResultsDB, _line, _record_line, _shard_header
from repro.resultsdb.warmstart import _collect_candidates, warm_start_settings
from repro.utils.journal import rewrite


@pytest.fixture
def replays(monkeypatch):
    """Paths replayed through ``repro.resultsdb.db``, in order."""
    seen: list[str] = []
    real = db_module.replay

    def counting(path, expect, decode):
        seen.append(str(path))
        return real(path, expect, decode)

    monkeypatch.setattr(db_module, "replay", counting)
    return seen


def _candidates(db: ResultsDB, pattern):
    return _collect_candidates(db, pattern, A100, per_shard=4)


def test_unchanged_db_replays_no_shard_twice(db, pattern, space, replays):
    db = ResultsDB(db.root)  # nothing cached yet
    first = warm_start_settings(db, pattern, A100, space)
    assert replays, "the first warm start reads its shards"
    replays.clear()
    assert warm_start_settings(db, pattern, A100, space) == first
    assert replays == []


def test_append_is_seen_by_the_next_warm_start(db, pattern, space, replays):
    before = _candidates(db, pattern)
    tok = device_token(A100)
    fresh = space.sample(np.random.default_rng(99), 3)
    added, _ = db.append(
        tok, pattern.name,
        {s.values_tuple(): (1e-3 * (i + 1), {"occ": 0.5}) for i, s in enumerate(fresh)},
    )
    assert added == 3
    replays.clear()
    after = _candidates(db, pattern)
    assert after == _candidates(ResultsDB(db.root), pattern)
    assert after != before
    assert after[-4:-1] == [s.values_tuple() for s in fresh]
    assert db.shard_path(tok, pattern.name).as_posix() in replays


def test_replacing_rewrite_is_seen(db, pattern, replays):
    tok = device_token(A100)
    _candidates(db, pattern)  # cache the shard
    # Another writer rewrites the shard atomically with the same byte
    # count: the fastest and the slowest record swap times.
    path = db.shard_path(tok, pattern.name)
    header, *lines = path.read_text().splitlines(keepends=True)
    records = ResultsDB(db.root).load_shard(tok, pattern.name).records
    order = sorted(records, key=lambda v: records[v][0])
    fastest, slowest = order[0], order[-1]
    swapped = dict(records)
    swapped[fastest] = (records[slowest][0], records[fastest][1])
    swapped[slowest] = (records[fastest][0], records[slowest][1])
    assert len(lines) == len(records)
    old_size = path.stat().st_size
    rewrite(path, header + "".join(_record_line(v, r) for v, r in swapped.items()))
    assert path.stat().st_size == old_size
    replays.clear()
    after = _candidates(db, pattern)
    assert after == _candidates(ResultsDB(db.root), pattern)
    assert slowest in after and fastest not in after[-4:]
    assert replays


def test_device_name_reads_headers_only(db, replays):
    tok = device_token(A100)
    replays.clear()
    assert db.shard_device_name(tok) == "A100"
    assert db.shard_device_name("0" * 16) is None
    assert replays == []


def test_device_name_follows_header_then_registry(tmp_path):
    db = ResultsDB(tmp_path / "db")
    tok = device_token(V100)
    path = db.shard_path(tok, "a")
    path.parent.mkdir(parents=True)
    # A header without a name defers to the registry.
    path.write_text(_line(_shard_header(tok, "a")))
    assert db.shard_device_name(tok) == "V100"
    # A named header wins over the registry.
    path.write_text("\n" + _line(_shard_header(tok, "a", "custom-v100")))
    assert db.shard_device_name(tok) == "custom-v100"
    # A foreign or torn first line is no header.
    path.write_text(_line({"kind": "other", "device_name": "x"}))
    assert db.shard_device_name(tok) == "V100"
    path.write_text('{"kind": "repro-res')
    assert db.shard_device_name(tok) == "V100"
    # Unregistered token: the first shard whose header names it.
    odd = "f" * 16
    first = db.shard_path(odd, "a")
    first.parent.mkdir(parents=True)
    first.write_text(_line(_shard_header(odd, "a")))
    db.shard_path(odd, "b").write_text(_line(_shard_header(odd, "b", "lab-gpu")))
    assert db.shard_device_name(odd) == "lab-gpu"
    assert ResultsDB(db.root).load_shard(odd, "b").device_name == "lab-gpu"
