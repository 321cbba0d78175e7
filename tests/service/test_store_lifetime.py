"""One evaluation store per daemon.

A daemon started with a cache directory opens its evaluation store
once; every tune job's pool attaches to it instead of replaying the
journal again, and ``stop()`` merges what the jobs journaled.
"""

import shutil

import pytest

from repro.core import Budget
from repro.experiments.tasks import tuner_run_task
from repro.gpusim.diskcache import EvaluationStore, get_default_store
from repro.parallel.pool import Task, WorkerPool
from repro.service.client import ServiceClient
from repro.utils import journal

#: Tune jobs whose evaluations the warm cache already holds.
WARM = [
    {"stencil": "j3d7pt", "tuner": "csTuner", "seed": 0},
    {"stencil": "j3d7pt", "tuner": "csTuner", "seed": 1},
    {"stencil": "j3d7pt", "tuner": "Garvey", "seed": 0},
]
#: A job on a stencil the warm cache has never seen: it journals new keys.
COLD = {"stencil": "j3d27pt", "tuner": "csTuner", "seed": 0}
SCALE = {"device": "A100", "iterations": 6, "dataset_size": 24}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm") / "cache"
    tasks = [
        Task(tuner_run_task, (
            p["stencil"], SCALE["device"], p["tuner"],
            Budget(max_iterations=SCALE["iterations"]), 0, p["seed"],
            SCALE["dataset_size"],
        ))
        for p in WARM
    ]
    with WorkerPool(1, cache) as pool:
        pool.map(tasks)
    return cache


def _run(client, params):
    job = client.submit("tune", {**params, **SCALE, "db_fastpath": False})["job"]
    final = client.wait(job["id"], timeout_s=120.0)
    assert final["state"] == "done", final.get("error")
    return job["id"]


def _keys(cache):
    store = EvaluationStore(cache)
    store.release()
    return {key for key, _ in store.items()}, store.bad_records


def test_jobs_attach_to_the_daemon_store(daemon, warm_cache, tmp_path, monkeypatch):
    # Every job again on a fresh daemon over its own copy of the cache.
    fresh_results = []
    for i, params in enumerate([*WARM, COLD]):
        cache = shutil.copytree(warm_cache, tmp_path / f"fresh-{i}")
        d = daemon(f"fresh-{i}", cache_dir=cache)
        client = ServiceClient(d.url, timeout_s=30.0)
        job_id = _run(client, params)
        fresh_results.append((d.ctx.job_dir(job_id) / "result.json").read_bytes())
        d.stop()

    cache = shutil.copytree(warm_cache, tmp_path / "shared")
    journal_path = (cache / "journal.jsonl").resolve()
    replays = []
    real_replay = journal.replay

    def counting_replay(path, *args, **kwargs):
        if journal_path == type(journal_path)(path).resolve():
            replays.append(path)
        return real_replay(path, *args, **kwargs)

    monkeypatch.setattr(journal, "replay", counting_replay)
    warm_keys, _ = _keys(cache)
    replays.clear()

    d = daemon("shared", cache_dir=cache)
    store = get_default_store()
    assert store is not None and store.cache_dir == cache
    client = ServiceClient(d.url, timeout_s=30.0)
    job_ids = [_run(client, params) for params in [*WARM, COLD]]
    d.stop()

    assert len(replays) == 1  # the daemon's own open, nothing per job
    assert get_default_store() is not store
    for job_id, expected in zip(job_ids, fresh_results):
        job_dir = d.ctx.job_dir(job_id)
        assert (job_dir / "result.json").read_bytes() == expected
        stats = (job_dir / "orchestration.txt").read_text().splitlines()
        assert "records_loaded: 0" in stats  # nothing replayed per job

    keys, bad = _keys(cache)
    new_keys = {key for key, _ in store.items()} - warm_keys
    assert new_keys and all(key[1] == "j3d27pt" for key in new_keys)
    assert keys == warm_keys | new_keys
    assert bad == 0
