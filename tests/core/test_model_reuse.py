"""A sweep priced once and committed in chunks, against chunks priced
one by one.

``Evaluator.evaluate_many(chunk, upcoming=rest)`` prices the whole
sweep in its first call and commits later chunks from that pass. The
commit re-probes the simulator's cache at every position, so every
measured run, the evaluator's cost, trace and ``exhausted_at``, the
simulator's counters and the store journal must equal what chunks
priced one at a time produce, whatever the cache did in between.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import gate
from repro.analysis.diagnostics import AnalysisError
from repro.core.budget import Budget, Evaluator
from repro.gpusim.device import A100
from repro.gpusim.diskcache import EvaluationStore
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

CHUNK = 32
PATTERN = get_stencil("j3d7pt")


@pytest.fixture(scope="module")
def sweep():
    """96 distinct valid settings and one invalid one."""
    space = build_space(PATTERN, A100)
    settings = list(dict.fromkeys(space.sample(np.random.default_rng(4), 140)))
    invalid = settings[0].replace(TBx=1024, TBy=4, TBz=4)
    sim = GpuSimulator(device=A100)
    assert sim.violation(PATTERN, invalid) is not None
    return settings[:96], invalid


def _run(tmp_path, settings, *, ahead, warm=(), between=(), capacity=None,
         cost=None, charge_invalid=False, strict=False):
    """Commit ``settings`` in chunks; everything the run leaves behind.

    ``warm`` is modelled into the simulator's cache before the run and
    ``between`` after its first chunk, by another caller."""
    cache_dir = tmp_path / ("ahead" if ahead else "chunked")
    store = EvaluationStore(cache_dir)
    sim = GpuSimulator(device=A100, seed=3, store=store, strict=strict,
                       strict_every=1, true_cache_capacity=capacity)
    if warm:
        sim.run_batch(PATTERN, list(warm))
    runs, passes = [], []
    run_batch, model_batch = sim.run_batch, sim.model_batch

    def logged_run_batch(*a, **k):
        out = run_batch(*a, **k)
        runs.extend(out)
        return out

    def logged_model_batch(pattern, batch):
        passes.append(len(batch))
        return model_batch(pattern, batch)

    sim.run_batch, sim.model_batch = logged_run_batch, logged_model_batch
    budget = Budget(max_cost_s=cost) if cost else Budget(max_iterations=100)
    ev = Evaluator(sim, PATTERN, budget, charge_invalid=charge_invalid)
    outs, exhausted, error = [], [], None
    try:
        for start in range(0, len(settings), CHUNK):
            upcoming = settings[start + CHUNK:] if ahead else ()
            outs.append(ev.evaluate_many(settings[start:start + CHUNK], upcoming))
            exhausted.append(ev.exhausted_at)
            ev.end_iteration()
            if start == 0 and between:
                sim.true_time_batch(PATTERN, list(between))
    except AnalysisError as exc:
        error = (start, str(exc))
    store.close()
    return {
        "runs": runs,
        "outs": outs,
        "exhausted_at": exhausted,
        "error": error,
        "cost": ev.cost_s,
        "evaluations": (ev.evaluations, sim.evaluations),
        "trace": ev.trace,
        "cache_info": sim.cache_info(),
        "store": (store.hits, store.misses, store.puts),
        "journal": (cache_dir / "journal.jsonl").read_bytes(),
    }, passes


def check(tmp_path, settings, **kw):
    """Both ways alike; the priced-ahead run priced once, up front."""
    chunked, _ = _run(tmp_path, settings, ahead=False, **kw)
    ahead, passes = _run(tmp_path, settings, ahead=True, **kw)
    for key, want in chunked.items():
        assert ahead[key] == want, key
    assert passes[0] == len(settings)
    return ahead, passes


def test_plain_sweep(tmp_path, sweep):
    settings, _ = sweep
    got, passes = check(tmp_path, settings)
    assert passes == [len(settings)]
    assert len(got["runs"]) == len(settings)


def test_budget_runs_out_inside_the_second_chunk(tmp_path, sweep):
    settings, _ = sweep
    got, _ = check(tmp_path, settings, cost=12.0)
    assert got["exhausted_at"][0] is None
    assert 0 < got["exhausted_at"][1] < CHUNK - 1
    assert got["outs"][2] == [None] * CHUNK


def test_priced_entries_evicted_before_their_chunk(tmp_path, sweep):
    """The last chunk is cached when the sweep is priced, and the first
    two chunks' commits evict it from a 40-entry cache: its commit must
    model it again, journal nothing twice and count the store's hits."""
    settings, _ = sweep
    got, passes = check(tmp_path, settings, warm=settings[64:], capacity=40)
    assert passes == [len(settings)]
    info = got["cache_info"]
    assert info["evictions"] > 0 and info["disk_hits"] >= CHUNK


def test_entries_cached_between_chunks(tmp_path, sweep):
    """Settings the sweep's pricing found uncached, cached by another
    caller before their chunk commits: the commit finds them hits."""
    settings, _ = sweep
    got, passes = check(tmp_path, settings, between=settings[70:80])
    assert passes == [len(settings)]
    assert got["cache_info"]["hits"] == 10


def test_invalid_settings_repeated_across_chunks(tmp_path, sweep):
    settings, invalid = sweep
    settings = list(settings)
    for at in (3, 40, 41, 70):
        settings.insert(at, invalid)
    got, _ = check(tmp_path, settings, charge_invalid=True, cost=60.0)
    outs = [t for chunk in got["outs"] for t in chunk]
    assert [outs[i] for i in (3, 40, 41, 70)] == [None] * 4


def test_strict_gate_in_a_later_chunk(tmp_path, sweep, monkeypatch):
    """A setting the gate rejects in the second chunk raises there, with
    the gate asked about the same settings in the same order."""
    settings, _ = sweep
    target = settings[CHUNK + 5]
    asked = []

    def fake_gate(pattern, setting, plan, *, every):
        asked.append(setting)
        if setting == target:
            raise AnalysisError("rejected", [])

    monkeypatch.setattr(gate, "strict_gate", fake_gate)
    chunked, _ = _run(tmp_path, settings, ahead=False, strict=True)
    asked_chunked = list(asked)
    asked.clear()
    got, passes = _run(tmp_path, settings, ahead=True, strict=True)
    assert asked == asked_chunked
    for key, want in chunked.items():
        assert got[key] == want, key
    assert got["error"][0] == CHUNK
    assert len(got["outs"]) == 1 and passes == [len(settings)]
