"""The simulator's noise-free LRU cache and compile record.

Both are keyed by ``(stencil name, setting value tuple)``. The cache
follows the ``OrderedDict`` + ``move_to_end`` + admit-then-
``popitem(last=False)`` protocol: same residents, same eviction order,
same counters under every capacity including the 0/1 edge cases, for
scalar runs, batches and any interleaving of the two.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator


class _Reference:
    """The sequential cache protocol, counter-instrumented."""

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.d: OrderedDict[tuple[int, ...], None] = OrderedDict()
        self.hits = self.misses = self.inserts = self.evictions = 0

    def access(self, t: tuple[int, ...]) -> None:
        if t in self.d:
            self.hits += 1
            self.d.move_to_end(t)
            return
        self.misses += 1
        self.d[t] = None
        self.inserts += 1
        if self.capacity is not None:
            while len(self.d) > self.capacity:
                self.d.popitem(last=False)
                self.evictions += 1


def _check_equal(ref: _Reference, sim: GpuSimulator) -> None:
    info = sim.cache_info()
    assert (info["size"], info["hits"], info["misses"]) == (
        len(ref.d), ref.hits, ref.misses,
    )
    assert (info["inserts"], info["evictions"]) == (ref.inserts, ref.evictions)
    assert [t for _, t in sim._cache] == list(ref.d)  # LRU -> MRU


@pytest.mark.parametrize("capacity", [None, 0, 1, 2, 5, 17, 50])
def test_differential_vs_ordereddict(small_pattern, small_space, capacity):
    """Random scalar runs and batches (duplicates included) against the
    sequential reference protocol."""
    rng = random.Random(1234 if capacity is None else capacity)
    universe = small_space.sample(np.random.default_rng(7), 40, unique=True)
    ref = _Reference(capacity)
    sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=capacity)
    for step in range(150):
        if rng.random() < 0.5:
            s = rng.choice(universe)
            sim.run(small_pattern, s)
            ref.access(s.values_tuple())
        else:
            batch = [rng.choice(universe) for _ in range(rng.randrange(1, 8))]
            sim.run_batch(small_pattern, batch)
            for s in batch:
                ref.access(s.values_tuple())
        if step % 25 == 0:
            _check_equal(ref, sim)
    _check_equal(ref, sim)


def test_capacity_zero_admits_then_evicts(small_pattern, small_space, rng):
    sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=0)
    a, b = small_space.sample(rng, 2, unique=True)
    sim.run(small_pattern, a)
    sim.run_batch(small_pattern, [b, a])
    info = sim.cache_info()
    assert info["size"] == 0
    assert (info["misses"], info["inserts"], info["evictions"]) == (3, 3, 3)
    assert info["hits"] == 0
    assert not sim.cache_contains(small_pattern, a)


def test_capacity_one_keeps_most_recent(small_pattern, small_space, rng):
    sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=1)
    settings = small_space.sample(rng, 6, unique=True)
    for s in settings[:5]:
        sim.run(small_pattern, s)
    assert [t for _, t in sim._cache] == [settings[4].values_tuple()]
    assert sim.cache_info()["evictions"] == 4
    # Touching the survivor does not save it from the next insert.
    sim.run(small_pattern, settings[4])
    sim.run(small_pattern, settings[5])
    assert [t for _, t in sim._cache] == [settings[5].values_tuple()]
    assert sim.cache_info()["evictions"] == 5


def test_unbounded_cache_never_evicts(small_pattern, small_space, rng):
    sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=None)
    settings = small_space.sample(rng, 30, unique=True)
    sim.run_batch(small_pattern, settings[:20])
    for s in settings[10:]:
        sim.run(small_pattern, s)
    info = sim.cache_info()
    assert (info["size"], info["inserts"], info["evictions"]) == (30, 30, 0)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError, match="true_cache_capacity"):
        GpuSimulator(true_cache_capacity=-1)


def test_warm_batch_touches_in_order(small_pattern, small_space, rng):
    """An all-hit batch moves entries to the end in setting order, so a
    repeated setting ends up where its last occurrence puts it."""
    s0, s1, s2 = small_space.sample(rng, 3, unique=True)
    sim = GpuSimulator(device=A100, seed=0)
    sim.run_batch(small_pattern, [s0, s1, s2])
    sim.run_batch(small_pattern, [s0, s1, s0])
    assert [t for _, t in sim._cache] == [
        s2.values_tuple(), s1.values_tuple(), s0.values_tuple()
    ]
    assert sim.cache_info()["hits"] == 3


def test_one_values_tuple_on_two_stencils(small_pattern, small_space, rng):
    """The stencil name is part of the key: the same values on another
    stencil are a separate entry and a separate compile."""
    other = dataclasses.replace(small_pattern, name="test3d-copy")
    (s,) = small_space.sample(rng, 1)
    sim = GpuSimulator(device=A100, seed=0, noise=0.0)
    runs = [sim.run(small_pattern, s), sim.run(other, s)]
    for run in runs:
        assert run.tuning_cost_s == run.true_time_s * sim.trials + sim.compile_cost_s
    info = sim.cache_info()
    assert (info["size"], info["misses"], info["hits"]) == (2, 2, 0)
    assert sim.cache_contains(small_pattern, s) and sim.cache_contains(other, s)


def test_pickled_setting_hits_original_entry(small_pattern, small_space, rng):
    (s,) = small_space.sample(rng, 1)
    copy = pickle.loads(pickle.dumps(s))
    sim = GpuSimulator(device=A100, seed=0, noise=0.0)
    first = sim.run(small_pattern, s)
    again = sim.run(small_pattern, copy)
    assert sim.cache_info()["hits"] == 1
    assert again.true_time_s == first.true_time_s
    assert again.tuning_cost_s == again.true_time_s * sim.trials


def test_interleaved_run_and_run_batch_eviction_order(
    small_pattern, small_space, rng
):
    """End-to-end: scalar/batch interleavings evict exactly like a loop
    of scalar runs."""
    settings = small_space.sample(rng, 12, unique=True)
    sim, seq = (
        GpuSimulator(device=A100, seed=0, true_cache_capacity=5)
        for _ in range(2)
    )
    sim.run(small_pattern, settings[0])
    sim.run_batch(small_pattern, settings[:8])
    sim.run(small_pattern, settings[2])
    sim.run_batch(small_pattern, settings[4:])
    sim.run(small_pattern, settings[11])
    for s in [settings[0], *settings[:8], settings[2], *settings[4:], settings[11]]:
        seq.run(small_pattern, s)
    assert sim.cache_info() == seq.cache_info()
    assert list(sim._cache) == list(seq._cache)
