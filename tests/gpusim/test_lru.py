"""ArrayLRU: exact OrderedDict LRU semantics on flat arrays.

The array-backed cache must be *indistinguishable* from the reference
``OrderedDict`` + ``move_to_end`` + ``popitem(last=False)`` protocol:
same residents, same eviction order, same counters — under every
capacity including the 0/1 edge cases, random interleavings of scalar
and batch access, and across load-factor rehashes.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.gpusim.device import A100
from repro.gpusim.lru import ArrayLRU
from repro.gpusim.simulator import GpuSimulator
from repro.utils import rowhash


def _keyed(i: int) -> tuple[int, tuple[int, ...]]:
    """A (key, token) pair per logical entry, hashed like real keys."""
    return rowhash.splitmix64(i + 1), (i,)


class _Reference:
    """The pre-columnar OrderedDict protocol, counter-instrumented."""

    def __init__(self, capacity: int | None) -> None:
        self.capacity = capacity
        self.d: OrderedDict[int, object] = OrderedDict()
        self.inserts = 0
        self.evictions = 0

    def get(self, i: int):
        v = self.d.get(i)
        if v is not None:
            self.d.move_to_end(i)
        return v

    def put(self, i: int, value: object) -> None:
        self.d[i] = value
        self.d.move_to_end(i)
        self.inserts += 1
        if self.capacity is not None:
            while len(self.d) > self.capacity:
                self.d.popitem(last=False)
                self.evictions += 1


def _check_equal(ref: _Reference, lru: ArrayLRU) -> None:
    assert len(lru) == len(ref.d)
    assert lru.inserts == ref.inserts
    assert lru.evictions == ref.evictions
    ref_order = [_keyed(i)[1] for i in ref.d]  # LRU -> MRU
    assert lru.tokens_in_lru_order() == ref_order


@pytest.mark.parametrize("capacity", [None, 0, 1, 2, 5, 17, 50])
def test_differential_vs_ordereddict(capacity):
    rng = random.Random(1234 if capacity is None else capacity)
    ref = _Reference(capacity)
    lru = ArrayLRU(capacity)
    universe = 80
    for step in range(3000):
        i = rng.randrange(universe)
        key, token = _keyed(i)
        if rng.random() < 0.5:  # lookup (+ touch on hit)
            slot = lru.find(key, token)
            got = ref.get(i)
            assert (slot >= 0) == (got is not None)
            if slot >= 0:
                lru.touch(slot)
                assert lru.value_at(slot) == got
        else:  # insert if absent (the simulator never double-inserts)
            if ref.d.get(i) is None:
                ref.put(i, ("v", i))
                assert lru.find(key, token) < 0
                lru.insert(key, token, float(i), ("v", i))
        if step % 250 == 0:
            _check_equal(ref, lru)
    _check_equal(ref, lru)


def test_capacity_zero_admits_then_evicts():
    lru = ArrayLRU(0)
    key, token = _keyed(7)
    lru.insert(key, token, 1.0, "x")
    assert len(lru) == 0
    assert lru.inserts == 1
    assert lru.evictions == 1
    assert lru.find(key, token) < 0


def test_capacity_one_keeps_most_recent():
    lru = ArrayLRU(1)
    for i in range(5):
        key, token = _keyed(i)
        lru.insert(key, token, float(i), i)
    assert len(lru) == 1
    assert lru.tokens_in_lru_order() == [(4,)]
    assert lru.evictions == 4
    # Touching the survivor then inserting evicts the new... no: evicts
    # the LRU, which after the touch is still the fresh insert's victim.
    key4, tok4 = _keyed(4)
    lru.touch(lru.find(key4, tok4))
    key5, tok5 = _keyed(5)
    lru.insert(key5, tok5, 5.0, 5)
    assert lru.tokens_in_lru_order() == [(5,)]


def test_rehash_preserves_order_and_entries():
    lru = ArrayLRU(None)
    n = 5000  # far beyond the initial table size: several rehashes
    for i in range(n):
        key, token = _keyed(i)
        lru.insert(key, token, float(i), i)
    assert len(lru) == n
    # Touch a suffix so LRU order differs from insert order.
    for i in range(0, n, 7):
        key, token = _keyed(i)
        slot = lru.find(key, token)
        assert slot >= 0
        lru.touch(slot)
        assert lru.value_at(slot) == i
    expect = [(i,) for i in range(n) if i % 7] + [(i,) for i in range(0, n, 7)]
    assert lru.tokens_in_lru_order() == expect


def test_lookup_many_matches_scalar_find():
    lru = ArrayLRU(None)
    for i in range(0, 100, 2):
        key, token = _keyed(i)
        lru.insert(key, token, float(i), i)
    keys = np.array([_keyed(i)[0] for i in range(100)], dtype=np.uint64)
    slots = lru.lookup_many(keys)
    for i, slot in enumerate(slots.tolist()):
        key, token = _keyed(i)
        assert slot == lru.find(key, token)
        assert (slot >= 0) == (i % 2 == 0)


def test_touch_many_duplicates_last_wins():
    lru = ArrayLRU(None)
    slots = []
    for i in range(3):
        key, token = _keyed(i)
        slots.append(lru.insert(key, token, float(i), i))
    # Sequential touches 0,1,0 leave order [1, 0]... with 2 untouched
    # oldest: [2, 1, 0].
    lru.touch_many(np.array([slots[0], slots[1], slots[0]]))
    assert lru.tokens_in_lru_order() == [(2,), (1,), (0,)]


def test_token_collision_reads_as_miss_and_counts():
    lru = ArrayLRU(None)
    key, token = _keyed(3)
    lru.insert(key, token, 3.0, "a")
    assert lru.find(key, (999,)) < 0  # same key, different token
    assert lru.collisions == 1
    assert lru.find(key, token) >= 0  # the real entry is intact


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
    assert sim._alru.tokens_in_lru_order() == seq._alru.tokens_in_lru_order()
