"""The sampler's indexed-halves paths that NumPy's streams rarely reach.

``SearchSpace.sample`` reads its draws from the replay's half list by
index and only calls back into the replay when a draw rejects: Lemire's
biased sliver (probability about ``k / 2**32`` per draw) or the
dimension shuffle's masked 3. Here both the sampler and the reference
construction loop of ``test_exact_sampling`` read one scripted stream
heavy in zero and three halves, so those paths run hundreds of times.
The reference draws through ``_PCG64Replay.integers`` / ``shuffle``,
which ``test_exact_sampling`` pins against NumPy.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.space.space as space_module
from repro.gpusim.device import A100, V100
from repro.space.parameters import Parameter, ParameterKind, build_parameters
from repro.space.space import _DIM_ORDERS, SearchSpace, build_space
from repro.stencil.suite import get_stencil
from repro.utils.rng import _PCG64Replay
from tests.space.test_exact_sampling import (
    assert_same_stream,
    reference_sample,
    twins,
)


def _script(seed: int, n: int = 200_000) -> list[int]:
    """Halves: a third zeros (Lemire rejects them for every ``k`` that
    is not a power of two), a tenth threes (the shuffle rejects them),
    the rest uniform."""
    rng = np.random.default_rng(seed)
    halves = rng.integers(0, 2**32, n, dtype=np.uint64)
    kind = rng.random(n)
    halves[kind < 0.33] = 0
    halves[(kind >= 0.33) & (kind < 0.43)] = 3
    return halves.tolist()


class _Scripted(_PCG64Replay):
    """A replay over a fixed list of halves instead of a generator."""

    made: list["_Scripted"] = []

    def __init__(self, script: list[int]) -> None:
        self._halves = [0, *script]  # one consumed half before the cursor
        self._pos = 1
        self._base = 0
        _Scripted.made.append(self)

    def _fill(self, need: int) -> None:
        assert len(self._halves) - self._pos >= need, "script exhausted"

    def sync(self, pos: int | None = None) -> None:
        if pos is not None:
            self._pos = pos


class _ScriptedRng:
    """The reference loop's ``rng``: per-call draws over a scripted replay."""

    def __init__(self, replay: _Scripted) -> None:
        self.replay = replay

    def integers(self, k: int) -> int:
        return self.replay.integers(k)

    def shuffle(self, items: list[int]) -> None:
        self.replay.shuffle(items)


def _sample_both(space: SearchSpace, seed: int, n: int, monkeypatch, **kw):
    script = _script(seed)
    reference = _Scripted(script)
    expected = reference_sample(space, _ScriptedRng(reference), n, **kw)
    _Scripted.made.clear()
    monkeypatch.setattr(space_module, "_PCG64Replay", lambda rng: _Scripted(script))
    got = space.sample(None, n, **kw)  # type: ignore[arg-type]
    (sampler,) = _Scripted.made
    return got, expected, sampler._pos, reference._pos


@pytest.mark.parametrize(
    "stencil, device",
    [("addsgd4", A100), ("j3d7pt", V100), ("rhs4center", A100)],
)
@pytest.mark.parametrize("seed", range(3))
def test_rejections_replay_reference_loop(stencil, device, seed, monkeypatch):
    space = build_space(get_stencil(stencil), device)
    got, expected, at, ref_at = _sample_both(space, seed, 300, monkeypatch)
    assert got == expected
    assert [s.values_tuple() for s in got] == [s.values_tuple() for s in expected]
    assert at == ref_at  # the same halves consumed


def _odd_switch_space(pattern, device) -> SearchSpace:
    """Table I with three-valued ``useShared`` and one-valued
    ``useRetiming``: a switch draw that can reject and one that reads
    no half."""
    params = []
    for p in build_parameters(pattern):
        if p.name == "useShared":
            p = Parameter(p.name, ParameterKind.ENUM, (1, 2, 3))
        elif p.name == "useRetiming":
            p = Parameter(p.name, ParameterKind.BOOL, (1,))
        params.append(p)
    return SearchSpace(pattern, params, resource_device=device)


def test_non_binary_switches_replay_reference_loop(monkeypatch):
    space = _odd_switch_space(get_stencil("j3d7pt"), A100)
    got, expected, at, ref_at = _sample_both(space, 5, 200, monkeypatch)
    assert got == expected and at == ref_at
    assert {s["useShared"] for s in got} == {1, 2, 3}
    assert {s["useRetiming"] for s in got} == {1}


@pytest.mark.parametrize("buffered", [None, 0])
def test_non_binary_switches_match_numpy(buffered):
    space = _odd_switch_space(get_stencil("addsgd4"), V100)
    ref_rng, rng = twins(4, buffered)
    assert space.sample(rng, 500) == reference_sample(space, ref_rng, 500)
    assert_same_stream(ref_rng, rng)


def test_dimension_orders_are_the_shuffles():
    for j2 in range(3):
        for j1 in range(2):
            draw = _Scripted([j2, j1])
            dims = [1, 2, 3]
            draw.shuffle(dims)
            assert _DIM_ORDERS[2 * j2 + j1] == tuple(dims)
