"""The block decoder's seams: blocks, rounds and the candidate tables.

``SearchSpace.sample`` decodes speculative attempts a block of starts at
a time, follows the real ones from the cursor and screens a round of
them in one call. Here the block and round sizes are cut down to one or
two attempts, so chains cross blocks, chunks cross rounds and the first
attempt of a block often runs past its halves;
the results must still be the per-call loop's, settings and whole
generator state. The candidate tables are checked against the Python
filter they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.space.space as space_module
from repro.errors import SearchError
from repro.gpusim.device import A100, V100
from repro.space.parameters import Parameter, ParameterKind, build_parameters
from repro.space.space import _DIM_SUFFIX, SearchSpace, build_space
from repro.stencil.suite import get_stencil
from tests.space.test_exact_sampling import (
    FLAT,
    _Rejecting,
    assert_same_stream,
    reference_random_setting,
    reference_sample,
    twins,
)
from tests.space.test_sampler_halves import _sample_both

#: (starts per block, halves per wanted setting, spare halves per round,
#: halves per round at most).
SIZES = [(1, 1, 0, 1 << 14), (2, 4, 0, 16), (16, 1, 3, 1 << 14), (16, 32, 96, 1)]
NAMES = ("_BLOCK_STARTS", "_SETTING_HALVES", "_SPARE_HALVES", "_ROUND_HALVES")


def _shrink(monkeypatch, sizes) -> None:
    for name, value in zip(NAMES, sizes):
        monkeypatch.setattr(space_module, name, value)


@pytest.fixture(params=SIZES, ids=lambda s: "starts%d-per%d-spare%d-round%d" % s)
def small_blocks(request, monkeypatch):
    _shrink(monkeypatch, request.param)


@pytest.mark.parametrize("unique", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 300])
def test_small_blocks_replay_reference_loop(small_blocks, n, unique):
    space = build_space(get_stencil("addsgd4"), V100)
    for seed, buffered in ((0, None), (1, 0x9E3779B1)):
        ref_rng, rng = twins(seed, buffered)
        expected = reference_sample(space, ref_rng, n, unique=unique)
        got = space.sample(rng, n, unique=unique)
        assert [s.values_tuple() for s in got] == [
            s.values_tuple() for s in expected
        ]
        assert_same_stream(ref_rng, rng)


def test_small_blocks_random_setting(small_blocks):
    space = build_space(get_stencil("j3d7pt"), A100)
    ref_rng, rng = twins(3, 5)
    for max_tries in (1, 2, 500) * 5:
        try:
            expected: object = reference_random_setting(space, ref_rng, max_tries)
        except SearchError as exc:
            expected = str(exc)
        try:
            got: object = space.random_setting(rng, max_tries=max_tries)
        except SearchError as exc:
            got = str(exc)
        assert got == expected
    assert_same_stream(ref_rng, rng)


def test_small_blocks_scripted_rejections(small_blocks, monkeypatch):
    """A stream heavy in zero and three halves: rejections at block ends."""
    space = build_space(get_stencil("rhs4center"), A100)
    got, expected, at, ref_at = _sample_both(space, 1, 60, monkeypatch)
    assert got == expected and at == ref_at


def test_over_constrained_raise_ends_its_chunk(small_blocks):
    """The 500th miss in a row falls blocks after its chunk began (the
    17th chunk of 30 attempts runs from attempt 481 to 510); the
    generator ends where that chunk does."""
    pattern = get_stencil("addsgd4")
    space = _Rejecting(pattern, build_parameters(pattern), resource_device=A100)
    ref_rng, rng = twins(4, 11)
    with pytest.raises(SearchError, match="in 500 tries"):
        reference_sample(space, ref_rng, 30)
    with pytest.raises(SearchError, match="in 500 tries"):
        space.sample(rng, 30)
    assert_same_stream(ref_rng, rng)


def test_too_few_distinct_raise(small_blocks):
    space = build_space(FLAT, A100, max_factor=1)
    ref_rng, rng = twins(6, None)
    with pytest.raises(SearchError, match="distinct valid settings"):
        reference_sample(space, ref_rng, 400, max_tries_factor=1)
    with pytest.raises(SearchError, match="distinct valid settings"):
        space.sample(rng, 400, max_tries_factor=1)
    assert_same_stream(ref_rng, rng)


def _dead_end_space(pattern, device) -> SearchSpace:
    """Merge domains without 1: a spent work budget leaves a dimension
    no tile, so attempts dead-end mid-way and read nothing more."""
    params = []
    for p in build_parameters(pattern):
        if p.name in ("UFx", "CMy", "BMz"):
            p = Parameter(p.name, ParameterKind.POW2, p.values[1:4])
        params.append(p)
    return SearchSpace(pattern, params, resource_device=device)


@pytest.mark.parametrize("sizes", [None, SIZES[1]])
def test_dead_ends_replay_reference_loop(sizes, monkeypatch):
    if sizes is not None:
        _shrink(monkeypatch, sizes)
    space = _dead_end_space(get_stencil("addsgd4"), A100)
    assert any(not space._candidate_groups(1, b) for b in (1, 2, 3))
    for seed, buffered in ((0, None), (2, 7)):
        ref_rng, rng = twins(seed, buffered)
        expected = reference_sample(space, ref_rng, 200)
        assert space.sample(rng, 200) == expected
        assert_same_stream(ref_rng, rng)


# -- the candidate tables ------------------------------------------------------


def python_groups(
    space: SearchSpace, dim: int, budget: int, uf_cap: int | None, stream: bool
) -> list[list[tuple[int, int, int, int]]]:
    """The Python filter the tables replaced: the (TB, UF, CM, BM)
    tuples that fit ``M_dim``, filtered by the key, grouped by TB."""
    s = _DIM_SUFFIX[dim]
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for tb in space.param(f"TB{s}").values:
        for uf in space.param(f"UF{s}").values:
            for cm in space.param(f"CM{s}").values:
                for bm in space.param(f"BM{s}").values:
                    if tb * uf * cm * bm > space.pattern.grid[dim - 1]:
                        continue
                    if stream and tb != 1:
                        continue
                    if uf_cap is not None and uf > uf_cap:
                        continue
                    if uf * cm * bm > budget:
                        continue
                    groups.setdefault(tb, []).append((tb, uf, cm, bm))
    return [groups[tb] for tb in sorted(groups)]


@pytest.mark.parametrize("device", [A100, V100], ids=lambda d: d.name)
@pytest.mark.parametrize("stencil", ["addsgd4", "j3d7pt", "rhs4center", "cheby"])
def test_tables_match_python_filter(stencil, device):
    space = build_space(get_stencil(stencil), device)
    keys = space._tiles.candidates
    ppt = space._ppt_budget()
    assert (1, ppt, None, False) in keys  # the first dimension's first key
    for key in keys:
        assert space._candidate_groups(
            key[0], key[1], uf_cap=key[2], stream=key[3]
        ) == python_groups(space, *key), key


def test_sampler_reaches_only_table_keys(monkeypatch):
    """Every key the reference loop asks for is one the tables hold."""
    space = build_space(get_stencil("cheby"), V100)
    asked = []
    read = space._candidate_groups

    def recording(dim, budget, *, uf_cap=None, stream=False):
        asked.append((dim, budget, uf_cap, stream))
        return read(dim, budget, uf_cap=uf_cap, stream=stream)

    monkeypatch.setattr(space, "_candidate_groups", recording)
    reference_sample(space, np.random.default_rng(0), 500)
    assert asked and set(asked) <= set(space._tiles.candidates)
