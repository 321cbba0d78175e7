"""The sampler against the per-call draw loop it replays.

``SearchSpace.sample`` and ``random_setting`` replay NumPy's bounded
draws over raw PCG64 words. The reference below is the construction
loop they replaced, drawing each value with ``rng.integers`` /
``rng.shuffle``: the sampler must return its settings in its order and
leave the generator in exactly its state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SearchError
from repro.gpusim.device import A100, V100
from repro.space.constraints import MAX_THREADS_PER_BLOCK
from repro.space.parameters import build_parameters
from repro.space.setting import Setting, settings_matrix
from repro.space.space import (
    _DIM_SUFFIX,
    _MAX_DRAW_TRIES,
    SearchSpace,
    build_space,
)
from repro.stencil.pattern import StencilPattern
from repro.stencil.suite import get_stencil
from repro.utils.rng import _PCG64Replay

# -- the reference loop ----------------------------------------------------


def draw_candidate(
    space: SearchSpace, rng: np.random.Generator, ppt_cap: int
) -> Setting | None:
    """One construction attempt, one generator call per drawn value."""
    values: dict[str, int] = {}
    for switch in ("useShared", "useConstant", "useStreaming",
                   "useRetiming", "usePrefetching"):
        domain = space.param(switch).values
        values[switch] = domain[int(rng.integers(len(domain)))]
    streaming = values["useStreaming"] == 2
    if streaming:
        sd_domain = space.param("SD").values
        sd = sd_domain[int(rng.integers(len(sd_domain)))]
        m_sd = space.pattern.grid[sd - 1]
        sb_domain = [v for v in space.param("SB").values if v <= m_sd]
        sb = sb_domain[int(rng.integers(len(sb_domain)))]
    else:
        sd, sb = 1, 1
        values["usePrefetching"] = 1
    values["SD"], values["SB"] = sd, sb

    budget = ppt_cap
    dims = [1, 2, 3]
    rng.shuffle(dims)
    for dim in dims:
        s = _DIM_SUFFIX[dim]
        if streaming and dim == sd:
            extent = max(1, space.pattern.grid[dim - 1] // sb)
            uf_cap = sb if sb > 1 else extent
            groups = space._candidate_groups(
                dim, min(budget, extent), uf_cap=uf_cap, stream=True
            )
        else:
            groups = space._candidate_groups(dim, budget)
        if not groups:
            return None
        sub = groups[int(rng.integers(len(groups)))]
        tb, uf, cm, bm = sub[int(rng.integers(len(sub)))]
        budget //= max(1, uf * cm * bm)
        values[f"TB{s}"], values[f"UF{s}"] = tb, uf
        values[f"CM{s}"], values[f"BM{s}"] = cm, bm

    if values["TBx"] * values["TBy"] * values["TBz"] > MAX_THREADS_PER_BLOCK:
        return None
    return Setting(values)


def reference_random_setting(
    space: SearchSpace, rng: np.random.Generator, max_tries: int = _MAX_DRAW_TRIES
) -> Setting:
    ppt_cap = space._ppt_budget()
    for _ in range(max_tries):
        setting = draw_candidate(space, rng, ppt_cap)
        if setting is not None and space.is_valid(setting):
            return setting
    raise SearchError(
        f"could not draw a valid setting in {max_tries} tries "
        f"(space may be over-constrained)"
    )


def reference_sample(
    space: SearchSpace,
    rng: np.random.Generator,
    n: int,
    unique: bool = True,
    max_tries_factor: int = 50,
) -> list[Setting]:
    out: list[Setting] = []
    seen: set[Setting] = set()
    draws = 0
    misses = 0
    limit = max(1, n) * max_tries_factor
    ppt_cap = space._ppt_budget()
    while len(out) < n and draws < limit:
        chunk = min(n - len(out), limit - draws)
        cands = [draw_candidate(space, rng, ppt_cap) for _ in range(chunk)]
        built = [c for c in cands if c is not None]
        verdicts = iter(space._batch_valid(built).tolist())
        for cand in cands:
            if cand is None or not next(verdicts):
                misses += 1
                if misses >= _MAX_DRAW_TRIES:
                    raise SearchError(
                        f"could not draw a valid setting in "
                        f"{_MAX_DRAW_TRIES} tries "
                        f"(space may be over-constrained)"
                    )
                continue
            misses = 0
            draws += 1
            if unique:
                if cand in seen:
                    continue
                seen.add(cand)
            out.append(cand)
    if len(out) < n:
        raise SearchError(f"only found {len(out)} of {n} distinct valid settings")
    return out


def reference_uniform_draws(
    space: SearchSpace, rng: np.random.Generator, n: int
) -> list[Setting]:
    """``estimate_valid_fraction``'s draws, one call per value."""
    return [
        Setting({
            p.name: int(p.values[rng.integers(p.cardinality)])
            for p in space.parameters
        })
        for _ in range(n)
    ]


# -- helpers -----------------------------------------------------------------


def twins(seed: int, buffered: int | None) -> tuple[np.random.Generator, ...]:
    """Two generators in one state; ``buffered`` is a pending half."""
    state = np.random.default_rng(seed).bit_generator.state
    if buffered is not None:
        state["has_uint32"], state["uinteger"] = 1, buffered
    pair = np.random.default_rng(), np.random.default_rng()
    for g in pair:
        g.bit_generator.state = state
    return pair


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    """Whole state dicts equal, and so are the next 8 draws."""
    assert a.bit_generator.state == b.bit_generator.state
    assert [int(a.integers(7)) for _ in range(8)] == [
        int(b.integers(7)) for _ in range(8)
    ]
    assert a.bit_generator.state == b.bit_generator.state


FLAT = StencilPattern(name="flat", grid=(64, 64, 1), order=1, flops=10,
                      io_arrays=2)


# -- the sampler -------------------------------------------------------------


@pytest.mark.parametrize("device", [A100, V100], ids=lambda d: d.name)
@pytest.mark.parametrize(
    "stencil", ["addsgd4", "addsgd6", "rhs4center", "j3d7pt"]
)
def test_sample_replays_reference_loop(stencil, device):
    space = build_space(get_stencil(stencil), device)
    for seed in range(4):
        for buffered in (None, (seed * 0x9E3779B1) & 0xFFFFFFFF):
            for n in (0, 1, 7, 200, 2000):
                ref_rng, rng = twins(seed, buffered)
                expected = reference_sample(space, ref_rng, n)
                got = space.sample(rng, n)
                assert got == expected
                assert [s.values_tuple() for s in got] == [
                    s.values_tuple() for s in expected
                ]
                assert_same_stream(ref_rng, rng)


def test_sample_without_unique_keeps_duplicates():
    space = build_space(FLAT, A100, max_factor=1)
    ref_rng, rng = twins(3, None)
    expected = reference_sample(space, ref_rng, 300, unique=False)
    assert space.sample(rng, 300, unique=False) == expected
    assert len(set(expected)) < len(expected)
    assert_same_stream(ref_rng, rng)


def test_sample_too_few_distinct_raises_in_reference_state():
    space = build_space(FLAT, A100, max_factor=1)
    ref_rng, rng = twins(5, 17)
    with pytest.raises(SearchError, match="distinct valid settings"):
        reference_sample(space, ref_rng, 400, max_tries_factor=1)
    with pytest.raises(SearchError, match="distinct valid settings"):
        space.sample(rng, 400, max_tries_factor=1)
    assert_same_stream(ref_rng, rng)


@pytest.mark.parametrize("buffered", [None, 12345])
def test_sample_zero_leaves_state_untouched(buffered):
    space = build_space(get_stencil("j3d7pt"), A100)
    _, rng = twins(0, buffered)
    before = rng.bit_generator.state
    assert space.sample(rng, 0) == []
    assert rng.bit_generator.state == before


class _Rejecting(SearchSpace):
    """A space no row is valid in."""

    def _batch_valid_matrix(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(len(values), dtype=bool)


@pytest.mark.parametrize("buffered", [None, 7])
def test_over_constrained_raise_leaves_reference_state(buffered):
    pattern = get_stencil("addsgd4")
    space = _Rejecting(pattern, build_parameters(pattern), resource_device=A100)
    ref_rng, rng = twins(2, buffered)
    with pytest.raises(SearchError, match=f"in {_MAX_DRAW_TRIES} tries"):
        reference_sample(space, ref_rng, 30)
    with pytest.raises(SearchError, match=f"in {_MAX_DRAW_TRIES} tries"):
        space.sample(rng, 30)
    assert_same_stream(ref_rng, rng)


def test_random_setting_raises_after_max_tries():
    pattern = get_stencil("addsgd4")
    space = _Rejecting(pattern, build_parameters(pattern), resource_device=A100)
    rng = np.random.default_rng(0)
    with pytest.raises(SearchError, match="in 3 tries"):
        space.random_setting(rng, max_tries=3)
    before = rng.bit_generator.state
    with pytest.raises(SearchError, match="in 0 tries"):
        space.random_setting(rng, max_tries=0)
    assert rng.bit_generator.state == before


def test_non_pcg64_generator_rejected():
    space = build_space(get_stencil("j3d7pt"), A100)
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        space.sample(rng, 5)
    with pytest.raises(TypeError, match="MT19937"):
        space.random_setting(rng)


@pytest.mark.parametrize(
    "space",
    [
        build_space(get_stencil("addsgd4"), A100),
        build_space(get_stencil("rhs4center"), V100),
        build_space(FLAT, None),
    ],
    ids=["addsgd4-A100", "rhs4center-V100", "flat"],
)
def test_random_setting_replays_reference_loop(space):
    for seed, buffered in ((0, None), (1, 3), (2, 0)):
        ref_rng, rng = twins(seed, buffered)
        for max_tries in (_MAX_DRAW_TRIES, 1, _MAX_DRAW_TRIES, 2) * 10:
            try:
                expected: Setting | str = reference_random_setting(
                    space, ref_rng, max_tries
                )
            except SearchError as exc:
                expected = str(exc)
            try:
                got: Setting | str = space.random_setting(rng, max_tries=max_tries)
            except SearchError as exc:
                got = str(exc)
            assert got == expected
        assert_same_stream(ref_rng, rng)


# -- the replay primitives -----------------------------------------------------


def _replayed(state: dict, ops) -> tuple[list, dict]:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    draw = _PCG64Replay(rng)
    out = [op(draw) for op in ops]
    draw.sync()
    return out, rng.bit_generator.state


def _per_call(state: dict, ops) -> tuple[list, dict]:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return [op(rng) for op in ops], rng.bit_generator.state


def _integers(k: int):
    return lambda r: int(r.integers(k))


def _shuffled(n: int):
    def op(r):
        items = list(range(1, n + 1))
        r.shuffle(items)
        return items
    return op


def _buffered_state(uinteger: int) -> dict:
    state = np.random.default_rng(11).bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, uinteger
    return state


def test_buffered_zero_half_makes_integers_reject():
    # 0 * 3 leaves 0 below the threshold (2**32 - 3) % 3 == 1.
    state = _buffered_state(0)
    ops = [_integers(3)] * 4
    assert _replayed(state, ops) == _per_call(state, ops)


def test_buffered_three_makes_shuffle_reject():
    # random_interval(2) masks with 0b11: a 3 is above the max.
    state = _buffered_state(3)
    ops = [_shuffled(3), _integers(5)]
    assert _replayed(state, ops) == _per_call(state, ops)


@pytest.mark.parametrize("seed", range(6))
def test_mixed_draws_match_numpy(seed):
    """Random op sequences, rejection-heavy bounds included."""
    picker = np.random.default_rng(100 + seed)
    bounds = [1, 2, 3, 5, 7, 11, 64, 1000, 2**31 + 1, 2**32 - 1]
    ops = []
    for _ in range(3000):
        if picker.random() < 0.2:
            ops.append(_shuffled(int(picker.integers(1, 6))))
        else:
            ops.append(_integers(bounds[int(picker.integers(len(bounds)))]))
    for state in (np.random.default_rng(seed).bit_generator.state,
                  _buffered_state(seed * 977)):
        assert _replayed(state, ops) == _per_call(state, ops)


def test_untouched_replay_restores_entry_state():
    for state in (np.random.default_rng(4).bit_generator.state,
                  _buffered_state(99)):
        assert _replayed(state, []) == ([], state)


# -- estimate_valid_fraction ---------------------------------------------------


class _Recording(SearchSpace):
    """A space that keeps the last matrix it screened."""

    def _batch_valid_matrix(self, values: np.ndarray) -> np.ndarray:
        self.screened = np.array(values)
        return super()._batch_valid_matrix(values)


@pytest.mark.parametrize(
    "pattern, device, max_factor, reverse",
    [
        (get_stencil("j3d7pt"), A100, None, False),
        (FLAT, V100, 1, False),  # k == 1 columns
        (get_stencil("addsgd4"), A100, None, True),  # not PARAMETER_ORDER
    ],
    ids=["j3d7pt-A100", "flat-max1", "reversed"],
)
def test_estimate_valid_fraction_replays_scalar_loop(
    pattern, device, max_factor, reverse
):
    parameters = build_parameters(pattern, max_factor=max_factor)
    if reverse:
        parameters = list(reversed(parameters))
    space = _Recording(pattern, parameters, resource_device=device)
    for seed, buffered in ((0, None), (1, 5)):
        ref_rng, rng = twins(seed, buffered)
        fraction = space.estimate_valid_fraction(rng, 500)
        drawn = reference_uniform_draws(space, ref_rng, 500)
        assert space.screened.tolist() == settings_matrix(drawn).tolist()
        assert fraction == sum(space.is_valid(s) for s in drawn) / 500
        assert_same_stream(ref_rng, rng)
