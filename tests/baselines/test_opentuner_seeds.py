"""OpenTuner's seeded members against one ``random_setting`` per seed.

``_random_population`` draws its valid seeds with one
``space.sample(rng, k, unique=False)`` call. Each valid draw takes at
least one construction attempt, so no chunk overshoots and the call
draws what ``k`` consecutive ``random_setting`` calls draw, leaving the
generator in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.opentuner import _random_population
from repro.gpusim.device import get_device
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

#: The iso-time pairs of the end-to-end benchmark.
PAIRS = [(s, d) for s in ("addsgd4", "addsgd6") for d in ("A100", "V100")]


def _reference(space, rng, size, seeds=4):
    """The population with one ``random_setting`` call per seed."""
    neutral = {name: space.param(name).values[0] for name in space.names}
    neutral.update({"TBx": 32, "TBy": 2})
    pop = [space.encode(space.repair(neutral))]
    for _ in range(min(seeds, size - 1)):
        pop.append(space.encode(space.random_setting(rng)))
    cards = np.array([space.param(n).cardinality for n in space.names])
    while len(pop) < size:
        pop.append(rng.integers(0, cards))
    return pop


def _twins(seed: int, pending: bool):
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # leave a buffered 32-bit half, as integer draws do
        for g in pair:
            g.integers(7)
    return pair


@pytest.mark.parametrize("stencil, device", PAIRS)
@pytest.mark.parametrize("seed", range(3))
def test_seeded_members_match_random_setting(stencil, device, seed):
    space = build_space(get_stencil(stencil), get_device(device))
    ref_rng, rng = _twins(seed, pending=False)
    expected = _reference(space, ref_rng, 32)
    got = _random_population(space, rng, 32)
    assert [v.tolist() for v in got] == [v.tolist() for v in expected]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_seeded_members_match_with_a_pending_half():
    space = build_space(get_stencil("addsgd6"), get_device("V100"))
    ref_rng, rng = _twins(7, pending=True)
    assert rng.bit_generator.state["has_uint32"] == 1
    expected = _reference(space, ref_rng, 8)
    got = _random_population(space, rng, 8)
    assert [v.tolist() for v in got] == [v.tolist() for v in expected]
    assert rng.bit_generator.state == ref_rng.bit_generator.state
