"""OpenTuner's breeding loop with one generator call per draw.

``OpenTunerGA._breed`` reads a whole generation's draws from one block
of raw words. This is the loop it replaced: ``rng.choice`` for the
parents, ``rng.random`` for the crossover test and mask, and one
``rng.random(n)`` for a child's mutation flips. The block path must
return the same children and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.opentuner import OpenTunerGA
from repro.space.space import SearchSpace


def mutate(
    tuner: OpenTunerGA,
    space: SearchSpace,
    vec: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flip each bit of each domain index with ``mutation_rate``: one
    ``rng.random(n)`` over all ``n`` bits, parameter by parameter and
    low bit first."""
    out = vec.copy()
    bits = tuner._bit_layout(space)
    flips = rng.random(len(bits)) < tuner.mutation_rate
    for pos in np.flatnonzero(flips).tolist():
        k, b, card = bits[pos]
        out[k] = (int(out[k]) ^ (1 << b)) % card
    return out


def breed(
    tuner: OpenTunerGA,
    space: SearchSpace,
    pop: list[np.ndarray],
    times: np.ndarray,
    probs: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """``count`` children, drawn one generator call at a time."""
    children: list[np.ndarray] = []
    while len(children) < count:
        i1, i2 = rng.choice(len(pop), size=2, p=probs)
        p1, p2 = pop[int(i1)], pop[int(i2)]
        if rng.random() < tuner.crossover_rate:
            mask = rng.random(len(p1)) < 0.5
            child = np.where(mask, p1, p2)
        else:
            child = (p1 if times[int(i1)] <= times[int(i2)] else p2).copy()
        children.append(mutate(tuner, space, child, rng))
    return children


class ReferenceOpenTunerGA(OpenTunerGA):
    """:class:`OpenTunerGA` breeding through the per-call loop."""

    def _breed(self, space, pop, times, probs, count, rng):
        return breed(self, space, pop, times, probs, count, rng)
