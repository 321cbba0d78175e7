"""OpenTuner-style search techniques.

The paper configures OpenTuner with its *global genetic algorithm*
(options matched to csTuner's GA: 32 individuals, crossover 0.8,
mutation 0.005) and no stencil-specific structure — the GA operates on
the raw 19-parameter space. We additionally provide the differential
evolution and hill-climber techniques from OpenTuner's ensemble, which
the extension benchmarks exercise.

Individuals are encoded as per-parameter domain-index vectors
(:meth:`~repro.space.space.SearchSpace.encode`); genetic operators work
on indices and phenotypes are obtained through the full constraint
repair, mirroring OpenTuner's manipulator/repair pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ITERATION_BATCH, BaselineTuner
from repro.core.budget import Evaluator
from repro.errors import SearchError
from repro.profiler.dataset import PerformanceDataset
from repro.space.setting import Setting, settings_from_matrix
from repro.space.space import SearchSpace
from repro.stencil.pattern import StencilPattern


def _random_population(
    space: SearchSpace, rng: np.random.Generator, size: int, *, seeds: int = 4
) -> list[np.ndarray]:
    """Mostly uniform over the raw domains, plus a few valid seeds.

    A general-purpose tuner's manipulator knows each parameter's range
    but not the stencil constraints, so the bulk of the initial
    population is uniform over the domains (and will mostly fail to
    compile, costing budget). Like a real OpenTuner session it also
    starts from the program's default configuration (the all-ones
    neutral setting) and a handful of user-seeded configurations.
    """
    pop: list[np.ndarray] = []
    neutral = {name: space.param(name).values[0] for name in space.names}
    if "TBx" in space.names and "TBy" in space.names:
        neutral.update({"TBx": 32, "TBy": 2})  # a plausible user default
    pop.append(space.encode(space.repair(neutral)))
    # The seeds ``random_setting`` would draw one by one, in one call.
    seeded = space.sample(rng, max(0, min(seeds, size - 1)), unique=False)
    pop.extend(space.encode(s) for s in seeded)
    cards = np.array(
        [space.param(n).cardinality for n in space.names], dtype=np.int64
    )
    while len(pop) < size:
        pop.append(rng.integers(0, cards))
    return pop


def _decode_and_score(
    space: SearchSpace, evaluator: Evaluator, indices: np.ndarray
) -> tuple[Setting, float]:
    """Decode through the manipulator only: domains and gating.

    OpenTuner's configuration manipulator knows each parameter's range
    but not the stencil-specific constraints (tile budgets, register
    pressure); invalid recombinations reach the compiler and waste
    budget there, which is exactly why the paper finds OpenTuner slow
    on this space.
    """
    setting = space.decode(indices)
    t = evaluator.evaluate(setting)
    return setting, (np.inf if t is None else t)


def _decode_all(space: SearchSpace, vecs: list[np.ndarray]) -> list[Setting]:
    """:meth:`~repro.space.space.SearchSpace.decode` over a population,
    as one matrix."""
    return settings_from_matrix(space.decode_matrix(np.stack(vecs)), space.names)


def _score_all(
    space: SearchSpace, evaluator: Evaluator, vecs: list[np.ndarray]
) -> list[float]:
    """:func:`_decode_and_score` over a population in one evaluator batch
    (same settings, same order, same budget cut-off)."""
    times = evaluator.evaluate_many(_decode_all(space, vecs))
    return [np.inf if t is None else t for t in times]


class OpenTunerGA(BaselineTuner):
    """Global genetic algorithm over the full parameter space."""

    name = "OpenTuner"
    charge_invalid = True

    def __init__(
        self,
        simulator,
        *,
        seed: int = 0,
        population: int = ITERATION_BATCH,
        crossover_rate: float = 0.8,
        mutation_rate: float = 0.005,
        elitism: int = 2,
    ) -> None:
        super().__init__(simulator, seed=seed)
        if population < 4:
            raise SearchError(f"population too small: {population}")
        self.population = population
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.elitism = elitism
        #: (space, [(parameter index, bit, cardinality)]) of the last
        #: space bred: the bit layout mutation draws over.
        self._bits: tuple[object, list[tuple[int, int, int]]] = (None, [])

    def _bit_layout(self, space: SearchSpace) -> list[tuple[int, int, int]]:
        """``(parameter index, bit, cardinality)`` of every bit a child's
        mutation draws over, parameter by parameter and low bit first."""
        if self._bits[0] is not space:
            bits = []
            for k, name in enumerate(space.names):
                card = space.param(name).cardinality
                bits.extend(
                    (k, b, card) for b in range(max(1, (card - 1).bit_length()))
                )
            self._bits = (space, bits)
        return self._bits[1]

    def _breed(
        self,
        space: SearchSpace,
        pop: list[np.ndarray],
        times: np.ndarray,
        probs: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> list[np.ndarray]:
        """``count`` children of ``pop``, their draws read from one block.

        Child by child the draws are OpenTuner's: two doubles pick the
        parents as ``rng.choice(len(pop), 2, p=probs)`` does (a
        right-sided search of the normalised ``probs`` cumsum), one
        decides crossover, ``len(vec)`` more draw the crossover mask
        when it crosses over, and one per bit of :meth:`_bit_layout`
        draws the mutation flips (``mutation_rate`` each). A double is
        ``(raw >> 11) * 2**-53`` of one raw word, as NumPy's
        ``random`` makes it, so the whole generation reads a prefix of
        one ``random_raw`` block. The generator is then put back at its
        entry state and moved past the words used with ``random_raw``:
        ``advance`` would drop the 32-bit half that integer draws may
        have left buffered.
        """
        if count <= 0:
            return []
        bits = self._bit_layout(space)
        n_genes, n_bits = len(pop[0]), len(bits)
        bitgen = rng.bit_generator
        entry = bitgen.state
        raw = bitgen.random_raw(count * (3 + n_genes + n_bits))
        u = (raw >> np.uint64(11)) * 2.0**-53
        # Where each child's draws start; only crossover draws a mask.
        crossed = (u < self.crossover_rate).tolist()
        picks, flips, crossing, masks = [], [], [], []
        at = 0
        for child in range(count):
            picks.append(at)
            at += 3
            if crossed[at - 1]:
                crossing.append(child)
                masks.append(at)
                at += n_genes
            flips.append(at)
            at += n_bits
        bitgen.state = entry
        bitgen.random_raw(at, output=False)

        cdf = probs.cumsum()
        cdf /= cdf[-1]
        parents = cdf.searchsorted(u[np.add.outer(picks, [0, 1])], "right")
        i1, i2 = parents[:, 0], parents[:, 1]
        # Without crossover the child is the faster parent, first on ties.
        take1 = np.repeat((times[i1] <= times[i2])[:, None], n_genes, axis=1)
        if crossing:
            take1[crossing] = u[np.add.outer(masks, np.arange(n_genes))] < 0.5
        stacked = np.stack(pop)
        children = np.where(take1, stacked[i1], stacked[i2])
        flipped = u[np.add.outer(flips, np.arange(n_bits))] < self.mutation_rate
        for c, pos in np.argwhere(flipped).tolist():
            k, b, card = bits[pos]
            children[c, k] = (int(children[c, k]) ^ (1 << b)) % card
        return list(children)

    def _search(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        evaluator: Evaluator,
        rng: np.random.Generator,
        dataset: PerformanceDataset | None,
    ) -> dict[str, object] | None:
        pop = _random_population(space, rng, self.population)
        times = np.array(_score_all(space, evaluator, pop))
        evaluator.end_iteration()
        generations = 0
        while not evaluator.exhausted:
            generations += 1
            fitness = np.where(np.isfinite(times), 1.0 / times, 0.0)
            order = np.argsort(-fitness)
            new_pop = [pop[i].copy() for i in order[: self.elitism]]
            new_times = [times[i] for i in order[: self.elitism]]
            probs = (
                fitness / fitness.sum()
                if fitness.sum() > 0
                else np.full(len(pop), 1.0 / len(pop))
            )
            # Children are bred from the previous generation only, so the
            # whole generation is drawn first and scored as one batch.
            new_pop += self._breed(
                space, pop, times, probs, self.population - len(new_pop), rng
            )
            new_times.extend(
                _score_all(space, evaluator, new_pop[len(new_times):])
            )
            pop, times = new_pop, np.array(new_times)
            evaluator.end_iteration()
        return {"generations": generations}


class DifferentialEvolutionTuner(BaselineTuner):
    """DE/rand/1/bin over domain indices (an OpenTuner ensemble member)."""

    name = "OpenTuner-DE"
    charge_invalid = True

    def __init__(
        self,
        simulator,
        *,
        seed: int = 0,
        population: int = ITERATION_BATCH,
        f: float = 0.8,
        cr: float = 0.9,
    ) -> None:
        super().__init__(simulator, seed=seed)
        self.population = population
        self.f = f
        self.cr = cr

    def _search(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        evaluator: Evaluator,
        rng: np.random.Generator,
        dataset: PerformanceDataset | None,
    ) -> dict[str, object] | None:
        pop = _random_population(space, rng, self.population)
        times = np.array(_score_all(space, evaluator, pop))
        evaluator.end_iteration()
        generations = 0
        n = len(pop)
        while not evaluator.exhausted:
            generations += 1
            for i in range(n):
                a, b, c = rng.choice(n, size=3, replace=False)
                donor = pop[int(a)] + self.f * (pop[int(b)] - pop[int(c)])
                cross = rng.random(len(donor)) < self.cr
                cross[int(rng.integers(len(donor)))] = True
                trial = np.where(cross, np.rint(donor), pop[i]).astype(np.int64)
                _, t = _decode_and_score(space, evaluator, trial)
                if t <= times[i]:
                    pop[i], times[i] = trial, t
            evaluator.end_iteration()
        return {"generations": generations}


class HillClimberTuner(BaselineTuner):
    """Steepest-neighbour hill climbing with random restarts."""

    name = "OpenTuner-HC"

    def _search(
        self,
        pattern: StencilPattern,
        space: SearchSpace,
        evaluator: Evaluator,
        rng: np.random.Generator,
        dataset: PerformanceDataset | None,
    ) -> dict[str, object] | None:
        restarts = 0
        while not evaluator.exhausted:
            current = space.random_setting(rng)
            current_t = evaluator.evaluate(current)
            restarts += 1
            if current_t is None:
                continue
            improved = True
            while improved and not evaluator.exhausted:
                improved = False
                batch = 0
                for cand in space.neighbors(current):
                    t = evaluator.evaluate(cand)
                    batch += 1
                    if batch % ITERATION_BATCH == 0:
                        evaluator.end_iteration()
                    if t is not None and t < current_t:
                        current, current_t = cand, t
                        improved = True
                        break
                if batch % ITERATION_BATCH != 0:
                    evaluator.end_iteration()
        return {"restarts": restarts}
