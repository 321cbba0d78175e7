"""Evolutionary search with approximation (Section IV-E).

Iterative auto-tuning over parameter groups (Fig 7): groups are tuned
one at a time against a *context* — the best setting found so far.
While group ``k`` is being tuned, an individual's genes for all other
groups are pinned to the context, so the population explores exactly
the re-indexed value range of the current group:

* each gene is a dense index into the group's
  :class:`~repro.core.reindex.GroupIndex` (Fig 7), stored in binary for
  bit-flip mutation;
* sub-populations (one per MPI rank in the paper, one per
  :class:`~repro.parallel.comm.LocalRing` slot here) evolve
  independently and migrate their best individual to the two ring
  neighbours (Fig 6);
* breeding selects parents from a four-slot ring neighbourhood with
  fitness-proportional probability, applies uniform gene-wise crossover
  and bit-flip mutation;
* *approximation*: when the CV of the top-n distinct fitness values
  drops below a threshold, the current group is frozen to the best
  individual's value and tuning proceeds to the next group — ending the
  search without a manually chosen iteration count;
* a group with no more available values than one population's worth of
  individuals degenerates to exhaustive search (Section V-A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import searchstats
from repro.core.budget import Evaluator
from repro.core.reindex import GroupIndex
from repro.core.sampling import SampledSpace
from repro.errors import SearchError
from repro.ml.stats import coefficient_of_variation
from repro.parallel.comm import LocalRing
from repro.space.setting import Setting, settings_from_matrix
from repro.space.space import SearchSpace
from repro.utils.rng import rng_from_seed, spawn_rng


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm options (paper defaults from Section V-A2)."""

    subpopulations: int = 2
    population: int = 16
    crossover_rate: float = 0.8
    mutation_rate: float = 0.005
    migration_interval: int = 2
    top_n: int = 8
    cv_threshold: float = 0.05
    neighborhood: int = 2
    elitism: int = 1
    #: Safety net: freeze the group anyway after this many generations
    #: (the CV criterion normally fires first).
    max_group_generations: int = 20

    def __post_init__(self) -> None:
        if self.subpopulations < 1 or self.population < 2:
            raise ValueError("need >= 1 sub-population of >= 2 individuals")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate out of [0,1]: {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate out of [0,1]: {self.mutation_rate}")
        if self.migration_interval < 1:
            raise ValueError("migration_interval must be >= 1")
        if self.top_n < 2:
            raise ValueError("top_n must be >= 2")
        if self.max_group_generations < 1:
            raise ValueError("max_group_generations must be >= 1")

    @property
    def total_population(self) -> int:
        return self.subpopulations * self.population


#: Below this many new genotypes, scalar lowering beats the matrix
#: path's fixed per-call overhead (empirically ~1.5 ms vs ~0.3 ms/row).
_SMALL_BATCH = 8


@dataclass
class Individual:
    """Genotype (one index per parameter group) with evaluated fitness."""

    genes: tuple[int, ...]
    fitness: float = 0.0
    time_s: float = float("inf")


@dataclass
class EvolutionarySearch:
    """Iterative per-group island GA over a sampled search space."""

    sampled: SampledSpace
    space: SearchSpace
    evaluator: Evaluator
    config: GAConfig = field(default_factory=GAConfig)
    seed: int | np.random.Generator | None = 0

    def __post_init__(self) -> None:
        if not self.sampled.group_indexes:
            raise SearchError("sampled space has no parameter groups")
        master = rng_from_seed(self.seed)
        self._rngs = spawn_rng(master, self.config.subpopulations + 1)
        self._ring = LocalRing(self.config.subpopulations)
        self.generations = 0
        self.groups_tuned = 0
        self.populations_lowered = 0
        self.settings_repaired = 0
        self.evaluations_skipped = 0
        #: Genotype → repaired phenotype memo. Decoding is pure, so one
        #: lowering per distinct gene tuple suffices for the whole run.
        self._phenotypes: dict[tuple[int, ...], Setting] = {}
        #: Phenotype → validity memo (validity is a pure predicate).
        self._valid: dict[Setting, bool] = {}
        #: Phenotype → evaluator result memo. Resubmitting an
        #: already-evaluated setting is a guaranteed evaluator cache hit
        #: (no budget charge, no trace point — see
        #: :meth:`repro.core.budget.Evaluator.evaluate`), so replaying
        #: the known result is observationally identical and free.
        self._results: dict[Setting, float | None] = {}
        names = self.space.names
        grouped = [n for gi in self.sampled.group_indexes for n in gi.group]
        if sorted(grouped) != sorted(names):
            raise SearchError("parameter groups must partition the space's parameters")
        #: Each group's columns in the space's value matrices.
        self._group_cols = [
            np.array([names.index(n) for n in gi.group], dtype=np.int64)
            for gi in self.sampled.group_indexes
        ]

    # -- genotype/phenotype --------------------------------------------------

    @property
    def group_indexes(self) -> list[GroupIndex]:
        return self.sampled.group_indexes

    def decode(self, genes: tuple[int, ...]) -> Setting:
        """Genes → full parameter setting.

        Group tuples can come from distinct sampled settings, so their
        recombination may violate cross-group constraints (TB budget,
        work tiles, register pressure); the full repair projects the
        phenotype back into the valid set.
        """
        values: dict[str, int] = {}
        for gi, gene in zip(self.group_indexes, genes):
            values.update(gi.decode(gene))
        return self.space.repair_full(values)

    def _decode_population(self, inds: list[Individual]) -> list[Setting]:
        """Genotype → phenotype for a whole population.

        Gene tuples not seen before are gathered into one ``(m, groups)``
        int64 matrix, lowered to full value rows via
        :meth:`GroupIndex.decode_array` scatters, projected onto the
        valid set by one :meth:`SearchSpace.repair_full_matrix` call and
        validity-screened through
        :meth:`SearchSpace._batch_valid_matrix` — so every distinct
        genotype is lowered exactly once per run, and every distinct
        phenotype is validity-checked exactly once.
        """
        pending: dict[tuple[int, ...], None] = {}
        for ind in inds:
            if ind.genes not in self._phenotypes:
                pending[ind.genes] = None
        if pending and len(pending) <= _SMALL_BATCH:
            # Late generations add a handful of new genotypes; the
            # matrix machinery's fixed per-call cost exceeds the scalar
            # repair there (results are row-identical either way).
            self.settings_repaired += len(pending)
            searchstats.bump("settings_repaired", len(pending))
            for key in pending:
                s = self.decode(key)
                self._phenotypes[key] = s
                if s not in self._valid:
                    self._valid[s] = bool(self.space.is_valid(s))
        elif pending:
            genes = np.array(list(pending), dtype=np.int64)
            names = self.space.names
            lowered = np.empty((genes.shape[0], len(names)), dtype=np.int64)
            for k, gi in enumerate(self.group_indexes):
                lowered[:, self._group_cols[k]] = gi.decode_array(genes[:, k])
            repaired = self.space.repair_full_matrix(lowered)
            self.settings_repaired += repaired.shape[0]
            searchstats.bump("settings_repaired", repaired.shape[0])
            uniq, inverse = np.unique(repaired, axis=0, return_inverse=True)
            uniq_settings = settings_from_matrix(uniq, names)
            fresh = [
                k for k, s in enumerate(uniq_settings) if s not in self._valid
            ]
            if fresh:
                ok = self.space._batch_valid_matrix(uniq[fresh])
                for k, good in zip(fresh, ok.tolist()):
                    self._valid[uniq_settings[k]] = bool(good)
            for key, row in zip(pending, inverse.reshape(-1).tolist()):
                self._phenotypes[key] = uniq_settings[row]
        return [self._phenotypes[ind.genes] for ind in inds]

    @staticmethod
    def _apply_result(ind: Individual, t: float | None) -> None:
        if t is None:
            ind.fitness, ind.time_s = 0.0, float("inf")
        else:
            ind.fitness, ind.time_s = 1.0 / t, t

    def _evaluate_many(self, inds: list[Individual]) -> None:
        """Batch-evaluate a population.

        The population is lowered once (:meth:`_decode_population`),
        memoized results are replayed for settings the evaluator has
        already seen — including the incumbent context individual every
        group re-submits — and only genuinely new settings go to the
        evaluator. Because evaluator cache hits carry no side effects
        (no budget charge, no trace point) and exhaustion is monotonic,
        the evaluator and simulator observe the same call sequence as
        submitting every individual: same evaluations, same budget
        accounting, same trace. Invalid individuals get zero fitness
        and infinite time.
        """
        if not inds:
            return
        self.populations_lowered += 1
        searchstats.bump("populations_lowered")
        settings = self._decode_population(inds)
        todo_inds: list[Individual] = []
        todo_settings: list[Setting] = []
        for ind, s in zip(inds, settings):
            if not self._valid[s]:
                ind.fitness, ind.time_s = 0.0, float("inf")
            elif s in self._results:
                self.evaluations_skipped += 1
                self._apply_result(ind, self._results[s])
            else:
                todo_inds.append(ind)
                todo_settings.append(s)
        if todo_settings:
            uniq: dict[Setting, None] = dict.fromkeys(todo_settings)
            uniq_list = list(uniq)
            for s, t in zip(uniq_list, self.evaluator.evaluate_many(uniq_list)):
                self._results[s] = t
            for ind, s in zip(todo_inds, todo_settings):
                self._apply_result(ind, self._results[s])

    def search_info(self) -> dict[str, int]:
        """Search-side work counters, the peer of the simulator's
        ``cache_info()``.

        ``evaluations_skipped`` counts memoized replays of known
        results (evaluator cache hits avoided entirely); skipping them
        never changes budget accounting because cache hits are free.
        """
        return {
            "populations_lowered": self.populations_lowered,
            "settings_repaired": self.settings_repaired,
            "evaluations_skipped": self.evaluations_skipped,
            "distinct_genotypes": len(self._phenotypes),
            "distinct_settings": len(self._valid),
        }

    def _genes_of(self, setting: Setting) -> tuple[int, ...]:
        """Project a sampled setting onto gene space (must be indexable)."""
        genes = []
        for gi in self.group_indexes:
            idx = gi.index_of(setting)
            if idx is None:
                raise SearchError(
                    f"setting not representable in group {gi.group}"
                )
            genes.append(idx)
        return tuple(genes)

    # -- breeding ----------------------------------------------------------

    def _select_parents(
        self, pop: list[Individual], slot: int, rng: np.random.Generator
    ) -> tuple[Individual, Individual]:
        n = len(pop)
        hood = [
            (slot + d) % n
            for d in range(-self.config.neighborhood, self.config.neighborhood + 1)
            if d != 0
        ]
        weights = np.array([pop[i].fitness for i in hood], dtype=np.float64)
        if weights.sum() <= 0:
            probs = np.full(len(hood), 1.0 / len(hood))
        else:
            probs = weights / weights.sum()
        # Inverse-transform sampling transcribed from
        # numpy.random.Generator.choice's weighted path (cumsum, rescale,
        # one random(2) draw, right-bisect): the RNG stream and the
        # selected indices are bit-identical to
        # ``rng.choice(len(hood), size=2, p=probs)``, without paying
        # choice's per-call argument validation on the breeding hot path.
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        i1, i2 = cdf.searchsorted(rng.random(2), side="right")
        return pop[hood[int(i1)]], pop[hood[int(i2)]]

    def _mutate_gene(
        self, gene: int, gi: GroupIndex, rng: np.random.Generator
    ) -> int:
        # One rng.random(bits) draw, exactly like the former per-bit
        # loop, so the RNG stream (and thus every trajectory) is
        # unchanged; the flip mask is reduced without a Python loop.
        flips = rng.random(gi.bits) < self.config.mutation_rate
        if not flips.any():
            return gene
        mask = int(np.bitwise_or.reduce(np.int64(1) << np.flatnonzero(flips)))
        return (gene ^ mask) % len(gi)

    def _breed(
        self,
        pop: list[Individual],
        pos: int,
        rng: np.random.Generator,
    ) -> list[Individual]:
        """New generation; only the gene at group ``pos`` varies."""
        gi = self.group_indexes[pos]
        out: list[Individual] = []
        elite = sorted(pop, key=lambda x: -x.fitness)[: self.config.elitism]
        out.extend(Individual(e.genes, e.fitness, e.time_s) for e in elite)
        while len(out) < len(pop):
            slot = len(out)
            p1, p2 = self._select_parents(pop, slot, rng)
            if rng.random() < self.config.crossover_rate:
                gene = (p1 if rng.random() < 0.5 else p2).genes[pos]
            else:
                gene = (p1 if p1.fitness >= p2.fitness else p2).genes[pos]
            gene = self._mutate_gene(gene, gi, rng)
            genes = list(p1.genes)
            genes[pos] = gene
            out.append(Individual(genes=tuple(genes)))
        return out

    # -- approximation --------------------------------------------------------

    def _approximation_reached(self, individuals: list[Individual]) -> bool:
        """CV of the top-n *distinct* fitness values below the threshold?

        Distinct values matter: elitism and migration quickly fill the
        islands with copies of the champion, and the CV of duplicates
        is trivially zero — which would end each group's tuning long
        before the top-n settings are genuinely close in performance.
        """
        fits = sorted({i.fitness for i in individuals if i.fitness > 0}, reverse=True)
        top = fits[: self.config.top_n]
        if len(top) < self.config.top_n:
            return False
        return coefficient_of_variation(top) < self.config.cv_threshold

    # -- group tuning -------------------------------------------------------

    def _exhaust_group(self, context: Individual, pos: int) -> Individual:
        """Degenerate to exhaustive search over a small group.

        The enumeration necessarily re-submits the incumbent context
        (one candidate pins the group to the context's own gene); its
        known result is replayed from the memo instead of re-entering
        the evaluator. Budget accounting is unchanged either way — a
        resubmission was always a free evaluator cache hit — the skip
        only removes the redundant decode/lookup work.
        """
        gi = self.group_indexes[pos]
        cands: list[Individual] = []
        for idx in range(len(gi)):
            genes = list(context.genes)
            genes[pos] = idx
            cands.append(Individual(genes=tuple(genes)))
        self._evaluate_many(cands)
        best = context
        for cand in cands:
            if cand.time_s < best.time_s:
                best = cand
        self.evaluator.end_iteration()
        return best

    def _evolve_group(
        self, context: Individual, pos: int
    ) -> Individual:
        """Island GA over one group's re-indexed value range."""
        cfg = self.config
        gi = self.group_indexes[pos]
        init_rng = self._rngs[-1]

        # Construct every sub-population first, then evaluate the whole
        # generation in one batch (initialization consumes no randomness
        # from the evaluation, so the RNG streams are unchanged). The
        # seed generation keeps the incumbent at slot (0, 0); its known
        # time is replayed from the memo rather than re-submitted to the
        # evaluator.
        pops: list[list[Individual]] = []
        for s in range(cfg.subpopulations):
            pop = []
            for j in range(cfg.population):
                if s == 0 and j == 0:
                    gene = context.genes[pos]  # keep the incumbent
                else:
                    gene = int(init_rng.integers(len(gi)))
                genes = list(context.genes)
                genes[pos] = gene
                pop.append(Individual(genes=tuple(genes)))
            pops.append(pop)
        self._evaluate_many([ind for pop in pops for ind in pop])
        self.evaluator.end_iteration()

        for gen in range(cfg.max_group_generations):
            if self.evaluator.exhausted:
                break
            everyone = [i for pop in pops for i in pop]
            if self._approximation_reached(everyone):
                break
            self.generations += 1
            # Breed every sub-population from the previous generation's
            # fitnesses, then evaluate the offspring in one batch (each
            # island has its own RNG, so breeding order is immaterial).
            for s in range(cfg.subpopulations):
                pops[s] = self._breed(pops[s], pos, self._rngs[s])
            self._evaluate_many(
                [  # elites keep their evaluation
                    ind for pop in pops for ind in pop if ind.fitness == 0.0
                ]
            )
            if self.generations % cfg.migration_interval == 0:
                bests = [max(pop, key=lambda x: x.fitness) for pop in pops]
                incoming = self._ring.exchange(bests)
                for s, (left, right) in enumerate(incoming):
                    order = sorted(
                        range(len(pops[s])), key=lambda i: pops[s][i].fitness
                    )
                    pops[s][order[0]] = Individual(
                        left.genes, left.fitness, left.time_s
                    )
                    if len(order) > 1:
                        pops[s][order[1]] = Individual(
                            right.genes, right.fitness, right.time_s
                        )
            self.evaluator.end_iteration()

        best = max(
            (i for pop in pops for i in pop),
            key=lambda x: x.fitness,
            default=context,
        )
        return best if best.time_s < context.time_s else context

    # -- main loop ------------------------------------------------------------

    def run(self) -> None:
        """Run until every group is tuned or the budget is exhausted."""
        cfg = self.config
        init_rng = self._rngs[-1]

        # Seed generation: the top-ranked sampled settings (they are
        # ordered by predicted quality) plus random picks.
        n_seed = min(cfg.total_population, len(self.sampled.settings))
        seeds = list(self.sampled.settings[:n_seed])
        while len(seeds) < cfg.total_population:
            seeds.append(
                self.sampled.settings[
                    int(init_rng.integers(len(self.sampled.settings)))
                ]
            )
        context = Individual(genes=self._genes_of(seeds[0]))
        cands = [Individual(genes=self._genes_of(s)) for s in seeds[1:]]
        self._evaluate_many([context, *cands])
        for cand in cands:
            if cand.time_s < context.time_s:
                context = cand
        self.evaluator.end_iteration()

        # Tune larger groups first: their values interact the most and
        # fixing them early gives later (near-independent) groups a
        # stable context.
        order = sorted(
            range(len(self.group_indexes)),
            key=lambda k: -len(self.group_indexes[k]),
        )
        # Iterative auto-tuning: sweep the groups; while budget remains
        # and a full sweep still improved the context, sweep again (the
        # later sweeps re-tune early groups against the now-better
        # context). The approximation criterion ends each group's
        # tuning; a no-improvement sweep ends the whole search.
        improved = True
        while improved and not self.evaluator.exhausted:
            improved = False
            before = context.time_s
            for pos in order:
                if self.evaluator.exhausted:
                    break
                gi = self.group_indexes[pos]
                if len(gi) <= cfg.total_population:
                    context = self._exhaust_group(context, pos)
                else:
                    context = self._evolve_group(context, pos)
                self.groups_tuned += 1
            improved = context.time_s < before
