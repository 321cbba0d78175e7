"""Memoized population evaluation and RNG-stream pinning for the GA.

Seeded GA trajectories (simulator call sequence, best setting, budget
accounting, trace) are pinned by the identity fixtures
(``tests/test_identity_fixtures.py``), frozen while the scalar
per-individual path still existed to compare against. These tests pin
the search-side counters and the RNG-exact rewrites of the breeding
helpers (``_mutate_gene``, ``_select_parents``).
"""

import numpy as np
import pytest

from repro.core.budget import Budget, Evaluator
from repro.core.genetic import EvolutionarySearch, GAConfig
from repro.core.grouping import group_parameters, pairwise_cv
from repro.core.reindex import GroupIndex
from repro.core.sampling import SamplingConfig, sample_search_space
from repro.core.searchstats import (
    COUNTER_NAMES,
    bump,
    reset_search_stats,
    search_info,
)
from repro.gpusim.simulator import GpuSimulator


@pytest.fixture(scope="module")
def sampled(request):
    sim = request.getfixturevalue("sim")
    pattern = request.getfixturevalue("small_pattern")
    space = request.getfixturevalue("small_space")
    dataset = request.getfixturevalue("small_dataset")
    cvs = pairwise_cv(sim, pattern, space, dataset.best().setting, probe_limit=4)
    groups = group_parameters(cvs)
    return sample_search_space(
        space, dataset, groups, SamplingConfig(ratio=0.2, pool_size=200), seed=0
    )


def _instrumented_run(sampled, space, pattern):
    """Full search with the simulator's call stream recorded."""
    sim = GpuSimulator(seed=0, noise=0.0)
    calls = []
    orig_run, orig_batch = sim.run, sim.run_batch

    def run(pattern, setting, *a, **k):
        calls.append(setting.values_tuple())
        return orig_run(pattern, setting, *a, **k)

    def run_batch(pattern, settings, *a, **k):
        calls.extend(s.values_tuple() for s in settings)
        return orig_batch(pattern, settings, *a, **k)

    sim.run, sim.run_batch = run, run_batch
    ev = Evaluator(sim, pattern, Budget(max_iterations=25))
    es = EvolutionarySearch(sampled=sampled, space=space, evaluator=ev, seed=0)
    es.run()
    return es, calls


class TestTrajectoryIdentity:
    def test_incumbent_replay_skips_evaluations(
        self, sampled, small_space, small_pattern
    ):
        """The memo replays known results (incl. the incumbent context)
        without resubmitting — and, because evaluator cache hits were
        always free, budget accounting is untouched (the identity
        fixtures pin the trajectories)."""
        es, calls = _instrumented_run(sampled, small_space, small_pattern)
        assert len(calls) == len(set(calls))
        info = es.search_info()
        assert info["evaluations_skipped"] > 0
        assert info["populations_lowered"] > 0
        assert info["settings_repaired"] >= info["distinct_genotypes"] > 0

    def test_search_info_in_tuner_meta(self, sim, small_pattern, small_space):
        from repro.core.tuner import CsTuner, CsTunerConfig

        tuner = CsTuner(sim, CsTunerConfig(dataset_size=32, probe_limit=3))
        res = tuner.tune(
            small_pattern, Budget(max_iterations=6), space=small_space
        )
        info = res.meta["search_info"]
        assert info["populations_lowered"] > 0


class TestMutateGenePinned:
    def _reference(self, gene, gi, rng, rate):
        """The pre-vectorization per-bit Python loop."""
        for b in range(gi.bits):
            if rng.random() < rate:
                gene ^= 1 << b
        return gene % len(gi)

    def test_identical_outputs_and_rng_stream(self, sampled, small_space):
        ev = Evaluator(
            GpuSimulator(noise=0.0), None, Budget(max_iterations=1)
        )
        gi = max(sampled.group_indexes, key=len)
        for rate in (0.005, 0.2, 0.9):
            es = EvolutionarySearch(
                sampled=sampled,
                space=small_space,
                evaluator=ev,
                config=GAConfig(mutation_rate=rate),
                seed=0,
            )
            r1 = np.random.default_rng(123)
            r2 = np.random.default_rng(123)
            for gene in range(min(len(gi), 16)):
                got = es._mutate_gene(gene, gi, r1)
                want = self._reference(gene, gi, r2, rate)
                assert got == want, (rate, gene)
            # The streams stayed in lock-step (same number of draws).
            assert r1.random() == r2.random(), rate

    def test_pinned_values_for_fixed_seed(self):
        """Regression pin: concrete outputs for a fixed seed must never
        drift — a drift means the RNG draw order changed."""
        gi = GroupIndex(("P",), tuple((v,) for v in range(1, 12)))
        es_cfg = GAConfig(mutation_rate=0.5)
        search = EvolutionarySearch.__new__(EvolutionarySearch)
        search.config = es_cfg
        rng = np.random.default_rng(7)
        got = [search._mutate_gene(g, gi, rng) for g in range(8)]
        assert got == [8, 4, 1, 0, 4, 3, 3, 0]


class TestSelectParentsEquivalence:
    def test_matches_generator_choice(self, sampled, small_space):
        from repro.core.genetic import Individual

        ev = Evaluator(
            GpuSimulator(noise=0.0), None, Budget(max_iterations=1)
        )
        es = EvolutionarySearch(
            sampled=sampled, space=small_space, evaluator=ev, seed=0
        )
        master = np.random.default_rng(99)
        for trial in range(200):
            n = int(master.integers(5, 17))
            fits = master.random(n) * (master.random(n) > 0.2)
            pop = [Individual(genes=(i,), fitness=float(f)) for i, f in enumerate(fits)]
            slot = int(master.integers(n))
            seed = int(master.integers(2**31))
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            p1, p2 = es._select_parents(pop, slot, r1)

            hood = [
                (slot + d) % n
                for d in range(-es.config.neighborhood, es.config.neighborhood + 1)
                if d != 0
            ]
            w = np.array([pop[i].fitness for i in hood])
            probs = (
                np.full(len(hood), 1.0 / len(hood))
                if w.sum() <= 0
                else w / w.sum()
            )
            i1, i2 = r2.choice(len(hood), size=2, p=probs)
            assert (p1, p2) == (pop[hood[int(i1)]], pop[hood[int(i2)]]), trial
            assert r1.random() == r2.random(), trial  # streams in lock-step


class TestDecodeArray:
    def test_matches_scalar_decode(self, sampled):
        for gi in sampled.group_indexes:
            genes = np.arange(len(gi), dtype=np.int64)
            rows = gi.decode_array(genes)
            assert rows.shape == (len(gi), len(gi.group))
            for g in range(len(gi)):
                assert dict(zip(gi.group, rows[g].tolist())) == gi.decode(g)

    def test_bounds_checked(self, sampled):
        from repro.errors import SearchError

        gi = sampled.group_indexes[0]
        with pytest.raises(SearchError):
            gi.decode_array(np.array([len(gi)]))
        with pytest.raises(SearchError):
            gi.decode_array(np.array([-1]))


class TestSearchStats:
    def test_bump_and_reset(self):
        reset_search_stats()
        bump("populations_lowered")
        bump("settings_repaired", 5)
        info = search_info()
        assert info["populations_lowered"] == 1
        assert info["settings_repaired"] == 5
        reset_search_stats()
        assert all(search_info()[k] == 0 for k in COUNTER_NAMES)

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            bump("not_a_counter")
