#!/usr/bin/env python
"""Search-path benchmark: absolute throughput of the matrix-native GA.

The evolutionary search lowers whole populations into value matrices,
repairs and validity-screens them in bulk and replays memoized results
instead of resubmitting known settings. This benchmark runs full tuning
searches on a grid of stencils × devices and gates on two properties:

1. **Identity** — the csTuner trajectories and PMNF term matrices of
   the identity corpus (``tests/identity_corpus.py``) must reproduce
   their frozen fixtures bit for bit: same simulator call stream, best
   setting, tuning cost and trace.
2. **Throughput** — wall-clock per search (best of ``REPS`` warm
   repetitions) and the aggregate evaluations per second of search
   time. ``check_regression.py`` gates both against the committed
   baseline; this script fails outright only below a loose sanity
   floor.

Timing uses *warm* repetitions: the simulator (and therefore the
performance-model cache) persists across repetitions of one
configuration, so the measurement isolates the search-side overhead —
the tuner bookkeeping above the model — rather than re-measuring the
model cost. An untimed first search warms the caches, and the timed
rounds interleave every configuration, so a drift in host speed
spreads over all of them instead of landing on one.

Every timed call is also bracketed by a host-speed probe
(:func:`host_probe`, the same fixed pure-Python work perfbench uses):
where cores are shared, their speed drifts by up to 2x between runs,
which moves every leaf with it. Each ``*_s`` leaf is the best time
scaled to the reference probe time ``PROBE_REF_S``, as
``wall * PROBE_REF_S / probe`` with the probe averaged over the two
brackets; the regression gate compares these. The unscaled best times
sit beside them as ``*_raw`` leaves (seconds, not gated), and
``probe_median_ms`` is the median probe of the run.

Further sections time the batched PMNF term-matrix builder, one
2,000-setting ``SearchSpace.sample`` and ``RANDOM_SETTINGS`` consecutive
``random_setting`` calls, each on a fresh space, Garvey's
random-forest fit and predict (absolute wall time; the tier-1 tests
compare the fitted trees with the recursive reference grower) and one
cold iso-time cell: Garvey, OpenTuner and Artemis in turn on
``ISO_PAIR`` under the paper's 100 s tuning-cost budget (Fig 9), once
per seed of ``ISO_SEEDS``, each run on a fresh simulator and dataset so
it pays the model cost. The identity gate adds the cost-budgeted
baseline fixtures. The grouping section times csTuner's cold parameter
grouping sweep (``pairwise_cv``) on ``GROUPING_PAIRS``, each run on a
fresh simulator and dataset (the dataset collection is not timed). The
preprocess section times one cold ``CsTuner.preprocess`` on
``ISO_PAIR`` with an ``ISO_DATASET_N``-row dataset, per phase:
grouping, sampling (which includes fitting), codegen, and fitting on
its own (``fit_metric_models``, timed by a wrapper installed for the
call).

Results land in ``BENCH_search_path.json`` at the repository root
(see ``_artifacts.py``).

Scale knobs: ``REPRO_BENCH_SEARCH_STENCILS`` (default
``cheby,hypterm``), ``REPRO_BENCH_SEARCH_BUDGET`` (search iterations,
default 100), ``REPRO_BENCH_SEARCH_REPS`` (default 3),
``REPRO_BENCH_SEARCH_MIN_PER_SEC`` (evaluations/s floor) and
``REPRO_BENCH_SEARCH_FAST=1`` (CI smoke scale: smaller budget/dataset
— the identity gate still applies in full, and every timed leaf stays
above the regression gate's 5 ms noise floor).

Run standalone: ``python benchmarks/bench_search_path.py``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make src/ and tests/ importable
    _ROOT = Path(__file__).resolve().parent.parent
    for _p in (_ROOT / "src", _ROOT):
        if str(_p) not in sys.path:
            sys.path.insert(0, str(_p))

import numpy as np

from _artifacts import PROBE_REF_S, median_probe, write_result
from repro.baselines.garvey import _features as garvey_features
from repro.core import sampling
from repro.core.budget import Budget, Evaluator
from repro.core.genetic import EvolutionarySearch, GAConfig
from repro.core.grouping import pairwise_cv
from repro.core.tuner import CsTuner, CsTunerConfig
from repro.experiments.comparison import run_tuner
from repro.gpusim.device import get_device
from repro.gpusim.simulator import GpuSimulator
from repro.ml.forest import RandomForestRegressor
from repro.ml.regression import pmnf_term_matrix
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from tests import identity_corpus as corpus

FAST = os.environ.get("REPRO_BENCH_SEARCH_FAST", "") == "1"
STENCILS = [
    s
    for s in os.environ.get("REPRO_BENCH_SEARCH_STENCILS", "cheby,hypterm").split(",")
    if s
]
DEVICES = ("A100", "V100")
BUDGET = int(os.environ.get("REPRO_BENCH_SEARCH_BUDGET", "30" if FAST else "100"))
REPS = int(os.environ.get("REPRO_BENCH_SEARCH_REPS", "5"))
DATASET_N = 48 if FAST else 64
ROWS = 4000  #: PMNF / forest predict rows (keeps both timed leaves above 5 ms)
MIN_PER_SEC = float(os.environ.get("REPRO_BENCH_SEARCH_MIN_PER_SEC", "200"))
SEED = 0
#: The iso-time cell: one (stencil, device) pair, the paper's cost
#: budget, the baselines of Fig 9 and the offline dataset size of
#: ``compare_stencil``.
ISO_PAIR = ("addsgd4", "A100")
#: Two cold runs per baseline keep Artemis, the shortest, above 50 ms.
ISO_SEEDS = (0, 1)
ISO_BUDGET_S = 100.0
ISO_TUNERS = ("Garvey", "OpenTuner", "Artemis")
ISO_DATASET_N = 128
#: Settings per timed ``SearchSpace.sample`` call (a 2,000-setting pool,
#: as Garvey and csTuner's PMNF sampler draw).
SAMPLER_N = 2000
#: Consecutive ``random_setting`` calls per timed small-draw round.
RANDOM_SETTINGS = 64
#: Cold grouping sweeps: the iso-time pair plus a V100 stencil.
GROUPING_PAIRS = (ISO_PAIR, ("rhs4center", "V100"))
#: Every probe median taken, for ``probe_median_ms``.
_PROBES: list[float] = []


def _identical() -> bool:
    """csTuner trajectories and PMNF term matrices match the fixtures."""
    checks = [
        ("search", corpus.search_cases(), [
            f"csTuner/{s}/{d}" for s, d in corpus.PAIRS
        ] + [f"{t}/j3d7pt/A100/cost" for t in ISO_TUNERS]),
        ("terms", corpus.term_cases(), list(corpus.term_cases())),
    ]
    for family, cases, names in checks:
        frozen = corpus.load_fixture(family)
        for name in names:
            if cases[name]() != frozen[name]:
                print(f"identity mismatch: {family}:{name}")
                return False
    return True


def _probe() -> float:
    p = median_probe()
    _PROBES.append(p)
    return p


def _timed(f):
    """``f`` as a cell: it returns (seconds its whole call took, result)."""

    def cell():
        t0 = time.perf_counter()
        out = f()
        return time.perf_counter() - t0, out

    return cell


def _best_of_interleaved(cells, reps: int):
    """Best (raw, scaled) seconds per cell over ``reps`` interleaved
    rounds, and each cell's last result.

    A cell returns (its timed seconds, result). Host-speed probes
    bracket every call, one probe shared by neighbouring calls; a time
    is scaled by the mean of its two.
    """
    raw = [float("inf")] * len(cells)
    scaled = [float("inf")] * len(cells)
    results: list = [None] * len(cells)
    before = _probe()
    for _ in range(reps):
        for i, cell in enumerate(cells):
            wall, results[i] = cell()
            after = _probe()
            raw[i] = min(raw[i], wall)
            scaled[i] = min(scaled[i], wall * PROBE_REF_S * 2 / (before + after))
            before = after
    return raw, scaled, results


def _search(device_name: str, stencil: str):
    """A full evolutionary search for one config; returns its evaluations.

    Every call starts a fresh evaluator on the same simulator, so the
    evaluation count is the same each time and the model cache stays
    warm after the first call.
    """
    pattern = get_stencil(stencil)
    device = get_device(device_name)
    sim = GpuSimulator(device, seed=SEED)
    space = build_space(pattern, device)
    tuner = CsTuner(sim, CsTunerConfig(dataset_size=DATASET_N, seed=SEED))
    dataset = tuner.collect_dataset(pattern, space)
    pre = tuner.preprocess(pattern, space, dataset)

    def run() -> int:
        evaluator = Evaluator(sim, pattern, Budget(max_iterations=BUDGET))
        EvolutionarySearch(
            sampled=pre.sampled,
            space=space,
            evaluator=evaluator,
            config=GAConfig(),
            seed=SEED,
        ).run()
        return evaluator.evaluations

    return run


def _bench_pmnf() -> dict[str, object]:
    """Batched PMNF term matrix over ``ROWS`` sampled settings."""
    pattern = get_stencil(STENCILS[0])
    space = build_space(pattern, get_device("A100"))
    pool = space.sample(np.random.default_rng(SEED), ROWS)
    groups = [["TBx", "TBy", "TBz"], ["UFx", "CMx"], ["SB", "SD"], ["useShared"]]
    (raw,), (terms_s,), _ = _best_of_interleaved(
        [_timed(lambda: pmnf_term_matrix(groups, pool, 2, 1))], REPS
    )
    return {"rows": len(pool), "terms_s": terms_s, "terms_raw": raw}


def _bench_sampler() -> dict[str, object]:
    """``SearchSpace.sample(rng, SAMPLER_N)`` on a fresh ``ISO_PAIR``
    space per round (its candidate tables are built in the timed call),
    best of ``REPS``: the pool Garvey narrows and csTuner's sampler
    scores. Then ``RANDOM_SETTINGS`` consecutive ``random_setting``
    calls on another fresh space, best of ``REPS``: the small-draw path
    (OpenTuner's seeds, the random-search baseline)."""
    pattern, device = get_stencil(ISO_PAIR[0]), get_device(ISO_PAIR[1])

    def sample():
        space = build_space(pattern, device)
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        pool = space.sample(rng, SAMPLER_N)
        return time.perf_counter() - t0, pool

    def small_draws():
        space = build_space(pattern, device)
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        for _ in range(RANDOM_SETTINGS):
            space.random_setting(rng)
        return time.perf_counter() - t0, None

    raw, scaled, (pool, _) = _best_of_interleaved([sample, small_draws], REPS)
    return {
        "stencil": ISO_PAIR[0],
        "device": ISO_PAIR[1],
        "samples": len(pool),
        "sample_s": scaled[0],
        "sample_raw": raw[0],
        "random_settings": RANDOM_SETTINGS,
        "random_setting_s": scaled[1],
        "random_setting_raw": raw[1],
    }


def _bench_forest() -> dict[str, object]:
    """Garvey's forest: fit on the iso-time pair's offline dataset
    (``ISO_DATASET_N`` settings x 19 parameters, 32 trees, depth 8), then
    predict ``ROWS`` sampled settings."""
    pattern, device = get_stencil(ISO_PAIR[0]), get_device(ISO_PAIR[1])
    sim = GpuSimulator(device, seed=SEED)
    space = build_space(pattern, device)
    config = CsTunerConfig(seed=SEED, dataset_size=ISO_DATASET_N)
    dataset = CsTuner(sim, config).collect_dataset(pattern, space)
    X, y = garvey_features(dataset.settings), dataset.times()
    probe = garvey_features(space.sample(np.random.default_rng(SEED), ROWS))
    forest = RandomForestRegressor(n_estimators=32, max_depth=8, random_state=SEED)
    raw, scaled, _ = _best_of_interleaved(
        [_timed(lambda: forest.fit(X, y)), _timed(lambda: forest.predict(probe))],
        REPS,
    )
    return {
        "rows": X.shape[0],
        "features": X.shape[1],
        "trees": 32,
        "predict_rows": probe.shape[0],
        "forest_fit_s": scaled[0],
        "forest_fit_raw": raw[0],
        "forest_predict_s": scaled[1],
        "forest_predict_raw": raw[1],
    }


def _iso_time_cell(tuner: str):
    """Cold cost-budgeted runs of ``tuner``, one per seed of ``ISO_SEEDS``
    (fresh simulator and dataset each: nothing is cached between runs);
    returns the summed tuner wall time and the results."""
    pattern, device = get_stencil(ISO_PAIR[0]), get_device(ISO_PAIR[1])

    def run():
        wall, results = 0.0, []
        for seed in ISO_SEEDS:
            sim = GpuSimulator(device, seed=seed)
            space = build_space(pattern, device)
            config = CsTunerConfig(seed=seed, dataset_size=ISO_DATASET_N)
            dataset = CsTuner(sim, config).collect_dataset(pattern, space)
            t0 = time.perf_counter()
            results.append(run_tuner(
                tuner, sim, pattern, space, Budget(max_cost_s=ISO_BUDGET_S),
                dataset=dataset, seed=seed, cstuner_config=config,
            ))
            wall += time.perf_counter() - t0
        return wall, results

    return run


def _bench_iso_time() -> dict[str, object]:
    """Best wall time per baseline over ``REPS`` interleaved cold rounds
    (only the tuners' own runs are timed, not the dataset collection)."""
    raw, best, results = _best_of_interleaved(
        [_iso_time_cell(t) for t in ISO_TUNERS], REPS
    )
    tuners = {}
    for name, wall, unscaled, res in zip(ISO_TUNERS, best, raw, results):
        evaluations = sum(r.evaluations for r in res)
        tuners[name] = {
            "tune_s": wall,
            "tune_raw": unscaled,
            "evaluations": evaluations,
            # Simulated seconds, not wall time: no ``_s`` suffix, so the
            # regression gate does not read it as a timing.
            "tuning_cost": sum(r.cost_s for r in res),
        }
        print(
            f"iso-time {name}: {evaluations} evaluations over "
            f"{len(ISO_SEEDS)} seeds in {wall * 1e3:.0f}ms"
        )
    return {
        "stencil": ISO_PAIR[0],
        "device": ISO_PAIR[1],
        "budget_s": ISO_BUDGET_S,
        "dataset_size": ISO_DATASET_N,
        "seeds": list(ISO_SEEDS),
        "tuners": tuners,
        "total_s": sum(best),
        "total_raw": sum(raw),
    }


def _grouping_cell(stencil: str, device_name: str):
    """One cold ``pairwise_cv`` on a fresh simulator and dataset; returns
    its wall time (dataset collection untimed) and the CVs."""
    pattern, device = get_stencil(stencil), get_device(device_name)

    def run():
        sim = GpuSimulator(device, seed=SEED)
        space = build_space(pattern, device)
        config = CsTunerConfig(seed=SEED, dataset_size=ISO_DATASET_N)
        dataset = CsTuner(sim, config).collect_dataset(pattern, space)
        t0 = time.perf_counter()
        cvs = pairwise_cv(
            sim, pattern, space, dataset.best().setting,
            probe_limit=config.probe_limit,
        )
        return time.perf_counter() - t0, cvs

    return run


def _bench_grouping() -> dict[str, object]:
    """Best cold grouping sweep per pair over ``REPS`` interleaved rounds."""
    raw, best, cvs = _best_of_interleaved(
        [_grouping_cell(s, d) for s, d in GROUPING_PAIRS], REPS
    )
    rows = []
    for (stencil, device), wall, unscaled, cv in zip(GROUPING_PAIRS, best, raw, cvs):
        rows.append({
            "stencil": stencil,
            "device": device,
            "pairs": len(cv),
            "candidates": cv.candidates,
            "feasible": cv.feasible,
            "pairwise_cv_s": wall,
            "pairwise_cv_raw": unscaled,
        })
        print(
            f"grouping {stencil}/{device}: {cv.candidates} candidates, "
            f"{cv.feasible} feasible in {wall * 1e3:.0f}ms"
        )
    return {"dataset_size": ISO_DATASET_N, "pairs": rows}


#: The phases of the preprocess section, each a ``<phase>_s`` leaf.
PREPROCESS_PHASES = ("grouping", "fitting", "sampling", "codegen")


def _preprocess_phases() -> dict[str, float]:
    """Seconds per phase of one cold ``CsTuner.preprocess`` on a fresh
    simulator and dataset (the dataset collection is not timed)."""
    pattern, device = get_stencil(ISO_PAIR[0]), get_device(ISO_PAIR[1])
    sim = GpuSimulator(device, seed=SEED)
    space = build_space(pattern, device)
    tuner = CsTuner(sim, CsTunerConfig(seed=SEED, dataset_size=ISO_DATASET_N))
    dataset = tuner.collect_dataset(pattern, space)
    fit = sampling.fit_metric_models
    fitting: list[float] = []

    def timed_fit(*args, **kwargs):
        t0 = time.perf_counter()
        out = fit(*args, **kwargs)
        fitting.append(time.perf_counter() - t0)
        return out

    sampling.fit_metric_models = timed_fit
    try:
        pre = tuner.preprocess(pattern, space, dataset)
    finally:
        sampling.fit_metric_models = fit
    return {**pre.watch.totals, "fitting": sum(fitting)}


def _bench_preprocess() -> dict[str, object]:
    """Best seconds per pre-processing phase over ``REPS`` cold runs,
    each scaled by the mean of the probes bracketing its run."""
    raw = dict.fromkeys(PREPROCESS_PHASES, float("inf"))
    scaled = dict(raw)
    before = _probe()
    for _ in range(REPS):
        phases = _preprocess_phases()
        after = _probe()
        for phase in PREPROCESS_PHASES:
            raw[phase] = min(raw[phase], phases[phase])
            scaled[phase] = min(
                scaled[phase], phases[phase] * PROBE_REF_S * 2 / (before + after)
            )
        before = after
    out: dict[str, object] = {
        "stencil": ISO_PAIR[0], "device": ISO_PAIR[1], "dataset_size": ISO_DATASET_N,
    }
    for phase in PREPROCESS_PHASES:
        out[f"{phase}_s"] = scaled[phase]
        out[f"{phase}_raw"] = raw[phase]
    return out


def main() -> int:
    identical = _identical()
    grid = [(d, s) for d in DEVICES for s in STENCILS]
    searches = [_search(d, s) for d, s in grid]
    evaluations = [run() for run in searches]  # untimed: warms the caches
    raw, best, _ = _best_of_interleaved([_timed(run) for run in searches], REPS)
    configs = []
    for (device, stencil), evals, search_s, unscaled in zip(
        grid, evaluations, best, raw
    ):
        configs.append({
            "device": device,
            "stencil": stencil,
            "evaluations": evals,
            "search_s": search_s,
            "search_raw": unscaled,
            "evaluations_per_sec": evals / search_s,
        })
        print(
            f"{device}/{stencil}: {evals} evaluations in "
            f"{search_s * 1e3:.0f}ms ({evals / search_s:,.0f}/s)"
        )

    total_s = sum(r["search_s"] for r in configs)
    rate = sum(r["evaluations"] for r in configs) / total_s

    pmnf = _bench_pmnf()
    sampler = _bench_sampler()
    forest = _bench_forest()
    iso_time = _bench_iso_time()
    grouping = _bench_grouping()
    preprocess = _bench_preprocess()
    print(
        "preprocess:       "
        + ", ".join(
            f"{phase} {preprocess[f'{phase}_s'] * 1e3:.1f}ms"
            for phase in PREPROCESS_PHASES
        )
    )
    print(f"pmnf term matrix: {pmnf['terms_s'] * 1e3:.1f}ms for {pmnf['rows']} rows")
    print(
        f"sampler:          {sampler['samples']} settings in "
        f"{sampler['sample_s'] * 1e3:.1f}ms, {RANDOM_SETTINGS} random_setting "
        f"calls in {sampler['random_setting_s'] * 1e3:.1f}ms (fresh spaces)"
    )
    print(
        f"forest:           fit {forest['forest_fit_s'] * 1e3:.1f}ms, predict "
        f"{forest['predict_rows']} rows in {forest['forest_predict_s'] * 1e3:.1f}ms"
    )
    print(
        f"aggregate search: {rate:,.0f} evaluations/s "
        f"(floor {MIN_PER_SEC:,.0f}), identical={identical}"
    )

    payload = {
        "benchmark": "search_path",
        "fast_mode": FAST,
        "budget_iterations": BUDGET,
        "reps": REPS,
        "dataset_size": DATASET_N,
        "min_per_sec": MIN_PER_SEC,
        "configs": configs,
        "identical": identical,
        "total_search_s": total_s,
        "total_search_raw": sum(raw),
        "evaluations_per_sec": rate,
        "probe_reference_ms": PROBE_REF_S * 1e3,
        "probe_median_ms": statistics.median(_PROBES) * 1e3,
        "pmnf_terms": pmnf,
        "sampler": sampler,
        "forest": forest,
        "iso_time": iso_time,
        "grouping": grouping,
        "preprocess": preprocess,
    }
    print(f"wrote {write_result('search_path', payload)}")

    if not identical:
        print("FAIL: a seeded run diverged from its identity fixture")
        return 1
    if rate < MIN_PER_SEC:
        print(f"FAIL: search throughput {rate:,.0f}/s below {MIN_PER_SEC:,.0f}/s")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
