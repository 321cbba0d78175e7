"""The identity corpus: seeded scripts whose digests are frozen as fixtures.

Bit-identity is the contract for seeded runs: the same seed must always
charge the same tuning costs, draw the same measurement noise and find
the same best setting. Each corpus case below runs a fixed, seeded
script against the simulator, a tuner or the PMNF term builder and
reduces everything observable to one SHA-256 digest. The digests were
frozen by ``tools/freeze_identity.py`` from a tree that still carried
the old reference implementations (the dict-based simulator path, the
scalar GA path and the scalar PMNF loop), and only after each reference
and its fast twin produced the same digest. They live under
``tests/fixtures/identity/`` and ``tests/test_identity_fixtures.py``
recomputes every case against them.

Families (one fixture file each):

* ``simulator`` — per suite stencil x A100/V100, an interleaved script
  of ``run``, ``run_batch`` (cold, mixed and fully warm, plus
  ``on_invalid="skip"`` and a rejected ``"raise"`` batch),
  ``true_time_batch(invalid="nan")`` and ``reset_cost_accounting`` over
  valid and seeded invalid settings, measurement noise on. Every
  :class:`MeasuredRun`, ``cache_info()`` and ``evaluations`` after each
  step enter the digest. A subset reruns the script with cache
  capacities 0, 1 and 13 (13 forces a mid-batch eviction), with an
  :class:`EvaluationStore` attached (journal bytes, then a warm replay
  from disk) and with ``strict=True``.
* ``search`` — seeded trajectories (simulator call stream, evaluator
  trace, best setting, cost) of csTuner and every baseline on
  j3d7pt/cheby x A100/V100, a cost-budgeted run of each tuner, and one
  csTuner run on the temporal-blocking extension space.
* ``terms`` — PMNF design matrices for :data:`TERM_GROUPS` x i x j, and
  one from a shuffled column order.

A case is a zero-argument callable returning its digest; :class:`Paths`
names the implementations a run goes through, so the freezing tool can
run the same corpus through a reference twin.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines import (
    ArtemisTuner,
    DifferentialEvolutionTuner,
    GarveyTuner,
    HillClimberTuner,
    OpenTunerGA,
    RandomSearchTuner,
)
from repro.core.budget import Budget
from repro.core.tuner import CsTuner, CsTunerConfig
from repro.errors import InvalidSettingError
from repro.ext.temporal import TemporalSimulator, TemporalSpace
from repro.gpusim.device import get_device
from repro.gpusim.diskcache import EvaluationStore
from repro.gpusim.simulator import DEFAULT_TRUE_CACHE_CAPACITY, GpuSimulator
from repro.ml.regression import pmnf_term_matrix, pmnf_term_values
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting
from repro.space.space import SearchSpace, build_space
from repro.stencil.pattern import StencilPattern, StencilShape
from repro.stencil.suite import get_stencil, suite_names

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "identity"

SEED = 0
DEVICES = ("A100", "V100")
#: Stencil x device pairs of the search family and the simulator subsets.
PAIRS = tuple((s, d) for s in ("j3d7pt", "cheby") for d in DEVICES)

#: Valid / seeded-invalid settings per simulator script.
N_VALID = 48
N_INVALID = 4
#: Strict-mode sampling rate of the ``strict`` simulator cases (the
#: default 1-in-1024 would gate nothing in a 48-setting script).
STRICT_EVERY = 4

SEARCH_ITERATIONS = 12
SEARCH_COST_S = 12.0
CSTUNER_CONFIG = CsTunerConfig(dataset_size=32, probe_limit=3, seed=SEED)

#: Parameter groups of the PMNF term-matrix family (a parameter repeats
#: across groups on purpose).
TERM_GROUPS: tuple[tuple[str, ...], ...] = (
    ("TBx", "TBy", "TBz"),
    ("UFx", "CMx", "TBx"),
    ("SB", "SD"),
    ("useShared",),
)
TERM_EXPONENTS = tuple((i, j) for i in (0, 1, 2) for j in (0, 1))


def _shuffled_term_matrix(
    groups: Sequence[Sequence[str]], pool: Sequence[Setting], i: int, j: int
) -> np.ndarray:
    """PMNF design matrix built from a reversed column lowering."""
    order = tuple(reversed(PARAMETER_ORDER))
    values = np.array([s.values_tuple(order) for s in pool], dtype=np.int64)
    return pmnf_term_values(groups, values, order, i, j)


@dataclass(frozen=True)
class Paths:
    """Implementations a corpus run goes through (the live ones by default).

    ``make_sim`` builds every simulator; ``term_matrix(groups, pool, i,
    j)`` builds a PMNF design matrix and ``shuffled_term_matrix`` builds
    the same matrix from a reversed column lowering.
    """

    make_sim: Callable[..., GpuSimulator] = GpuSimulator
    term_matrix: Callable[..., np.ndarray] = pmnf_term_matrix
    shuffled_term_matrix: Callable[..., np.ndarray] = _shuffled_term_matrix


LIVE = Paths()


# -- digests -------------------------------------------------------------------


def _plain(obj: Any) -> Any:
    """JSON-ready canonical form (floats keep every bit through repr)."""
    if isinstance(obj, Setting):
        return list(obj.values_tuple())
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return repr(f) if not math.isfinite(f) else f
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot digest {type(obj).__name__}")


class Digest:
    """Running SHA-256 over canonical JSON records."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *record: Any) -> None:
        line = json.dumps(_plain(record), separators=(",", ":"))
        self._h.update(line.encode("utf-8") + b"\n")

    def add_bytes(self, label: str, data: bytes) -> None:
        self.add(label, hashlib.sha256(data).hexdigest())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _run_record(run: Any) -> Any:
    if run is None:
        return None
    return (
        run.setting, run.time_s, run.true_time_s, run.tuning_cost_s,
        dict(run.metrics),
    )


# -- simulator family ------------------------------------------------------------


def _invalid_settings(
    space: SearchSpace, valid: Sequence[Setting], rng: np.random.Generator
) -> list[Setting]:
    """Seeded invalid settings: one-parameter mutations of valid ones.

    Mutations are drawn from each parameter's own domain, so they hit
    the implicit (resource) constraints as well as the explicit ones;
    an oversized thread block tops the list up if the draws run dry.
    """
    out: list[Setting] = []
    names = space.names
    for _ in range(400):
        base = valid[int(rng.integers(len(valid)))]
        name = names[int(rng.integers(len(names)))]
        domain = space.param(name).values
        cand = base.replace(**{name: int(domain[int(rng.integers(len(domain)))])})
        if not space.is_valid(cand) and cand not in out:
            out.append(cand)
            if len(out) == N_INVALID:
                return out
    while len(out) < N_INVALID:
        out.append(valid[len(out)].replace(TBz=4096))
    return out


def simulator_script(
    sim: GpuSimulator, pattern: StencilPattern, space: SearchSpace, digest: Digest
) -> None:
    """The interleaved scalar/batch script every simulator case runs."""
    rng = np.random.default_rng(SEED)
    v = space.sample(rng, N_VALID)
    bad = _invalid_settings(space, v, rng)

    def state(step: str) -> None:
        digest.add(step, sim.cache_info(), sim.evaluations)

    def runs(step: str, out: Sequence[Any]) -> None:
        digest.add(step, [_run_record(r) for r in out])
        state(step)

    def scalar(s: Setting) -> Any:
        try:
            return sim.run(pattern, s)
        except InvalidSettingError:
            return None

    digest.add("settings", v, bad)
    runs("run cold", [sim.run(pattern, s) for s in v[:6]])
    runs("batch mixed", sim.run_batch(pattern, v[:16]))
    runs("batch cold", sim.run_batch(pattern, v[16:28]))
    runs("batch warm", sim.run_batch(pattern, v[:28]))
    runs("batch skip", sim.run_batch(
        pattern, [v[28], bad[0], v[3], bad[1], v[28], v[29], bad[0]],
        on_invalid="skip",
    ))
    digest.add("true nan", sim.true_time_batch(
        pattern, [v[30], bad[2], v[0], bad[3], v[31], bad[2]], invalid="nan",
    ))
    state("true nan")
    try:
        sim.run_batch(pattern, [v[32], bad[1]])
        digest.add("batch raise", "accepted")
    except InvalidSettingError as exc:
        digest.add("batch raise", str(exc))
    state("batch raise")
    runs("run mixed", [scalar(s) for s in (v[5], bad[2], v[33], v[33], bad[2])])
    digest.add("true time", sim.true_time(pattern, v[34]),
               sim.true_time_batch(pattern, v[:4]))
    state("true time")
    anchor = v[35]
    runs("evict anchor", [sim.run(pattern, anchor)])
    runs("evict", sim.run_batch(pattern, v[36:48] + v[:2] + [anchor]))
    sim.reset_cost_accounting()
    runs("reset batch", sim.run_batch(pattern, v[:10]))
    runs("reset run", [sim.run(pattern, s) for s in (v[10], v[0], v[40])])


def _sim_case(
    paths: Paths, stencil: str, device: str, *, capacity: int | None = None,
    strict: bool = False, store: bool = False,
) -> str:
    pattern = get_stencil(stencil)
    dev = get_device(device)
    space = build_space(pattern, dev)
    cap = DEFAULT_TRUE_CACHE_CAPACITY if capacity is None else capacity
    kw: dict[str, Any] = {
        "device": dev, "seed": SEED, "true_cache_capacity": cap,
    }
    if strict:
        kw.update(strict=True, strict_every=STRICT_EVERY)
    digest = Digest()
    if not store:
        simulator_script(paths.make_sim(**kw), pattern, space, digest)
        return digest.hexdigest()
    with tempfile.TemporaryDirectory() as tmp:
        cold = EvaluationStore(tmp)
        simulator_script(paths.make_sim(store=cold, **kw), pattern, space, digest)
        cold.close()
        digest.add_bytes("journal", (Path(tmp) / "journal.jsonl").read_bytes())
        warm = EvaluationStore(tmp)  # a second run replays from disk
        simulator_script(paths.make_sim(store=warm, **kw), pattern, space, digest)
        warm.close()
        digest.add_bytes("journal", (Path(tmp) / "journal.jsonl").read_bytes())
    return digest.hexdigest()


def simulator_cases(paths: Paths = LIVE) -> dict[str, Callable[[], str]]:
    cases: dict[str, Callable[[], str]] = {}
    for stencil in suite_names():
        for device in DEVICES:
            cases[f"{stencil}/{device}"] = (
                lambda s=stencil, d=device: _sim_case(paths, s, d)
            )
    for stencil, device in PAIRS:
        if device == "A100":
            for cap in (0, 1, 13):
                cases[f"{stencil}/{device}/capacity={cap}"] = (
                    lambda s=stencil, d=device, c=cap: _sim_case(
                        paths, s, d, capacity=c
                    )
                )
            cases[f"{stencil}/{device}/strict"] = (
                lambda s=stencil, d=device: _sim_case(paths, s, d, strict=True)
            )
        cases[f"{stencil}/{device}/store"] = (
            lambda s=stencil, d=device: _sim_case(paths, s, d, store=True)
        )
    return cases


# -- search family ---------------------------------------------------------------


def _record_calls(sim: Any, digest: Digest) -> None:
    """Log every setting the simulator is asked to measure, in call order.

    ``run`` and ``run_batch`` calls log alike, one record per setting, so
    the digest sees the order settings reach the simulator, not how they
    were grouped into calls. That order is part of the contract: a batch
    must send exactly the settings a loop of ``run`` calls would, in the
    same order (repeated invalid settings in place, nothing past a
    budget's cut-off), or the digest changes.
    """
    orig_run = sim.run
    orig_batch = getattr(sim, "run_batch", None)

    def run(pattern: StencilPattern, setting: Setting, *a: Any, **k: Any) -> Any:
        digest.add("run", setting)
        return orig_run(pattern, setting, *a, **k)

    sim.run = run
    if orig_batch is not None:
        def run_batch(
            pattern: StencilPattern, settings: Sequence[Setting], *a: Any, **k: Any
        ) -> Any:
            for s in settings:
                digest.add("run", s)
            return orig_batch(pattern, settings, *a, **k)

        sim.run_batch = run_batch


#: Meta entries left out of a trajectory digest: ``search_info`` counts
#: how the GA lowered its populations (engine work), not what it found.
_VOLATILE_META = frozenset({"search_info"})

_BASELINES = {
    "Garvey": GarveyTuner,
    "OpenTuner": OpenTunerGA,
    "Artemis": ArtemisTuner,
    "Random": RandomSearchTuner,
    "DE": DifferentialEvolutionTuner,
    "HillClimber": HillClimberTuner,
}


def _search_case(
    paths: Paths, tuner: str, stencil: str, device: str, budget: Budget,
    *, temporal: bool = False,
) -> str:
    pattern = get_stencil(stencil)
    dev = get_device(device)
    space: Any = build_space(pattern, dev)
    if temporal:
        space = TemporalSpace(space)
    sim: Any = (TemporalSimulator if temporal else paths.make_sim)(
        device=dev, seed=SEED
    )
    digest = Digest()
    _record_calls(sim, digest)
    if tuner == "csTuner":
        cstuner = CsTuner(sim, CSTUNER_CONFIG)
        res = cstuner.tune(pattern, budget, space=space, seed=SEED)
    else:
        dataset = None
        if tuner == "Garvey":
            dataset = CsTuner(sim, CSTUNER_CONFIG).collect_dataset(pattern, space)
        res = _BASELINES[tuner](sim, seed=SEED).tune(
            pattern, budget, space=space, dataset=dataset, seed=SEED
        )
    digest.add(
        "result", res.best_setting, res.best_time_s, res.evaluations,
        res.iterations, res.cost_s,
        [(p.evaluations, p.iteration, p.cost_s, p.best_time_s) for p in res.trace],
        {k: v for k, v in res.meta.items() if k not in _VOLATILE_META},
    )
    return digest.hexdigest()


def search_cases(paths: Paths = LIVE) -> dict[str, Callable[[], str]]:
    iters = Budget(max_iterations=SEARCH_ITERATIONS)
    cost = Budget(max_cost_s=SEARCH_COST_S)
    cases: dict[str, Callable[[], str]] = {}
    for tuner in ("csTuner", *_BASELINES):
        for stencil, device in PAIRS:
            cases[f"{tuner}/{stencil}/{device}"] = (
                lambda t=tuner, s=stencil, d=device: _search_case(
                    paths, t, s, d, iters
                )
            )
        cases[f"{tuner}/j3d7pt/A100/cost"] = (
            lambda t=tuner: _search_case(paths, t, "j3d7pt", "A100", cost)
        )
    cases["csTuner/j3d7pt/A100/temporal"] = lambda: _search_case(
        paths, "csTuner", "j3d7pt", "A100", iters, temporal=True
    )
    return cases


# -- PMNF term family ------------------------------------------------------------


def term_pattern() -> StencilPattern:
    """The small star stencil the PMNF term pool is drawn from."""
    return StencilPattern(
        name="test3d", grid=(64, 64, 64), order=1, flops=12, io_arrays=2,
        shape=StencilShape.STAR, outputs=1, coefficients=4,
    )


def term_pool() -> list[Setting]:
    space = build_space(term_pattern(), get_device("A100"), max_factor=16)
    return space.sample(np.random.default_rng(5), 150, unique=True)


def array_digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    h = hashlib.sha256(repr(a.shape).encode("utf-8"))
    h.update(a.tobytes())
    return h.hexdigest()


def term_case_name(i: int, j: int, *, shuffled: bool = False) -> str:
    return f"{'shuffled/' if shuffled else ''}i={i}/j={j}"


def term_cases(paths: Paths = LIVE) -> dict[str, Callable[[], str]]:
    pool: list[Setting] = []

    def matrix(i: int, j: int, shuffled: bool) -> str:
        if not pool:
            pool.extend(term_pool())
        build = paths.shuffled_term_matrix if shuffled else paths.term_matrix
        return array_digest(build(TERM_GROUPS, pool, i, j))

    cases: dict[str, Callable[[], str]] = {}
    for i, j in TERM_EXPONENTS:
        cases[term_case_name(i, j)] = lambda i=i, j=j: matrix(i, j, False)
    cases[term_case_name(2, 1, shuffled=True)] = lambda: matrix(2, 1, True)
    return cases


# -- fixtures --------------------------------------------------------------------

FAMILIES: dict[str, Callable[[Paths], dict[str, Callable[[], str]]]] = {
    "simulator": simulator_cases,
    "search": search_cases,
    "terms": term_cases,
}


def fixture_path(family: str) -> Path:
    return FIXTURE_DIR / f"{family}.json"


def load_fixture(family: str) -> dict[str, str]:
    """Frozen digests of one family, by case name."""
    doc = json.loads(fixture_path(family).read_text(encoding="utf-8"))
    return dict(doc["cases"])


def all_cases() -> list[tuple[str, str]]:
    """Every (family, case) pair of the live corpus, in corpus order."""
    return [(fam, name) for fam, build in FAMILIES.items() for name in build(LIVE)]
