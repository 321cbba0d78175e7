"""One definition of a budget that runs out mid-batch (hypothesis).

``Evaluator.evaluate_many`` must be indistinguishable from a loop of
``Evaluator.evaluate`` calls: same results, cost, evaluation count and
trace, same simulator cache counters, same stream of settings sent to
the simulator, and the same index at which the budget ran out. The
batches below mix duplicates and invalid settings, charge invalid
settings or not, and carry cost budgets that trip at every position.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.budget import Budget, Evaluator
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import Setting

N_VALID = 10
N_INVALID = 3

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def pool(small_space) -> list[Setting]:
    """Valid settings followed by invalid one-parameter mutations."""
    valid = small_space.sample(np.random.default_rng(3), N_VALID)
    invalid = [
        valid[0].replace(TBz=4096),
        valid[1].replace(TBx=1024, TBy=1024),
        valid[2].replace(TBz=4096),
    ]
    assert not any(small_space.is_valid(s) for s in invalid)
    return valid + invalid


def _recorded_sim(capacity: int | None) -> tuple[GpuSimulator, list[Setting]]:
    """A simulator whose ``run``/``run_batch`` log each setting sent."""
    sim = GpuSimulator(device=A100, seed=5, true_cache_capacity=capacity)
    calls: list[Setting] = []
    run, run_batch = sim.run, sim.run_batch

    def logged_run(pattern, setting, *a, **k):
        calls.append(setting)
        return run(pattern, setting, *a, **k)

    def logged_batch(pattern, batch, *a, **k):
        calls.extend(batch)
        return run_batch(pattern, batch, *a, **k)

    sim.run, sim.run_batch = logged_run, logged_batch  # type: ignore[method-assign]
    return sim, calls


def _state(ev: Evaluator, calls: list[Setting]) -> tuple:
    return (
        ev.cost_s, ev.evaluations, ev.best_setting, ev.best_time_s,
        list(ev.trace), ev.simulator.cache_info(), list(calls),
    )


def _sequential(ev: Evaluator, batch: Sequence[Setting]):
    out, stop = [], None
    for i, s in enumerate(batch):
        out.append(ev.evaluate(s))
        if stop is None and ev.exhausted:
            stop = i
    return out, stop


def _cut_budget(pattern, warm, batch, charge_invalid, capacity, k, nudge):
    """A cost limit equal (up to ``nudge`` ulps) to the spend after the
    ``k``-th simulator call of an unbounded sequential run."""
    sim, calls = _recorded_sim(capacity)
    ev = Evaluator(sim, pattern, Budget(max_iterations=10**6),
                   charge_invalid=charge_invalid)
    spends = []
    for s in [*warm, *batch]:
        before = len(calls)
        ev.evaluate(s)
        if len(calls) > before:
            spends.append(ev.cost_s)
    positive = [c for c in spends if c > 0]
    if not positive:
        return None
    limit = positive[min(k, len(positive) - 1)]
    for _ in range(abs(nudge)):
        limit = float(np.nextafter(limit, np.inf if nudge > 0 else 0.0))
    return limit


@relaxed
@given(
    warm_idx=st.lists(st.integers(0, N_VALID + N_INVALID - 1), max_size=6),
    batch_idx=st.lists(
        st.integers(0, N_VALID + N_INVALID - 1), min_size=1, max_size=24
    ),
    charge_invalid=st.booleans(),
    capacity=st.sampled_from([None, 2, 5]),
    k=st.integers(0, 30),
    nudge=st.integers(-1, 1),
)
def test_evaluate_many_equals_sequential_loop(
    small_pattern, pool, warm_idx, batch_idx, charge_invalid, capacity, k, nudge
):
    warm = [pool[i] for i in warm_idx]
    batch = [pool[i] for i in batch_idx]
    limit = _cut_budget(
        small_pattern, warm, batch, charge_invalid, capacity, k, nudge
    )
    budget = Budget(max_cost_s=limit) if limit else Budget(max_iterations=3)

    seq_sim, seq_calls = _recorded_sim(capacity)
    seq = Evaluator(seq_sim, small_pattern, budget, charge_invalid=charge_invalid)
    bulk_sim, bulk_calls = _recorded_sim(capacity)
    bulk = Evaluator(bulk_sim, small_pattern, budget, charge_invalid=charge_invalid)

    for part in (warm, batch):
        seq_out, seq_stop = _sequential(seq, part)
        bulk_out = bulk.evaluate_many(part)
        assert bulk_out == seq_out
        assert bulk.exhausted_at == seq_stop
        assert _state(bulk, bulk_calls) == _state(seq, seq_calls)
