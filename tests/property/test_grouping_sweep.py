"""The grouping sweep equals the per-(pair, a-value) loop (hypothesis).

``pairwise_cv`` prices every (pair, probed a-value, b-value) candidate
in one validity screen and one ``true_time_batch``. It must be
indistinguishable from the per-pair loop written out below: one
validity screen and one ``true_time_batch`` per (pair, a-value), the
winner being the first strictly smallest non-NaN time in domain order.
Same CVs, same simulator cache counters (small LRU capacities force
evictions) and the same ordered stream of settings sent to the
simulator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.grouping import _probe_values, pairwise_cv
from repro.errors import InvalidSettingError
from repro.ext.temporal import TEMPORAL_PARAMETER, TemporalSimulator, TemporalSpace
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.ml.stats import coefficient_of_variation
from repro.space.setting import Setting
from tests.ext import temporal_reference as ref

PARAMS = ("TBx", "TBy", "TBz", "UFx", "UFy", "CMz", "useShared", "SB")

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _recorded_sim(capacity: int | None) -> tuple[GpuSimulator, list[Setting]]:
    """A simulator whose ``true_time_batch`` logs each setting sent."""
    sim = GpuSimulator(device=A100, seed=5, true_cache_capacity=capacity)
    calls: list[Setting] = []
    batch = sim.true_time_batch

    def logged_batch(pattern, settings_, *a, **k):
        calls.extend(settings_)
        return batch(pattern, settings_, *a, **k)

    sim.true_time_batch = logged_batch  # type: ignore[method-assign]
    return sim, calls


def _reference_cv(
    price, pattern, space, base: Setting, probe_limit: int, names: Sequence[str]
) -> dict[tuple[str, str], float]:
    """The per-(pair, a-value) loop; ``price`` maps settings to times."""
    out: dict[tuple[str, str], float] = {}
    base_dict = base.to_dict()
    for a in names:
        for b in names:
            if a == b:
                continue
            vs = []
            for va in _probe_values(space.param(a).values, probe_limit):
                feasible = [
                    (vb, c)
                    for vb in space.param(b).values
                    if space.is_valid(c := Setting({**base_dict, a: va, b: vb}))
                ]
                if not feasible:
                    continue
                times = price(pattern, [c for _, c in feasible])
                best_t, best_vb = math.inf, None
                for (vb, _), t in zip(feasible, times):
                    if not math.isnan(t) and t < best_t:
                        best_t, best_vb = t, vb
                if best_vb is not None:
                    vs.append(math.log2(best_vb))
            out[(a, b)] = (
                math.inf if len(vs) < 2
                else coefficient_of_variation([v + 1.0 for v in vs])
            )
    return out


def _check_equal(pattern, space, base, probe_limit, names, capacity):
    ref_sim, ref_calls = _recorded_sim(capacity)
    ref = _reference_cv(
        lambda p, s: ref_sim.true_time_batch(p, s, invalid="nan").tolist(),
        pattern, space, base, probe_limit, names,
    )
    sim, calls = _recorded_sim(capacity)
    got = pairwise_cv(
        sim, pattern, space, base, probe_limit=probe_limit, parameters=names
    )
    assert dict(got) == ref
    assert sim.cache_info() == ref_sim.cache_info()
    assert sim.evaluations == ref_sim.evaluations
    assert calls == ref_calls
    assert [s.values_tuple() for s in calls] == [
        s.values_tuple() for s in ref_calls
    ]
    assert got.feasible == len(calls)
    return got


@pytest.fixture(scope="module")
def bases(small_dataset) -> list[Setting]:
    return [r.setting for r in small_dataset.records[:6]] + [
        small_dataset.best().setting
    ]


@relaxed
@given(
    base_idx=st.integers(0, 6),
    probe_limit=st.integers(1, 8),
    names=st.lists(st.sampled_from(PARAMS), min_size=2, max_size=4, unique=True),
    capacity=st.sampled_from([None, 3, 16]),
)
def test_sweep_equals_per_pair_loop(
    small_pattern, small_space, bases, base_idx, probe_limit, names, capacity
):
    _check_equal(
        small_pattern, small_space, bases[base_idx], probe_limit, names, capacity
    )


def test_all_a_values_infeasible(small_pattern, small_space, small_dataset):
    # A thread block far past 1024 threads: no sweep of other
    # parameters can make the candidate valid, so nothing is priced.
    base = small_dataset.best().setting.replace(TBx=1024, TBy=1024)
    got = _check_equal(
        small_pattern, small_space, base, 4, ["UFy", "useShared"], None
    )
    assert got == {("UFy", "useShared"): math.inf, ("useShared", "UFy"): math.inf}
    assert got.candidates > 0 and got.feasible == 0


def test_temporal_space_takes_the_matrix_path(
    small_pattern, small_space, small_dataset
):
    """The extended space sweeps like the stencil space: the same CVs as
    the per-pair loop over the per-setting reference space and model,
    and the same settings priced, in order."""
    base = Setting({**small_dataset.best().setting.to_dict(), TEMPORAL_PARAMETER: 1})
    names = ["TBx", TEMPORAL_PARAMETER, "SB", "useStreaming"]
    ref_sim = ref.TemporalSimulator(GpuSimulator(device=A100, seed=5))
    ref_calls: list[Setting] = []

    def price(pattern, batch):
        out = []
        for s in batch:
            ref_calls.append(s)
            try:
                out.append(ref_sim.true_time(pattern, s))
            except InvalidSettingError:
                out.append(math.nan)
        return out

    expected = _reference_cv(
        price, small_pattern, ref.TemporalSpace(small_space), base, 3, names
    )
    sim = TemporalSimulator(device=A100, seed=5)
    calls: list[Setting] = []
    batch = sim.true_time_batch

    def logged_batch(pattern, settings_, *a, **k):
        calls.extend(settings_)
        return batch(pattern, settings_, *a, **k)

    sim.true_time_batch = logged_batch  # type: ignore[method-assign]
    space = TemporalSpace(small_space)
    got = pairwise_cv(sim, small_pattern, space, base, probe_limit=3, parameters=names)
    assert dict(got) == expected
    assert calls == ref_calls and calls
    assert got.feasible == len(calls)
