"""Batch evaluation engine: exact equivalence with the scalar path.

The contract of :meth:`GpuSimulator.run_batch` (and the batch helpers
under it) is *bit-identical* results: same measured times, tuning
costs, metrics, cache state and evaluation counters as a sequential
loop of :meth:`GpuSimulator.run` calls.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from repro.analysis.prover import _rule_reject_masks
from repro.codegen.plan import build_plan, build_plan_arrays
from repro.core.budget import Budget, Evaluator
from repro.errors import InvalidSettingError
from repro.gpusim.device import A100, V100
from repro.gpusim.model import (
    METRIC_NAMES,
    compute_occupancy,
    compute_timing,
    compute_traffic,
    derive_metrics,
    evaluate_settings,
    run_model,
    valid_mask,
)
from repro.gpusim.noise import roughness_factors
from repro.gpusim.simulator import GpuSimulator
from repro.profiler.nsight import NsightCollector
from repro.space.constraints import canonicalize_matrix, canonicalize_values
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import settings_from_matrix, settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import get_stencil, suite_names

DEVICES = {"a100": A100, "v100": V100}


@pytest.fixture(scope="module")
def suite_samples():
    """200 sampled valid settings per (device, stencil), shared."""
    out = {}
    for dev_key, device in DEVICES.items():
        for name in suite_names():
            pattern = get_stencil(name)
            space = build_space(pattern, device)
            rng = np.random.default_rng(11)
            out[dev_key, name] = (pattern, space.sample(rng, 200))
    return out


@pytest.mark.parametrize("dev_key", sorted(DEVICES))
@pytest.mark.parametrize("stencil", suite_names())
def test_run_batch_matches_scalar(suite_samples, dev_key, stencil):
    device = DEVICES[dev_key]
    pattern, settings = suite_samples[dev_key, stencil]
    scalar_sim = GpuSimulator(device=device, seed=3)
    batch_sim = GpuSimulator(device=device, seed=3)

    scalar_runs = [scalar_sim.run(pattern, s) for s in settings]
    batch_runs = batch_sim.run_batch(pattern, settings)

    assert len(batch_runs) == len(settings)
    for a, b in zip(scalar_runs, batch_runs):
        assert a.setting == b.setting
        assert a.time_s == b.time_s
        assert a.true_time_s == b.true_time_s
        assert a.tuning_cost_s == b.tuning_cost_s
        assert a.metrics == b.metrics
    assert scalar_sim.evaluations == batch_sim.evaluations
    assert scalar_sim.cache_info() == batch_sim.cache_info()


def test_run_batch_repeats_settings_like_scalar(small_pattern, small_space, rng):
    """Duplicates hit the cache but draw fresh per-evaluation noise."""
    base = small_space.sample(rng, 8)
    settings = base + base[:4] + base[:2]
    scalar_sim = GpuSimulator(device=A100, seed=1)
    batch_sim = GpuSimulator(device=A100, seed=1)
    scalar_runs = [scalar_sim.run(small_pattern, s) for s in settings]
    batch_runs = batch_sim.run_batch(small_pattern, settings)
    for a, b in zip(scalar_runs, batch_runs):
        assert a.time_s == b.time_s
        assert a.tuning_cost_s == b.tuning_cost_s
    # Same setting, different evaluation index -> different noise draw.
    assert scalar_runs[0].time_s != scalar_runs[8].time_s
    assert scalar_sim.cache_info() == batch_sim.cache_info()


def test_run_batch_invalid_raises_before_any_state_change(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 5)
    bad = settings[2].replace(TBx=4096)  # thread block far beyond 1024
    batch = settings[:2] + [bad] + settings[2:]

    scalar_sim = GpuSimulator(device=A100, seed=0)
    with pytest.raises(InvalidSettingError) as scalar_err:
        for s in batch:
            scalar_sim.run(small_pattern, s)

    batch_sim = GpuSimulator(device=A100, seed=0)
    with pytest.raises(InvalidSettingError) as batch_err:
        batch_sim.run_batch(small_pattern, batch)

    assert str(batch_err.value) == str(scalar_err.value)
    # Unlike the scalar loop, the batch rejects atomically: nothing was
    # evaluated, charged or cached.
    assert batch_sim.evaluations == 0
    assert batch_sim.cache_info()["size"] == 0
    assert batch_sim.cache_info()["misses"] == 0
    assert not batch_sim._compiled


def test_true_time_batch_matches_scalar_and_nan_mode(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 10)
    bad = settings[0].replace(TBy=4096)
    mixed = settings[:3] + [bad] + settings[3:]

    sim = GpuSimulator(device=A100, seed=0)
    ref = [sim.true_time(small_pattern, s) for s in settings]

    sim2 = GpuSimulator(device=A100, seed=0)
    times = sim2.true_time_batch(small_pattern, settings)
    assert times.tolist() == ref

    nan_times = sim2.true_time_batch(small_pattern, mixed, invalid="nan")
    assert math.isnan(nan_times[3])
    assert nan_times[:3].tolist() == ref[:3]
    assert nan_times[4:].tolist() == ref[3:]

    with pytest.raises(InvalidSettingError):
        sim2.true_time_batch(small_pattern, mixed)


#: The row reason each prover rule stands for, as a regex the reason of
#: the first rule (in table order) that rejects a row must match.
RULE_REASONS = {
    "tb_limit": r"thread block size \d+ exceeds 1024$",
    "sd_gate": r"SD is only valid when streaming is enabled$",
    "sb_gate": r"SB is only valid when streaming is enabled$",
    "prefetch_gate": r"prefetching requires streaming$",
    "stream_sd": r"streaming dimension SD=-?\d+ is not 1, 2 or 3$",
    "sb_extent": r"SB=\d+ exceeds streaming dimension extent \d+$",
    "stream_tb": r"2\.5-D streaming requires TB=1 along SD \(got \d+\)$",
    "stream_uf": r"concurrent streaming requires UF_SD<=SB \(\d+>\d+\)$",
    "tile_fit_x": r"work tile \d+ along dimension 1 exceeds extent \d+$",
    "tile_fit_y": r"work tile \d+ along dimension 2 exceeds extent \d+$",
    "tile_fit_z": r"work tile \d+ along dimension 3 exceeds extent \d+$",
    "regs_spill": r"register spill: \d+ regs/thread exceeds \d+$",
    "regs_block": r"block needs \d+ registers, SM has \d+$",
    "smem_block": r"shared memory \d+ B/block exceeds \d+ B$",
}


def _domain_rows(space, rng, n):
    """``n`` rows drawn uniformly from each parameter's domain."""
    return np.stack([
        space.param(name).values_array[
            rng.integers(space.param(name).cardinality, size=n)
        ]
        for name in PARAMETER_ORDER
    ], axis=1)


def _wrap_int64(value):
    """A row value as an int64 column holds it.

    Footprints of absurd (explicit-invalid) rows pass 2**63; the column
    keeps them modulo 2**64, the row keeps the exact Python int.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return (value + 2**63) % 2**64 - 2**63
    return value


def _plan_row(arrays, i):
    """Row ``i`` of every :class:`PlanArrays` field, as a plan holds it."""
    row = {}
    for f in fields(arrays):
        if f.name in ("pattern", "setting"):
            continue
        value = getattr(arrays, f.name)
        if isinstance(value, tuple):
            row[f.name] = tuple(v[i] for v in value)
        else:
            row[f.name] = value[i]
    if not row["streaming"]:
        row["streaming_dim"] = None
    for name in ("total_blocks", "total_threads", "sync_points"):
        row[name] = getattr(arrays, name)[i]
    row["covered_points"] = arrays.covered_points()[i]
    return row


def test_valid_mask_matches_scalar_violation(suite_samples):
    """Row and column feasibility agree on every row, valid or not.

    Uniform domain draws are mostly invalid; redrawing one parameter of
    a valid setting reaches the later rules; sampled settings add valid
    rows. For each row: the column mask, the prover's per-rule masks and
    the row reason agree; the column plan equals the row plan; the
    column repair equals the row repair.
    """
    first_rules = set()
    for (dev_key, _), (pattern, settings) in suite_samples.items():
        device = DEVICES[dev_key]
        space = build_space(pattern, device)
        rng = np.random.default_rng(5)
        valid = settings_matrix(settings)
        # Valid settings with one parameter redrawn: near misses that
        # reach the later rules.
        near = valid[rng.integers(len(valid), size=200)]
        redraw = rng.integers(len(PARAMETER_ORDER), size=len(near))
        near[np.arange(len(near)), redraw] = _domain_rows(space, rng, len(near))[
            np.arange(len(near)), redraw
        ]
        values = np.concatenate([_domain_rows(space, rng, 300), near, valid[:50]])
        sim = GpuSimulator(device=device)
        mask = valid_mask(pattern, device, values)
        rules = _rule_reject_masks(space, device, values)
        assert set(rules) <= set(RULE_REASONS)
        np.testing.assert_array_equal(
            np.logical_or.reduce(list(rules.values())), ~mask
        )
        assert (~mask).sum() > len(values) // 2
        arrays = build_plan_arrays(pattern, values)
        canon = canonicalize_matrix(pattern, values)
        for i, s in enumerate(settings_from_matrix(values)):
            reason = sim.violation(pattern, s)
            assert bool(mask[i]) == (reason is None), (s, reason)
            fired = [name for name, m in rules.items() if m[i]]
            if fired:
                first_rules.add(fired[0])
                assert re.match(RULE_REASONS[fired[0]], reason), (fired, reason)
            plan = build_plan(pattern, s)
            for name, value in _plan_row(arrays, i).items():
                expected = getattr(plan, name)
                expected = expected() if callable(expected) else expected
                assert value == _wrap_int64(expected), (name, s)
            repaired = canonicalize_values(pattern, s)
            assert tuple(canon[i]) == tuple(repaired[n] for n in PARAMETER_ORDER)
    # On the suite's cubic grids SB's domain stops at the extent, so
    # sb_extent never fires (tests/space/test_constraints.py pins it);
    # in-domain rows never reach stream_sd (see the test below).
    assert first_rules == set(RULE_REASONS) - {"sb_extent", "stream_sd"}


@pytest.mark.parametrize("sd", [0, 4])
def test_out_of_domain_sd_rejected_on_both_paths(sd):
    """A streaming SD outside 1..3 is invalid, with a reason, row and column."""
    pattern = get_stencil("j3d7pt")
    space = build_space(pattern, A100)
    base = space.sample(np.random.default_rng(0), 1)[0]
    bad = base.replace(useStreaming=2, SD=sd, SB=2)
    sim = GpuSimulator(device=A100)
    reason = sim.violation(pattern, bad)
    assert reason == f"streaming dimension SD={sd} is not 1, 2 or 3"
    with pytest.raises(InvalidSettingError):
        sim.true_time(pattern, bad)
    with pytest.raises(InvalidSettingError):
        sim.true_time_batch(pattern, [bad])
    assert math.isnan(sim.true_time_batch(pattern, [bad], invalid="nan")[0])
    values = settings_matrix([bad])
    assert not valid_mask(pattern, A100, values)[0]
    rules = _rule_reject_masks(space, A100, values)
    assert [name for name, m in rules.items() if m[0]][0] == "stream_sd"


def _stages(plan, device):
    occ = compute_occupancy(plan, device)
    traffic = compute_traffic(plan, device)
    timing = compute_timing(plan, device, traffic, occ)
    return occ, traffic, timing, derive_metrics(plan, device, occ, traffic, timing)


def _assert_plain(value):
    """Row outputs are exact Python scalars, never NumPy ones."""
    assert type(value) in (int, float, str), (value, type(value))


def test_evaluate_settings_matches_scalar_model(suite_samples):
    """The row and column op tables of the one model agree field by field.

    The row table (``build_plan``, ``run_model``, ``roughness_factors``)
    is the reference: it prices every batch below
    :data:`~repro.gpusim.simulator.COLUMN_BATCH` uncached settings.
    """
    for (dev_key, _), (pattern, settings) in suite_samples.items():
        device = DEVICES[dev_key]
        result = evaluate_settings(pattern, device, settings)
        arrays = build_plan_arrays(pattern, settings_matrix(settings))
        columns = _stages(arrays, device)
        for i, s in enumerate(settings):
            plan = build_plan(pattern, s)
            timing, metrics = run_model(plan, device)
            true_time = timing.total_s * roughness_factors(
                device.name, pattern.name, [s.values_tuple()]
            )[0]
            assert result.true_times[i] == true_time
            assert result.plans[i] == plan
            assert result.metrics[i] == metrics

            row = _stages(plan, device)
            for row_stage, col_stage in zip(row[:3], columns[:3]):
                for f in fields(row_stage):
                    value = getattr(row_stage, f.name)
                    _assert_plain(value)
                    col = getattr(col_stage, f.name)
                    assert value == (col if np.ndim(col) == 0 else col[i]), f.name
            _assert_plain(row[0].limiter)
            _assert_plain(row[2].bound)
            assert list(row[3]) == list(METRIC_NAMES)
            for name, value in row[3].items():
                _assert_plain(value)
                assert value == columns[3][name][i], name
                assert value == metrics[name], name


def test_true_cache_lru_eviction_and_counters(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 6, unique=True)
    sim = GpuSimulator(device=A100, seed=0, true_cache_capacity=4)
    sim.run_batch(small_pattern, settings)
    info = sim.cache_info()
    assert info == {
        "hits": 0, "misses": 6, "inserts": 6, "evictions": 2,
        "size": 4, "capacity": 4, "disk_hits": 0,
    }
    # The two oldest entries were evicted; re-running the newest four
    # hits, re-running the oldest two misses and recomputes.
    sim.run_batch(small_pattern, settings[2:])
    assert sim.cache_info()["hits"] == 4
    sim.run(small_pattern, settings[0])
    assert sim.cache_info()["misses"] == 7
    assert sim.cache_info()["size"] == 4


def test_unbounded_cache(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 8, unique=True)
    sim = GpuSimulator(device=A100, true_cache_capacity=None)
    sim.run_batch(small_pattern, settings)
    assert sim.cache_info() == {
        "hits": 0, "misses": 8, "inserts": 8, "evictions": 0,
        "size": 8, "capacity": None, "disk_hits": 0,
    }


def test_evaluator_evaluate_many_matches_sequential(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 12)
    bad = settings[0].replace(TBz=4096)
    batch = settings[:6] + [bad] + settings[6:]

    seq = Evaluator(
        GpuSimulator(device=A100, seed=2), small_pattern, Budget(max_iterations=100)
    )
    seq_results = [seq.evaluate(s) for s in batch]

    many = Evaluator(
        GpuSimulator(device=A100, seed=2), small_pattern, Budget(max_iterations=100)
    )
    many_results = many.evaluate_many(batch)

    assert many_results == seq_results
    assert many_results[6] is None  # the invalid candidate
    assert many.cost_s == seq.cost_s
    assert many.evaluations == seq.evaluations
    assert many.best_setting == seq.best_setting
    assert many.trace == seq.trace


def test_profile_many_matches_per_setting_profiles(small_pattern, small_space, rng):
    settings = small_space.sample(rng, 10)
    one = NsightCollector(GpuSimulator(device=A100, seed=4))
    records = [one.profile(small_pattern, s) for s in settings]
    many = NsightCollector(GpuSimulator(device=A100, seed=4))
    ds = many.profile_many(small_pattern, settings)
    assert len(ds) == len(records)
    for a, b in zip(records, ds):
        assert a.setting == b.setting
        assert a.time_s == b.time_s
        assert a.metrics == b.metrics


def test_sample_is_deterministic_and_valid(small_space):
    a = small_space.sample(np.random.default_rng(9), 40)
    b = small_space.sample(np.random.default_rng(9), 40)
    assert a == b
    assert all(small_space.is_valid(s) for s in a)
    uniq = small_space.sample(np.random.default_rng(9), 40, unique=True)
    assert len(set(uniq)) == len(uniq) == 40
