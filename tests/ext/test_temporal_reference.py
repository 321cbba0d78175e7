"""The matrix-path temporal extension equals its per-setting reference.

``tests/ext/temporal_reference.py`` holds the extension as it was when
every caller drove it one setting at a time. The live
:class:`~repro.ext.temporal.TemporalSpace` and
:class:`~repro.ext.temporal.TemporalSimulator` run on 20-column value
matrices; on seeded rows — invalid ones and rows whose ``TBT`` the full
repair halves included — they must give the reference's values (``TBT``
compared explicitly), validity, costs, evaluation counts, measured
times and metrics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidSettingError, SearchError
from repro.ext.temporal import (
    TEMPORAL_ORDER,
    TEMPORAL_PARAMETER,
    TemporalSimulator,
    TemporalSpace,
)
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import Setting, settings_from_matrix, settings_matrix
from repro.space.space import build_space
from repro.stencil.pattern import StencilPattern, StencilShape
from repro.stencil.suite import get_stencil
from tests.ext import temporal_reference as ref

N_ROWS = 300


@pytest.fixture(params=["small", "j3d27pt"], scope="module")
def spaces(request, small_space):
    base = (
        small_space if request.param == "small"
        else build_space(get_stencil(request.param), A100)
    )
    return TemporalSpace(base), ref.TemporalSpace(base)


def _rows(space: TemporalSpace, seed: int) -> np.ndarray:
    """Seeded rows: half with every column drawn from its domain (nearly
    all invalid), half valid base settings (streaming ones first); the
    ``TBT`` column is drawn from values in and outside its domain."""
    rng = np.random.default_rng(seed)
    half = N_ROWS // 2
    cols = [rng.choice(space.param(n).values, half) for n in TEMPORAL_ORDER[:-1]]
    drawn = np.stack(cols, axis=1).astype(np.int64)
    valid = sorted(space.base.sample(rng, half), key=lambda s: -s["useStreaming"])
    base = np.concatenate([drawn, settings_matrix(valid)])
    return np.column_stack([base, rng.choice([1, 2, 3, 4, 8, 16], N_ROWS)])


def _as_settings(rows: np.ndarray) -> list[Setting]:
    return [Setting(dict(zip(TEMPORAL_ORDER, r))) for r in rows.tolist()]


def _row(setting: Setting) -> tuple[int, ...]:
    return tuple(setting[n] for n in TEMPORAL_ORDER)


class TestSpace:
    def test_validity(self, spaces):
        live, old = spaces
        rows = _rows(live, 1)
        want = [old.is_valid(s) for s in _as_settings(rows)]
        assert live._batch_valid_matrix(rows).tolist() == want
        assert live._batch_valid(_as_settings(rows)).tolist() == want
        assert any(want) and not all(want)

    def test_violation_messages(self, spaces):
        live, old = spaces
        for s in _as_settings(_rows(live, 2)):
            assert live.violation(s) == old.violation(s)

    def test_repair_full_halves_tbt_as_the_reference(self, spaces):
        live, old = spaces
        rows = _rows(live, 3)
        got = live.repair_full_matrix(rows)
        want = [_row(old.repair_full(s.to_dict())) for s in _as_settings(rows)]
        assert [tuple(r) for r in got.tolist()] == want
        assert got[:, -1].tolist() == [w[-1] for w in want]  # TBT itself
        clipped = live._clip_tbt(rows[:, -1])
        halved = (got[:, -1] < clipped) & (got[:, -1] > 1)
        assert halved.any(), "no row kept a halved TBT above 1"
        assert ((got[:, -1] == 1) & (clipped > 1)).any()
        assert live._batch_valid_matrix(got).all()
        for s in _as_settings(rows[:40]):
            values = s.to_dict()
            assert _row(live.repair_full(values)) == _row(old.repair_full(values))

    def test_repair(self, spaces):
        live, old = spaces
        rows = _rows(live, 4)
        want = [_row(old.repair(s.to_dict())) for s in _as_settings(rows)]
        assert [tuple(r) for r in live.repair_matrix(rows).tolist()] == want

    def test_decode(self, spaces):
        live, old = spaces
        rng = np.random.default_rng(5)
        cards = [live.param(n).cardinality for n in TEMPORAL_ORDER]
        idx = rng.integers(-1, np.array(cards) + 1, size=(N_ROWS, len(cards)))
        got = live.decode_matrix(idx)
        assert [tuple(r) for r in got.tolist()] == [_row(old.decode(i)) for i in idx]
        assert _row(live.decode(idx[0])) == _row(old.decode(idx[0]))

    def test_encode(self, spaces):
        live, old = spaces
        for s in live.sample(np.random.default_rng(6), 20):
            assert live.encode(s).tolist() == old.encode(s).tolist()

    @pytest.mark.parametrize("unique", [True, False])
    def test_sample_draws_the_reference_stream(self, spaces, unique):
        live, old = spaces
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = live.sample(a, 60, unique=unique)
        want = old.sample(b, 60, unique=unique)
        assert [_row(s) for s in got] == [_row(s) for s in want]
        assert a.bit_generator.state == b.bit_generator.state
        assert _row(live.random_setting(a)) == _row(old.random_setting(b))
        assert a.bit_generator.state == b.bit_generator.state

    def test_sample_skips_duplicates_as_the_reference(self):
        """A tiny space repeats itself: rounds of draws must skip the
        repeats, and give up after ``n * max_tries_factor`` draws, where
        the per-call loop does."""
        pattern = StencilPattern(
            name="tiny", grid=(4, 4, 4), order=1, flops=12, io_arrays=2,
            shape=StencilShape.STAR, outputs=1, coefficients=4,
        )
        base = build_space(pattern, A100, max_factor=1)
        live, old = TemporalSpace(base), ref.TemporalSpace(base)
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = live.sample(a, 50)
        assert [_row(s) for s in got] == [_row(s) for s in old.sample(b, 50)]
        assert a.bit_generator.state == b.bit_generator.state
        with pytest.raises(SearchError) as live_err:
            live.sample(a, 400, max_tries_factor=1)
        with pytest.raises(SearchError) as old_err:
            old.sample(b, 400, max_tries_factor=1)
        assert str(live_err.value) == str(old_err.value)
        assert a.bit_generator.state == b.bit_generator.state

    def test_neighbors(self, spaces):
        live, old = spaces
        for s in live.sample(np.random.default_rng(8), 10):
            assert live.neighbors(s) == old.neighbors(s)


@pytest.fixture(scope="module")
def stream(small_space):
    """A seeded evaluation order over the small stencil: valid settings
    with repeats, and invalid rows (``TBT`` > 1 without streaming)."""
    space = TemporalSpace(small_space)
    rng = np.random.default_rng(9)
    valid = space.sample(rng, 40)
    rows = _rows(space, 10)
    invalid = [s for s in _as_settings(rows) if not space.is_valid(s)][:15]
    order = rng.permutation(len(valid) + len(invalid) + 10)
    pool = valid + invalid + valid[:10]
    return [pool[i] for i in order.tolist()]


def _pair(seed: int = 3):
    live = TemporalSimulator(device=A100, seed=seed)
    old = ref.TemporalSimulator(GpuSimulator(device=A100), seed=seed)
    return live, old


class TestSimulator:
    def test_runs_match_the_reference(self, small_pattern, stream):
        live, old = _pair()
        for s in stream:
            try:
                want = old.run(small_pattern, s)
            except InvalidSettingError:
                with pytest.raises(InvalidSettingError):
                    live.run(small_pattern, s)
                continue
            got = live.run(small_pattern, s)
            assert _row(got.setting) == _row(s)
            assert (got.time_s, got.true_time_s, got.tuning_cost_s) == (
                want.time_s, want.true_time_s, want.tuning_cost_s
            )
            assert list(got.metrics.items()) == list(want.metrics.items())
            assert live.evaluations == old.evaluations

    def test_batch_matches_the_reference_loop(self, small_pattern, stream):
        live, old = _pair(seed=4)
        got = live.run_batch(small_pattern, stream, on_invalid="skip")
        for s, run in zip(stream, got):
            try:
                want = old.run(small_pattern, s)
            except InvalidSettingError:
                assert run is None
                continue
            assert run is not None
            assert (run.time_s, run.true_time_s, run.tuning_cost_s) == (
                want.time_s, want.true_time_s, want.tuning_cost_s
            )
            assert run.metrics["temporal_blocking_factor"] == s[TEMPORAL_PARAMETER]
        assert live.evaluations == old.evaluations > 0
        assert None in got

    def test_true_times_and_violations(self, small_pattern, stream):
        live, old = _pair()
        got = live.true_time_batch(small_pattern, stream, invalid="nan")
        for s, t in zip(stream, got.tolist()):
            assert live.violation(small_pattern, s) == old.violation(small_pattern, s)
            try:
                assert t == old.true_time(small_pattern, s)
            except InvalidSettingError:
                assert math.isnan(t)

    def test_cache_is_keyed_by_all_twenty_values(self, small_pattern, stream):
        live, _ = _pair()
        s = next(
            s for s in stream
            if s[TEMPORAL_PARAMETER] > 1 and live.violation(small_pattern, s) is None
        )
        (s1,) = settings_from_matrix(
            np.array([_row(s)[:-1] + (1,)]), TEMPORAL_ORDER
        )
        t_fused = live.true_time(small_pattern, s)
        assert live.true_time(small_pattern, s1) != t_fused
        assert live.cache_info()["size"] == 2
        # The compile record too: each TBT is its own kernel variant.
        costs = [r.tuning_cost_s - r.true_time_s * live.trials
                 for r in live.run_batch(small_pattern, [s, s1, s])]
        assert costs[0] == pytest.approx(live.compile_cost_s)
        assert costs[1] == pytest.approx(live.compile_cost_s)
        assert costs[2] == pytest.approx(0.0)
