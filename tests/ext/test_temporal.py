"""Tests for the temporal-blocking extension."""

import pytest

from repro.errors import InvalidSettingError
from repro.ext import TEMPORAL_PARAMETER, TemporalSimulator, TemporalSpace
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import Setting


@pytest.fixture(scope="module")
def tspace(request):
    base = request.getfixturevalue("small_space")
    return TemporalSpace(base)


@pytest.fixture(scope="module")
def tsim():
    return TemporalSimulator(noise=0.0)


def streaming_setting(tspace, rng, tbt=1):
    """A valid extended setting with streaming enabled."""
    for _ in range(200):
        s = tspace.random_setting(rng)
        if s.enabled("useStreaming"):
            cand = Setting({**s.to_dict(), TEMPORAL_PARAMETER: tbt})
            if tspace.is_valid(cand):
                return cand
    pytest.skip("no streaming setting found")


class TestTemporalSpace:
    def test_twenty_parameters(self, tspace):
        assert len(tspace.names) == 20
        assert tspace.names[-1] == TEMPORAL_PARAMETER

    def test_nominal_size_scales(self, tspace):
        assert tspace.nominal_size() == tspace.base.nominal_size() * 4

    def test_random_settings_valid(self, tspace, rng):
        for _ in range(30):
            s = tspace.random_setting(rng)
            assert tspace.violation(s) is None
            assert TEMPORAL_PARAMETER in s

    def test_temporal_requires_streaming(self, tspace, rng):
        base = tspace.base.random_setting(rng)
        if base.enabled("useStreaming"):
            base = tspace.base.repair(
                {**base.to_dict(), "useStreaming": 1}
            )
        s = Setting({**base.to_dict(), TEMPORAL_PARAMETER: 2})
        assert "requires streaming" in (tspace.violation(s) or "")

    def test_repair_gates_tbt(self, tspace, rng):
        base = tspace.base.repair(
            {**tspace.base.random_setting(rng).to_dict(), "useStreaming": 1}
        )
        s = tspace.repair({**base.to_dict(), TEMPORAL_PARAMETER: 8})
        assert s[TEMPORAL_PARAMETER] == 1

    def test_encode_decode_roundtrip(self, tspace, rng):
        s = tspace.random_setting(rng)
        assert tspace.decode(tspace.encode(s)) == s

    def test_sample_unique(self, tspace, rng):
        out = tspace.sample(rng, 20)
        assert len(set(out)) == 20

    def test_neighbors_valid(self, tspace, rng):
        s = tspace.random_setting(rng)
        for n in tspace.neighbors(s):
            assert tspace.is_valid(n)
            assert n != s


class TestTemporalSimulator:
    def test_tbt1_matches_base_shape(self, tsim, small_pattern, tspace, rng):
        s = streaming_setting(tspace, rng, tbt=1)
        t_ext = tsim.true_time(small_pattern, s)
        base_setting = Setting(
            {k: v for k, v in s.items() if k != TEMPORAL_PARAMETER}
        )
        t_base = GpuSimulator(noise=0.0).true_time(small_pattern, base_setting)
        # Different roughness keys, same physics: within the roughness band.
        assert t_ext == pytest.approx(t_base, rel=0.2)

    def test_memory_bound_stencil_benefits(self, tsim, small_pattern, tspace, rng):
        """For a memory-bound stencil, fusing steps amortizes traffic:
        some streaming setting must get faster per step with TBT=4."""
        improved = 0
        tried = 0
        for _ in range(60):
            s1 = streaming_setting(tspace, rng, tbt=1)
            s4 = Setting({**s1.to_dict(), TEMPORAL_PARAMETER: 4})
            if not tspace.is_valid(s4):
                continue
            tried += 1
            if tsim.true_time(small_pattern, s4) < tsim.true_time(small_pattern, s1):
                improved += 1
        assert tried >= 5
        assert improved > 0

    def test_invalid_raises(self, tsim, small_pattern, tspace, rng):
        base = tspace.base.repair(
            {**tspace.base.random_setting(rng).to_dict(), "useStreaming": 1}
        )
        s = Setting({**base.to_dict(), TEMPORAL_PARAMETER: 4})
        with pytest.raises(InvalidSettingError):
            tsim.true_time(small_pattern, s)

    def test_metrics_report_tbt(self, tsim, small_pattern, tspace, rng):
        s = streaming_setting(tspace, rng, tbt=2)
        run = tsim.run(small_pattern, s)
        assert run.metrics["temporal_blocking_factor"] == 2.0


class TestTunerOnExtendedSpace:
    def test_cstuner_tunes_20_parameters(self, small_pattern, tspace):
        from repro.core import Budget, CsTuner, CsTunerConfig
        from repro.core.sampling import SamplingConfig

        sim = TemporalSimulator(noise=0.0)
        tuner = CsTuner(sim, CsTunerConfig(
            dataset_size=32, probe_limit=3,
            sampling=SamplingConfig(ratio=0.2, pool_size=120),
            seed=0,
        ))
        res = tuner.tune(
            small_pattern, Budget(max_iterations=10), space=tspace
        )
        assert res.best_setting is not None
        assert TEMPORAL_PARAMETER in res.best_setting
        flat = {p for g in res.meta["groups"] for p in g}
        assert TEMPORAL_PARAMETER in flat  # the new knob joined the pipeline
