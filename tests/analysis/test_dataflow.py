"""Dataflow/memory analyzer tests: MEM4xx bounds, MODEL4xx
cross-validation, and soundness of the static roofline lower bound."""

import dataclasses

import pytest

from repro.analysis.dataflow import (
    DataflowSummary,
    analyze_dataflow,
    static_bank_conflict_degree,
    static_gld_bound,
    static_lower_bound_s,
    static_occupancy_bound,
)
from repro.codegen.plan import build_plan
from repro.gpusim.model import compute_occupancy, compute_timing, compute_traffic
from repro.gpusim.noise import min_roughness_factor, roughness_factors
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from repro.utils.rng import rng_from_seed

pytestmark = pytest.mark.analysis


def _sample(pattern, device, n=24, seed=0):
    space = build_space(pattern, device)
    return space.sample(rng_from_seed(seed), n)


class TestStaticBounds:
    def test_gld_bound_coalesced(self):
        assert static_gld_bound(tbx=32, stride=1) == 1.0

    def test_gld_bound_strided(self):
        assert static_gld_bound(tbx=32, stride=2) == 0.5
        assert static_gld_bound(tbx=32, stride=8) == 0.25

    def test_gld_bound_narrow_block(self):
        assert static_gld_bound(tbx=1, stride=1) == 0.25
        assert static_gld_bound(tbx=2, stride=1) == 0.5

    def test_gld_bound_floor(self):
        # 8-byte elements can waste at most one 32-byte sector: 1/4.
        assert static_gld_bound(tbx=1, stride=8) == 0.25

    def test_bank_degree(self):
        assert static_bank_conflict_degree(False, 8) == 1
        assert static_bank_conflict_degree(True, 1) == 1
        assert static_bank_conflict_degree(True, 2) == 2
        assert static_bank_conflict_degree(True, 16) == 4

    def test_occupancy_bound_matches_model(self, a100, v100):
        # The static bound restates the occupancy calculator; for
        # sampled plans the two must agree exactly (tightness).
        for device in (a100, v100):
            pattern = get_stencil("j3d7pt")
            for setting in _sample(pattern, device, n=16):
                plan = build_plan(pattern, setting)
                occ = compute_occupancy(plan, device)
                bound = static_occupancy_bound(
                    plan.threads_per_block,
                    plan.registers_per_thread,
                    plan.shared_memory_per_block,
                    device,
                )
                assert bound.blocks_per_sm == occ.blocks_per_sm


class TestLowerBoundSoundness:
    @pytest.mark.parametrize("stencil", ["j3d7pt", "cheby", "hypterm"])
    def test_model_never_beats_bound(self, stencil, a100, v100):
        for device in (a100, v100):
            pattern = get_stencil(stencil)
            for setting in _sample(pattern, device, n=24, seed=5):
                plan = build_plan(pattern, setting)
                occ = compute_occupancy(plan, device)
                if occ.blocks_per_sm < 1:
                    continue
                traffic = compute_traffic(plan, device)
                timing = compute_timing(plan, device, traffic, occ)
                summary, _ = analyze_dataflow(pattern, setting, device)
                lb = summary.lower_bound_s
                assert lb is not None
                assert timing.total_s >= lb * (1 - 1e-9)

    def test_perturbed_bound_holds(self, a100):
        # lb * min_roughness_factor() bounds the roughness-scaled time
        # the simulator reports.
        pattern = get_stencil("j3d7pt")
        for setting in _sample(pattern, a100, n=24, seed=9):
            plan = build_plan(pattern, setting)
            occ = compute_occupancy(plan, a100)
            if occ.blocks_per_sm < 1:
                continue
            traffic = compute_traffic(plan, a100)
            timing = compute_timing(plan, a100, traffic, occ)
            true_time = timing.total_s * roughness_factors(
                a100.name, pattern.name, [setting.values_tuple()]
            )[0]
            lb = static_lower_bound_s(
                pattern, setting, a100,
                static_gld_bound(setting["TBx"], setting["BMx"]),
            )
            assert true_time >= lb * min_roughness_factor() * (1 - 1e-9)

    def test_min_roughness_is_a_floor(self, a100):
        pattern = get_stencil("cheby")
        floor = min_roughness_factor()
        rows = [s.values_tuple() for s in _sample(pattern, a100, n=32, seed=2)]
        assert min(roughness_factors(a100.name, pattern.name, rows)) >= floor


class TestDiagnostics:
    def test_clean_on_sampled_suite_settings(self, a100):
        # The acceptance surface: no ERROR findings on valid settings.
        pattern = get_stencil("j3d27pt")
        for setting in _sample(pattern, a100, n=16):
            _, diags = analyze_dataflow(pattern, setting, a100)
            assert not [d for d in diags if d.severity.value == "error"], [
                d.render() for d in diags
            ]

    def test_strided_setting_warns_mem401(self, a100):
        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, a100)
        strided = next(
            s for s in space.sample(rng_from_seed(1), 64) if s["BMx"] > 1
        )
        summary, diags = analyze_dataflow(pattern, strided, a100)
        assert summary.coalescing_class.startswith("strided(")
        assert any(d.rule_id == "MEM401" for d in diags)

    def test_narrow_block_warns_mem402(self, a100):
        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, a100)
        narrow = next(
            s for s in space.sample(rng_from_seed(1), 64) if s["TBx"] < 4
        )
        summary, diags = analyze_dataflow(pattern, narrow, a100)
        assert summary.sector_fraction < 1.0
        assert any(d.rule_id == "MEM402" for d in diags)

    def test_model_drift_raises_model4xx(self, a100, monkeypatch):
        # Corrupt the model's load efficiency upward: the static
        # coalescing bound must catch the drift as MODEL412.
        import repro.analysis.dataflow as dataflow_mod

        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, a100)
        strided = next(
            s for s in space.sample(rng_from_seed(1), 64) if s["BMx"] > 1
        )
        real = compute_traffic(build_plan(pattern, strided), a100)
        fake = dataclasses.replace(real, gld_efficiency=1.0)
        monkeypatch.setattr(
            dataflow_mod, "compute_traffic", lambda plan, device: fake
        )
        _, diags = analyze_dataflow(pattern, strided, a100)
        assert any(d.rule_id == "MODEL412" for d in diags)

    def test_summary_fields_populated(self, a100):
        pattern = get_stencil("j3d7pt")
        setting = _sample(pattern, a100, n=1)[0]
        summary, _ = analyze_dataflow(pattern, setting, a100)
        assert isinstance(summary, DataflowSummary)
        assert 0.25 <= summary.gld_bound <= 1.0
        assert summary.register_bound >= 22
        assert summary.bank_conflict_degree in (1, 2, 4)
        assert summary.occupancy.limiter in (
            "threads", "blocks", "registers", "shared_memory"
        )
