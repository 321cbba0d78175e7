"""Strict-gate and CLI tests: the simulator's pre-run gate rejects
broken emissions before any state mutates, and the `repro analyze`
entry point exits clean on healthy stencils."""

import numpy as np
import pytest

import repro.analysis.gate as gate_mod
from repro.analysis.gate import (
    DEFAULT_STRICT_EVERY,
    analyze_kernel,
    analyze_stencil,
    gate_selected,
    strict_gate,
)
from repro.analysis.diagnostics import AnalysisError
from repro.codegen.plan import build_plan
from repro.gpusim.simulator import GpuSimulator

pytestmark = pytest.mark.analysis


@pytest.fixture(autouse=True)
def clear_gate_cache():
    gate_mod._gate_cache.clear()
    yield
    gate_mod._gate_cache.clear()


class TestGateSelection:
    def test_every_one_selects_all(self, small_space, rng):
        for s in small_space.sample(rng, 10):
            assert gate_selected("test3d", s, 1)
            assert gate_selected("test3d", s, 0)

    def test_selection_is_deterministic(self, small_space, rng):
        settings = small_space.sample(rng, 50)
        first = [gate_selected("test3d", s, 8) for s in settings]
        again = [gate_selected("test3d", s, 8) for s in settings]
        assert first == again

    def test_selection_rate_near_target(self, small_space, rng):
        settings = small_space.sample(rng, 400)
        hits = sum(gate_selected("test3d", s, 8) for s in settings)
        # Hash-based 1/8 subsampling: expect ~50 of 400, loosely.
        assert 20 <= hits <= 100


class TestStrictGate:
    def test_clean_kernel_passes(self, small_pattern, small_space, rng):
        setting = small_space.sample(rng, 1)[0]
        plan = build_plan(small_pattern, setting)
        strict_gate(small_pattern, setting, plan, every=1)

    def test_broken_emission_rejected(
        self, small_pattern, small_space, rng, monkeypatch
    ):
        setting = small_space.sample(rng, 1)[0]
        plan = build_plan(small_pattern, setting)

        from repro.codegen.cuda import generate_cuda

        source = generate_cuda(plan)
        broken = "\n".join(
            line for line in source.splitlines()
            if "__syncthreads" not in line
        )
        monkeypatch.setattr(
            gate_mod, "generate_cuda", lambda *a, **k: broken
        )
        with pytest.raises(AnalysisError) as exc:
            strict_gate(small_pattern, setting, plan, every=1)
        ids = {d.rule_id for d in exc.value.diagnostics}
        if setting["useShared"] == 2:
            assert "CUDA102" in ids
        else:
            assert ids  # degraded emission trips some rule regardless

    def test_results_are_memoized(
        self, small_pattern, small_space, rng, monkeypatch
    ):
        setting = small_space.sample(rng, 1)[0]
        plan = build_plan(small_pattern, setting)
        calls = []
        real = gate_mod.analyze_kernel

        def counting(*a, **k):
            calls.append(1)
            return real(*a, **k)

        monkeypatch.setattr(gate_mod, "analyze_kernel", counting)
        strict_gate(small_pattern, setting, plan, every=1)
        strict_gate(small_pattern, setting, plan, every=1)
        assert len(calls) == 1


class TestStrictSimulator:
    def test_strict_run_matches_loose(self, small_pattern, small_space, a100):
        from repro.utils.rng import rng_from_seed

        settings = small_space.sample(rng_from_seed(5), 20)
        loose = GpuSimulator(device=a100)
        strict = GpuSimulator(device=a100, strict=True, strict_every=1)
        t_loose = loose.true_time_batch(small_pattern, settings)
        t_strict = strict.true_time_batch(small_pattern, settings)
        np.testing.assert_array_equal(t_loose, t_strict)

    def test_strict_rejects_broken_codegen(
        self, small_pattern, small_space, a100, rng, monkeypatch
    ):
        setting = small_space.sample(rng, 1)[0]
        sim = GpuSimulator(device=a100, strict=True, strict_every=1)

        from repro.codegen.cuda import generate_cuda

        truncated = generate_cuda(build_plan(small_pattern, setting)).rstrip()[:-1]
        monkeypatch.setattr(
            gate_mod, "generate_cuda", lambda *a, **k: truncated
        )
        before = sim.cache_info()
        with pytest.raises(AnalysisError):
            sim.run(small_pattern, setting)
        # A rejected setting leaves every counter as it was.
        assert sim.cache_info() == before
        assert sim.evaluations == 0
        assert not sim.cache_contains(small_pattern, setting)

    def test_default_subsampling_rate(self):
        assert DEFAULT_STRICT_EVERY == 1024


class TestAnalyzeEntryPoints:
    def test_analyze_kernel_reports_clean(self, small_pattern, small_space, rng):
        setting = small_space.sample(rng, 1)[0]
        report = analyze_kernel(small_pattern, setting)
        assert report.ok
        assert report.passes == ["cudalint", "crosscheck"]

    def test_analyze_stencil_merges_passes(self, a100):
        from repro.stencil.suite import get_stencil

        report = analyze_stencil(get_stencil("j3d7pt"), a100, samples=4)
        assert report.ok
        assert "prover" in report.passes
        assert "cudalint" in report.passes

    def test_cli_analyze_exits_clean(self, capsys):
        from repro.cli import main

        rc = main(["analyze", "j3d7pt", "--samples", "2", "--device", "A100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "j3d7pt@A100" in out

    def test_cli_analyze_json(self, capsys):
        import json

        from repro.cli import main

        rc = main([
            "analyze", "j3d7pt", "--samples", "2", "--device", "A100", "--json"
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["ok"] is True

    def test_cli_requires_target(self, capsys):
        from repro.analysis.cli import EXIT_USAGE, main as analysis_main

        assert analysis_main([]) == EXIT_USAGE
        assert "analyze:" in capsys.readouterr().err
