"""Constraint-prover tests: satisfiability, dead values, determinism,
and agreement with the space's own batched validity check."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.prover import (
    _valid_mask,
    prove_space,
    targeted_candidates,
)
from repro.gpusim.device import A100
from repro.space.setting import Setting
from repro.space.space import PARAMETER_ORDER, build_space
from repro.stencil.suite import get_stencil
from repro.utils.rng import rng_from_seed

pytestmark = pytest.mark.analysis

#: One register per thread is below the 22-register kernel base, so every
#: setting spills: a device whose space rejects everything.
NO_REGISTERS = dataclasses.replace(A100, max_regs_per_thread=1)


def _tiny_space(pattern, device):
    """A space small enough for the prover's exhaustive mode (~12k)."""
    from repro.space.parameters import build_parameters
    from repro.space.space import SearchSpace

    params = build_parameters(
        pattern, max_tb_xy=4, max_tb_z=2, max_factor=1
    )
    return SearchSpace(pattern, params, resource_device=device)


class TestExhaustive:
    def test_small_space_proved_exhaustively(self, small_pattern, a100):
        space = _tiny_space(small_pattern, a100)
        assert space.nominal_size() <= 1 << 17
        result, diags = prove_space(space, a100)
        assert result.exhaustive
        assert result.satisfiable
        assert result.probes >= space.nominal_size()
        assert 0 < result.valid_probes <= result.probes
        assert not any(d.rule_id == "SPACE301" for d in diags)

    def test_batch_mask_matches_scalar_validity(self, small_pattern, a100):
        # The prover's vectorized mask must agree with the space's own
        # scalar is_valid on arbitrary samples from the full space.
        space = build_space(small_pattern, a100, max_factor=16)
        rng = rng_from_seed(3)
        drawn = space.sample(rng, 200, unique=True)
        values = np.array(
            [[s[p] for p in PARAMETER_ORDER] for s in drawn], dtype=np.int64
        )
        mask = _valid_mask(space, a100, values)
        scalar = np.array([space.is_valid(s) for s in drawn])
        np.testing.assert_array_equal(mask, scalar)

    def test_dead_values_are_really_dead(self, small_pattern, a100):
        space = _tiny_space(small_pattern, a100)
        result, _ = prove_space(space, a100)
        # Exhaustive proof: a dead value must have zero valid witnesses.
        for param, value in result.dead_values:
            rng = rng_from_seed(11)
            for s in space.sample(rng, 50):
                forced = Setting({**s.to_dict(), param: value})
                assert not space.is_valid(forced), (param, value, forced)


class TestStratified:
    @pytest.fixture(scope="class")
    def proof(self):
        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, A100)
        return prove_space(space, A100)

    def test_large_space_is_satisfiable(self, proof):
        result, diags = proof
        assert not result.exhaustive
        assert result.satisfiable
        assert not any(d.rule_id == "SPACE301" for d in diags)

    def test_oversized_tb_is_dead(self, proof):
        # TBx=1024 exceeds the 512-point grid extent, so no witness
        # setting exists and the prover must flag the value as dead.
        result, _ = proof
        assert ("TBx", 1024) in result.dead_values

    def test_dead_values_sorted_and_deterministic(self, proof):
        result, diags = proof
        assert result.dead_values == sorted(result.dead_values)
        pattern = get_stencil("j3d7pt")
        space = build_space(pattern, A100)
        again, _ = prove_space(space, A100)
        assert again.dead_values == result.dead_values
        assert again.redundant_constraints == result.redundant_constraints

    def test_dead_values_reported_as_info(self, proof):
        result, diags = proof
        dead_diags = [d for d in diags if d.rule_id == "SPACE302"]
        assert len(dead_diags) == len(result.dead_values)
        assert all(d.severity.value == "info" for d in dead_diags)


class TestTargetedCandidates:
    def test_candidates_pin_the_value(self, small_pattern, a100):
        space = build_space(small_pattern, a100, max_factor=16)
        idx = PARAMETER_ORDER.index("TBy")
        cands = targeted_candidates(space, "TBy", 64)
        assert cands.shape[1] == len(PARAMETER_ORDER)
        assert (cands[:, idx] == 64).all()

    def test_candidates_cover_switch_combinations(self, small_pattern, a100):
        space = build_space(small_pattern, a100, max_factor=16)
        cands = targeted_candidates(space, "UFx", 2)
        shared = PARAMETER_ORDER.index("useShared")
        streaming = PARAMETER_ORDER.index("useStreaming")
        assert set(cands[:, shared].tolist()) == {1, 2}
        assert set(cands[:, streaming].tolist()) == {1, 2}


class TestEdgeCases:
    """Untested prover paths: no constraints, contradictions, dead spaces."""

    def _tiny_params(self, pattern):
        from repro.space.parameters import build_parameters

        return build_parameters(pattern, max_tb_xy=4, max_tb_z=2, max_factor=1)

    def test_empty_constraint_set(self, small_pattern):
        # No resource check and no device: only domain + explicit
        # constraints apply, and the proof must still close (exhaustive,
        # satisfiable, no SPACE301).
        from repro.space.space import SearchSpace

        space = SearchSpace(small_pattern, self._tiny_params(small_pattern))
        assert space.nominal_size() <= 1 << 17
        result, diags = prove_space(space, None)
        assert result.exhaustive
        assert result.satisfiable
        assert not any(d.rule_id == "SPACE301" for d in diags)

    def test_contradictory_constraints_exhaustive(self, small_pattern):
        # A device on which every setting spills makes every point
        # invalid: SPACE301 fires and every value is dead.
        from repro.space.space import SearchSpace

        space = SearchSpace(
            small_pattern,
            self._tiny_params(small_pattern),
            resource_device=NO_REGISTERS,
        )
        result, diags = prove_space(space, None)
        assert result.exhaustive
        assert not result.satisfiable
        space301 = [d for d in diags if d.rule_id == "SPACE301"]
        assert len(space301) == 1
        assert space301[0].severity.value == "error"
        all_values = {
            (name, int(v))
            for name in PARAMETER_ORDER
            for v in space.param(name).values
        }
        assert set(result.dead_values) == all_values

    def test_all_points_invalid_stratified(self, small_pattern):
        # Large space + always-spilling device: the sampler dead-
        # ends (SearchError swallowed), every targeted witness fails,
        # and the stratified proof reports unsatisfiability.
        from repro.space.parameters import build_parameters
        from repro.space.space import SearchSpace

        space = SearchSpace(
            small_pattern,
            build_parameters(small_pattern),
            resource_device=NO_REGISTERS,
        )
        assert space.nominal_size() > 1 << 17
        result, diags = prove_space(space, None)
        assert not result.exhaustive
        assert not result.satisfiable
        msgs = [d for d in diags if d.rule_id == "SPACE301"]
        assert len(msgs) == 1
        assert "no witness found" in msgs[0].message

    def test_contradiction_diagnostics_deterministic(self, small_pattern):
        from repro.space.space import SearchSpace

        def run():
            space = SearchSpace(
                small_pattern,
                self._tiny_params(small_pattern),
                resource_device=NO_REGISTERS,
            )
            result, diags = prove_space(space, None)
            return result.dead_values, [d.render() for d in diags]

        assert run() == run()
