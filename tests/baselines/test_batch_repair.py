"""Batch-repair helpers of the Garvey/Artemis baselines.

Both baselines sweep candidate dicts that differ from a base setting in
one column block; the helpers lower each sweep to a single
``repair_full_matrix`` call. Candidate-for-candidate identity with the
scalar ``repair_full`` loop is the contract.
"""

import pytest

from repro.baselines.artemis import LEVELS, _NEUTRAL, ArtemisTuner
from repro.baselines.garvey import DIMENSION_GROUPS, GarveyTuner
from repro.core.reindex import build_group_indexes
from repro.space.setting import settings_matrix


class TestGarveySweep:
    def test_matches_scalar_repair(self, small_space, rng):
        sampled = small_space.sample(rng, 40)
        indexes = build_group_indexes(
            DIMENSION_GROUPS, settings_matrix(sampled), small_space.names
        )
        current = dict(sampled[0].to_dict())
        memory = {"useShared": 2, "useConstant": 1}
        for gi in indexes:
            sweep = GarveyTuner._repair_sweep(small_space, gi, current, memory)
            assert len(sweep) == len(gi)
            for idx, got in enumerate(sweep):
                vals = dict(current)
                vals.update(gi.decode(idx))
                vals.update(memory)
                assert got == small_space.repair_full(vals), (gi.group, idx)


class TestArtemisLevels:
    @pytest.mark.parametrize("level_name,level_fn", LEVELS)
    def test_matches_scalar_repair(self, small_space, level_name, level_fn):
        updates = level_fn()
        repaired = ArtemisTuner._repair_level(small_space, dict(_NEUTRAL), updates)
        assert len(repaired) == len(updates)
        for update, got in zip(updates, repaired):
            vals = dict(_NEUTRAL)
            vals.update(update)
            assert got == small_space.repair_full(vals), (level_name, update)
