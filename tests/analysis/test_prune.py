"""Static pre-pruning tests: soundness (the optimum survives), scalar/
batch agreement, SearchSpace wiring, and off-path identity."""

import numpy as np
import pytest

from repro.analysis.prune import (
    StaticPruner,
    build_pruner,
    static_blocks_per_sm,
    static_lower_bounds_s,
)
from repro.codegen.plan import build_plan, build_plan_arrays
from repro.gpusim.model import compute_occupancy
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import get_stencil
from repro.utils.rng import rng_from_seed

pytestmark = pytest.mark.analysis


@pytest.fixture(scope="module")
def j3d7pt():
    return get_stencil("j3d7pt")


class TestVectorizedBounds:
    def test_static_blocks_match_model(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100)
        settings = space.sample(rng_from_seed(0), 64)
        values = settings_matrix(settings)
        static = static_blocks_per_sm(j3d7pt, a100, values)
        for i, setting in enumerate(settings):
            occ = compute_occupancy(build_plan(j3d7pt, setting), a100)
            assert static[i] == occ.blocks_per_sm

    def test_batch_bounds_match_scalar_dataflow(self, j3d7pt, a100):
        from repro.analysis.dataflow import (
            static_gld_bound,
            static_lower_bound_s,
        )

        space = build_space(j3d7pt, a100)
        settings = space.sample(rng_from_seed(1), 32)
        values = settings_matrix(settings)
        batch = static_lower_bounds_s(j3d7pt, a100, values)
        for i, setting in enumerate(settings):
            gld = static_gld_bound(setting["TBx"], setting["BMx"])
            scalar = static_lower_bound_s(j3d7pt, setting, a100, gld)
            assert batch[i] == pytest.approx(scalar, rel=1e-12)


class TestPrunerSoundness:
    @pytest.mark.parametrize("stencil", ["j3d7pt", "cheby"])
    def test_optimum_survives(self, stencil, a100):
        pattern = get_stencil(stencil)
        space = build_space(pattern, a100)
        pruner = build_pruner(space, a100, probes=32, seed=0)
        settings = space.sample(rng_from_seed(7), 150)
        mask = pruner.dominated_mask(settings_matrix(settings))
        sim = GpuSimulator(a100)
        times = sim.true_time_batch(pattern, settings)
        assert not mask.all()
        assert times[~mask].min() == times.min()

    def test_pruned_settings_really_lose(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100)
        pruner = build_pruner(space, a100, probes=32, seed=0)
        settings = space.sample(rng_from_seed(11), 100)
        values = settings_matrix(settings)
        mask = pruner.dominated_mask(values)
        launchable = static_blocks_per_sm(j3d7pt, a100, values) >= 1
        sim = GpuSimulator(a100)
        pruned_launchable = [
            s
            for s, cut, ok in zip(settings, mask.tolist(), launchable.tolist())
            if cut and ok
        ]
        if pruned_launchable:
            times = sim.true_time_batch(j3d7pt, pruned_launchable)
            assert (times > pruner.ref_time_s).all()

    def test_scalar_violation_agrees_with_mask(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100)
        pruner = build_pruner(space, a100, probes=32, seed=0)
        settings = space.sample(rng_from_seed(13), 60)
        mask = pruner.dominated_mask(settings_matrix(settings))
        for setting, cut in zip(settings, mask.tolist()):
            assert (pruner.violation(setting) is not None) == cut

    def test_margin_loosens_pruning(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100)
        tight = build_pruner(space, a100, probes=32, seed=0, margin=1.0)
        loose = build_pruner(space, a100, probes=32, seed=0, margin=2.0)
        settings = space.sample(rng_from_seed(17), 100)
        values = settings_matrix(settings)
        mask_tight = tight.dominated_mask(values)
        mask_loose = loose.dominated_mask(values)
        # Everything loose prunes, tight prunes too (loose ⊆ tight).
        assert not (mask_loose & ~mask_tight).any()

    def test_stats_accumulate(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100)
        pruner = build_pruner(space, a100, probes=16, seed=0)
        settings = space.sample(rng_from_seed(19), 40)
        mask = pruner.dominated_mask(settings_matrix(settings))
        assert pruner.screened == 40
        assert pruner.pruned == int(mask.sum())


class TestSpaceWiring:
    def test_off_path_identical(self, j3d7pt, a100):
        # Without prune_static the space samples exactly as before.
        plain = build_space(j3d7pt, a100)
        default = build_space(j3d7pt, a100, prune_static=False)
        assert default.static_pruner is None
        a = plain.sample(rng_from_seed(3), 40)
        b = default.sample(rng_from_seed(3), 40)
        assert a == b

    def test_pruned_space_rejects_dominated(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100, prune_static=True, prune_probes=32)
        assert space.static_pruner is not None
        settings = build_space(j3d7pt, a100).sample(rng_from_seed(5), 100)
        mask = space.static_pruner.dominated_mask(settings_matrix(settings))
        assert mask.any()
        for setting, cut in zip(settings, mask.tolist()):
            if cut:
                assert not space.is_valid(setting)
                assert "statically" in space.violation(setting)

    def test_sampled_settings_all_survive_pruner(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100, prune_static=True, prune_probes=32)
        settings = space.sample(rng_from_seed(23), 30)
        mask = space.static_pruner.dominated_mask(settings_matrix(settings))
        assert not mask.any()

    def test_batch_and_scalar_validity_agree(self, j3d7pt, a100):
        space = build_space(j3d7pt, a100, prune_static=True, prune_probes=32)
        candidates = build_space(j3d7pt, a100).sample(rng_from_seed(29), 60)
        batch = space._batch_valid(candidates)
        scalar = np.array([space.is_valid(s) for s in candidates])
        np.testing.assert_array_equal(batch, scalar)

    def test_prune_static_requires_device(self, j3d7pt):
        with pytest.raises(ValueError, match="requires a device"):
            build_space(j3d7pt, None, prune_static=True)

    def test_pruner_deterministic(self, j3d7pt, a100):
        p1 = build_space(j3d7pt, a100, prune_static=True).static_pruner
        p2 = build_space(j3d7pt, a100, prune_static=True).static_pruner
        assert p1.ref_time_s == p2.ref_time_s


class TestUnlaunchable:
    def test_unlaunchable_construction_pruned(self, j3d7pt, a100):
        # A setting passing the resource check can still be granted
        # zero resident blocks by allocation granularity; the pruner
        # must reject it (the simulator would raise).
        pruner = StaticPruner(
            pattern=j3d7pt, device=a100, ref_time_s=np.inf
        )
        space = build_space(j3d7pt, a100)
        settings = space.sample(rng_from_seed(31), 200)
        values = settings_matrix(settings)
        arrays = build_plan_arrays(j3d7pt, values)
        mask = pruner.dominated_mask(values, arrays)
        unlaunchable = static_blocks_per_sm(j3d7pt, a100, values, arrays) < 1
        np.testing.assert_array_equal(mask, unlaunchable)
