"""Unit tests for landscape roughness."""

import numpy as np
import pytest

from repro.gpusim import noise
from repro.gpusim.device import A100, V100
from repro.gpusim.noise import INTERACTION_PAIRS, roughness_factor, roughness_factors
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting
from repro.space.space import build_space
from repro.stencil.suite import get_stencil, suite_names


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


class TestRoughness:
    def test_deterministic(self):
        s = setting()
        assert roughness_factor("A100", "j3d7pt", s) == roughness_factor(
            "A100", "j3d7pt", s
        )

    def test_bounded(self):
        import numpy as np

        rngless = [
            roughness_factor("A100", "j3d7pt", setting(TBx=tbx, UFy=uf))
            for tbx in (1, 2, 4, 8, 16, 32)
            for uf in (1, 2, 4, 8)
        ]
        assert all(0.80 < f < 1.25 for f in rngless)
        assert np.std(rngless) > 0  # genuinely varies

    def test_depends_on_device_and_stencil(self):
        s = setting()
        assert roughness_factor("A100", "j3d7pt", s) != roughness_factor(
            "V100", "j3d7pt", s
        )
        assert roughness_factor("A100", "j3d7pt", s) != roughness_factor(
            "A100", "cheby", s
        )

    def test_interaction_pairs_reference_real_parameters(self):
        for a, b in INTERACTION_PAIRS:
            assert a in PARAMETER_ORDER and b in PARAMETER_ORDER

    def test_pair_interaction_changes_with_pair_values(self):
        """Changing one member of an interaction pair moves the factor."""
        a = roughness_factor("A100", "x", setting(UFx=1, BMx=1))
        b = roughness_factor("A100", "x", setting(UFx=2, BMx=1))
        assert a != b


@pytest.mark.parametrize("device", [A100, V100], ids=lambda d: d.name)
def test_scalar_and_batch_share_pair_terms(device, monkeypatch):
    """Either function may fill the pair-term memo; both read the same."""
    monkeypatch.setattr(noise, "_PAIR_TERM_CACHE", {})
    for name in suite_names():
        settings = build_space(get_stencil(name), device).sample(
            np.random.default_rng(5), 60
        )
        first, second = settings[:30], settings[30:]
        # Scalar calls on a cold memo, batch rows on the memo they warmed.
        cold_scalar = [roughness_factor(device.name, name, s) for s in first]
        assert roughness_factors(device.name, name, first).tolist() == cold_scalar
        # Batch rows on a cold memo, scalar calls on the memo they warmed.
        noise._PAIR_TERM_CACHE.clear()
        cold_batch = roughness_factors(device.name, name, second).tolist()
        assert [roughness_factor(device.name, name, s) for s in second] == cold_batch


class TestBatchEdges:
    """The one ``np.unique`` over every pair's packed keys."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self, monkeypatch):
        monkeypatch.setattr(noise, "_PAIR_TERM_CACHE", {})

    def test_empty_batch(self):
        assert roughness_factors("A100", "j3d7pt", []).shape == (0,)

    def test_single_setting(self):
        s = setting(UFx=2, BMx=4)
        assert roughness_factors("A100", "j3d7pt", [s]).tolist() == [
            roughness_factor("A100", "j3d7pt", s)
        ]

    def test_one_value_pair_under_two_pairs(self):
        """(4, 4) is both (TBx, TBy) and (TBy, TBz): two different terms."""
        s = setting(TBx=4, TBy=4, TBz=4)
        terms = noise._PAIR_TERM_CACHE
        batch = roughness_factors("A100", "j3d7pt", [s, setting()])
        assert batch[0] == roughness_factor("A100", "j3d7pt", s)
        memo = terms[("A100", "j3d7pt")]
        assert memo[(0, 4, 4)] != memo[(1, 4, 4)]
