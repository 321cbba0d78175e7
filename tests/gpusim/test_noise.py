"""Unit tests for landscape roughness."""

import numpy as np
import pytest

from repro.gpusim import noise
from repro.gpusim.device import A100, V100
from repro.gpusim.noise import INTERACTION_PAIRS, roughness_factors
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import Setting
from repro.space.space import build_space
from repro.stencil.suite import get_stencil, suite_names
from repro.utils.hashing import unit_hash


def setting(**kw):
    vals = {name: 1 for name in PARAMETER_ORDER}
    vals.update({"TBx": 32, "TBy": 4})
    vals.update(kw)
    return Setting(vals)


def roughness_factor(device_name, stencil_name, s):
    """The formula transcribed without the memo: the setting term times
    the seven pair terms, in ``INTERACTION_PAIRS`` order."""
    u = unit_hash("setting", device_name, stencil_name, *s.values_tuple())
    factor = 1.0 + 0.06 * (u - 0.5)
    for a, b in INTERACTION_PAIRS:
        u = unit_hash("pair", device_name, stencil_name, a, s[a], b, s[b])
        factor *= 1.0 + 0.035 * (u - 0.5)
    return factor


def factors(device_name, stencil_name, settings):
    return roughness_factors(
        device_name, stencil_name, [s.values_tuple() for s in settings]
    )


class TestRoughness:
    def test_deterministic(self):
        s = setting()
        assert factors("A100", "j3d7pt", [s]) == factors("A100", "j3d7pt", [s])

    def test_bounded(self):
        grid = [
            setting(TBx=tbx, UFy=uf)
            for tbx in (1, 2, 4, 8, 16, 32)
            for uf in (1, 2, 4, 8)
        ]
        rngless = factors("A100", "j3d7pt", grid)
        assert all(0.80 < f < 1.25 for f in rngless)
        assert np.std(rngless) > 0  # genuinely varies

    def test_depends_on_device_and_stencil(self):
        s = [setting()]
        assert factors("A100", "j3d7pt", s) != factors("V100", "j3d7pt", s)
        assert factors("A100", "j3d7pt", s) != factors("A100", "cheby", s)

    def test_interaction_pairs_reference_real_parameters(self):
        for a, b in INTERACTION_PAIRS:
            assert a in PARAMETER_ORDER and b in PARAMETER_ORDER

    def test_pair_interaction_changes_with_pair_values(self):
        """Changing one member of an interaction pair moves the factor."""
        a, b = factors("A100", "x", [setting(UFx=1, BMx=1), setting(UFx=2, BMx=1)])
        assert a != b


@pytest.mark.parametrize("device", [A100, V100], ids=lambda d: d.name)
def test_scalar_and_batch_share_pair_terms(device, monkeypatch):
    """Batches on a cold memo, on the memo an earlier batch warmed and
    with keys first seen mid-batch all equal the memo-free formula."""
    monkeypatch.setattr(noise, "_PAIR_TERM_CACHE", {})
    for name in suite_names():
        settings = build_space(get_stencil(name), device).sample(
            np.random.default_rng(5), 60
        )
        want = [roughness_factor(device.name, name, s) for s in settings]
        first, second = settings[:30], settings[30:]
        assert factors(device.name, name, first) == want[:30]  # cold
        assert factors(device.name, name, second) == want[30:]  # part warm
        assert factors(device.name, name, settings) == want  # all warm
        noise._PAIR_TERM_CACHE.clear()
        assert [factors(device.name, name, [s])[0] for s in second] == want[30:]


class TestBatchEdges:
    """Batch sizes, memo states and pair keys against the formula."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self, monkeypatch):
        monkeypatch.setattr(noise, "_PAIR_TERM_CACHE", {})

    def test_empty_batch(self):
        assert roughness_factors("A100", "j3d7pt", []) == []

    def test_single_setting(self):
        s = setting(UFx=2, BMx=4)
        assert factors("A100", "j3d7pt", [s]) == [roughness_factor("A100", "j3d7pt", s)]

    def test_one_value_pair_under_two_pairs(self):
        """(4, 4) is both (TBx, TBy) and (TBy, TBz): two different terms,
        the second first met in a later row of the batch."""
        batch = [setting(TBx=4, TBy=4, TBz=1), setting(TBx=8, TBy=4, TBz=4),
                 setting(TBx=4, TBy=4, TBz=4)]
        want = [roughness_factor("A100", "j3d7pt", s) for s in batch]
        assert factors("A100", "j3d7pt", batch) == want
        tables = noise._PAIR_TERM_CACHE[("A100", "j3d7pt")]
        assert tables[0][(4, 4)] != tables[1][(4, 4)]

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 128])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_batch_sizes_match_formula(self, n, warm):
        pattern = get_stencil("addsgd4")
        settings = build_space(pattern, A100).sample(np.random.default_rng(n), n)
        if warm:
            factors(A100.name, pattern.name, settings)
        want = [roughness_factor(A100.name, pattern.name, s) for s in settings]
        assert factors(A100.name, pattern.name, settings) == want

    def test_keys_first_seen_mid_batch(self):
        """A pair key a row adds to the memo serves the rows after it."""
        batch = [
            setting(UFx=u, BMx=b, TBx=t)
            for u in (1, 2) for b in (1, 2) for t in (8, 16)
        ]
        batch += batch[::-1]
        want = [roughness_factor("A100", "cheby", s) for s in batch]
        assert factors("A100", "cheby", batch) == want
