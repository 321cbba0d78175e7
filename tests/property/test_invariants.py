"""Property-based tests on cross-cutting invariants (hypothesis)."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen.plan import build_plan
from repro.gpusim.device import A100
from repro.gpusim.model import compute_occupancy, compute_timing, compute_traffic
from repro.ml.stats import coefficient_of_variation, pearson_correlation
from repro.stencil.reference import apply_taps
from repro.stencil.taps import Tap

seeds = st.integers(min_value=0, max_value=2**31 - 1)
relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSimulatorInvariants:
    @relaxed
    @given(seed=seeds)
    def test_time_positive_and_components_consistent(
        self, seed, small_pattern, small_space
    ):
        rng = np.random.default_rng(seed)
        s = small_space.random_setting(rng)
        plan = build_plan(small_pattern, s)
        occ = compute_occupancy(plan, A100)
        traffic = compute_traffic(plan, A100)
        timing = compute_timing(plan, A100, traffic, occ)
        assert timing.total_s > 0
        assert timing.total_s >= max(timing.compute_s, timing.memory_s)
        assert timing.total_s >= timing.launch_s

    @relaxed
    @given(seed=seeds)
    def test_traffic_floors(self, seed, small_pattern, small_space):
        rng = np.random.default_rng(seed)
        s = small_space.random_setting(rng)
        plan = build_plan(small_pattern, s)
        t = compute_traffic(plan, A100)
        assert t.dram_read_bytes >= small_pattern.points() * 8
        assert t.dram_write_bytes > 0
        assert 0 < t.gld_efficiency <= 1
        assert 0 < t.gst_efficiency <= 1

    @relaxed
    @given(seed=seeds)
    def test_plan_covers_grid(self, seed, small_pattern, small_space):
        rng = np.random.default_rng(seed)
        s = small_space.random_setting(rng)
        plan = build_plan(small_pattern, s)
        assert plan.covered_points() >= small_pattern.points()
        assert plan.threads_per_block <= 1024


class TestStatInvariants:
    @given(
        xs=st.lists(
            st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=40
        ),
        shift=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_cv_decreases_with_mean_shift(self, xs, shift):
        """Adding a positive constant to positive data reduces CV."""
        base = coefficient_of_variation(xs)
        shifted = coefficient_of_variation([x + shift for x in xs])
        assert shifted <= base + 1e-12

    @given(
        xs=st.lists(
            st.floats(min_value=-100, max_value=100, allow_subnormal=False)
            .map(lambda v: 0.0 if abs(v) < 1e-6 else v),
            min_size=3,
            max_size=30,
        ),
        a=st.floats(min_value=0.1, max_value=10),
        b=st.floats(min_value=-5, max_value=5),
    )
    def test_pcc_affine_invariance(self, xs, a, b):
        # Tolerance reflects float64 cancellation when data spans many
        # orders of magnitude; the invariance itself is exact.
        ys = np.linspace(0, 1, len(xs))
        r1 = pearson_correlation(xs, ys)
        r2 = pearson_correlation([a * x + b for x in xs], ys)
        assert abs(r1 - r2) < 1e-5


class TestReferenceStencilInvariants:
    @given(seed=seeds, coeff=st.floats(min_value=-2, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_coefficient(self, seed, coeff):
        rng = np.random.default_rng(seed)
        arr = rng.random((6, 6, 6))
        base = apply_taps([arr], [Tap((0, 1, 0), 1.0)], halo=1)
        scaled = apply_taps([arr], [Tap((0, 1, 0), coeff)], halo=1)
        assert np.allclose(scaled, coeff * base)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_superposition(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.random((6, 6, 6))
        t1, t2 = Tap((1, 0, 0), 0.3), Tap((0, 0, -1), 0.7)
        joint = apply_taps([arr], [t1, t2], halo=1)
        split = apply_taps([arr], [t1], halo=1) + apply_taps([arr], [t2], halo=1)
        assert np.allclose(joint, split)
