"""Unit and property tests for the statistical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.stats import (
    coefficient_of_variation,
    coefficient_of_variation_rows,
    pearson_correlation,
    pearson_rows,
    residual_standard_error,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestCV:
    def test_eq1_definition(self):
        x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        # population std of this classic example is exactly 2, mean 5
        assert coefficient_of_variation(x) == pytest.approx(2.0 / 5.0)

    def test_constant_data_zero(self):
        assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0

    def test_singleton_and_empty(self):
        assert coefficient_of_variation([5.0]) == 0.0
        assert coefficient_of_variation([]) == 0.0

    def test_zero_mean_dispersed(self):
        assert coefficient_of_variation([-1.0, 1.0]) == math.inf

    def test_scale_invariance(self):
        x = [1.0, 2.0, 3.0]
        assert coefficient_of_variation(x) == pytest.approx(
            coefficient_of_variation([10 * v for v in x])
        )

    @given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2, max_size=50))
    def test_nonnegative_for_positive_data(self, xs):
        assert coefficient_of_variation(xs) >= 0.0


class TestPCC:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_matches_numpy(self, rng):
        x, y = rng.random(50), rng.random(50)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    @given(
        st.lists(finite_floats, min_size=3, max_size=30),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_bounded(self, xs, seed):
        ys = np.random.default_rng(seed).random(len(xs))
        r = pearson_correlation(xs, ys)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9

    def test_symmetry(self, rng):
        x, y = rng.random(20), rng.random(20)
        assert pearson_correlation(x, y) == pytest.approx(pearson_correlation(y, x))


class TestRSE:
    def test_perfect_fit_zero(self):
        y = [1.0, 2.0, 3.0, 4.0]
        assert residual_standard_error(y, y, n_params=2) == 0.0

    def test_known_value(self):
        y = np.array([0.0, 0.0, 0.0, 0.0])
        pred = np.array([1.0, -1.0, 1.0, -1.0])
        # RSS = 4, dof = 2 -> sqrt(2)
        assert residual_standard_error(y, pred, n_params=2) == pytest.approx(
            math.sqrt(2)
        )

    def test_saturated_fit_inf(self):
        assert residual_standard_error([1.0, 2.0], [1.0, 2.0], n_params=2) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual_standard_error([1.0], [1.0, 2.0], 1)


class TestRowForms:
    """The one-pass row forms equal the one-vector forms bit for bit."""

    def test_pearson_rows(self, rng):
        for n in (1, 2, 3, 7, 8, 9, 48, 128, 300):
            rows = rng.normal(size=(6, n)) * rng.uniform(0.1, 1e3, size=(6, 1))
            rows[4] = 2.0  # a constant row
            got = pearson_rows(rows)
            for i in range(6):
                for j in range(6):
                    assert got[i, j] == pearson_correlation(rows[i], rows[j])

    def test_coefficient_of_variation_rows(self, rng):
        for m in (2, 3, 5, 6, 9, 130):
            rows = rng.uniform(1.0, 9.0, size=(5, m))
            rows[1] = 3.0
            rows[2, :] = [(-1.0) ** k for k in range(m)]
            rows[3, :] = 0.0
            got = coefficient_of_variation_rows(rows)
            assert got.tolist() == [coefficient_of_variation(r) for r in rows]
