"""Unit tests for PMNF regression (Eq. 3)."""

import numpy as np
import pytest

from repro.errors import ModelFitError
from repro.ml.regression import (
    DEFAULT_I_RANGE,
    DEFAULT_J_RANGE,
    fit_pmnf,
    group_columns,
    pmnf_candidates,
    pmnf_term_matrix,
)
from repro.space.setting import Setting, settings_matrix


def fit(groups, settings, target, **kw):
    """``fit_pmnf`` on ``settings`` lowered over the groups' columns."""
    names = group_columns(groups)
    values = settings_matrix(settings, names)
    return fit_pmnf(pmnf_candidates(groups, values, names), target, **kw)


def settings_grid():
    """Settings over two small parameters for controlled fits."""
    out = []
    for a in (1, 2, 4, 8, 16):
        for b in (1, 2, 4, 8):
            out.append(Setting({"A": a, "B": b}))
    return out


class TestTermMatrix:
    def test_shape(self):
        s = settings_grid()
        t = pmnf_term_matrix([["A"], ["B"]], s, i=1, j=0)
        assert t.shape == (len(s), 2)

    def test_i1_j0_is_value(self):
        s = [Setting({"A": 8, "B": 2})]
        t = pmnf_term_matrix([["A"], ["B"]], s, i=1, j=0)
        assert t[0, 0] == 8.0 and t[0, 1] == 2.0

    def test_i0_j1_is_log(self):
        s = [Setting({"A": 8, "B": 2})]
        t = pmnf_term_matrix([["A"], ["B"]], s, i=0, j=1)
        assert t[0, 0] == 3.0 and t[0, 1] == 1.0

    def test_group_multiplies_members(self):
        s = [Setting({"A": 4, "B": 8})]
        t = pmnf_term_matrix([["A", "B"]], s, i=1, j=0)
        assert t[0, 0] == 32.0

    def test_value_one_with_log_zeroes_term(self):
        s = [Setting({"A": 1})]
        t = pmnf_term_matrix([["A"]], s, i=2, j=1)
        assert t[0, 0] == 0.0


class TestFitPMNF:
    def test_recovers_linear_relationship(self):
        s = settings_grid()
        y = np.array([3.0 + 2.0 * st["A"] + 0.5 * st["B"] for st in s])
        model = fit([["A"], ["B"]], s, y)
        assert model.i == 1 and model.j == 0
        assert model.rse < 1e-6
        assert np.allclose(model.predict(s), y, atol=1e-5)

    def test_recovers_log_relationship(self):
        s = settings_grid()
        y = np.array(
            [1.0 + 4.0 * np.log2(st["A"]) + 2.0 * np.log2(st["B"]) for st in s]
        )
        model = fit([["A"], ["B"]], s, y)
        assert (model.i, model.j) == (0, 1)
        assert model.rse < 1e-6

    def test_product_group_term(self):
        s = settings_grid()
        y = np.array([5.0 + 0.1 * st["A"] * st["B"] for st in s])
        model = fit([["A", "B"]], s, y)
        assert model.i == 1 and model.j == 0
        assert model.rse < 1e-6

    def test_function_space_is_ixj(self):
        """One (i, j) shared by all groups: |I| x |J| candidates."""
        assert len(DEFAULT_I_RANGE) * len(DEFAULT_J_RANGE) == 6

    def test_noise_tolerated(self, rng):
        s = settings_grid()
        y = np.array([2.0 * st["A"] for st in s]) + rng.normal(0, 0.01, len(s))
        model = fit([["A"], ["B"]], s, y)
        assert model.rse < 0.1

    def test_predict_on_new_settings(self):
        s = settings_grid()
        y = np.array([1.0 + st["A"] for st in s])
        model = fit([["A"], ["B"]], s, y)
        fresh = [Setting({"A": 32, "B": 1})]
        assert model.predict(fresh)[0] == pytest.approx(33.0, rel=1e-3)

    def test_describe_mentions_target(self):
        s = settings_grid()
        y = np.array([float(st["A"]) for st in s])
        model = fit([["A"], ["B"]], s, y, target_name="ipc")
        assert "ipc" in model.describe()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelFitError):
            fit([["A"]], [], np.array([]))

    def test_empty_groups_rejected(self):
        with pytest.raises(ModelFitError):
            fit([], settings_grid(), np.zeros(20))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelFitError):
            fit([["A"]], settings_grid(), np.zeros(3))
