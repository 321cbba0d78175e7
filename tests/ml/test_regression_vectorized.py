"""Bit-identity of the batched PMNF term builder and predictor.

``pmnf_term_matrix`` lowers the whole batch of settings once and builds
terms column-vectorized; its matrices must be byte-identical to the
identity fixtures, frozen from the scalar per-setting loop it replaced,
so these tests require exact float equality — not closeness.
"""

import numpy as np
import pytest

from repro.ml.regression import (
    fit_pmnf,
    group_columns,
    pmnf_candidates,
    pmnf_term_matrix,
    pmnf_term_values,
)
from repro.space.parameters import PARAMETER_ORDER
from repro.space.setting import settings_matrix
from tests import identity_corpus as corpus

GROUPS = corpus.TERM_GROUPS


@pytest.fixture(scope="module")
def pool():
    return corpus.term_pool()


@pytest.fixture(scope="module")
def frozen():
    return corpus.load_fixture("terms")


class TestTermMatrix:
    @pytest.mark.parametrize("i", [0, 1, 2])
    @pytest.mark.parametrize("j", [0, 1])
    def test_bit_identical_to_reference(self, pool, frozen, i, j):
        a = pmnf_term_matrix(GROUPS, pool, i, j)
        assert corpus.array_digest(a) == frozen[corpus.term_case_name(i, j)]

    def test_term_values_respects_column_order(self, pool, frozen):
        shuffled = tuple(reversed(PARAMETER_ORDER))
        values = np.array(
            [s.values_tuple(shuffled) for s in pool], dtype=np.int64
        )
        a = pmnf_term_values(GROUPS, values, shuffled, 2, 1)
        assert np.array_equal(a, pmnf_term_matrix(GROUPS, pool, 2, 1))
        name = corpus.term_case_name(2, 1, shuffled=True)
        assert corpus.array_digest(a) == frozen[name]

    def test_empty_group_is_unit_column(self, pool):
        out = pmnf_term_values(
            ((),), np.zeros((3, 0)), (), 1, 1
        )
        assert np.array_equal(out, np.ones((3, 1)))


class TestModelIdentity:
    def test_fitted_model_predicts_identically_both_paths(self, pool, small_dataset):
        names = group_columns(GROUPS)
        values = settings_matrix(small_dataset.settings, names)
        model = fit_pmnf(
            pmnf_candidates(GROUPS, values, names),
            small_dataset.times(),
            target_name="time",
        )
        names = model.parameter_names
        values = np.array(
            [s.values_tuple(names) for s in pool], dtype=np.int64
        )
        assert np.array_equal(
            model.predict(pool), model.predict_values(values, names)
        )

    def test_fit_unchanged_for_fixed_inputs(self, small_dataset):
        names = group_columns(GROUPS)
        values = settings_matrix(small_dataset.settings, names)
        a = fit_pmnf(pmnf_candidates(GROUPS, values, names), small_dataset.times())
        b = fit_pmnf(pmnf_candidates(GROUPS, values, names), small_dataset.times())
        assert a.i == b.i and a.j == b.j
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.rse == b.rse
