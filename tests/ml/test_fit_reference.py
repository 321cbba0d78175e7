"""PMNF fits equal the ``curve_fit`` reference bit for bit.

``fit_pmnf`` fits each candidate with ``scipy.optimize.leastsq``: the
MINPACK ``lmdif`` call ``scipy.optimize.curve_fit`` makes, without the
covariance step. The reference below is the ``curve_fit`` fit it
replaced. Every candidate of every metric (and of time) on the suite
datasets must give the same coefficients and RSE on the same design
matrix, and the same inputs must raise the same exceptions.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.optimize._minpack_py as minpack_py
from scipy.optimize import OptimizeWarning, curve_fit

from repro.core.grouping import group_parameters, pairwise_cv
from repro.errors import ModelFitError
from repro.gpusim.device import A100
from repro.gpusim.simulator import GpuSimulator
from repro.ml.regression import (
    DEFAULT_I_RANGE,
    DEFAULT_J_RANGE,
    _fit_candidate,
    fit_pmnf,
    group_columns,
    pmnf_candidates,
    pmnf_term_values,
)
from repro.ml.stats import residual_standard_error
from repro.profiler.nsight import NsightCollector
from repro.space.setting import settings_matrix
from repro.space.space import build_space
from repro.stencil.suite import suite_names, get_stencil

CANDIDATES = [(i, j) for i in DEFAULT_I_RANGE for j in DEFAULT_J_RANGE]


def reference_candidate(terms_n, scale, target):
    """The ``curve_fit`` candidate fit ``fit_pmnf`` replaced, on a
    candidate's normalised design matrix."""

    def f(x, *coef):
        c = np.asarray(coef)
        return c[0] + x @ c[1:]

    p0 = np.zeros(terms_n.shape[1] + 1)
    p0[0] = float(np.mean(target))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            popt, _ = curve_fit(f, terms_n, target, p0=p0, maxfev=20000)
        except (RuntimeError, ValueError) as exc:
            raise ModelFitError(str(exc)) from exc
    coef = np.asarray(popt, dtype=np.float64)
    rse = residual_standard_error(target, f(terms_n, *coef), n_params=coef.size)
    coef[1:] = coef[1:] / scale
    return coef, rse


def candidates(groups, values, order, i, j):
    """The one-candidate function space ``(i, j)``."""
    return pmnf_candidates(groups, values, order, i_range=(i,), j_range=(j,))


def both(groups, values, order, target, i, j):
    """(reference, ``fit_pmnf``'s) fit of candidate ``(i, j)`` on one
    design-matrix buffer, and whether the fit is well posed: no two
    non-zero columns of its Jacobian (the intercept's ones beside the
    design matrix) are equal."""
    c = candidates(groups, values, order, i, j)
    args = (c.terms[0], c.scales[0], target)
    columns = np.column_stack([np.ones(len(target)), c.terms[0]]).T
    columns = columns[np.abs(columns).sum(axis=1) > 0]
    well_posed = len(np.unique(columns, axis=0)) == len(columns)
    try:
        want = reference_candidate(*args)
    except ModelFitError:
        with pytest.raises(ModelFitError):
            _fit_candidate(*args)
        return None, None, well_posed
    return want, _fit_candidate(*args), well_posed


@pytest.fixture(scope="module")
def suite_fits():
    """(stencil, groups, lowered values, columns, targets) per suite
    stencil: a 64-row A100 dataset, its csTuner groups, and every
    metric row plus time as targets."""
    out = []
    for name in suite_names():
        pattern = get_stencil(name)
        sim = GpuSimulator(A100, seed=0)
        space = build_space(pattern, A100)
        dataset = NsightCollector(sim).collect_dataset(pattern, space, n=64, seed=0)
        groups = group_parameters(
            pairwise_cv(sim, pattern, space, dataset.best().setting, probe_limit=3)
        )
        order = group_columns(groups)
        rows, _ = dataset.metric_rows()
        targets = [row for row in rows if np.ptp(row) > 0] + [dataset.times()]
        out.append((name, groups, settings_matrix(dataset.settings, order), order, targets))
    return out


def test_every_suite_candidate_is_bit_equal(suite_fits):
    """Bit-equal wherever the fit is well posed. A fit with two equal
    Jacobian columns (the ``(0, 0)`` candidate, whose terms are all ones
    like the intercept's column) has no unique answer, and the last bits
    of its near-zero coefficients vary with the memory layout of the
    process, under ``curve_fit`` and ``leastsq`` alike; there the fits
    agree to rounding."""
    exact = singular = 0
    for name, groups, values, order, targets in suite_fits:
        for target in targets:
            for i, j in CANDIDATES:
                want, got, well_posed = both(groups, values, order, target, i, j)
                if want is None:
                    continue
                if not well_posed:
                    assert np.allclose(got[0], want[0], rtol=1e-9, atol=1e-12)
                    assert got[1] == pytest.approx(want[1], rel=1e-12)
                    singular += 1
                    continue
                assert got[0].tobytes() == want[0].tobytes(), (name, i, j)
                assert got[1] == want[1] or (np.isnan(got[1]) and np.isnan(want[1]))
                exact += 1
    assert exact > 500 and singular < exact // 4


def test_design_matrices_are_the_per_candidate_ones(suite_fits):
    """Building every candidate at once normalises each design matrix
    as the per-candidate fit did."""
    for _, groups, values, order, _ in suite_fits:
        c = pmnf_candidates(groups, values, order)
        for (i, j), terms_n, scale in zip(c.exponents, c.terms, c.scales):
            terms = pmnf_term_values(groups, values, order, i, j)
            want = np.maximum(np.abs(terms).max(axis=0), 1.0)
            assert np.array_equal(scale, want)
            assert np.array_equal(terms_n, terms / want, equal_nan=True)


def test_best_model_matches_the_reference_choice(suite_fits):
    _, groups, values, order, targets = suite_fits[0]
    model = fit_pmnf(pmnf_candidates(groups, values, order), targets[0])
    c = pmnf_candidates(groups, values, order)
    scores = [
        reference_candidate(terms_n, scale, targets[0])[1]
        for terms_n, scale in zip(c.terms, c.scales)
    ]
    best = min(range(len(scores)), key=scores.__getitem__)
    assert (model.i, model.j) == c.exponents[best]
    assert model.rse == scores[best]


def _inputs(suite_fits):
    _, groups, values, order, targets = suite_fits[0]
    return groups, values, order, np.array(targets[-1])


def test_non_finite_target_raises_model_fit_error(suite_fits):
    groups, values, order, target = _inputs(suite_fits)
    target[3] = np.nan
    c = candidates(groups, values, order, 1, 0)
    with pytest.raises(ModelFitError):
        reference_candidate(c.terms[0], c.scales[0], target)
    with pytest.raises(ModelFitError):
        _fit_candidate(c.terms[0], c.scales[0], target)
    with pytest.raises(ModelFitError):
        fit_pmnf(pmnf_candidates(groups, values, order), target)


def test_forced_ier_failure_raises_model_fit_error(suite_fits, monkeypatch):
    groups, values, order, target = _inputs(suite_fits)
    c = candidates(groups, values, order, 1, 0)
    real = minpack_py._minpack

    class MaxfevReached:
        """``_lmdif`` reporting ier 5 (maxfev reached)."""

        @staticmethod
        def _lmdif(*args):
            out = real._lmdif(*args)
            return out[:-1] + (5,)

    monkeypatch.setattr(minpack_py, "_minpack", MaxfevReached)
    with pytest.raises(ModelFitError):
        reference_candidate(c.terms[0], c.scales[0], target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failure raises, never warns
        with pytest.raises(ModelFitError):
            _fit_candidate(c.terms[0], c.scales[0], target)


def test_too_few_rows_propagates_the_same_exception(suite_fits):
    groups, values, order, target = _inputs(suite_fits)
    k = len(groups)
    c = candidates(groups, values[:k], order, 1, 0)
    with pytest.raises(TypeError):
        reference_candidate(c.terms[0], c.scales[0], target[:k])
    with pytest.raises(TypeError):
        _fit_candidate(c.terms[0], c.scales[0], target[:k])
    with pytest.raises(TypeError):
        fit_pmnf(pmnf_candidates(groups, values[:k], order), target[:k])
