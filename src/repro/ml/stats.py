"""Statistical primitives: CV (Eq. 1), PCC (Eq. 2) and RSE.

The coefficient of variation quantifies parameter-pair correlation for
grouping (Section IV-C) and the top-n approximation criterion of the
genetic search (Section IV-E); the Pearson correlation coefficient
drives metric combination (Section IV-D); the residual standard error
scores PMNF candidates because R² is invalid for non-linear fits.

The ``*_rows`` forms run one statistic over every row of a matrix in a
single array pass. Each reduces along the rows of a C-contiguous
matrix, so every row keeps NumPy's pairwise sum and its value equals
the one-vector form's bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def coefficient_of_variation(values: Sequence[float] | np.ndarray) -> float:
    """Population coefficient of variation, Eq. 1: sigma / mu.

    Uses the population standard deviation (the ``1/n`` form written in
    the paper). A zero mean has no defined CV; we return ``inf`` so
    "maximally dispersed" ordering still works, and an empty or
    singleton input returns 0.0 (no dispersion observable).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size <= 1:
        return 0.0
    mu = float(np.mean(x))
    sigma = float(np.std(x))  # population (ddof=0), per Eq. 1
    if mu == 0.0:
        return math.inf if sigma > 0.0 else 0.0
    return sigma / abs(mu)


def coefficient_of_variation_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`coefficient_of_variation` of every row of a ``(k, m)``
    matrix with ``m >= 2``, as one ``(k,)`` array."""
    x = np.ascontiguousarray(rows, dtype=np.float64)
    mu = x.mean(axis=1)
    sigma = x.std(axis=1)
    out = np.where(sigma > 0.0, math.inf, 0.0)
    nonzero = mu != 0.0
    out[nonzero] = sigma[nonzero] / np.abs(mu[nonzero])
    return out


def pearson_correlation(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Pearson correlation coefficient, Eq. 2.

    Returns 0.0 when either input is constant (no linear relationship
    is observable), which keeps Algorithm 2's ordering total instead of
    propagating NaNs.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"shape mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 2:
        return 0.0
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = math.sqrt(float(np.sum(xd * xd)) * float(np.sum(yd * yd)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xd * yd) / denom)


def pearson_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`pearson_correlation` of every pair of rows of a ``(k, n)``
    matrix, as a symmetric ``(k, k)`` matrix.

    Entry ``[i, j]`` equals ``pearson_correlation(rows[i], rows[j])``:
    the deviations, their squared sums and every pair's cross sum are
    row reductions, and a pair with a constant row (or fewer than two
    columns) reads 0.0.
    """
    x = np.ascontiguousarray(rows, dtype=np.float64)
    k, n = x.shape
    out = np.zeros((k, k))
    if n < 2:
        return out
    dev = x - x.mean(axis=1)[:, None]
    ss = (dev * dev).sum(axis=1)
    i, j = np.triu_indices(k)
    cross = (dev[i] * dev[j]).sum(axis=1)
    denom = np.sqrt(ss[i] * ss[j])
    pcc = np.divide(cross, denom, out=np.zeros_like(cross), where=denom != 0.0)
    out[i, j] = pcc
    out[j, i] = pcc
    return out


def residual_standard_error(
    y: Sequence[float] | np.ndarray,
    y_pred: Sequence[float] | np.ndarray,
    n_params: int,
) -> float:
    """Residual standard error of a fitted model.

    ``sqrt(RSS / (n - p))`` with ``p`` fitted coefficients. When the
    fit is saturated (``n <= p``) the error is undefined; we return
    ``inf`` so saturated candidates always lose model selection.
    """
    ya = np.asarray(y, dtype=np.float64)
    pa = np.asarray(y_pred, dtype=np.float64)
    if ya.shape != pa.shape:
        raise ValueError(f"shape mismatch: {ya.shape} vs {pa.shape}")
    dof = ya.size - n_params
    if dof <= 0:
        return math.inf
    rss = float(np.sum((ya - pa) ** 2))
    return math.sqrt(rss / dof)
