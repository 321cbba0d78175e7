"""PMNF regression (Eq. 3).

The performance model normal form expresses a metric as a combination
of polynomial and logarithmic terms of the tuning parameters. csTuner
simplifies the multi-parameter PMNF with the parameter groups: the
parameters *within* a group (strong correlation) are multiplied, the
group terms (weak correlation) are accumulated:

    f(P) = c_0 + sum_k  c_k * prod_{l in group k} P_l^i * log2(P_l)^j

One exponent pair ``(i, j)`` is shared by all groups, so the candidate
function space is ``|I| x |J|`` *regardless of the number of
parameters* — the property that lets csTuner scale past the
four-parameter ceiling of Extra-P-style tools. Candidates are fitted
with :func:`scipy.optimize.leastsq`: the MINPACK ``lmdif`` call that
:func:`scipy.optimize.curve_fit` (the paper's choice) wraps, without
the covariance step ``curve_fit`` adds and this module never read. They
are scored by residual standard error, since R² is only valid for
linear models. SciPy is imported by the first fit, not with the module.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ModelFitError
from repro.ml.stats import residual_standard_error
from repro.space.setting import Setting, settings_matrix

#: Paper's exponent ranges (Section V-A2).
DEFAULT_I_RANGE: tuple[int, ...] = (0, 1, 2)
DEFAULT_J_RANGE: tuple[int, ...] = (0, 1)


def pmnf_term_values(
    groups: Sequence[Sequence[str]],
    values: np.ndarray,
    order: Sequence[str],
    i: int,
    j: int,
) -> np.ndarray:
    """Design matrix from an already-lowered ``(n, len(order))`` matrix.

    Each parameter's factor ``v**i * log2(v)**j`` is computed once per
    column, and group terms accumulate factors left-to-right in group
    order (multiplication order matters for float reproducibility; the
    identity fixtures pin the resulting matrices bit for bit).
    """
    col = {name: k for k, name in enumerate(order)}
    v_f = np.asarray(values, dtype=np.float64)
    n = v_f.shape[0]
    out = np.ones((n, len(groups)), dtype=np.float64)
    factors: dict[str, np.ndarray] = {}
    for g_idx, group in enumerate(groups):
        term: np.ndarray | None = None
        for name in group:
            f = factors.get(name)
            if f is None:
                v = v_f[:, col[name]]
                f = factors[name] = v**i * (np.log2(v) ** j)
            term = f.copy() if term is None else term * f
        if term is not None:
            out[:, g_idx] = term
    return out


def pmnf_term_matrix(
    groups: Sequence[Sequence[str]],
    settings: Sequence[Setting],
    i: int,
    j: int,
) -> np.ndarray:
    """Design matrix ``T[s, k] = prod_{l in group k} P_l^i * log2(P_l)^j``.

    Parameter values are the raw (power-of-two or 1/2/3) values of the
    setting; all values are >= 1 so the logarithm is legitimate (the
    paper starts boolean/enumeration parameters at 1 for this reason).
    The whole batch of settings is lowered into one value matrix over
    :func:`group_columns` and the terms are built column-vectorized
    (see :func:`pmnf_term_values`).
    """
    names = group_columns(groups)
    return pmnf_term_values(groups, settings_matrix(settings, names), names, i, j)


def group_columns(groups: Sequence[Sequence[str]]) -> tuple[str, ...]:
    """The parameters ``groups`` read, in first-use order."""
    return tuple(dict.fromkeys(n for g in groups for n in g))


@dataclass(frozen=True)
class PMNFModel:
    """A fitted PMNF candidate.

    ``coefficients[0]`` is the intercept ``c_0``; the remaining entries
    align with ``groups``. ``rse`` is the selection score (lower wins).
    """

    groups: tuple[tuple[str, ...], ...]
    i: int
    j: int
    coefficients: np.ndarray
    rse: float
    target: str = "metric"

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """All parameter names the model reads, in first-use order."""
        return group_columns(self.groups)

    def predict(self, settings: Sequence[Setting]) -> np.ndarray:
        """Evaluate the model at new settings."""
        terms = pmnf_term_matrix(self.groups, settings, self.i, self.j)
        return self.coefficients[0] + terms @ self.coefficients[1:]

    def predict_values(
        self, values: np.ndarray, order: Sequence[str]
    ) -> np.ndarray:
        """Evaluate the model on an already-lowered value matrix.

        Lets callers scoring the same candidate pool with several
        models (the sampler) lower the pool once instead of once per
        model. Float-identical to :meth:`predict` given matching
        columns.
        """
        terms = pmnf_term_values(self.groups, values, order, self.i, self.j)
        return self.coefficients[0] + terms @ self.coefficients[1:]

    def describe(self) -> str:
        parts = [f"{self.coefficients[0]:+.4g}"]
        for k, group in enumerate(self.groups):
            prod = " * ".join(
                f"{name}^{self.i}"
                + (f"*log2({name})^{self.j}" if self.j else "")
                for name in group
            )
            parts.append(f"{self.coefficients[k + 1]:+.4g} * ({prod})")
        return f"{self.target} ~ " + " ".join(parts) + f"   [RSE={self.rse:.4g}]"


@dataclass(frozen=True)
class PMNFCandidates:
    """The PMNF function space over one lowered dataset.

    ``terms[k]`` is candidate ``exponents[k]``'s design matrix with each
    column divided by ``scales[k]`` (its largest magnitude, at least 1),
    so the fit's default step sizes behave on the wildly different
    magnitudes P^2 terms can reach. Built once by
    :func:`pmnf_candidates`; every target fitted on the dataset reads
    the same matrices.
    """

    groups: tuple[tuple[str, ...], ...]
    exponents: tuple[tuple[int, int], ...]
    terms: tuple[np.ndarray, ...]
    scales: tuple[np.ndarray, ...]

    @property
    def rows(self) -> int:
        return self.terms[0].shape[0]


def pmnf_candidates(
    groups: Sequence[Sequence[str]],
    values: np.ndarray,
    order: Sequence[str],
    *,
    i_range: Sequence[int] = DEFAULT_I_RANGE,
    j_range: Sequence[int] = DEFAULT_J_RANGE,
) -> PMNFCandidates:
    """Every ``(i, j)`` candidate's normalised design matrix.

    ``values`` is the dataset lowered once into an ``(n, len(order))``
    matrix holding at least the columns ``groups`` read (see
    :func:`~repro.space.setting.settings_matrix`).
    """
    if not groups:
        raise ModelFitError("a PMNF fit needs at least one parameter group")
    if values.shape[0] == 0:
        raise ModelFitError("a PMNF fit needs a non-empty dataset")
    exponents = tuple((i, j) for i in i_range for j in j_range)
    terms, scales = [], []
    for i, j in exponents:
        t = pmnf_term_values(groups, values, order, i, j)
        scale = np.maximum(np.abs(t).max(axis=0), 1.0)
        terms.append(t / scale)
        scales.append(scale)
    return PMNFCandidates(
        tuple(tuple(g) for g in groups), exponents, tuple(terms), tuple(scales)
    )


def _fit_candidate(
    terms_n: np.ndarray, scale: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, float]:
    """Fit one candidate's coefficients on its normalised design matrix
    ``terms_n``; returns (coef, rse), the coefficients scaled back.

    The residual, start point and ``maxfev`` are the ones
    ``curve_fit(f, terms_n, target, p0=p0, maxfev=20000)`` hands to
    ``leastsq``, and this raises :class:`ModelFitError` where that call
    raised: on a non-finite input and on an ``ier`` outside 1-4. Too
    few rows for the candidate's coefficients raise ``TypeError``.
    """
    from scipy.optimize import leastsq

    if not (np.isfinite(target).all() and np.isfinite(terms_n).all()):
        raise ModelFitError("non-finite PMNF input")

    def f(x: np.ndarray, *coef: float) -> np.ndarray:
        c = np.asarray(coef)
        return c[0] + x @ c[1:]

    p0 = np.zeros(terms_n.shape[1] + 1)
    p0[0] = float(np.mean(target))
    with warnings.catch_warnings():
        # lmdif's ier 5-8 warn here; they raise below instead.
        warnings.simplefilter("ignore", RuntimeWarning)
        popt, ier = leastsq(
            lambda c: f(terms_n, *c) - target, p0, full_output=0, maxfev=20000
        )
    if ier not in (1, 2, 3, 4):
        raise ModelFitError(f"PMNF fit failed: ier={ier}")
    coef = np.asarray(popt, dtype=np.float64)
    pred = f(terms_n, *coef)
    rse = residual_standard_error(target, pred, n_params=coef.size)
    # Fold the normalisation back into the stored coefficients.
    coef[1:] = coef[1:] / scale
    return coef, rse


def fit_pmnf(
    candidates: PMNFCandidates,
    target: Sequence[float] | np.ndarray,
    *,
    target_name: str = "metric",
) -> PMNFModel:
    """Traverse the PMNF function space and keep the best-RSE candidate.

    The degenerate ``(i=0, j=0)`` candidate (a pure constant) is
    included — it acts as the null model and loses whenever any signal
    exists. Raises :class:`ModelFitError` only when *every* candidate
    fails to fit.
    """
    n = candidates.rows
    y = np.asarray(target, dtype=np.float64)
    if y.size != n:
        raise ModelFitError(
            f"target length {y.size} does not match {n} settings"
        )

    obs.count("ml.pmnf_fits")
    obs.count("ml.pmnf_fit_rows", n)
    best: PMNFModel | None = None
    errors: list[str] = []
    with obs.timer("ml.fit_pmnf"):
        for (i, j), terms_n, scale in zip(
            candidates.exponents, candidates.terms, candidates.scales
        ):
            try:
                coef, rse = _fit_candidate(terms_n, scale, y)
            except ModelFitError as exc:
                errors.append(f"(i={i}, j={j}): {exc}")
                continue
            if best is None or rse < best.rse:
                best = PMNFModel(
                    groups=candidates.groups,
                    i=i,
                    j=j,
                    coefficients=coef,
                    rse=rse,
                    target=target_name,
                )
    if best is None:
        raise ModelFitError("all PMNF candidates failed: " + "; ".join(errors))
    return best
