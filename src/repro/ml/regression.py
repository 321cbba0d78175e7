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
with :func:`scipy.optimize.curve_fit` (the paper's choice) and scored
by residual standard error, since R² is only valid for linear models.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from repro import obs
from repro.errors import ModelFitError
from repro.ml.stats import residual_standard_error
from repro.space.setting import Setting

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
    The whole batch of settings is lowered into one value matrix and the
    terms are built column-vectorized (see :func:`pmnf_term_values`).
    """
    names, values = _lower(groups, settings)
    return pmnf_term_values(groups, values, names, i, j)


def _lower(
    groups: Sequence[Sequence[str]], settings: Sequence[Setting]
) -> tuple[tuple[str, ...], np.ndarray]:
    """The parameters ``groups`` read, in first-use order, and the
    ``(n, len(names))`` matrix of their values over ``settings``."""
    names = tuple(dict.fromkeys(n for g in groups for n in g))
    values = np.array(
        [s.values_tuple(names) for s in settings], dtype=np.int64
    ).reshape(len(settings), len(names))
    return names, values


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
        return tuple(dict.fromkeys(n for g in self.groups for n in g))

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


def _fit_candidate(
    groups: Sequence[Sequence[str]],
    values: np.ndarray,
    names: tuple[str, ...],
    target: np.ndarray,
    i: int,
    j: int,
) -> tuple[np.ndarray, float]:
    """Fit coefficients for one (i, j) candidate on the settings'
    lowered ``values`` (columns ``names``); returns (coef, rse)."""
    terms = pmnf_term_values(groups, values, names, i, j)
    # Normalise term scales so curve_fit's default step sizes behave on
    # the wildly different magnitudes P^2 terms can reach.
    scale = np.maximum(np.abs(terms).max(axis=0), 1.0)
    terms_n = terms / scale

    def f(x: np.ndarray, *coef: float) -> np.ndarray:
        c = np.asarray(coef)
        return c[0] + x @ c[1:]

    p0 = np.zeros(len(groups) + 1)
    p0[0] = float(np.mean(target))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        try:
            popt, _ = curve_fit(f, terms_n, target, p0=p0, maxfev=20000)
        except (RuntimeError, ValueError) as exc:
            raise ModelFitError(f"curve_fit failed for (i={i}, j={j}): {exc}") from exc
    coef = np.asarray(popt, dtype=np.float64)
    pred = f(terms_n, *coef)
    rse = residual_standard_error(target, pred, n_params=coef.size)
    # Fold the normalisation back into the stored coefficients.
    coef[1:] = coef[1:] / scale
    return coef, rse


def fit_pmnf(
    groups: Sequence[Sequence[str]],
    settings: Sequence[Setting],
    target: Sequence[float] | np.ndarray,
    *,
    i_range: Sequence[int] = DEFAULT_I_RANGE,
    j_range: Sequence[int] = DEFAULT_J_RANGE,
    target_name: str = "metric",
) -> PMNFModel:
    """Traverse the PMNF function space and keep the best-RSE candidate.

    The degenerate ``(i=0, j=0)`` candidate (a pure constant) is
    included — it acts as the null model and loses whenever any signal
    exists. Raises :class:`ModelFitError` only when *every* candidate
    fails to fit.
    """
    if not groups:
        raise ModelFitError("fit_pmnf needs at least one parameter group")
    if len(settings) == 0:
        raise ModelFitError("fit_pmnf needs a non-empty dataset")
    y = np.asarray(target, dtype=np.float64)
    if y.size != len(settings):
        raise ModelFitError(
            f"target length {y.size} does not match {len(settings)} settings"
        )

    obs.count("ml.pmnf_fits")
    obs.count("ml.pmnf_fit_rows", len(settings))
    best: PMNFModel | None = None
    errors: list[str] = []
    with obs.timer("ml.fit_pmnf"):
        # Lowered once; every (i, j) candidate builds its terms from it.
        names, values = _lower(groups, settings)
        for i in i_range:
            for j in j_range:
                try:
                    coef, rse = _fit_candidate(groups, values, names, y, i, j)
                except ModelFitError as exc:
                    errors.append(str(exc))
                    continue
                if best is None or rse < best.rse:
                    best = PMNFModel(
                        groups=tuple(tuple(g) for g in groups),
                        i=i,
                        j=j,
                        coefficients=coef,
                        rse=rse,
                        target=target_name,
                    )
    if best is None:
        raise ModelFitError("all PMNF candidates failed: " + "; ".join(errors))
    return best
