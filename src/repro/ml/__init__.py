"""Statistics and machine-learning substrate.

Implements exactly the methods the paper names: coefficient of
variation (Eq. 1), Pearson correlation (Eq. 2) — each also as a
one-pass form over the rows of a matrix — residual standard error for
non-linear fits, the PMNF regression family (Eq. 3) fitted with
:func:`scipy.optimize.leastsq` (the MINPACK call the paper's
:func:`scipy.optimize.curve_fit` wraps, without its unused covariance
step; SciPy is imported by the first fit), and a from-scratch CART
random forest (for the Garvey baseline's memory-type predictor —
scikit-learn is not available offline).
"""

from repro.ml.stats import (
    coefficient_of_variation,
    pearson_correlation,
    residual_standard_error,
)
from repro.ml.regression import PMNFModel, fit_pmnf, pmnf_term_matrix
from repro.ml.forest import (
    DecisionTreeRegressor,
    DecisionTreeClassifier,
    RandomForestRegressor,
    RandomForestClassifier,
)

__all__ = [
    "coefficient_of_variation",
    "pearson_correlation",
    "residual_standard_error",
    "PMNFModel",
    "fit_pmnf",
    "pmnf_term_matrix",
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "RandomForestRegressor",
    "RandomForestClassifier",
]
