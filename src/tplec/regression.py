"""Straight-line fits on log-log scale.

Two flavours of the same ordinary least squares: variance against mean
(Taylor's power law, ``V = a * M**b``) and a growth value against its
argument (plain power law, ``y = c * x**z``). Both are fitted by
regressing natural logs and share one OLS core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import stdtr

from .errors import DegenerateX, NonFiniteValue, NonPositiveValue, TooFewPoints


class VarianceMeanPair(NamedTuple):
    """One (mean, variance) observation used to fit the scaling law."""

    mean: float
    variance: float


@dataclass(frozen=True)
class TplFit:
    """Variance-mean power law ``V = a * M**b`` fitted on natural logs.

    ``ln_a`` is the log-scale intercept, ``b`` the scaling exponent,
    ``r_squared`` the coefficient of determination of the log-log
    regression and ``n_pairs`` the number of pairs fitted.
    """

    ln_a: float
    b: float
    r_squared: float
    n_pairs: int


@dataclass(frozen=True)
class PlFit:
    """Power-law growth ``y = c * x**exponent`` fitted on natural logs.

    ``r`` is the Pearson correlation of the log-log points and
    ``p_value`` the two-sided slope significance on n - 2 degrees of
    freedom. ``start_date`` records, when known, which calendar date
    corresponds to x = 1.
    """

    ln_c: float
    exponent: float
    r: float
    p_value: float
    start_date: date | None = None

    def predict(self, x: float) -> float:
        """Evaluate exp(ln_c) * x**exponent at x > 0."""
        if x <= 0:
            raise NonPositiveValue(f"prediction point must be > 0, got {x}")
        return math.exp(self.ln_c + self.exponent * math.log(x))


def _ols_loglog(x: np.ndarray, y: np.ndarray):
    """OLS of ln(y) on ln(x).

    Returns (slope, intercept, r, r_squared, p_value). The slope p-value
    is the conventional two-sided t-test on n - 2 degrees of freedom.
    """
    lx = np.log(x)
    ly = np.log(y)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateX("all x values are identical; slope is undefined")

    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])

    resid = ly - design @ coef
    ssr = float(resid @ resid)
    sst = float(((ly - ly.mean()) ** 2).sum())
    if sst > 0.0:
        r_squared = min(1.0, max(0.0, 1.0 - ssr / sst))
    else:
        # all y identical: a horizontal line fits exactly
        r_squared = 1.0 if ssr <= 1e-300 else 0.0
    r = math.copysign(math.sqrt(r_squared), slope) if slope != 0.0 else 0.0

    dof = lx.size - 2
    slope_se_sq = ssr / dof / sxx if dof > 0 else 0.0
    if slope_se_sq == 0.0:
        p_value = 0.0 if slope != 0.0 else 1.0
    else:
        t_stat = slope / math.sqrt(slope_se_sq)
        p_value = float(2.0 * stdtr(dof, -abs(t_stat)))
    return slope, intercept, r, r_squared, p_value


def _validated_xy(pairs, what: str) -> tuple[np.ndarray, np.ndarray]:
    if len(pairs) < 3:
        raise TooFewPoints(f"need at least 3 {what}, got {len(pairs)}")
    x = np.asarray([p[0] for p in pairs], dtype=np.float64)
    y = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue(f"every value in {what} must be finite")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositiveValue(f"every value in {what} must be > 0 to take logs")
    return x, y


def fit_loglog(pairs: Sequence[tuple[float, float]]) -> TplFit:
    """Fit ln(V) = ln(a) + b*ln(M) to (mean, variance) pairs by OLS."""
    means, variances = _validated_xy(pairs, "variance-mean pairs")
    b, ln_a, _, r_squared, _ = _ols_loglog(means, variances)
    return TplFit(ln_a=ln_a, b=b, r_squared=r_squared, n_pairs=len(pairs))


def predict_variance(fit: TplFit, mean: float) -> float:
    """Variance predicted by the fitted scaling law at a given mean."""
    if mean <= 0:
        raise NonPositiveValue(f"mean must be > 0, got {mean}")
    return math.exp(fit.ln_a) * mean**fit.b


def fit_pl_growth(
    series: Sequence[tuple[float, float]],
    start_date: date | None = None,
) -> PlFit:
    """Fit ln(y) = ln(c) + z*ln(x) to a growth series by OLS."""
    x, y = _validated_xy(series, "series points")
    exponent, ln_c, r, _, p_value = _ols_loglog(x, y)
    return PlFit(
        ln_c=ln_c, exponent=exponent, r=r, p_value=p_value, start_date=start_date
    )
