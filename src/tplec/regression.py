"""Straight-line fits on log-log scale.

Two flavours of the same ordinary least squares: variance against mean
(Taylor's power law, ``V = a * M**b``) and a growth value against its
argument (plain power law, ``y = c * x**z``). Both are fitted by
regressing natural logs and share one OLS core.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateX, NonFiniteValue, NonPositiveValue, TooFewPoints


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
    freedom: P(|T| >= |t|) for the slope's t statistic, evaluated as the
    regularized incomplete beta I_x((n-2)/2, 1/2) at x = (n-2)/(n-2+t**2)
    by its continued fraction (``_t_two_sided_p``). Against a 40-digit
    mpmath evaluation it is within 5e-13 relative for 1 to 1000 degrees
    of freedom wherever the true value is at least 1e-300; smaller
    values may underflow to 0. Beyond 1000 degrees of freedom the error
    grows about in proportion to them (8e-13 at 1e4, 7e-11 at 1e6).
    """

    ln_c: float
    exponent: float
    r: float
    p_value: float

    def predict(self, x: float) -> float:
        """Evaluate exp(ln_c) * x**exponent at x > 0; overflow raises NonFiniteValue."""
        if x <= 0:
            raise NonPositiveValue(f"prediction point must be > 0, got {x}")
        power = self.ln_c + self.exponent * math.log(x)
        return _finite(f"the power law at x = {x}", lambda: math.exp(power))


def _finite(what: str, compute) -> float:
    """``compute()``; raises ``NonFiniteValue`` naming ``what`` if it overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteValue(f"{what} is not finite: {value}")
    return value


def _ln_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)) for a > 0.

    From a = 20 the difference of two ``lgamma`` values cancels badly,
    so the asymptotic series is used; its first omitted term is below
    5e-15 there.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv = 1.0 / a
    inv2 = inv * inv
    series = inv * (-1 / 8 + inv2 * (1 / 192 + inv2 * (-1 / 640 + inv2 * 17 / 14336)))
    return 0.5 * math.log(a) + series


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (Numerical Recipes ``betacf``).

    Evaluated by the modified Lentz method; I_x(a, b) is the result
    times x**a * (1 - x)**b / (a * B(a, b)).
    """
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c = 1.0
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            break
    return h


def _t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` > 0 degrees of freedom.

    This is the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t**2). x, y = 1 - x and their logs are formed from
    t**2 / dof or dof / t**2, whichever is at most 1, so y is never
    rounded away as 1 - x, and an overflowing t**2 still gives ln x.
    """
    a = 0.5 * dof
    tt = t * t
    if tt == 0.0:
        return 1.0
    if tt <= dof:
        r = tt / dof
        ln_x = -math.log1p(r)
        ln_y = math.log(r) + ln_x
        x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    else:
        u = dof / tt  # 0 when t**2 overflows
        ln_y = -math.log1p(u)
        ln_u = math.log(u) if u > 0.0 else math.log(dof) - 2.0 * math.log(abs(t))
        ln_x = ln_u + ln_y
        x, y = u / (1.0 + u), 1.0 / (1.0 + u)
    # x**a * y**(1/2) / B(a, 1/2), where B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2)
    ln_front = a * ln_x + 0.5 * ln_y + _ln_gamma_ratio(a) - 0.5 * math.log(math.pi)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - front * _beta_cf(0.5, a, y) / 0.5


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
        p_value = _t_two_sided_p(t_stat, dof)
    return slope, intercept, r, r_squared, p_value


def _validated_xy(pairs, what: str, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` as x and y arrays: at least ``minimum``, all finite and > 0."""
    if len(pairs) < minimum:
        raise TooFewPoints(f"need at least {minimum} {what}, got {len(pairs)}")
    x = np.asarray([p[0] for p in pairs], dtype=np.float64)
    y = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue(f"every value in {what} must be finite")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositiveValue(f"every value in {what} must be > 0 to take logs")
    return x, y


def fit_loglog(pairs: Sequence[tuple[float, float]]) -> TplFit:
    """Fit ln(V) = ln(a) + b*ln(M) to (mean, variance) pairs by OLS."""
    means, variances = _validated_xy(pairs, "variance-mean pairs", 3)
    b, ln_a, _, r_squared, _ = _ols_loglog(means, variances)
    return TplFit(ln_a=ln_a, b=b, r_squared=r_squared, n_pairs=len(pairs))


def predict_variance(fit: TplFit, mean: float) -> float:
    """Scaling-law variance at a given mean; overflow raises NonFiniteValue."""
    if mean <= 0:
        raise NonPositiveValue(f"mean must be > 0, got {mean}")
    return _finite(
        f"the variance at mean {mean}", lambda: math.exp(fit.ln_a) * mean**fit.b
    )


def fit_pl_growth(series: Sequence[tuple[float, float]]) -> PlFit:
    """Fit ln(y) = ln(c) + z*ln(x) to a growth series by OLS."""
    x, y = _validated_xy(series, "series points", 3)
    exponent, ln_c, r, _, p_value = _ols_loglog(x, y)
    return PlFit(ln_c=ln_c, exponent=exponent, r=r, p_value=p_value)
