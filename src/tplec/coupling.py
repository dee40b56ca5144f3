"""Couples cutoff-curve asymptotes with variance-mean scaling.

The cutoff fit supplies a point prediction of the maximal accrual value
(the turning point); the variance-mean scaling law supplies a variance
at that point, which turns into a symmetric 95% band of half-width
``1.96 * sqrt(V / n)``. When the cutoff fit fails (no taper detectable)
the plain power law takes over and bands are attached to requested
day-index predictions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Sequence

from .errors import (
    InvalidArgument,
    NoAsymptote,
    NonPositiveValue,
    SingularNormalEquations,
)
from .ingest import TruncatedSeries
from .plec import FitDiagnostics, FitOptions, PlecModel, fit_plec, plec_eval
from .regression import PlFit, TplFit, fit_loglog, fit_pl_growth, predict_variance

Z_95 = 1.96  # two-sided 95% normal quantile


@dataclass(frozen=True)
class AsymptotePrediction:
    """Argument and value of the cutoff curve's interior maximum."""

    x_max: float
    y_max: float


@dataclass(frozen=True)
class ConfidenceBand:
    """Symmetric 95% band around a point estimate.

    ``variance`` is the scaling-law variance at the point and ``n`` the
    divisor inside the standard error.
    """

    point: float
    lower: float
    upper: float
    n: int
    variance: float


@dataclass(frozen=True)
class CoupledPrediction:
    """Outcome of one coupled fit, cutoff route or power-law fallback.

    Exactly one of the two routes is populated: either ``model`` is a
    ``PlecModel`` with an asymptote and a band on the maximal accrual
    value, or ``model`` is a ``PlFit`` with ``fallback_used`` set and
    bands on the requested day indices. Reported values are shifted by
    ``baseline`` (counts absorbed at the truncation point).
    """

    model: PlecModel | PlFit
    tpl: TplFit
    asymptote: AsymptotePrediction | None
    band: ConfidenceBand | None
    baseline: float
    n: int
    fallback_used: bool
    diagnostics: FitDiagnostics | None
    completion_pct: float | None = None
    calendar_date_of_max: date | None = None
    horizon_bands: tuple[tuple[int, ConfidenceBand], ...] = field(default=())


def compute_asymptote(model: PlecModel) -> AsymptotePrediction:
    """Turning point of the cutoff curve: x_max = -w/d, y_max = f(x_max).

    Requires w > 0 and d < 0; otherwise the curve never turns over and
    ``NoAsymptote`` signals the power-law fallback branch.
    """
    if model.w <= 0 or model.d >= 0:
        raise NoAsymptote(
            f"no interior maximum for w={model.w}, d={model.d} "
            "(requires w > 0 and d < 0)"
        )
    x_max = -model.w / model.d
    return AsymptotePrediction(x_max=x_max, y_max=plec_eval(model, x_max))


def confidence_band(
    point: float,
    tpl: TplFit | None,
    n: int,
    variance: float | None = None,
) -> ConfidenceBand:
    """95% band around a point: half-width 1.96 * sqrt(V/n).

    V is the scaling-law variance predicted at the point itself unless
    an explicit ``variance`` override is supplied.
    """
    if point <= 0:
        raise NonPositiveValue(f"point estimate must be > 0, got {point}")
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if variance is None:
        variance = predict_variance(tpl, point)
    if variance < 0:
        raise NonPositiveValue(f"variance must be >= 0, got {variance}")
    half = Z_95 * math.sqrt(variance / n)
    return ConfidenceBand(
        point=point, lower=point - half, upper=point + half, n=n, variance=variance
    )


def day_index_to_date(start: date, t: int) -> date:
    """Calendar date of day index t, with t = 1 on the start date."""
    if t < 1:
        raise InvalidArgument(f"day index must be >= 1, got {t}")
    return start + timedelta(days=t - 1)


def date_to_day_index(start: date, when: date) -> int:
    """Inverse of day_index_to_date: the start date itself is index 1."""
    return (when - start).days + 1


def _round_day(x: float) -> int:
    return max(1, int(math.floor(x + 0.5)))


def _positive_points(series: TruncatedSeries) -> list[tuple[int, int]]:
    # zero relative counts carry no log-scale information and would
    # poison the initial log-log estimate; day indices are preserved
    return [(t, f) for t, f in zip(series.t_index, series.f_rel) if f > 0]


def fit_cutoff(points, opts=FitOptions()):
    """Cutoff fit plus asymptote; returns asymptote None on any failure.

    Failure signals: non-convergence, the taper pinned at its ceiling
    (no taper detectable in the data), no interior maximum, or singular
    normal equations. All of them route callers to the power-law branch.
    """
    try:
        model, diagnostics = fit_plec(points, opts)
    except SingularNormalEquations:
        return None, None, None
    if not diagnostics.converged or diagnostics.constraint_active:
        return model, diagnostics, None
    try:
        return model, diagnostics, compute_asymptote(model)
    except NoAsymptote:
        return model, diagnostics, None


def run_ftr_pipeline(
    series: TruncatedSeries,
    vm_pairs: Sequence[tuple[float, float]],
    n: int | None = None,
    opts: FitOptions = FitOptions(),
    horizons: Sequence[int] = (),
) -> CoupledPrediction:
    """Coupled prediction for one cumulative-fatality series.

    Fits the cutoff curve to the re-based series, computes the turning
    point, fits the variance-mean scaling law to ``vm_pairs`` and bands
    the baseline-inclusive maximal accrual value. When the cutoff fit
    does not converge, pins the taper at the ceiling, or admits no
    maximum, the plain power law is fitted instead and bands are
    attached at the requested ``horizons`` (day indices).

    ``n`` defaults to the number of fitted time points.
    """
    points = _positive_points(series)
    tpl = fit_loglog(vm_pairs)
    n_eff = n if n is not None else len(points)

    model, diagnostics, asymptote = fit_cutoff(points, opts)
    if asymptote is None:
        pl = fit_pl_growth(points, start_date=series.start_date)
        bands = tuple(
            (t, confidence_band(series.baseline + pl.predict(t), tpl, n_eff))
            for t in horizons
        )
        return CoupledPrediction(
            model=pl,
            tpl=tpl,
            asymptote=None,
            band=None,
            baseline=float(series.baseline),
            n=n_eff,
            fallback_used=True,
            diagnostics=diagnostics,
            horizon_bands=bands,
        )

    total_max = series.baseline + asymptote.y_max
    band = confidence_band(total_max, tpl, n_eff)
    observed = series.baseline + series.f_rel[-1]
    return CoupledPrediction(
        model=model,
        tpl=tpl,
        asymptote=asymptote,
        band=band,
        baseline=float(series.baseline),
        n=n_eff,
        fallback_used=False,
        diagnostics=diagnostics,
        completion_pct=observed / total_max * 100.0,
        calendar_date_of_max=day_index_to_date(
            series.start_date, _round_day(asymptote.x_max)
        ),
    )


def run_dar_pipeline(
    curve,
    n: int | None = None,
    opts: FitOptions = FitOptions(),
) -> CoupledPrediction:
    """Coupled prediction for a diversity-accumulation curve.

    Same five steps as the fatality route, fitted to (step, mean
    diversity) with no baseline offset and no calendar dates. The
    scaling law is fitted to the curve's own (mean, variance) pairs,
    dropping steps where either is zero (the final step always is).
    ``n`` defaults to the number of accumulation steps.
    """
    points = [
        (int(k), float(m))
        for k, m in zip(curve.steps, curve.mean_diversity)
        if m > 0
    ]
    vm_pairs = [
        (float(m), float(v))
        for m, v in zip(curve.mean_diversity, curve.variance_diversity)
        if m > 0 and v > 0
    ]
    tpl = fit_loglog(vm_pairs)
    n_eff = n if n is not None else len(curve.steps)

    model, diagnostics, asymptote = fit_cutoff(points, opts)
    if asymptote is None:
        pl = fit_pl_growth(points)
        return CoupledPrediction(
            model=pl,
            tpl=tpl,
            asymptote=None,
            band=None,
            baseline=0.0,
            n=n_eff,
            fallback_used=True,
            diagnostics=diagnostics,
        )

    band = confidence_band(asymptote.y_max, tpl, n_eff)
    return CoupledPrediction(
        model=model,
        tpl=tpl,
        asymptote=asymptote,
        band=band,
        baseline=0.0,
        n=n_eff,
        fallback_used=False,
        diagnostics=diagnostics,
    )
