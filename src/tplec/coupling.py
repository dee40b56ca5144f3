"""Couples cutoff-curve asymptotes with variance-mean scaling.

The cutoff fit supplies a point prediction of the maximal accrual value
(the turning point); the variance-mean scaling law supplies a variance
at that point, which turns into a symmetric 95% band of half-width
``1.96 * sqrt(V / n)``. When the cutoff fit fails (no taper detectable)
the plain power law takes over and bands are attached to requested
day-index predictions instead. Both pipelines share one core; ``run_ftr``
runs the fatality pipeline for every continent of a deaths file. A
result carries its observed series and start date for the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DateOutOfRange,
    InvalidArgument,
    NoAsymptote,
    NonFiniteValue,
    NonPositiveValue,
    SingularNormalEquations,
    stage,
)
from .ingest import DeathsTable, TruncatedSeries, aggregate_regions, truncate_series
from .plec import FitDiagnostics, PlecModel, fit_plec, plec_eval
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

    The model's type names the route: a ``PlecModel`` from a pipeline
    comes with an asymptote and a band on the maximal accrual value; a
    ``PlFit`` has no asymptote and its bands sit on the requested day
    indices. A result read back from an obj report has no asymptote,
    band or diagnostics on either route. Reported values are shifted
    by ``baseline`` (counts absorbed at the truncation point). Without a
    scaling-law fit (``tpl`` None: a diversity curve of order q != 0)
    there are no bands. ``observed_series`` holds the baseline-inclusive
    observed values from t = 1; only a series with a ``start_date`` (the
    date of t = 1) gets a completion level and a date of the maximum.
    """

    model: PlecModel | PlFit
    tpl: TplFit | None
    asymptote: AsymptotePrediction | None
    band: ConfidenceBand | None
    baseline: float
    n: int
    diagnostics: FitDiagnostics | None
    observed_series: tuple[float, ...]
    start_date: date | None
    horizon_bands: tuple[tuple[int, ConfidenceBand], ...] = ()

    @property
    def fallback_used(self) -> bool:
        """True when the power law stood in for the cutoff fit."""
        return isinstance(self.model, PlFit)

    @property
    def completion_pct(self) -> float | None:
        """Latest observed value as a percentage of the maximal accrual value."""
        if self.asymptote is None or self.start_date is None:
            return None
        return self.observed_series[-1] / (self.baseline + self.asymptote.y_max) * 100.0

    @property
    def calendar_date_of_max(self) -> date | None:
        """Date of the day nearest the turning point; None past 9999-12-31."""
        if self.asymptote is None or self.start_date is None:
            return None
        try:
            return day_index_to_date(self.start_date, _round_day(self.asymptote.x_max))
        except DateOutOfRange:
            return None


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
    an explicit ``variance`` override is supplied. Raises
    ``NonFiniteValue`` when the point or the band is not finite.
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
    if not math.isfinite(point + half):
        raise NonFiniteValue(f"the band around {point} is not finite")
    return ConfidenceBand(
        point=point, lower=point - half, upper=point + half, n=n, variance=variance
    )


def day_index_to_date(start: date, t: int) -> date:
    """Calendar date of day index t, with t = 1 on the start date.

    Raises ``DateOutOfRange`` for a date past 9999-12-31.
    """
    if t < 1:
        raise InvalidArgument(f"day index must be >= 1, got {t}")
    try:
        return start + timedelta(days=t - 1)
    except OverflowError:
        raise DateOutOfRange(f"day index {t} from {start} is past {date.max}") from None


def date_to_day_index(start: date, when: date) -> int:
    """Inverse of day_index_to_date: the start date itself is index 1."""
    return (when - start).days + 1


def _round_day(x: float) -> int:
    return max(1, int(math.floor(x + 0.5)))


def _positive_points(series: TruncatedSeries) -> list[tuple[int, int]]:
    # zero relative counts carry no log-scale information and would
    # poison the initial log-log estimate; day indices are preserved
    return [(t, f) for t, f in enumerate(series.f_rel, start=1) if f > 0]


def fit_cutoff(points):
    """Cutoff fit plus asymptote; returns asymptote None on any failure.

    Failure signals: non-convergence, the taper pinned at its ceiling
    (no taper detectable in the data), no interior maximum, or singular
    normal equations. All of them route callers to the power-law branch.
    """
    try:
        model, diagnostics = fit_plec(points)
    except SingularNormalEquations:
        return None, None, None
    if not diagnostics.converged or diagnostics.constraint_active:
        return model, diagnostics, None
    try:
        return model, diagnostics, compute_asymptote(model)
    except NoAsymptote:
        return model, diagnostics, None


def _couple(points, tpl, n, baseline, start_date, series, horizons):
    """The coupling core shared by both pipelines.

    Fits the cutoff curve to ``points`` and bands the baseline-inclusive
    maximal accrual value with the scaling law ``tpl`` (no band when
    ``tpl`` is None). When ``fit_cutoff`` finds no asymptote, the plain
    power law is fitted instead and bands are attached at the day
    indices ``horizons``. ``series`` and ``start_date`` (None for an
    undated curve) become the result's ``observed_series`` and ``start_date``.
    """
    model, diagnostics, asymptote = fit_cutoff(points)
    band, horizon_bands = None, ()
    if asymptote is None:
        model = fit_pl_growth(points)
        horizon_bands = tuple(
            (t, confidence_band(baseline + model.predict(t), tpl, n)) for t in horizons
        )
    elif tpl is not None:
        band = confidence_band(baseline + asymptote.y_max, tpl, n)
    return CoupledPrediction(
        model=model,
        tpl=tpl,
        asymptote=asymptote,
        band=band,
        baseline=float(baseline),
        n=n,
        diagnostics=diagnostics,
        observed_series=series,
        start_date=start_date,
        horizon_bands=horizon_bands,
    )


def run_ftr_pipeline(
    series: TruncatedSeries,
    vm_pairs: Sequence[tuple[float, float]],
    n: int | None = None,
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
    baseline, start = series.baseline, series.start_date
    observed = tuple(baseline + f for f in series.f_rel)
    return _couple(points, tpl, n_eff, baseline, start, observed, horizons)


def run_dar_pipeline(curve, n: int | None = None) -> CoupledPrediction:
    """Coupled prediction for a diversity-accumulation curve.

    Same five steps as the fatality route, fitted to (step, mean
    diversity) with no baseline offset and no calendar dates. The
    scaling law is fitted to the curve's own (mean, variance) pairs,
    dropping steps where either is zero (the final step always is).
    The scaling law only couples at ``curve.q`` = 0; at any other order
    the cutoff or power-law fit is returned with ``tpl`` and ``band``
    None. ``n`` defaults to the number of accumulation steps.
    """
    means = curve.mean_diversity.tolist()
    points = [(k, m) for k, m in enumerate(means, start=1) if m > 0]
    tpl = None
    if curve.q == 0:
        variances = curve.variance_diversity.tolist()
        vm_pairs = [(m, v) for m, v in zip(means, variances) if m > 0 and v > 0]
        tpl = fit_loglog(vm_pairs)
    n_eff = n if n is not None else len(means)
    return _couple(points, tpl, n_eff, 0, None, tuple(means), ())


def _vm_pairs_for_unit(members: np.ndarray):
    """Per-day (mean, variance) of cumulative counts across member countries.

    ``members`` is the members x days block of the window. Each day's
    members are reduced as one contiguous row, which sums in the same
    order as a reduction over that day's column alone, so the pairs are
    the same to the last bit.
    """
    if members.shape[0] < 2:
        return []
    days = np.ascontiguousarray(members.T)
    means = days.mean(axis=1).tolist()
    variances = days.var(axis=1, ddof=1).tolist()
    return [(m, v) for m, v in zip(means, variances) if m > 0.0 and v > 0.0]


def run_ftr(
    table: DeathsTable,
    continent_map: Mapping[str, str],
    start: date,
    end: date,
    n: int | None = None,
    horizons: Sequence[int] = (),
) -> Iterator[tuple[str, CoupledPrediction]]:
    """``run_ftr_pipeline`` for each continent, then World, of a parsed deaths table.

    Each unit's series is truncated to ``start``..``end`` and coupled
    with the variance-mean pairs of its member countries' totals over
    that window. Yields ``(unit, result)`` in report order;
    raises ``StageError`` naming the stage (and the unit of a failed fit).
    """
    units, countries, members = stage(
        "aggregate_regions", aggregate_regions, table, continent_map
    )
    window, series = stage("truncate_series", truncate_series, units, start, end)
    for unit, rows, truncated in zip(units.regions, members, series):
        pairs = _vm_pairs_for_unit(countries.counts[rows, window])
        name = f"run_ftr_pipeline: {unit}"
        result = stage(name, run_ftr_pipeline, truncated, pairs, n, horizons)
        yield unit, result
