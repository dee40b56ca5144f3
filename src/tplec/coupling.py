"""Couples cutoff-curve asymptotes with variance-mean scaling.

The cutoff fit supplies a point prediction of the maximal accrual value
(the turning point); the variance-mean scaling law supplies a variance
at that point, which turns into a symmetric 95% band of half-width
``1.96 * sqrt(V / n)``. When the cutoff fit fails (no taper detectable)
the plain power law takes over and bands are attached to requested
day-index predictions instead. ``couple`` does this for one unit's
observed series; ``run_ftr`` calls it for every continent of a deaths
file and ``run_dar_pipeline`` for a diversity-accumulation curve. A
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
from .ingest import DeathsTable, aggregate_regions, truncate_series
from .plec import FitDiagnostics, PlecModel, fit_plec
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
    return AsymptotePrediction(x_max=x_max, y_max=model.predict(x_max))


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


def couple(
    observed: Sequence[float] | np.ndarray,
    vm_pairs: Sequence[tuple[float, float]] | np.ndarray | None,
    n: int | None = None,
    horizons: Sequence[int] = (),
    baseline: float = 0,
    start_date: date | None = None,
) -> CoupledPrediction:
    """Coupled prediction for one unit's observed series.

    ``observed`` is the baseline-inclusive series from t = 1, a sequence
    or a 1-d array; ``vm_pairs`` is a sequence of (mean, variance) pairs
    or an (k, 2) array. The scaling law is fitted to ``vm_pairs`` (none,
    and no band, when it is None), then the cutoff curve to the points
    ``(t, v - baseline)`` with ``v > baseline``, and the
    baseline-inclusive maximal accrual value is banded. An integer
    series is compared and subtracted in its own integer type, exactly
    beyond 2**53; an integer baseline outside that type's range, or so
    far below the series that a difference would leave it, raises
    ``InvalidArgument``. A NaN or infinite value or baseline raises
    ``NonFiniteValue`` before any fit, naming the first such day index.
    When ``fit_cutoff`` finds no asymptote, the plain power law is
    fitted instead and bands are attached at the day indices
    ``horizons``. ``n`` is an integer >= 1, or None for the number of
    fitted points; any other ``n`` raises ``InvalidArgument`` before any fit.
    ``start_date`` is the date of t = 1 (None for an undated curve).
    """
    values = np.asarray(observed)
    if values.ndim != 1:
        raise InvalidArgument(f"observed must be a 1-d series, got shape {values.shape}")
    if n is not None and (
        isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1
    ):
        raise InvalidArgument(f"n must be an integer >= 1, got {n!r}")
    # compared, not converted: an integer series stays exact beyond 2**53
    if not -math.inf < baseline < math.inf:
        raise NonFiniteValue(f"baseline must be finite, got {baseline}")
    if values.dtype.kind in "iu" and isinstance(baseline, (int, np.integer)):
        bounds, baseline = np.iinfo(values.dtype), int(baseline)
        if not bounds.min <= baseline <= bounds.max:
            raise InvalidArgument(
                f"baseline {baseline} lies outside the series' integer range "
                f"({values.dtype}, {bounds.min}..{bounds.max})"
            )
        if values.size and int(values.max()) - baseline > bounds.max:
            raise InvalidArgument(
                f"baseline {baseline} is so far below the series that its largest "
                f"difference exceeds the {values.dtype} maximum {bounds.max}"
            )
    with np.errstate(invalid="ignore"):  # a NaN among Python ints warns
        finite = (values > -math.inf) & (values < math.inf)
    if not finite.all():
        t = int(np.argmin(finite)) + 1
        raise NonFiniteValue(f"observed value on day index {t} is not finite")
    # values at or below the baseline carry no log-scale information and
    # would poison the initial log-log estimate; day indices are preserved
    keep = values > baseline
    points = np.empty((np.count_nonzero(keep), 2))
    points[:, 0] = np.flatnonzero(keep) + 1
    points[:, 1] = values[keep] - baseline
    tpl = None if vm_pairs is None else fit_loglog(vm_pairs)
    n = n if n is not None else len(points)
    model, diagnostics, asymptote = fit_cutoff(points)
    band, horizon_bands = None, ()
    if asymptote is None:
        model = fit_pl_growth(points)
        if tpl is not None:
            horizon_bands = tuple(
                (t, confidence_band(baseline + model.predict(t), tpl, n))
                for t in horizons
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
        observed_series=tuple(values.tolist()),
        start_date=start_date,
        horizon_bands=horizon_bands,
    )


def run_dar_pipeline(curve, n: int | None = None) -> CoupledPrediction:
    """``couple`` for a diversity-accumulation curve: (step, mean diversity).

    The scaling law is fitted to the curve's own (mean, variance) pairs,
    dropping steps where either is zero (the final step always is), and
    only at ``curve.q`` = 0; at any other order there is no band.
    """
    means = curve.mean_diversity
    pairs = None
    if curve.q == 0:
        variances = curve.variance_diversity
        keep = (means > 0) & (variances > 0)
        pairs = np.stack((means[keep], variances[keep]), axis=1)
    return couple(means, pairs, n)


_VM_BLOCK = 8192  # member-days reduced at a time: 64 KiB of float64


def _vm_pairs_for_unit(members: np.ndarray) -> np.ndarray:
    """Per-day (mean, variance) of cumulative counts across member countries.

    ``members`` is the members x days block of the window. Returns a
    (k, 2) float64 array of the days where both are > 0, empty for fewer
    than two members. The days are reduced a block of at most
    ``_VM_BLOCK`` member-days at a time (one day, if it has more
    members), so that its temporaries stay under malloc's default 128
    KiB mmap threshold. A block is transposed to float64 so that each
    day's members are a contiguous row, in member order, and is reduced
    with the operations of numpy's ``mean`` and ``var(ddof=1)``, the day
    sums formed once; so the pairs are the same to the last bit as those
    of that day's column alone.
    """
    m, n_days = members.shape
    if m < 2:
        return np.empty((0, 2))
    pairs = np.empty((n_days, 2))
    step = max(1, _VM_BLOCK // m)
    for start in range(0, n_days, step):
        days = members[:, start : start + step].T.astype(np.float64, order="C")
        means = pairs[start : start + step, 0]
        np.divide(days.sum(axis=1), m, out=means)
        days -= means[:, None]
        np.square(days, out=days)
        np.divide(days.sum(axis=1), m - 1, out=pairs[start : start + step, 1])
    return pairs[(pairs > 0.0).all(axis=1)]


def run_ftr(
    table: DeathsTable,
    continent_map: Mapping[str, str],
    start: date,
    end: date,
    n: int | None = None,
    horizons: Sequence[int] = (),
) -> Iterator[tuple[str, CoupledPrediction]]:
    """``couple`` for each continent, then World, of a parsed deaths table.

    Each unit's row over ``start``..``end`` is coupled with the
    variance-mean pairs of its member countries' totals over that
    window, above its count on the day before ``start``. Yields
    ``(unit, result)`` in report order; raises ``StageError`` naming the
    stage (and the unit of a failed fit).
    """
    units, countries, members = stage(
        "aggregate_regions", aggregate_regions, table, continent_map
    )
    window, baselines = stage("truncate_series", truncate_series, units, start, end)
    rows = units.counts[:, window]
    for unit, unit_members, observed, baseline in zip(
        units.regions, members, rows, baselines
    ):
        pairs = _vm_pairs_for_unit(countries.counts[unit_members, window])
        name = f"couple: {unit}"
        result = stage(name, couple, observed, pairs, n, horizons, baseline, start)
        yield unit, result
