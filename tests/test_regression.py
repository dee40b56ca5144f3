"""Tests for the log-log regression module."""

import math

import numpy as np
import pytest

from tplec import (
    PlFit,
    fit_loglog,
    fit_pl_growth,
    predict_variance,
)
from tplec.errors import DegenerateX, NonPositiveValue, TooFewPoints


def ols_oracle(xs, ys):
    """Closed-form OLS on logs, coded independently of the package."""
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    syy = sum((b - my) ** 2 for b in ly)
    slope = sxy / sxx
    intercept = my - slope * mx
    r_squared = sxy * sxy / (sxx * syy)
    return slope, intercept, r_squared


# fixed fixture: V = 3 * M**1.5 with multiplicative noise; the closed-form
# oracle above gives the frozen slope/intercept asserted below
NOISY_MEANS = [1.0, 3.0, 10.0, 40.0, 150.0]
NOISY_VARIANCES = [
    3.18,
    14.497265259351504,
    105.30384608360704,
    736.1782392871986,
    5621.578959687394,
]
NOISY_SLOPE = 1.49719350035082
NOISY_INTERCEPT = 1.1212847476225432


class TestFitLoglog:
    def test_exact_power_law_recovery(self):
        pairs = [(1.0, 2.0), (10.0, 200.0), (100.0, 20000.0)]
        fit = fit_loglog(pairs)
        assert fit.b == pytest.approx(2.0, abs=1e-12)
        assert fit.ln_a == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_pairs == 3

    def test_identical_means_degenerate(self):
        pairs = [(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)]
        with pytest.raises(DegenerateX):
            fit_loglog(pairs)

    def test_noisy_fit_matches_closed_form_oracle(self):
        fit = fit_loglog(list(zip(NOISY_MEANS, NOISY_VARIANCES)))
        slope, intercept, r_squared = ols_oracle(NOISY_MEANS, NOISY_VARIANCES)
        assert slope == pytest.approx(NOISY_SLOPE, abs=1e-14)
        assert intercept == pytest.approx(NOISY_INTERCEPT, abs=1e-14)
        assert fit.b == pytest.approx(slope, abs=1e-10)
        assert fit.ln_a == pytest.approx(intercept, abs=1e-10)
        assert fit.r_squared == pytest.approx(r_squared, abs=1e-10)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPoints):
            fit_loglog([(1.0, 2.0), (2.0, 3.0)])

    def test_zero_values_rejected(self):
        with pytest.raises(NonPositiveValue):
            fit_loglog([(1.0, 2.0), (0.0, 3.0), (2.0, 4.0)])
        with pytest.raises(NonPositiveValue):
            fit_loglog([(1.0, 2.0), (2.0, 0.0), (3.0, 4.0)])


class TestPredictVariance:
    def test_direct_arithmetic(self):
        from tplec import TplFit

        fit = TplFit(ln_a=math.log(2.0), b=2.0, r_squared=1.0, n_pairs=3)
        assert predict_variance(fit, 10.0) == pytest.approx(200.0, rel=1e-14)

    def test_constant_variance_degenerate_fit(self):
        from tplec import TplFit

        fit = TplFit(ln_a=0.0, b=0.0, r_squared=0.0, n_pairs=3)
        assert predict_variance(fit, 7.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle_prediction(self):
        fit = fit_loglog(list(zip(NOISY_MEANS, NOISY_VARIANCES)))
        expected = math.exp(NOISY_INTERCEPT) * 20.0**NOISY_SLOPE
        assert predict_variance(fit, 20.0) == pytest.approx(expected, rel=1e-10)

    def test_nonpositive_mean_rejected(self):
        from tplec import TplFit

        fit = TplFit(ln_a=0.0, b=1.0, r_squared=1.0, n_pairs=3)
        with pytest.raises(NonPositiveValue):
            predict_variance(fit, 0.0)
        with pytest.raises(NonPositiveValue):
            predict_variance(fit, -3.0)


# fixed fixture: y = 2 * t**1.3 with multiplicative noise; the t statistic
# and two-sided p-value below were frozen from an incomplete-beta oracle
# evaluated at 40 decimal digits
PL_T = list(range(1, 11))
PL_Y = [
    2.1,
    4.776840323778275,
    8.509181722333366,
    13.095791134649842,
    15.234172008911969,
    20.746650696045627,
    24.848068880541025,
    31.648479072928513,
    33.40538573642086,
    41.102403688358926,
]
PL_P_VALUE = 6.999177703078980e-12


def t_sf_oracle(t_stat: float, dof: int) -> float:
    """Survival function of Student's t via the regularized incomplete
    beta function, evaluated in high precision (independent of scipy)."""
    import mpmath as mp

    mp.mp.dps = 40
    x = mp.mpf(dof) / (dof + mp.mpf(repr(t_stat)) ** 2)
    return float(
        mp.betainc(mp.mpf(dof) / 2, mp.mpf("0.5"), 0, x, regularized=True) / 2
    )


class TestFitPlGrowth:
    def test_exact_power_law(self):
        series = [(t, 3.0 * t**2) for t in range(1, 6)]
        fit = fit_pl_growth(series)
        assert fit.ln_c == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert abs(fit.r) == pytest.approx(1.0, abs=1e-12)

    def test_prediction_from_rounded_continental_parameters(self):
        # rounded three-decimal reference parameters reproduce the
        # associated point prediction only to about ten percent
        fit = PlFit(ln_c=0.498, exponent=2.072, r=0.994, p_value=0.0)
        predicted = fit.predict(467)
        assert predicted == pytest.approx(
            math.exp(0.498 + 2.072 * math.log(467)), rel=1e-12
        )
        assert predicted == pytest.approx(606_878, rel=0.10)

    def test_p_value_matches_t_distribution_oracle(self):
        fit = fit_pl_growth(list(zip(PL_T, PL_Y)))
        # recompute the t statistic from first principles
        lx = [math.log(t) for t in PL_T]
        ly = [math.log(y) for y in PL_Y]
        n = len(lx)
        mx = sum(lx) / n
        my = sum(ly) / n
        sxx = sum((a - mx) ** 2 for a in lx)
        sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
        slope = sxy / sxx
        intercept = my - slope * mx
        ssr = sum((b - (intercept + slope * a)) ** 2 for a, b in zip(lx, ly))
        t_stat = slope / math.sqrt(ssr / (n - 2) / sxx)
        expected = 2.0 * t_sf_oracle(t_stat, n - 2)
        assert expected == pytest.approx(PL_P_VALUE, rel=1e-12)
        assert fit.p_value == pytest.approx(expected, rel=1e-8)

    def test_p_value_kernel_equals_scipy_t_survival_bit_for_bit(self):
        # the slope p-value uses scipy.special.stdtr instead of importing
        # scipy.stats; both give the same double for every t and dof
        from scipy import stats
        from scipy.special import stdtr

        for dof in (1, 2, 3, 7, 30, 61, 650):
            for t in (0.0, 1e-8, 0.3, 1.96, 4.5, 17.0, 250.0, 1e6):
                assert 2.0 * stdtr(dof, -t) == 2.0 * stats.t.sf(t, dof)

    def test_perfect_fit_p_value_negligible(self):
        series = [(t, 3.0 * t**2) for t in range(1, 6)]
        assert fit_pl_growth(series).p_value < 1e-30


class TestProperties:
    def test_x_scale_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            means = np.sort(rng.uniform(0.5, 200.0, size=8))
            variances = 2.0 * means**1.7 * rng.uniform(0.9, 1.1, size=8)
            k = rng.uniform(0.1, 50.0)
            base = fit_loglog(list(zip(means, variances)))
            scaled = fit_loglog(list(zip(means * k, variances)))
            assert scaled.b == pytest.approx(base.b, abs=1e-10)
            assert scaled.ln_a == pytest.approx(
                base.ln_a - base.b * math.log(k), abs=1e-9
            )

    def test_y_scale_covariance(self):
        rng = np.random.default_rng(12)
        means = np.sort(rng.uniform(0.5, 200.0, size=8))
        variances = 2.0 * means**1.7 * rng.uniform(0.9, 1.1, size=8)
        k = 7.5
        base = fit_loglog(list(zip(means, variances)))
        scaled = fit_loglog(list(zip(means, variances * k)))
        assert scaled.b == pytest.approx(base.b, abs=1e-10)
        assert scaled.ln_a == pytest.approx(base.ln_a + math.log(k), abs=1e-10)

    def test_prediction_monotone_for_positive_exponent(self):
        fit = fit_loglog([(1.0, 2.0), (10.0, 200.0), (100.0, 20000.0)])
        assert fit.b > 0
        grid = np.linspace(0.1, 500.0, 200)
        values = [predict_variance(fit, m) for m in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_growth_and_scaling_fits_agree_on_same_data(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = np.sort(rng.uniform(1.0, 100.0, size=9))
            y = 3.0 * x**1.2 * rng.uniform(0.8, 1.2, size=9)
            tpl = fit_loglog(list(zip(x, y)))
            pl = fit_pl_growth(list(zip(x, y)))
            assert pl.exponent == tpl.b
            assert pl.ln_c == tpl.ln_a
