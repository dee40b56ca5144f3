"""Tests for the exponential-cutoff curve: evaluation, partials, fitting."""

import math

import numpy as np
import pytest

from tplec import (
    FitOptions,
    PlecModel,
    fit_plec,
    plec_eval,
    plec_jacobian,
)
from tplec.errors import InvalidArgument, NonPositiveValue, TooFewPoints
from tplec.regression import _ols_loglog

# frozen from a 50-digit evaluation of c * x**w * exp(d*x)
EVAL_ORACLE_VALUE = 18355.221386513164


def finite_difference_jacobian(model: PlecModel, x: float):
    """Central differences in each parameter, h = 1e-6 * max(1, |theta|)."""
    theta = (model.c, model.w, model.d)
    out = []
    for i in range(3):
        h = 1e-6 * max(1.0, abs(theta[i]))
        hi = list(theta)
        lo = list(theta)
        hi[i] += h
        lo[i] -= h
        f_hi = hi[0] * x ** hi[1] * math.exp(hi[2] * x)
        f_lo = lo[0] * x ** lo[1] * math.exp(lo[2] * x)
        out.append((f_hi - f_lo) / (2.0 * h))
    return tuple(out)


class TestEval:
    def test_unit_argument_no_taper(self):
        assert plec_eval(PlecModel(c=2.0, w=1.3, d=0.0), 1.0) == pytest.approx(2.0)

    def test_direct_arithmetic(self):
        value = plec_eval(PlecModel(c=1.0, w=1.0, d=-1.0), 1.0)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_high_precision_oracle(self):
        value = plec_eval(PlecModel(c=180.452, w=1.150, d=-0.002), 62.0)
        assert value == pytest.approx(EVAL_ORACLE_VALUE, rel=1e-12)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(NonPositiveValue):
            plec_eval(PlecModel(c=1.0, w=1.0, d=-0.1), 0.0)
        with pytest.raises(NonPositiveValue):
            plec_eval(PlecModel(c=1.0, w=1.0, d=-0.1), -2.0)

    def test_vectorized_evaluation(self):
        model = PlecModel(c=2.0, w=1.3, d=-0.01)
        xs = np.array([1.0, 2.0, 5.0])
        np.testing.assert_allclose(
            plec_eval(model, xs), [plec_eval(model, float(v)) for v in xs]
        )

    def test_multiplicative_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = 10 ** rng.uniform(-1, 3)
            w = rng.uniform(0.2, 3.0)
            d = -(10 ** rng.uniform(-4, -1))
            x = rng.uniform(0.5, 80.0)
            full = plec_eval(PlecModel(c=c, w=w, d=d), x)
            plain = plec_eval(PlecModel(c=c, w=w, d=0.0), x)
            assert full == pytest.approx(plain * math.exp(d * x), rel=1e-14)

    def test_model_validation(self):
        with pytest.raises(NonPositiveValue):
            PlecModel(c=0.0, w=1.0, d=-0.1)
        with pytest.raises(ValueError):
            PlecModel(c=1.0, w=1.0, d=0.1)
        with pytest.raises(InvalidArgument):
            PlecModel(c=1.0, w=1.0, d=0.1)


class TestJacobian:
    def test_identity_point(self):
        jc, jw, jd = plec_jacobian(PlecModel(c=1.0, w=0.0, d=0.0), 1.0)
        assert jc == pytest.approx(1.0)
        assert jw == pytest.approx(0.0, abs=1e-15)
        assert jd == pytest.approx(1.0)

    def test_matches_finite_differences(self):
        model = PlecModel(c=2.0, w=1.3, d=-0.01)
        analytic = plec_jacobian(model, 5.0)
        numeric = finite_difference_jacobian(model, 5.0)
        for a, f in zip(analytic, numeric):
            assert f == pytest.approx(a, rel=1e-5)

    def test_exponent_partial_vanishes_at_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model = PlecModel(
                c=10 ** rng.uniform(-1, 3),
                w=rng.uniform(-1.0, 3.0),
                d=-rng.uniform(1e-4, 0.05),
            )
            assert plec_jacobian(model, 1.0)[1] == 0.0

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(NonPositiveValue):
            plec_jacobian(PlecModel(c=1.0, w=1.0, d=-0.1), 0.0)


def grid_search_oracle(x, y, d_fixed, c_center):
    """Exhaustive 2-D grid over (c, w) at fixed d.

    w spans [0, 4] in steps of 1e-3; c spans two decades around the
    supplied center on a log grid. Returns the smallest grid SSR.
    """
    w_grid = np.arange(0.0, 4.0 + 1e-9, 1e-3)
    c_grid = np.geomspace(c_center / 10.0, c_center * 10.0, 801)
    best = np.inf
    sum_y2 = float(y @ y)
    for w in w_grid:
        g = x**w * np.exp(d_fixed * x)
        gg = float(g @ g)
        gy = float(g @ y)
        ssr = sum_y2 - 2.0 * c_grid * gy + c_grid**2 * gg
        best = min(best, float(ssr.min()))
    return best


class TestFitPlec:
    def test_noiseless_recovery(self):
        x = np.arange(1.0, 61.0)
        true = PlecModel(c=2.0, w=1.3, d=-0.01)
        y = plec_eval(true, x)
        model, diag = fit_plec(list(zip(x, y)))
        assert diag.converged
        assert model.c == pytest.approx(true.c, rel=1e-6)
        assert model.w == pytest.approx(true.w, rel=1e-6)
        assert model.d == pytest.approx(true.d, rel=1e-6)
        assert diag.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_interior_optimum_leaves_constraint_inactive(self):
        x = np.arange(1.0, 61.0)
        y = plec_eval(PlecModel(c=2.0, w=1.3, d=-0.01), x)
        model, diag = fit_plec(list(zip(x, y)), FitOptions(d_ceiling=-1e-12))
        assert not diag.constraint_active
        assert model.d == pytest.approx(-0.01, rel=1e-6)

    def test_positive_curvature_pins_taper_at_ceiling(self):
        x = np.arange(1.0, 61.0)
        y = 2.0 * x**1.3 * np.exp(0.001 * x)
        opts = FitOptions(d_ceiling=-1e-12)
        model, diag = fit_plec(list(zip(x, y)), opts)
        assert diag.constraint_active
        assert model.d == opts.d_ceiling
        best_grid = grid_search_oracle(x, y, opts.d_ceiling, c_center=2.0)
        assert diag.sum_squared_residuals <= best_grid + 1e-6

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_plec([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(NonPositiveValue):
            fit_plec([(1.0, 1.0), (2.0, 0.0), (3.0, 3.0), (4.0, 4.0)])

    def test_non_increasing_x_rejected(self):
        with pytest.raises(ValueError):
            fit_plec([(1.0, 1.0), (3.0, 2.0), (2.0, 3.0), (4.0, 4.0)])

    def test_ssr_never_exceeds_initialization(self):
        rng = np.random.default_rng(21)
        x = np.arange(1.0, 41.0)
        for _ in range(20):
            y = plec_eval(
                PlecModel(
                    c=10 ** rng.uniform(-1, 3),
                    w=rng.uniform(0.2, 2.5),
                    d=-(10 ** rng.uniform(-4, -1.4)),
                ),
                x,
            ) * rng.uniform(0.7, 1.3, size=x.size)
            opts = FitOptions()
            model, diag = fit_plec(list(zip(x, y)), opts)
            # recompute the solver's initialization point
            w0, ln_c0, *_ = _ols_loglog(x, y)
            d0 = min(-1.0 / (2.0 * x[-1]), opts.d_ceiling)
            resid0 = y - math.exp(ln_c0) * x**w0 * np.exp(d0 * x)
            assert diag.sum_squared_residuals <= float(resid0 @ resid0) + 1e-12

    def test_deterministic(self):
        x = np.arange(1.0, 61.0)
        y = plec_eval(PlecModel(c=7.0, w=0.9, d=-0.02), x) * np.linspace(
            0.95, 1.05, x.size
        )
        points = list(zip(x, y))
        m1, d1 = fit_plec(points)
        m2, d2 = fit_plec(points)
        assert (m1.c, m1.w, m1.d) == (m2.c, m2.w, m2.d)
        assert d1 == d2
