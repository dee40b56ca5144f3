"""Tests for the exponential-cutoff curve: evaluation, partials, fitting."""

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from tplec import (
    PlecModel,
    fit_plec,
    plec,
    plec_eval,
    plec_jacobian,
)
from tplec.errors import (
    InvalidArgument,
    NonPositiveValue,
    SingularNormalEquations,
    TooFewPoints,
)
from tplec.plec import D_CEILING, MAX_ITERATIONS
from tplec.regression import _ols_loglog

# the seeded noisy-series generator of benchmarks/noisy_fits.py
_SPEC = importlib.util.spec_from_file_location(
    "noisy_fits", Path(__file__).parents[1] / "benchmarks" / "noisy_fits.py"
)
noisy_fits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(noisy_fits)

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


def grid_search_oracle(x, y, w_grid, d_grid):
    """Exhaustive profile-SSR grid over (w, d).

    At each grid point the scale is the exact least-squares value
    c = g·y / g·g for g = x**w * exp(d*x). Returns the smallest grid SSR.
    """
    ln_x = np.log(x)
    best = np.inf
    for d in d_grid:
        g = np.exp(np.outer(w_grid, ln_x) + d * x)
        c = (g @ y) / np.einsum("ij,ij->i", g, g)
        resid = y - c[:, None] * g
        best = min(best, float(np.einsum("ij,ij->i", resid, resid).min()))
    return best


@functools.lru_cache(maxsize=None)
def noisy_draw(seed, count):
    """The first ``count`` series of ``noisy_fits.py --seed <seed>``."""
    rng = np.random.default_rng(seed)
    return tuple(noisy_fits.noisy_series(rng) for _ in range(count))


class TestFitPlec:
    def test_the_kept_start_is_projected_once(self, monkeypatch):
        at = []
        projected = plec._projected

        def spy(y, w, d, ln_x, x):
            at.append((w, d))
            return projected(y, w, d, ln_x, x)

        monkeypatch.setattr(plec, "_projected", spy)
        points = noisy_draw(0, 1)[0]
        _, diag = fit_plec(points)
        assert diag.iterations > 0
        # the two start candidates, the power law's first, then trial steps
        assert at[0][1] == -1.0 / (2.0 * points[-1][0])
        assert at[1][1] != at[0][1]
        assert at[2] not in at[:2]

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
        model, diag = fit_plec(list(zip(x, y)))
        assert not diag.constraint_active
        assert model.d == pytest.approx(-0.01, rel=1e-6)

    def test_positive_curvature_pins_taper_at_ceiling(self):
        x = np.arange(1.0, 61.0)
        y = 2.0 * x**1.3 * np.exp(0.001 * x)
        model, diag = fit_plec(list(zip(x, y)))
        assert diag.constraint_active
        assert model.d == D_CEILING
        w_grid = np.arange(0.0, 4.0 + 1e-9, 1e-3)
        best_grid = grid_search_oracle(x, y, w_grid, [D_CEILING])
        assert diag.sum_squared_residuals <= best_grid + 1e-6

    @pytest.mark.parametrize("series", [11, 60, 122, 128])
    def test_valley_series_reach_the_least_squares_minimum(self, series):
        # these minima lie far down a valley, with c at 1e-12..1e-4 and w at
        # 5.9..9.3; a search over (c, w, d) stalled on the way at MAX_ITERATIONS
        points = noisy_draw(0, 300)[series]
        model, diag = fit_plec(points)
        assert diag.converged
        assert not diag.constraint_active
        assert diag.iterations < 20
        x, y = np.array(points).T
        w_grid = np.linspace(0.0, 12.0, 601)
        d_grid = np.linspace(-15.0, -0.1, 150) / x[-1]
        assert diag.sum_squared_residuals <= grid_search_oracle(x, y, w_grid, d_grid)

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
            model, diag = fit_plec(list(zip(x, y)))
            # recompute the solver's initialization point
            w0, ln_c0, *_ = _ols_loglog(x, y)
            d0 = min(-1.0 / (2.0 * x[-1]), D_CEILING)
            resid0 = y - math.exp(ln_c0) * x**w0 * np.exp(d0 * x)
            assert diag.sum_squared_residuals <= float(resid0 @ resid0) + 1e-12

    @pytest.mark.parametrize("seed, count", [(4, 200), (0, 300)], ids=["seed4", "seed0"])
    def test_interior_fits_of_noisy_series_are_stationary(self, seed, count):
        # first-order optimality, whatever the start: at a converged fit with
        # the taper off its ceiling, the residual is orthogonal to every
        # Jacobian column, up to the solver's stopping tolerance
        interior = 0
        for points in noisy_draw(seed, count):
            model, diag = fit_plec(points)
            assert diag.iterations < MAX_ITERATIONS
            if not diag.converged or diag.constraint_active:
                continue
            interior += 1
            x, y = np.array(points).T
            jac = plec_jacobian(model, x)
            resid = y - plec_eval(model, x)
            cosine = np.abs(jac.T @ resid) / (
                np.linalg.norm(jac, axis=0) * np.linalg.norm(resid)
            )
            assert cosine.max() <= 1e-5
        assert interior >= 0.75 * count

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_tiny_and_huge_y_are_fitted_as_at_unit_scale(self, scale):
        # the SSR of y itself underflows to 0 at the start (1e-300) or
        # overflows there (1e160); the fit runs on y scaled to about 1
        x = np.arange(1.0, 40.0)
        y = scale * 50.0 * x**1.4 * np.exp(-0.05 * x)
        model, diag = fit_plec(list(zip(x, y)))
        assert diag.converged and diag.iterations > 0
        assert model.w == pytest.approx(1.4, rel=1e-9)
        assert model.d == pytest.approx(-0.05, rel=1e-9)
        assert model.c == pytest.approx(50.0 * scale, rel=1e-9)

    def test_ssr_past_the_float_range_raises(self):
        # the fit itself succeeds on the scaled y, but its SSR, about
        # 2e-30 * 4**1007, is no float: the caller falls back as before
        x = np.arange(1.0, 40.0)
        y = 1e300 * 50.0 * x**1.4 * np.exp(-0.05 * x)
        with pytest.raises(SingularNormalEquations):
            fit_plec(list(zip(x, y)))

    def test_tiny_x_raises_singular_normal_equations(self):
        with pytest.raises(SingularNormalEquations, match="maximum damping"):
            fit_plec([(1e-300 * i, float(i)) for i in range(1, 10)])

    def test_a_finite_start_is_kept_over_one_whose_ssr_is_nan(self):
        # a log-log slope of about 970 overflows x**w, so the power-law
        # start's SSR is NaN while the linearised start's is finite
        points = [(1.0, 1e-300), (2.0, 1e-100), (3.0, 1e100), (4.0, 1e300)]
        x, y = np.array(points).T
        ln_x, ln_y = np.log(x), np.log(y)
        with np.errstate(over="ignore", invalid="ignore"):
            (w, d), (*_, ssr) = plec._start(x, np.ldexp(y, -997), ln_x, ln_y)
        assert d == D_CEILING and abs(w) < 1e-6 and math.isfinite(ssr)
        # the fit then runs from that start and ends past the float range
        with pytest.raises(SingularNormalEquations, match="out of range"):
            fit_plec(points)

    def test_a_tie_keeps_the_power_law_start(self, monkeypatch):
        projected = plec._projected

        def tied(y, w, d, ln_x, x):
            base, c, resid, _ = projected(y, w, d, ln_x, x)
            return base, c, resid, 1.0

        monkeypatch.setattr(plec, "_projected", tied)
        x, y = np.array(noisy_draw(0, 1)[0]).T
        (_, d), _ = plec._start(x, y, np.log(x), np.log(y))
        assert d == -1.0 / (2.0 * x[-1])

    def test_non_finite_steps_are_rejected_like_singular_ones(self, monkeypatch):
        # y = e**-690 * x**970: both log-scale fits have a slope of 970,
        # which overflows x**w, so both starts' SSRs are NaN; _start keeps
        # the power law, and every damped solve from it returns a
        # non-finite step instead of raising
        real_solve, steps = np.linalg.solve, []

        def solve(matrix, rhs):
            steps.append(real_solve(matrix, rhs))
            return steps[-1]

        monkeypatch.setattr(np.linalg, "solve", solve)
        points = [(float(i), math.exp(970.0 * math.log(i) - 690.0)) for i in range(1, 5)]
        with pytest.raises(SingularNormalEquations, match="maximum damping"):
            fit_plec(points)
        assert steps and not any(np.isfinite(step).all() for step in steps)

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
