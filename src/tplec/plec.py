"""Power law with exponential cutoff: y = c * x**w * exp(d*x), d <= 0.

The cutoff factor eventually overwhelms the power-law growth, so the
curve has an interior maximum whenever w > 0 and d < 0. Fitting is
damped Gauss-Newton least squares on raw-scale residuals with an
analytic Jacobian and the taper parameter projected onto d <= D_CEILING
after every step. It starts from the better, by raw-scale SSR, of two
log-scale least-squares fits: the plain power law, and the model's own
log form ln y = ln c + w*ln x + d*x, which is linear in (ln c, w, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, NonPositiveValue, SingularNormalEquations
from .regression import _finite, _validated_xy

MAX_ITERATIONS = 200
RESIDUAL_TOLERANCE = 1e-10
INITIAL_DAMPING = 1e-3
D_CEILING = -1e-12
_DAMPING_LIMIT = 1e15


@dataclass(frozen=True)
class PlecModel:
    """Parameters of y = c * x**w * exp(d*x).

    ``c`` scales the curve (roughly the value at x = 1), ``w`` is the
    power exponent (``z`` in area contexts) and ``d <= 0`` the taper-off
    parameter; d = 0 degenerates to a plain power law.
    """

    c: float
    w: float
    d: float

    def __post_init__(self):
        if not self.c > 0:
            raise NonPositiveValue(f"scale c must be > 0, got {self.c}")
        if self.d > 0:
            raise InvalidArgument(f"taper parameter d must be <= 0, got {self.d}")

    def predict(self, x: float) -> float:
        """Evaluate the curve at x > 0; overflow raises NonFiniteValue."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(
                f"the cutoff curve at x = {x}", lambda: plec_eval(self, float(x))
            )


@dataclass(frozen=True)
class FitDiagnostics:
    """What the solver did: convergence flag, iterations, fit quality."""

    converged: bool
    iterations: int
    sum_squared_residuals: float
    r_squared: float
    constraint_active: bool


def _eval_arrays(c: float, w: float, d: float, x: np.ndarray) -> np.ndarray:
    return c * x**w * np.exp(d * x)


def plec_eval(model: PlecModel, x):
    """Evaluate the curve at x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise NonPositiveValue("evaluation points must be > 0")
    out = _eval_arrays(model.c, model.w, model.d, arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _jacobian(c: float, base: np.ndarray, ln_x: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Partials (d/dc, d/dw, d/dd) from ``base = x**w * exp(d*x)``, one row each."""
    value = c * base
    return np.array([base, value * ln_x, value * x])


def plec_jacobian(model: PlecModel, x) -> np.ndarray:
    """Analytic partials (d/dc, d/dw, d/dd) at x > 0, one row per point.

    A scalar x gives a row of three; an array gives a len(x) x 3 matrix.
    d/dc = x**w * exp(d*x);  d/dw multiplies the value by ln(x);
    d/dd multiplies the value by x.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise NonPositiveValue("evaluation points must be > 0")
    ln_x = np.log(arr)
    return _jacobian(model.c, np.exp(model.w * ln_x + model.d * arr), ln_x, arr).T


def _start(x: np.ndarray, y: np.ndarray, ln_x: np.ndarray) -> tuple[float, float, float]:
    """The starting (c, w, d) of ``fit_plec``: the linearised fit when it is
    finite and its raw-scale SSR is lower, so never worse than the power law."""
    ln_y = np.log(y)
    design = np.column_stack([np.ones_like(ln_x), ln_x, x])
    (ln_c, w), *_ = np.linalg.lstsq(design[:, :2], ln_y, rcond=None)
    power_law = (float(np.exp(ln_c)), float(w), min(-1.0 / (2.0 * float(x[-1])), D_CEILING))
    (ln_c, w, d), *_ = np.linalg.lstsq(design, ln_y, rcond=None)
    linearised = (float(np.exp(ln_c)), float(w), min(float(d), D_CEILING))
    if not (all(map(math.isfinite, linearised)) and linearised[0] > 0):
        return power_law
    ssr = [_residual(y, c, w, d, ln_x, x)[2] for c, w, d in (power_law, linearised)]
    return linearised if ssr[1] < ssr[0] else power_law


def _residual(y, c, w, d, ln_x, x) -> tuple[np.ndarray, np.ndarray, float]:
    """``base = x**w * exp(d*x)``, the residual ``y - c*base`` and its SSR."""
    base = np.exp(w * ln_x + d * x)
    resid = y - c * base
    return base, resid, float(resid @ resid)


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> list[float] | None:
    """The solution of ``matrix @ step = rhs``; None if singular or not finite."""
    try:
        step = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return None
    return step.tolist() if np.isfinite(step).all() else None


# wild trial steps may overflow; a non-finite SSR is simply rejected
@np.errstate(over="ignore", invalid="ignore")
def fit_plec(points: Sequence[tuple[float, float]]) -> tuple[PlecModel, FitDiagnostics]:
    """Fit the cutoff curve to (x, y) points by damped Gauss-Newton.

    Starts from the better, by raw-scale SSR, of two log-scale fits: the
    log-log OLS of (c, w) with d = -1/(2*x_max), and the OLS of the
    model's log form ln y = ln c + w*ln x + d*x with d clamped to
    D_CEILING (used only when it is finite). Then iterates
    Levenberg-style steps: the damping factor shrinks after an accepted
    step and grows after a rejected one, and d is clamped to D_CEILING
    after every step. Iteration stops when the relative drop in the sum
    of squared residuals falls below RESIDUAL_TOLERANCE or
    MAX_ITERATIONS is reached. Failure to converge is reported through
    the diagnostics, not raised.
    """
    x, y = _validated_xy(points, "points", 4)
    if np.any(np.diff(x) <= 0.0):
        raise InvalidArgument("x values must be strictly increasing")

    ln_x = np.log(x)
    sst = float(((y - y.mean()) ** 2).sum())
    c, w, d = _start(x, y, ln_x)
    base, resid, ssr = _residual(y, c, w, d, ln_x, x)
    lam = INITIAL_DAMPING
    converged = ssr == 0.0
    iterations = 0

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        jac = _jacobian(c, base, ln_x, x)
        grad = jac @ resid
        normal = jac @ jac.T
        diag = normal.diagonal()
        top = diag.max()
        floor = top if top > 0 else 1.0
        scale = np.diag(np.where(diag > 0, diag, floor))

        accepted = False
        while True:
            damped = normal + lam * scale
            step = _solve(damped, grad)
            if step is not None:
                c_new, w_new, d_new = c + step[0], w + step[1], d + step[2]
                if d_new > D_CEILING:
                    # constraint active: hold d at the ceiling and re-solve
                    # the damped system for (c, w) alone, otherwise the
                    # projected step carries a stale d contribution
                    step = _solve(damped[:2, :2], grad[:2])
                    if step is not None:
                        c_new, w_new, d_new = c + step[0], w + step[1], D_CEILING
            if step is None:
                lam *= 10.0
                if lam > _DAMPING_LIMIT:
                    raise SingularNormalEquations(
                        "damped normal matrix stayed singular at maximum damping"
                    )
                continue

            if c_new > 0:
                base_new, resid_new, ssr_new = _residual(y, c_new, w_new, d_new, ln_x, x)
            else:
                ssr_new = math.inf
            if math.isfinite(ssr_new) and ssr_new < ssr:
                accepted = True
                break
            lam *= 10.0
            if lam > _DAMPING_LIMIT:
                break

        if not accepted:
            # no descent direction left at maximum damping: the residual
            # cannot be reduced further, which satisfies the relative
            # SSR-change criterion with a change of zero
            converged = True
            break

        rel_drop = (ssr - ssr_new) / ssr if ssr > 0 else 0.0
        c, w, d = c_new, w_new, d_new
        base, resid, ssr = base_new, resid_new, ssr_new
        lam = max(lam / 10.0, 1e-16)
        if rel_drop < RESIDUAL_TOLERANCE:
            converged = True

    model = PlecModel(c=c, w=w, d=d)
    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0
    diagnostics = FitDiagnostics(
        converged=converged,
        iterations=iterations,
        sum_squared_residuals=ssr,
        r_squared=min(1.0, r_squared),
        constraint_active=(d == D_CEILING),
    )
    return model, diagnostics
