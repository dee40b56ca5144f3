"""Power law with exponential cutoff: y = c * x**w * exp(d*x), d <= 0.

The cutoff factor eventually overwhelms the power-law growth, so the
curve has an interior maximum whenever w > 0 and d < 0. Fitting is
damped Gauss-Newton least squares on raw-scale residuals with an
analytic Jacobian and the taper parameter projected onto d <= D_CEILING
after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, NonPositiveValue, SingularNormalEquations
from .regression import _ols_loglog, _validated_xy

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
        """Evaluate the curve at x > 0."""
        return plec_eval(self, float(x))


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


def plec_jacobian(model: PlecModel, x) -> np.ndarray:
    """Analytic partials (d/dc, d/dw, d/dd) at x > 0, one row per point.

    A scalar x gives a row of three; an array gives a len(x) x 3 matrix.
    d/dc = x**w * exp(d*x);  d/dw multiplies the value by ln(x);
    d/dd multiplies the value by x.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise NonPositiveValue("evaluation points must be > 0")
    base = arr**model.w * np.exp(model.d * arr)
    value = model.c * base
    return np.stack([base, value * np.log(arr), value * arr], axis=-1)


def fit_plec(points: Sequence[tuple[float, float]]) -> tuple[PlecModel, FitDiagnostics]:
    """Fit the cutoff curve to (x, y) points by damped Gauss-Newton.

    Starts from the log-log OLS estimate of (c, w) with d = -1/(2*x_max),
    then iterates Levenberg-style steps: the damping factor shrinks
    after an accepted step and grows after a rejected one, and d is
    clamped to D_CEILING after every step. Iteration stops when the
    relative drop in the sum of squared residuals falls below
    RESIDUAL_TOLERANCE or MAX_ITERATIONS is reached. Failure to
    converge is reported through the diagnostics, not raised.
    """
    x, y = _validated_xy(points, "points", 4)
    if np.any(np.diff(x) <= 0.0):
        raise InvalidArgument("x values must be strictly increasing")

    w0, ln_c0, *_ = _ols_loglog(x, y)
    c = float(np.exp(ln_c0))
    w = w0
    d = min(-1.0 / (2.0 * float(x[-1])), D_CEILING)

    with np.errstate(over="ignore", invalid="ignore"):
        resid = y - _eval_arrays(c, w, d, x)
    ssr = float(resid @ resid)
    sst = float(((y - y.mean()) ** 2).sum())
    lam = INITIAL_DAMPING
    converged = ssr == 0.0
    iterations = 0

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        jac = plec_jacobian(PlecModel(c=c, w=w, d=d), x)
        grad = jac.T @ resid
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        floor = diag.max() if diag.max() > 0 else 1.0
        scale = np.where(diag > 0, diag, floor)

        accepted = False
        while True:
            damped = normal + lam * np.diag(scale)
            try:
                step = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                c_new = c + float(step[0])
                w_new = w + float(step[1])
                d_new = d + float(step[2])
                if d_new > D_CEILING:
                    # constraint active: hold d at the ceiling and re-solve
                    # the damped system for (c, w) alone, otherwise the
                    # projected step carries a stale d contribution
                    try:
                        reduced = np.linalg.solve(damped[:2, :2], grad[:2])
                    except np.linalg.LinAlgError:
                        reduced = None
                    if reduced is None or not np.all(np.isfinite(reduced)):
                        step = None
                    else:
                        c_new = c + float(reduced[0])
                        w_new = w + float(reduced[1])
                        d_new = D_CEILING
            if step is None or not np.all(np.isfinite(step)):
                lam *= 10.0
                if lam > _DAMPING_LIMIT:
                    raise SingularNormalEquations(
                        "damped normal matrix stayed singular at maximum damping"
                    )
                continue

            if c_new > 0:
                # wild trial steps may overflow; a non-finite SSR is simply
                # rejected below
                with np.errstate(over="ignore", invalid="ignore"):
                    resid_new = y - _eval_arrays(c_new, w_new, d_new, x)
                    ssr_new = float(resid_new @ resid_new)
            else:
                ssr_new = np.inf
            if np.isfinite(ssr_new) and ssr_new < ssr:
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
        resid, ssr = resid_new, ssr_new
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
