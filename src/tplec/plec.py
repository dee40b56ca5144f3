"""Power law with exponential cutoff: y = c * x**w * exp(d*x), d <= 0.

The cutoff factor eventually overwhelms the power-law growth, so the
curve has an interior maximum whenever w > 0 and d < 0. Fitting is
variable projection: c enters linearly and takes its closed-form
least-squares value, and damped Gauss-Newton runs on (w, d) alone, on
raw-scale residuals with d <= D_CEILING. It starts from the better, by
raw-scale SSR, of two log-scale least-squares fits: the plain power law,
and the model's own log form ln y = ln c + w*ln x + d*x.
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
        for name in ("c", "w", "d"):
            _finite(f"parameter {name}", lambda: float(getattr(self, name)))
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


def plec_eval(model: PlecModel, x):
    """Evaluate the curve at x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise NonPositiveValue("evaluation points must be > 0")
    out = model.c * arr**model.w * np.exp(model.d * arr)
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
    ln_x = np.log(arr)
    base = np.exp(model.w * ln_x + model.d * arr)
    value = model.c * base
    return np.array([base, value * ln_x, value * arr]).T


def _projected(y, w, d, ln_x, x) -> tuple[np.ndarray, float, np.ndarray, float]:
    """``base = x**w * exp(d*x)``, the best scale ``c`` for it, the residual
    ``y - c*base`` and its SSR. The SSR is not finite when ``base·base``
    overflows or underflows to 0; otherwise ``c > 0``, as y > 0 and base > 0."""
    base = np.exp(w * ln_x + d * x)
    c = float((base @ y) / (base @ base))
    resid = y - c * base
    return base, c, resid, float(resid @ resid)


def _start(x, y, ln_x, ln_y):
    """The starting (w, d) of ``fit_plec`` and its ``_projected`` result:
    the linearised fit when it is finite and its projected SSR on ``y`` is
    lower, or finite where the power law's is NaN, so never worse than the
    power law. ``ln_y`` is the log of the unscaled y."""
    design = np.column_stack([np.ones_like(ln_x), ln_x, x])
    _, w = np.linalg.lstsq(design[:, :2], ln_y, rcond=None)[0]
    candidates = [(float(w), min(-1.0 / (2.0 * float(x[-1])), D_CEILING))]
    _, w, d = np.linalg.lstsq(design, ln_y, rcond=None)[0]
    linearised = (float(w), min(float(d), D_CEILING))
    if all(map(math.isfinite, linearised)):
        candidates.append(linearised)
    # min keeps the power law on a tie, and a finite SSR over a NaN one
    starts = [(wd, _projected(y, *wd, ln_x, x)) for wd in candidates]
    return min(starts, key=lambda start: (not math.isfinite(start[1][3]), start[1][3]))


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> list[float] | None:
    """The solution of ``matrix @ step = rhs``; None if singular or not finite."""
    try:
        step = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        return None
    return step.tolist() if np.isfinite(step).all() else None


# wild trial steps may overflow; a non-finite SSR is simply rejected
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_plec(points: Sequence[tuple[float, float]]) -> tuple[PlecModel, FitDiagnostics]:
    """Fit the cutoff curve to (x, y) points by damped Gauss-Newton on (w, d).

    For each (w, d) the scale c is (base·y)/(base·base), base = x**w *
    exp(d*x). Starts from the better, by that projected SSR, of two
    log-scale fits: the log-log OLS with d = -1/(2*x_max), and the OLS of
    ln y = ln c + w*ln x + d*x with d clamped to D_CEILING (used only when
    finite). Then iterates Levenberg-style steps on Kaufman's Jacobian, c
    times the partials of base projected off base; a step taking d past
    D_CEILING is re-solved for w alone with d there. The damping factor
    shrinks tenfold after an accepted step and climbs one ladder: a
    singular solve and a step that does not lower the SSR each raise it
    tenfold. Past _DAMPING_LIMIT, a last solve that was singular raises
    ``SingularNormalEquations`` and a last step that did not lower the SSR
    ends the fit as converged. Iteration also stops when the relative drop
    in the sum of squared residuals falls below RESIDUAL_TOLERANCE or
    MAX_ITERATIONS is reached. Failure to converge is reported through the
    diagnostics, not raised. All of this runs on y scaled by a power of
    two, its largest value in [0.5, 1), so that the SSR of a tiny or huge
    y neither underflows nor overflows; c and the SSR are scaled back, and
    a fit whose c or SSR is then not a finite float raises
    ``SingularNormalEquations``.
    """
    x, y = _validated_xy(points, "points", 4)
    if np.any(np.diff(x) <= 0.0):
        raise InvalidArgument("x values must be strictly increasing")

    ln_x = np.log(x)
    # the fit runs on y / 2**k: every step is as on y, but the SSR of a
    # tiny or huge y stays finite and > 0; the start's logs are of y itself
    k = math.frexp(float(y.max()))[1]
    ln_y, y = np.log(y), np.ldexp(y, -k)
    sst = float(((y - y.mean()) ** 2).sum())
    (w, d), (base, c, resid, ssr) = _start(x, y, ln_x, ln_y)
    lam = INITIAL_DAMPING
    converged = ssr == 0.0
    iterations = 0

    while not converged and iterations < MAX_ITERATIONS:
        iterations += 1
        # Kaufman's Jacobian: c times d(base)/d(w, d), projected off base
        jac = c * np.array([base * ln_x, base * x])
        jac -= np.outer(jac @ base / (base @ base), base)
        grad = jac @ resid
        normal = jac @ jac.T
        diag = normal.diagonal()
        top = diag.max()
        floor = top if top > 0 else 1.0
        scale = np.diag(np.where(diag > 0, diag, floor))

        # the else branch runs when lam passes _DAMPING_LIMIT unaccepted
        while lam <= _DAMPING_LIMIT:
            damped = normal + lam * scale
            step = _solve(damped, grad)
            if step is not None:
                w_new, d_new = w + step[0], d + step[1]
                if d_new > D_CEILING:
                    # constraint active: hold d at the ceiling and re-solve
                    # the damped system for w alone, otherwise the
                    # projected step carries a stale d contribution
                    step = _solve(damped[:1, :1], grad[:1])
                    if step is not None:
                        w_new, d_new = w + step[0], D_CEILING
            if step is not None:
                trial = _projected(y, w_new, d_new, ln_x, x)
                base_new, c_new, resid_new, ssr_new = trial
                if math.isfinite(ssr_new) and ssr_new < ssr:
                    break
            lam *= 10.0
        else:
            if step is None:
                raise SingularNormalEquations(
                    "damped normal matrix stayed singular at maximum damping"
                )
            # no descent direction left at maximum damping: the residual
            # cannot be reduced further, which satisfies the relative
            # SSR-change criterion with a change of zero
            converged = True
            break

        rel_drop = (ssr - ssr_new) / ssr if ssr > 0 else 0.0
        w, d = w_new, d_new
        base, c, resid, ssr = base_new, c_new, resid_new, ssr_new
        lam = max(lam / 10.0, 1e-16)
        if rel_drop < RESIDUAL_TOLERANCE:
            converged = True

    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0
    c, ssr = float(np.ldexp(c, k)), float(np.ldexp(ssr, 2 * k))
    if not (0.0 < c < math.inf and ssr < math.inf):
        raise SingularNormalEquations(f"the fit's c = {c} or SSR = {ssr} is out of range")
    model = PlecModel(c=c, w=w, d=d)
    diagnostics = FitDiagnostics(
        converged=converged,
        iterations=iterations,
        sum_squared_residuals=ssr,
        r_squared=min(1.0, r_squared),
        constraint_active=(d == D_CEILING),
    )
    return model, diagnostics
