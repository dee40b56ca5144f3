#!/usr/bin/env python3
"""Fit the cutoff curve to seeded noisy series and print what the solver did.

Series k draws from ``--seed``: a point count n from 15 to 200, an
exponent w from 0.3 to 2.5, a turning point -w/d from 0.3 to 3 times n
and a scale c from 1 to 1000. Its daily increments are negative-binomial
around the curve's increments M (none where the curve falls), with
variance a*M**b (a from 1 to 10, b from 1 to 2; at least 1.001*M, which
a negative binomial needs). The fitted points are (t, y) with y, the
running total on day t, above zero.

Each series is fitted with ``tplec.fit_cutoff``, from whichever ``tplec``
is importable (set ``PYTHONPATH`` to compare two source trees). One line
per series gives the SSR (17 significant digits), the iterations, the
converged and constraint flags, the route (``cutoff`` when an asymptote
was found, ``power-law`` when the caller falls back, or the error raised)
and the fit's wall time; a last line gives the totals, with ``at_cap``
the number of fits that stopped at ``MAX_ITERATIONS``, and last the
total fit time. Every line ends in its one timed field, so without that
field the output is deterministic:

    PYTHONPATH=src python benchmarks/noisy_fits.py --seed 0 --series 300
"""

import argparse
import time

import numpy as np

from tplec import fit_cutoff
from tplec.errors import TplecError
from tplec.plec import MAX_ITERATIONS


def noisy_series(rng: np.random.Generator) -> list[tuple[float, float]]:
    n = int(rng.integers(15, 201))
    w = rng.uniform(0.3, 2.5)
    d = -w / (rng.uniform(0.3, 3.0) * n)
    c = 10 ** rng.uniform(0.0, 3.0)
    a = 10 ** rng.uniform(0.0, 1.0)
    b = rng.uniform(1.0, 2.0)
    t = np.arange(n + 1, dtype=np.float64)
    mean = np.maximum(np.diff(c * t**w * np.exp(d * t)), 0.0)
    rises = mean > 0
    m = np.where(rises, mean, 1.0)
    var = np.maximum(a * m**b, 1.001 * m)
    # numpy's negative_binomial(r, p) has mean r(1-p)/p and variance r(1-p)/p**2
    draws = rng.negative_binomial(m * m / (var - m), m / var)
    total = np.cumsum(np.where(rises, draws, 0))
    return [(float(day), float(v)) for day, v in zip(t[1:], total) if v > 0]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--series", type=int, required=True)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print("series points ssr iterations converged constraint route fit_ms")
    iterations = at_cap = 0
    fit_s = 0.0
    routes: dict[str, int] = {}
    for k in range(args.series):
        points = noisy_series(rng)
        start = time.perf_counter()
        try:
            _, diagnostics, asymptote = fit_cutoff(points)
        except TplecError as exc:
            diagnostics, route = None, type(exc).__name__
        else:
            route = "cutoff" if asymptote is not None else "power-law"
        elapsed = time.perf_counter() - start
        fit_s += elapsed
        routes[route] = routes.get(route, 0) + 1
        if diagnostics is None:
            fields = ["-"] * 4
        else:
            iterations += diagnostics.iterations
            at_cap += diagnostics.iterations >= MAX_ITERATIONS
            fields = [
                f"{diagnostics.sum_squared_residuals:.17g}",
                diagnostics.iterations,
                int(diagnostics.converged),
                int(diagnostics.constraint_active),
            ]
        print(k, len(points), *fields, route, f"{elapsed * 1e3:.3f}")
    counts = " ".join(f"{name}={n}" for name, n in sorted(routes.items()))
    print(
        f"total series={args.series} iterations={iterations} at_cap={at_cap}"
        f" {counts} fit_ms={fit_s * 1e3:.1f}"
    )


if __name__ == "__main__":
    main()
