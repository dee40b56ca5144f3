"""Typed errors for bad arguments and non-finite fit inputs."""

import math
from datetime import date

import numpy as np
import pytest

from tplec import (
    AbundanceTable,
    FitOptions,
    accumulate,
    day_index_to_date,
    fit_cutoff,
    fit_loglog,
    fit_pl_growth,
    fit_plec,
    hill_number,
    resample_accumulation,
)
from tplec.errors import InvalidArgument, NonFiniteValue, TplecError

TABLE = AbundanceTable(("s1", "s2"), ("t1", "t2"), np.array([[1, 0], [2, 3]]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: FitOptions(max_iterations=0),
        lambda: FitOptions(residual_tolerance=0.0),
        lambda: FitOptions(initial_damping=-1.0),
        lambda: FitOptions(d_ceiling=0.0),
        lambda: day_index_to_date(date(2021, 3, 1), 0),
        lambda: hill_number([1, 2], -1.0),
        lambda: hill_number([[1, 2]], 0.0),
        lambda: accumulate(TABLE, [0, 1], -0.5),
        lambda: resample_accumulation(TABLE, 1, 0.0, 0),
        lambda: resample_accumulation(TABLE, 2, 0.0, -1),
        lambda: resample_accumulation(TABLE, 2, -1.0, 0),
        lambda: AbundanceTable(("s1",), ("t1", "t2"), np.array([[1, 2], [3, 4]])),
        lambda: fit_plec([(1, 1), (3, 2), (2, 3), (4, 4)]),
    ],
    ids=[
        "max_iterations", "residual_tolerance", "initial_damping", "d_ceiling",
        "day_index", "hill_q", "hill_ndim", "accumulate_q", "replicates", "seed",
        "resample_q", "table_shape", "x_not_increasing",
    ],
)  # fmt: skip
def test_bad_argument_raises_invalid_argument(call):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, TplecError) and isinstance(err.value, ValueError)


BAD = (math.nan, math.inf, -math.inf)
GROWTH = [(1.0, 2.0), (2.0, 3.5), (3.0, 5.0), (4.0, 6.0), (5.0, 6.5)]


def _spoil(points, index, value, axis):
    out = [list(p) for p in points]
    out[index][axis] = value
    return [tuple(p) for p in out]


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize(
    "fit", [fit_loglog, fit_pl_growth, fit_plec, fit_cutoff], ids=lambda f: f.__name__
)
def test_non_finite_fit_input_is_rejected(fit, axis, value):
    points = _spoil(GROWTH, 2, value, axis)
    with pytest.raises(NonFiniteValue, match="finite"):
        fit(points)
