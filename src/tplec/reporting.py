"""Report-row assembly and serialization for the CLI commands.

One fixed column set per table so downstream comparisons are mechanical:

* main report: ``unit,c,w,d,r_squared,t_max,date_max,f_max,observed,
  completion_pct,lower_95,upper_95,fallback_used``
* power-law fallback rows (one per unit and horizon): ``unit,z,ln_c,r,
  p_value,start_date,horizon_date,predicted,lower_95,upper_95``
* curve files: ``t,date,predicted,lower,upper,observed``

The ``obj`` format is a single JSON document with a ``units`` list, the
same for ``ftr`` and ``dar``, embedding per unit both fits and
everything needed to redraw curves (baseline, n, start date, observed
values); ``tpl`` is null and ``band`` absent when there is no scaling law.
``result_from_payload`` reads a unit record back into a result.

Every per-unit row and record renders from ``(unit, result)`` alone,
and a curve from ``(result, horizon)``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from datetime import date
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .coupling import CoupledPrediction, confidence_band, day_index_to_date
from .errors import InvalidArgument
from .plec import PlecModel, plec_eval
from .regression import PlFit, TplFit, _finite

REPORT_COLUMNS = [
    "unit",
    "c",
    "w",
    "d",
    "r_squared",
    "t_max",
    "date_max",
    "f_max",
    "observed",
    "completion_pct",
    "lower_95",
    "upper_95",
    "fallback_used",
]

FALLBACK_COLUMNS = [
    "unit",
    "z",
    "ln_c",
    "r",
    "p_value",
    "start_date",
    "horizon_date",
    "predicted",
    "lower_95",
    "upper_95",
]

CURVE_COLUMNS = ["t", "date", "predicted", "lower", "upper", "observed"]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def rows_to_dsv(columns: Sequence[str], rows: Sequence[Mapping]) -> str:
    """CSV text, a cell quoted when it holds a comma, a quote, a LF or a CR."""
    records: list[str] = []
    # csv quotes a cell holding a character of its line terminator, so a
    # "\n" writer would leave a bare CR bare: write "\r\n", then trim the CR
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows([format_cell(row.get(col)) for col in columns] for row in rows)
    return "".join([record[:-2] + "\n" for record in records])


def report_row(unit: str, result: CoupledPrediction) -> dict:
    """Flatten one coupled prediction into the main report schema."""
    row = {col: None for col in REPORT_COLUMNS}
    row["unit"] = unit
    row["observed"] = result.observed_series[-1]
    row["fallback_used"] = result.fallback_used
    if result.fallback_used:
        row["w"] = result.model.exponent
        ln_c = result.model.ln_c
        row["c"] = _finite(f"c = exp({ln_c}) of unit {unit!r}", lambda: math.exp(ln_c))
        row["r_squared"] = result.model.r ** 2
        return row
    model = result.model
    row["c"] = model.c
    row["w"] = model.w
    row["d"] = model.d
    row["r_squared"] = result.diagnostics.r_squared
    row["t_max"] = result.asymptote.x_max
    row["date_max"] = result.calendar_date_of_max
    row["f_max"] = result.baseline + result.asymptote.y_max
    if result.band is not None:
        row["lower_95"] = result.band.lower
        row["upper_95"] = result.band.upper
    if result.completion_pct is not None:
        row["completion_pct"] = f"{result.completion_pct:.1f}"
    return row


def fallback_rows(unit: str, result: CoupledPrediction) -> list[dict]:
    """Per-horizon power-law predictions for a fallback unit; none for another."""
    pl = result.model
    rows = []
    for t, band in result.horizon_bands:
        rows.append(
            {
                "unit": unit,
                "z": pl.exponent,
                "ln_c": pl.ln_c,
                "r": pl.r,
                "p_value": pl.p_value,
                "start_date": result.start_date,
                "horizon_date": day_index_to_date(result.start_date, t),
                "predicted": band.point,
                "lower_95": band.lower,
                "upper_95": band.upper,
            }
        )
    return rows


def _model_values(model: PlecModel | PlFit, horizon: int) -> Iterable[float]:
    """The model at t = 1..horizon, a cutoff curve in one array evaluation.

    A cutoff curve's non-finite values are returned as they are; the
    power law raises ``NonFiniteValue`` as each value is drawn.
    """
    if isinstance(model, PlFit):
        return (model.predict(t) for t in range(1, horizon + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return plec_eval(model, np.arange(1.0, horizon + 1.0)).tolist()


def curve_rows(result: CoupledPrediction, horizon: int) -> list[dict]:
    """Plot-ready rows t = 1..horizon with the 95% band at each point.

    The result's observed values fill t = 1, 2, ...; rows beyond the
    data are left blank, and so are the dates of an undated result.
    Bands are evaluated at the baseline-inclusive prediction; without a
    scaling-law fit they stay blank.
    """
    observed, start = result.observed_series, result.start_date
    rows = []
    for t, value in enumerate(_model_values(result.model, horizon), start=1):
        if not math.isfinite(value):
            value = result.model.predict(t)  # raises NonFiniteValue naming t
        predicted = result.baseline + value
        band = None
        if result.tpl is not None:
            band = confidence_band(predicted, result.tpl, result.n)
        rows.append(
            {
                "t": t,
                "date": day_index_to_date(start, t) if start else None,
                "predicted": predicted,
                "lower": band.lower if band else None,
                "upper": band.upper if band else None,
                "observed": observed[t - 1] if t <= len(observed) else None,
            }
        )
    return rows


def _jsonable(value):
    if isinstance(value, date):
        return value.isoformat()
    return value


def _model_payload(result: CoupledPrediction) -> dict:
    if result.fallback_used:
        pl = result.model
        return {
            "kind": "pl",
            "ln_c": pl.ln_c,
            "z": pl.exponent,
            "r": pl.r,
            "p_value": pl.p_value,
            "start_date": _jsonable(result.start_date),
        }
    model = result.model
    return {"kind": "plec", "c": model.c, "w": model.w, "d": model.d}


def unit_payload(unit: str, result: CoupledPrediction) -> dict:
    """Full machine-readable record for one unit (obj format).

    The ``tpl``, ``diagnostics``, ``band`` and horizon-band records
    carry the fields of ``TplFit``, ``FitDiagnostics`` and
    ``ConfidenceBand`` in declaration order.
    """
    payload = {
        "unit": unit,
        "fallback_used": result.fallback_used,
        "model": _model_payload(result),
        "tpl": asdict(result.tpl) if result.tpl is not None else None,
        "baseline": result.baseline,
        "n": result.n,
        "start_date": _jsonable(result.start_date),
        "observed_latest": result.observed_series[-1],
        "observed_series": list(result.observed_series),
    }
    if result.diagnostics is not None:
        payload["diagnostics"] = asdict(result.diagnostics)
    if result.asymptote is not None:
        payload["asymptote"] = {
            "x_max": result.asymptote.x_max,
            "y_max": result.asymptote.y_max,
            "date_of_max": _jsonable(result.calendar_date_of_max),
        }
        if result.band is not None:
            payload["band"] = asdict(result.band)
        payload["completion_pct"] = result.completion_pct
    if result.horizon_bands:
        payload["horizon_bands"] = [
            {"t": t, **asdict(band)} for t, band in result.horizon_bands
        ]
    return payload


def finite_number(name: str, value):
    """``value`` itself when it is a finite int or float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise InvalidArgument(f"{name} = {value!r} is not a finite number")
    return value


def result_from_payload(payload: dict) -> CoupledPrediction:
    """The result an obj unit record describes, as far as a curve needs it.

    Reads back the model, scaling law, baseline, n, start date and
    observed series that ``unit_payload`` wrote; the result has no
    asymptote, band or diagnostics. A missing field raises ``KeyError``
    and a malformed one ``TypeError`` or ``ValueError`` (a non-finite
    number, an unknown model kind or a non-integer n raise
    ``InvalidArgument``), except a cutoff scale c <= 0, which raises
    ``NonPositiveValue``.
    """
    info = payload["model"]
    kind = info["kind"]
    if kind == "pl":
        names = ("ln_c", "z", "r", "p_value")
        model = PlFit(*(finite_number(k, info[k]) for k in names))
    elif kind == "plec":
        model = PlecModel(*(finite_number(k, info[k]) for k in ("c", "w", "d")))
    else:
        raise InvalidArgument(f"model kind {kind!r} is neither 'pl' nor 'plec'")
    tpl = payload["tpl"]
    if tpl is not None:
        for key in ("ln_a", "b"):
            finite_number(key, tpl[key])
        tpl = TplFit(**tpl)
    baseline = finite_number("baseline", float(payload["baseline"]))
    n = payload["n"]
    if type(n) is not int:
        raise InvalidArgument(f"the record has n = {n!r}, not an integer")
    start = payload.get("start_date")
    series = payload.get("observed_series")
    if series is not None and not isinstance(series, list):
        raise InvalidArgument(f"observed_series = {series!r} is not a list")
    return CoupledPrediction(
        model=model,
        tpl=tpl,
        asymptote=None,
        band=None,
        baseline=baseline,
        n=n,
        diagnostics=None,
        observed_series=tuple(
            finite_number("observed_series value", v) for v in series or ()
        ),
        start_date=date.fromisoformat(start) if start else None,
    )


def to_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=False) + "\n"
