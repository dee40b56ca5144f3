"""Command-line surface: ingestion, fitting, coupling, report emission.

Three subcommands: ``ftr`` fits cumulative-fatality series per continent
(plus World), ``dar`` fits a resampled diversity-accumulation curve, and
``curve`` emits plot-ready prediction bands from a previous report or
from explicit parameters. Exit status is 0 when the run completed (even
if individual units fell back to the power law) and 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .coupling import (
    date_to_day_index,
    fit_cutoff,
    run_dar_pipeline,
    run_ftr_pipeline,
)
from .diversity import resample_accumulation
from .errors import InvalidArgument, TplecError
from .ingest import (
    aggregate_regions,
    country_totals,
    parse_abundance_table,
    parse_continent_map,
    parse_jhu_deaths,
    truncate_series,
)
from .plec import FitOptions, PlecModel
from .regression import PlFit, TplFit, fit_pl_growth
from . import reporting


class CliInputError(TplecError):
    """Input or configuration problem; maps to exit status 2."""


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TplecError as exc:
        raise CliInputError(f"{name}: {type(exc).__name__}: {exc}") from exc


def _read_text(path: str, op: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliInputError(f"{op}: cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _sibling(out: str, suffix: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + suffix + (p.suffix or ".csv")))


def _check_n(n: int | None) -> None:
    if n is not None and n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")


def _parse_iso(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a YYYY-MM-DD date")


def _vm_pairs_for_unit(members: np.ndarray, lo: int, hi: int):
    """Per-day (mean, variance) of cumulative counts across member countries.

    ``members`` is a members x days matrix. Each day's members are
    reduced as one contiguous row, which sums in the same order as a
    reduction over that day's column alone, so the pairs are the same
    to the last bit.
    """
    if members.shape[0] < 2:
        return []
    days = np.ascontiguousarray(members[:, lo : hi + 1].T)
    means = days.mean(axis=1).tolist()
    variances = days.var(axis=1, ddof=1).tolist()
    return [(m, v) for m, v in zip(means, variances) if m > 0.0 and v > 0.0]


def cmd_ftr(args) -> int:
    _stage("cmd_ftr", _check_n, args.n)
    deaths_text = _read_text(args.deaths, "parse_jhu_deaths")
    map_text = _read_text(args.continents, "parse_continent_map")
    rows = _stage("parse_jhu_deaths", parse_jhu_deaths, deaths_text)
    continent_map = _stage("parse_continent_map", parse_continent_map, map_text)
    units = _stage("aggregate_regions", aggregate_regions, rows, continent_map)
    if args.start >= args.end:
        raise CliInputError("cmd_ftr: --start must precede --end")

    countries, totals = country_totals(rows)
    horizon_dates = args.horizon or [
        args.end + timedelta(days=k) for k in (30, 60, 90)
    ]
    horizons = [date_to_day_index(args.start, d) for d in horizon_dates]
    if any(h < 1 for h in horizons):
        raise CliInputError("cmd_ftr: horizon dates must not precede --start")

    report_rows = []
    fallback_rows = []
    payloads = []
    for unit in units:
        truncated = _stage(
            "truncate_series", truncate_series, unit, args.start, args.end
        )
        if unit.region == "World":
            members = totals
        else:
            members = totals[
                [i for i, c in enumerate(countries) if continent_map[c] == unit.region]
            ]
        dates0 = unit.dates.index(args.start)
        dates1 = unit.dates.index(args.end)
        vm_pairs = _vm_pairs_for_unit(members, dates0, dates1)
        result = _stage(
            "run_ftr_pipeline",
            run_ftr_pipeline,
            truncated,
            vm_pairs,
            n=args.n,
            horizons=horizons,
        )
        observed = truncated.baseline + truncated.f_rel[-1]
        report_rows.append(reporting.report_row(unit.region, result, observed))
        if result.fallback_used:
            fallback_rows.extend(reporting.fallback_rows(unit.region, result))
        payloads.append(
            reporting.unit_payload(
                unit.region,
                result,
                observed,
                start_date=args.start,
                observed_series=[truncated.baseline + f for f in truncated.f_rel],
            )
        )

    if args.format == "obj":
        _write_text(args.out, reporting.to_json({"command": "ftr", "units": payloads}))
    else:
        _write_text(
            args.out, reporting.rows_to_dsv(reporting.REPORT_COLUMNS, report_rows)
        )
        if fallback_rows:
            _write_text(
                _sibling(args.out, "_fallback"),
                reporting.rows_to_dsv(reporting.FALLBACK_COLUMNS, fallback_rows),
            )
    return 0


def _dar_point_fit(curve):
    """Cutoff fit for q > 0: point predictions only, no scaling-law band."""
    points = [
        (int(k), float(m)) for k, m in zip(curve.steps, curve.mean_diversity) if m > 0
    ]
    model, diagnostics, asymptote = fit_cutoff(points, FitOptions())
    if asymptote is None:
        model = fit_pl_growth(points)
    return model, diagnostics, asymptote


def cmd_dar(args) -> int:
    if args.replicates < 2:
        raise CliInputError("cmd_dar: --replicates must be at least 2")
    if not (math.isfinite(args.q) and args.q >= 0):
        raise CliInputError(f"cmd_dar: --q must be finite and >= 0, got {args.q}")
    if args.seed < 0:
        raise CliInputError(f"cmd_dar: --seed must be >= 0, got {args.seed}")
    _stage("cmd_dar", _check_n, args.n)
    table_text = _read_text(args.abundance, "parse_abundance_table")
    table = _stage("parse_abundance_table", parse_abundance_table, table_text)
    curve = _stage(
        "resample_accumulation",
        resample_accumulation,
        table,
        args.replicates,
        args.q,
        args.seed,
    )
    unit = Path(args.abundance).stem
    observed = float(curve.mean_diversity[-1])
    n_steps = int(curve.steps[-1])

    if args.q == 0:
        result = _stage("run_dar_pipeline", run_dar_pipeline, curve, n=args.n)
        row = reporting.report_row(unit, result, observed)
        tpl = result.tpl
        model = result.model
        asymptote = result.asymptote
    else:
        # the variance-mean scaling law only couples at q = 0; point
        # predictions are still emitted with the confidence columns blank
        print(
            "note: confidence bands are only available at q = 0; "
            "emitting point predictions without intervals",
            file=sys.stderr,
        )
        model, diagnostics, asymptote = _stage("fit_cutoff", _dar_point_fit, curve)
        tpl = None
        row = {col: None for col in reporting.REPORT_COLUMNS}
        row["unit"] = unit
        row["observed"] = observed
        row["fallback_used"] = asymptote is None
        if isinstance(model, PlecModel):
            row["c"], row["w"], row["d"] = model.c, model.w, model.d
        else:
            row["c"], row["w"] = math.exp(model.ln_c), model.exponent
        if diagnostics is not None:
            row["r_squared"] = diagnostics.r_squared
        if asymptote is not None:
            row["t_max"] = asymptote.x_max
            row["f_max"] = asymptote.y_max

    if asymptote is not None:
        default_horizon = max(n_steps, int(math.ceil(asymptote.x_max)))
    else:
        default_horizon = n_steps
    horizon = args.horizon or default_horizon
    observed_map = {int(k): float(m) for k, m in zip(curve.steps, curve.mean_diversity)}
    rows = reporting.curve_rows(
        model,
        tpl,
        baseline=0.0,
        n=args.n or n_steps,
        horizon=horizon,
        observed=observed_map,
    )

    if args.format == "obj":
        payload = {
            "command": "dar",
            "unit": unit,
            "q": args.q,
            "replicates": args.replicates,
            "seed": args.seed,
            "report": {k: reporting.format_cell(v) for k, v in row.items()},
            "curve": [
                {k: reporting.format_cell(v) for k, v in r.items()} for r in rows
            ],
        }
        _write_text(args.out, reporting.to_json(payload))
    else:
        _write_text(args.out, reporting.rows_to_dsv(reporting.REPORT_COLUMNS, [row]))
        _write_text(
            _sibling(args.out, "_curve"),
            reporting.rows_to_dsv(reporting.CURVE_COLUMNS, rows),
        )
    return 0


def _model_from_payload(payload) -> tuple:
    model_info = payload["model"]
    if model_info["kind"] == "pl":
        start = model_info.get("start_date")
        model = PlFit(
            ln_c=model_info["ln_c"],
            exponent=model_info["z"],
            r=model_info["r"],
            p_value=model_info["p_value"],
            start_date=date.fromisoformat(start) if start else None,
        )
    else:
        model = PlecModel(c=model_info["c"], w=model_info["w"], d=model_info["d"])
    tpl_info = payload["tpl"]
    tpl = TplFit(
        ln_a=tpl_info["ln_a"],
        b=tpl_info["b"],
        r_squared=tpl_info["r_squared"],
        n_pairs=tpl_info["n_pairs"],
    )
    return model, tpl


def cmd_curve(args) -> int:
    _stage("cmd_curve", _check_n, args.n)
    if args.report:
        document = json.loads(_read_text(args.report, "cmd_curve"))
        match = [u for u in document.get("units", []) if u["unit"] == args.unit]
        if not match:
            raise CliInputError(f"cmd_curve: unit {args.unit!r} not in {args.report}")
        payload = match[0]
        model, tpl = _model_from_payload(payload)
        baseline = payload["baseline"]
        n = payload["n"]
        start = payload.get("start_date")
        start_date = date.fromisoformat(start) if start else None
        series = payload.get("observed_series") or []
        observed = {t + 1: v for t, v in enumerate(series)}
    else:
        try:
            c, w, d = (float(v) for v in args.params.split(","))
            ln_a, b = (float(v) for v in args.tpl.split(","))
        except (ValueError, AttributeError) as exc:
            raise CliInputError(f"cmd_curve: bad --params/--tpl: {exc}") from exc
        if args.n is None:
            raise CliInputError("cmd_curve: --n is required with --params")
        model = _stage("cmd_curve", PlecModel, c, w, d)
        tpl = TplFit(ln_a=ln_a, b=b, r_squared=float("nan"), n_pairs=0)
        baseline = args.baseline
        n = args.n
        start_date = args.start
        observed = {}

    rows = _stage(
        "cmd_curve",
        reporting.curve_rows,
        model,
        tpl,
        baseline,
        n,
        args.horizon,
        start_date,
        observed,
    )
    if args.format == "obj":
        payload = {
            "command": "curve",
            "curve": [
                {k: reporting.format_cell(v) for k, v in r.items()} for r in rows
            ],
        }
        _write_text(args.out, reporting.to_json(payload))
    else:
        _write_text(args.out, reporting.rows_to_dsv(reporting.CURVE_COLUMNS, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tplec",
        description=(
            "Couple variance-mean scaling with exponential-cutoff growth "
            "fits to band asymptote predictions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ftr = sub.add_parser("ftr", help="fit cumulative fatality series per continent")
    ftr.add_argument("--deaths", required=True, help="JHU-layout deaths CSV")
    ftr.add_argument("--continents", required=True, help="country,continent CSV")
    ftr.add_argument("--start", required=True, type=_parse_iso)
    ftr.add_argument("--end", required=True, type=_parse_iso)
    ftr.add_argument("--n", type=int, default=None, help="CI divisor (default: fitted points)")
    ftr.add_argument(
        "--horizon",
        type=lambda s: [_parse_iso(v) for v in s.split(",")],
        default=None,
        help="comma-separated fallback prediction dates (default: end +30/+60/+90 days)",
    )
    ftr.add_argument("--out", required=True)
    ftr.add_argument("--format", choices=["dsv", "obj"], default="dsv")
    ftr.set_defaults(func=cmd_ftr)

    dar = sub.add_parser("dar", help="fit a diversity accumulation curve")
    dar.add_argument("--abundance", required=True, help="abundance TSV")
    dar.add_argument("--q", type=float, default=0.0, help="diversity order (default 0)")
    dar.add_argument("--replicates", type=int, default=1000)
    dar.add_argument("--seed", type=int, default=0)
    dar.add_argument("--n", type=int, default=None, help="CI divisor (default: accumulation steps)")
    dar.add_argument("--horizon", type=int, default=None, help="curve length in steps")
    dar.add_argument("--out", required=True)
    dar.add_argument("--format", choices=["dsv", "obj"], default="dsv")
    dar.set_defaults(func=cmd_dar)

    curve = sub.add_parser("curve", help="emit plot-ready band curves")
    source = curve.add_mutually_exclusive_group(required=True)
    source.add_argument("--report", help="obj-format report from ftr")
    source.add_argument("--params", help="c,w,d cutoff parameters")
    curve.add_argument("--unit", help="unit name inside --report")
    curve.add_argument("--tpl", help="ln_a,b scaling-law parameters (with --params)")
    curve.add_argument("--n", type=int, default=None)
    curve.add_argument("--baseline", type=float, default=0.0)
    curve.add_argument("--start", type=_parse_iso, default=None)
    curve.add_argument("--horizon", type=int, required=True)
    curve.add_argument("--out", required=True)
    curve.add_argument("--format", choices=["dsv", "obj"], default="dsv")
    curve.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TplecError as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
