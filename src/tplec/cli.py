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
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    InvalidArgument,
    NonPositiveValue,
    StageError,
    TplecError,
    UnknownAttribute,
    stage,
)

if TYPE_CHECKING:
    from .coupling import CoupledPrediction


def _bind_library() -> None:
    """Bind the library names the commands call, keeping any already set.

    They are bound on first use, not at import, so that ``--help`` and
    the argument checks load neither numpy nor the library. A value set
    on this module beforehand, such as a tracer's wrapper, stays the one
    the commands call.
    """
    from . import ingest, reporting
    from .coupling import date_to_day_index, run_dar_pipeline, run_ftr
    from .diversity import resample_accumulation
    from .ingest import parse_abundance_table, parse_continent_map, parse_jhu_deaths

    for name, value in dict(locals()).items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    # a library name read before any command ran, as an outside tracer
    # does to wrap it; dunders are what the import system probes for
    if not (name.startswith("__") and name.endswith("__")):
        _bind_library()
        if name in globals():
            return globals()[name]
    raise UnknownAttribute(f"module {__name__!r} has no attribute {name!r}")


def _read_text(path: str, op: str) -> bytes:
    """The bytes of the file at ``path``, which its reader checks and decodes."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise StageError(f"{op}: cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_obj(out: str, run: dict, results: list) -> None:
    """One obj document: ``run``'s keys, then a record per ``(unit, result)``."""
    units = [reporting.unit_payload(unit, result) for unit, result in results]
    _write_text(out, reporting.to_json({**run, "units": units}))


def _write_dsv(
    out: str, results: list, suffix: str, columns: list, sibling_rows: list
) -> None:
    """The main report, then ``sibling_rows`` beside it when there are any.

    With none, a sibling file that an earlier run left there is removed,
    so that it is never read as this report's.
    """
    rows = [reporting.report_row(unit, result) for unit, result in results]
    _write_text(out, reporting.rows_to_dsv(reporting.REPORT_COLUMNS, rows))
    p = Path(out)
    sibling = p.with_name(p.stem + suffix + (p.suffix or ".csv"))
    if sibling_rows:
        _write_text(str(sibling), reporting.rows_to_dsv(columns, sibling_rows))
    else:
        sibling.unlink(missing_ok=True)


def _check_positive(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise InvalidArgument(f"{name} must be >= 1, got {value}")


def _parse_iso(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a YYYY-MM-DD date")


def cmd_ftr(args) -> int:
    stage("cmd_ftr", _check_positive, "n", args.n)
    if args.start >= args.end:
        raise StageError("cmd_ftr: --start must precede --end")
    if args.horizon and min(args.horizon) < args.start:
        raise StageError("cmd_ftr: horizon dates must not precede --start")
    _bind_library()
    if args.horizon:
        horizons = [date_to_day_index(args.start, d) for d in args.horizon]
    else:
        horizons = [date_to_day_index(args.start, args.end) + k for k in (30, 60, 90)]
    # the bytes are freed once parsed, so the later stages can reuse their memory
    deaths_text = _read_text(args.deaths, "parse_jhu_deaths")
    map_text = _read_text(args.continents, "parse_continent_map")
    table = stage("parse_jhu_deaths", parse_jhu_deaths, deaths_text)
    del deaths_text
    continent_map = stage("parse_continent_map", parse_continent_map, map_text)

    results = list(
        run_ftr(table, continent_map, args.start, args.end, n=args.n, horizons=horizons)
    )
    if args.format == "obj":
        _write_obj(args.out, {"command": "ftr"}, results)
    else:
        fallback = [row for u, r in results for row in reporting.fallback_rows(u, r)]
        _write_dsv(args.out, results, "_fallback", reporting.FALLBACK_COLUMNS, fallback)
    return 0


def cmd_dar(args) -> int:
    if args.replicates < 2:
        raise StageError("cmd_dar: --replicates must be at least 2")
    if not (math.isfinite(args.q) and args.q >= 0):
        raise StageError(f"cmd_dar: --q must be finite and >= 0, got {args.q}")
    if args.seed < 0:
        raise StageError(f"cmd_dar: --seed must be >= 0, got {args.seed}")
    stage("cmd_dar", _check_positive, "n", args.n)
    stage("cmd_dar", _check_positive, "horizon", args.horizon)
    if args.format == "obj" and args.horizon is not None:
        raise StageError("cmd_dar: --horizon cannot be used with --format obj")
    _bind_library()
    # the bytes are freed once parsed, so the kernel can reuse their memory
    data = _read_text(args.abundance, "parse_abundance_table")
    table = stage("parse_abundance_table", parse_abundance_table, data)
    del data
    curve = stage(
        "resample_accumulation",
        resample_accumulation,
        table,
        args.replicates,
        args.q,
        args.seed,
    )
    result = stage("run_dar_pipeline", run_dar_pipeline, curve, n=args.n)
    if result.tpl is None:
        print(
            "note: confidence bands are only available at q = 0; "
            "emitting point predictions without intervals",
            file=sys.stderr,
        )
    results = [(Path(args.abundance).stem, result)]
    if args.format == "obj":
        run = dict(command="dar", q=args.q, replicates=args.replicates, seed=args.seed)
        _write_obj(args.out, run, results)
        return 0

    horizon = args.horizon
    if horizon is None:
        horizon = len(result.observed_series)
        if result.asymptote is not None:
            horizon = max(horizon, math.ceil(result.asymptote.x_max))
    rows = reporting.curve_rows(result, horizon)
    _write_dsv(args.out, results, "_curve", reporting.CURVE_COLUMNS, rows)
    return 0


def _read_report_unit(path: str, unit: str) -> CoupledPrediction:
    """The result recorded for one unit of an ``ftr`` or ``dar`` obj report."""
    text = stage("cmd_curve", ingest.decode_utf8, _read_text(path, "cmd_curve"))
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StageError(f"cmd_curve: {path} is not JSON: {exc}") from exc
    units = document.get("units") if isinstance(document, dict) else None
    if not isinstance(units, list):
        raise StageError(f"cmd_curve: {path} has no 'units' list")
    match = [u for u in units if isinstance(u, dict) and u.get("unit") == unit]
    if not match:
        raise StageError(f"cmd_curve: unit {unit!r} not in {path}")
    try:
        return reporting.result_from_payload(match[0])
    except KeyError as exc:
        raise StageError(f"cmd_curve: unit {unit!r} in {path} lacks {exc}") from exc
    except (TypeError, ValueError, NonPositiveValue) as exc:
        raise StageError(
            f"cmd_curve: unit {unit!r} in {path} is malformed: {exc}"
        ) from exc


def cmd_curve(args) -> int:
    stage("cmd_curve", _check_positive, "n", args.n)
    stage("cmd_curve", _check_positive, "horizon", args.horizon)
    if args.report:
        # the report supplies these; a flag that would be ignored is an error
        for flag, value in (
            ("--n", args.n),
            ("--baseline", args.baseline),
            ("--start", args.start),
            ("--tpl", args.tpl),
        ):
            if value is not None:
                raise StageError(f"cmd_curve: {flag} cannot be used with --report")
        if args.unit is None:
            raise StageError("cmd_curve: --unit is required with --report")
        _bind_library()
        result = _read_report_unit(args.report, args.unit)
    else:
        if args.unit is not None:
            raise StageError("cmd_curve: --unit cannot be used with --params")
        _bind_library()
        finite = reporting.finite_number
        try:
            c, w, d = (finite("--params", float(v)) for v in args.params.split(","))
            ln_a, b = (finite("--tpl", float(v)) for v in args.tpl.split(","))
        except (ValueError, AttributeError) as exc:
            raise StageError(f"cmd_curve: bad --params/--tpl: {exc}") from exc
        if args.n is None:
            raise StageError("cmd_curve: --n is required with --params")
        baseline = 0.0 if args.baseline is None else args.baseline
        stage("cmd_curve", finite, "--baseline", baseline)
        record = {
            "model": {"kind": "plec", "c": c, "w": w, "d": d},
            "tpl": {"ln_a": ln_a, "b": b, "r_squared": math.nan, "n_pairs": 0},
            "baseline": baseline,
            "n": args.n,
            "start_date": args.start.isoformat() if args.start else None,
        }
        result = stage("cmd_curve", reporting.result_from_payload, record)

    rows = stage("cmd_curve", reporting.curve_rows, result, args.horizon)
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
    dar.add_argument("--n", type=int, default=None, help="CI divisor (default: fitted points)")
    dar.add_argument("--horizon", type=int, default=None, help="curve length in steps")
    dar.add_argument("--out", required=True)
    dar.add_argument("--format", choices=["dsv", "obj"], default="dsv")
    dar.set_defaults(func=cmd_dar)

    curve = sub.add_parser("curve", help="emit plot-ready band curves")
    source = curve.add_mutually_exclusive_group(required=True)
    source.add_argument("--report", help="obj-format report from ftr or dar")
    source.add_argument("--params", help="c,w,d cutoff parameters")
    curve.add_argument("--unit", help="unit name inside --report")
    curve.add_argument("--tpl", help="ln_a,b scaling-law parameters (with --params)")
    curve.add_argument("--n", type=int, default=None)
    curve.add_argument(
        "--baseline", type=float, default=None, help="with --params (default 0)"
    )
    curve.add_argument("--start", type=_parse_iso, default=None)
    curve.add_argument("--horizon", type=int, required=True)
    curve.add_argument("--out", required=True)
    curve.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TplecError as exc:
        print(f"error: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        reason = str(exc) or "out of memory"
        print(f"error: {args.command}: MemoryError: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
