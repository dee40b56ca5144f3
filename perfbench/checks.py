"""Output check for one CLI invocation, plus perturbed-output controls.

``check`` returns the list of problems found in one invocation's DSV
outputs; an empty list means the output is correct. It checks:

* the exit status is 0 and each file has the column set README documents;
* one report row per unit; ``fallback_used`` is true exactly for the
  generated power-law continent, which has one ``_fallback.csv`` row per
  default horizon (3);
* ``lower_95 < f_max < upper_95`` wherever bands exist;
* ``observed`` equals the generated continent total on the end date
  (``ftr``), the pooled richness at q=0, or the pooled order-1 Hill
  number at q=1 (``dar``);
* the ``dar`` curve's first steps equal the mean over all replicates,
  recomputed here from the documented per-replicate permutation seeds
  (``seed + r``), so a dropped or extra replicate shows;
* fitted parameters lie within the stated tolerance of ``reference.json``,
  recorded from the seed code.

``negative_controls`` perturbs a correct output in the ways a broken
program would (wrong q, one replicate dropped, a window shifted by a
day, a flipped fallback flag, a lost horizon row, drifted parameters)
and reports whether ``check`` caught each one.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np

import workloads

# column sets as README documents them
REPORT_COLUMNS = [
    "unit", "c", "w", "d", "r_squared", "t_max", "date_max", "f_max",
    "observed", "completion_pct", "lower_95", "upper_95", "fallback_used",
]
FALLBACK_COLUMNS = [
    "unit", "z", "ln_c", "r", "p_value", "start_date", "horizon_date",
    "predicted", "lower_95", "upper_95",
]
CURVE_COLUMNS = ["t", "date", "predicted", "lower", "upper", "observed"]

ORACLE_STEPS = (1, 2, 3)
ORACLE_RTOL = 1e-9
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@functools.cache
def reference(workload: str) -> dict:
    """Reference values and tolerances recorded from the seed code."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]


def _read_dsv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def load_outputs(out: Path) -> dict:
    """Parsed report and siblings of one invocation, keyed by role."""
    files = {
        "report": out,
        "fallback": out.with_name(out.stem + "_fallback" + out.suffix),
        "curve": out.with_name(out.stem + "_curve" + out.suffix),
    }
    return {role: _read_dsv(p) for role, p in files.items() if p.exists()}


def hill(pooled: np.ndarray, q: float) -> float:
    """Hill number of order q of one pooled count vector."""
    c = pooled[pooled > 0].astype(np.float64)
    if q == 0.0:
        return float(c.size)
    p = c / c.sum()
    if q == 1.0:
        return float(np.exp(-(p * np.log(p)).sum()))
    return float((p**q).sum() ** (1.0 / (1.0 - q)))


def oracle_steps(expect: dict, replicates: int) -> np.ndarray:
    """Mean diversity at ORACLE_STEPS over the first ``replicates`` orders."""
    key = ("oracle", replicates)
    if key not in expect:
        counts = expect["counts"]
        n = counts.shape[0]
        values = np.empty((replicates, len(ORACLE_STEPS)))
        for r in range(replicates):
            perm = np.random.default_rng(expect["cli_seed"] + r).permutation(n)
            for j, k in enumerate(ORACLE_STEPS):
                values[r, j] = hill(counts[perm[:k]].sum(axis=0), expect["q"])
        expect[key] = values.mean(axis=0)
    return expect[key]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _floats(row: dict, *cols):
    return [float(row[c]) for c in cols]


def _check_params(problems, unit, row, values, rtol):
    for name, ref in values.items():
        value = float(row[name])
        if not _close(value, ref, rtol[name]):
            problems.append(
                f"{unit}: {name}={value!r} is not within {rtol[name]:g} of {ref!r}"
            )


def _check_ftr(outputs: dict, expect: dict) -> list[str]:
    problems = []
    ref = reference(expect["workload"])
    header, rows = outputs["report"]
    units = [r["unit"] for r in rows]
    if sorted(units) != sorted(expect["units"]):
        problems.append(f"report units {units} != {expect['units']}")
    for row in rows:
        unit = row["unit"]
        if unit not in expect["units"]:
            continue
        fallback = unit in expect["fallback_units"]
        if row["fallback_used"] != ("true" if fallback else "false"):
            problems.append(f"{unit}: fallback_used={row['fallback_used']}")
            continue
        if float(row["observed"]) != expect["observed"][unit]:
            problems.append(f"{unit}: observed {row['observed']} != {expect['observed'][unit]}")
        if fallback:
            continue
        c, w, d, t_max, f_max, lo, hi = _floats(
            row, "c", "w", "d", "t_max", "f_max", "lower_95", "upper_95"
        )
        if not lo < f_max < hi:
            problems.append(f"{unit}: band {lo}..{hi} does not enclose f_max {f_max}")
        if not _close(t_max, -w / d, 1e-9):
            problems.append(f"{unit}: t_max {t_max} != -w/d {-w / d}")
        day = max(1, math.floor(t_max + 0.5))
        if row["date_max"] != (workloads.FTR_START + timedelta(days=day - 1)).isoformat():
            problems.append(f"{unit}: date_max {row['date_max']} does not match t_max {t_max}")
        completion = f"{expect['observed'][unit] / f_max * 100.0:.1f}"
        if row["completion_pct"] != completion:
            problems.append(f"{unit}: completion_pct {row['completion_pct']} != {completion}")
        truth = expect["truth"].get(unit)
        if truth is not None:
            _check_params(
                problems, unit, row, {k: truth[k] for k in ("c", "w", "d")},
                ref["truth_rtol"],
            )
        _check_params(problems, unit, row, ref["units"][unit], ref["rtol"])

    if not expect["fallback_units"]:
        if "fallback" in outputs:
            problems.append("unexpected _fallback.csv")
        return problems
    if "fallback" not in outputs:
        return problems + ["missing _fallback.csv"]
    header, rows = outputs["fallback"]
    if header != FALLBACK_COLUMNS:
        problems.append(f"_fallback.csv header {header}")
        return problems
    for unit in expect["fallback_units"]:
        mine = [r for r in rows if r["unit"] == unit]
        if len(mine) != expect["horizons"]:
            problems.append(f"{unit}: {len(mine)} horizon rows, expected {expect['horizons']}")
        for r in mine:
            lo, pred, hi = _floats(r, "lower_95", "predicted", "upper_95")
            if not lo < pred < hi:
                problems.append(f"{unit}: horizon band {lo}..{hi} does not enclose {pred}")
            _check_params(problems, unit, r, ref["fallback"][unit], ref["rtol"])
    if len(rows) != expect["horizons"] * len(expect["fallback_units"]):
        problems.append(f"_fallback.csv has {len(rows)} rows")
    return problems


def _check_dar(outputs: dict, expect: dict) -> list[str]:
    problems = []
    ref = reference(expect["workload"])
    q = expect["q"]
    _, rows = outputs["report"]
    if len(rows) != 1 or rows[0]["unit"] != expect["unit"]:
        return [f"report rows {[r['unit'] for r in rows]}, expected [{expect['unit']!r}]"]
    row = rows[0]
    observed = float(row["observed"])
    pooled = hill(expect["counts"].sum(axis=0), q)
    if q == 0.0 and observed != pooled:
        problems.append(f"observed {observed} != pooled richness {pooled}")
    if q != 0.0 and not _close(observed, pooled, ORACLE_RTOL):
        problems.append(f"observed {observed} != pooled Hill number {pooled} at q={q}")
    if row["fallback_used"] != "false":
        problems.append(f"fallback_used={row['fallback_used']}, the seed code fits a cutoff")
        return problems
    f_max, t_max = _floats(row, "f_max", "t_max")
    if q != 0.0:
        if row["lower_95"] or row["upper_95"]:
            problems.append(f"bands present at q={q}")
    elif not (row["lower_95"] and row["upper_95"]):
        problems.append("bands missing at q=0")
    else:
        lo, hi = _floats(row, "lower_95", "upper_95")
        if not lo < f_max < hi:
            problems.append(f"band {lo}..{hi} does not enclose f_max {f_max}")
    _check_params(problems, expect["unit"], row, ref["values"], ref["rtol"])

    if "curve" not in outputs:
        return problems + ["missing _curve.csv"]
    header, curve = outputs["curve"]
    if header != CURVE_COLUMNS:
        return problems + [f"_curve.csv header {header}"]
    n = expect["counts"].shape[0]
    horizon = max(n, math.ceil(t_max))
    if [r["t"] for r in curve] != [str(t) for t in range(1, horizon + 1)]:
        problems.append(f"_curve.csv does not list t = 1..{horizon}")
        return problems
    if any((r["observed"] != "") != (int(r["t"]) <= n) for r in curve):
        problems.append(f"_curve.csv observed column is not filled exactly for t <= {n}")
        return problems
    if float(curve[n - 1]["observed"]) != observed:
        problems.append("_curve.csv final observed differs from the report")
    want = oracle_steps(expect, expect["replicates"])
    for k, mean in zip(ORACLE_STEPS, want):
        got = float(curve[k - 1]["observed"])
        if not _close(got, mean, ORACLE_RTOL):
            problems.append(
                f"curve step {k}: mean {got!r} != {float(mean)!r} "
                f"over {expect['replicates']} replicates"
            )
    return problems


def check(rc: int, outputs: dict, expect: dict) -> list[str]:
    if rc != 0:
        return [f"exit status {rc}"]
    if "report" not in outputs:
        return ["no report written"]
    header = outputs["report"][0]
    if header != REPORT_COLUMNS:
        return [f"report header {header}"]
    try:
        if expect["command"] == "ftr":
            return _check_ftr(outputs, expect)
        return _check_dar(outputs, expect)
    except (ValueError, KeyError, IndexError) as exc:  # blank or missing cells
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _perturbations(outputs: dict, expect: dict):
    """(name, perturbed outputs) pairs a correct check must reject."""
    def edited(fn):
        out = copy.deepcopy(outputs)
        fn(out)
        return out

    def drift(out):
        # outside the tolerance even for a value at its edge
        factor = 1.0 + 3.0 * reference(expect["workload"])["rtol"]["c"]
        out["report"][1][0]["c"] = repr(float(out["report"][1][0]["c"]) * factor)

    yield "parameter drift", edited(drift)
    if expect["command"] == "ftr":
        unit = expect["fallback_units"][0]

        def flip(out):
            for r in out["report"][1]:
                if r["unit"] == unit:
                    r["fallback_used"] = "false"

        def shifted(out):
            # a window starting a day later moves every date_max by a day
            for r in out["report"][1]:
                if r["fallback_used"] == "false":
                    day = date.fromisoformat(r["date_max"]) + timedelta(days=1)
                    r["date_max"] = day.isoformat()

        yield "fallback flag flipped", edited(flip)
        yield "horizon row dropped", edited(lambda out: out["fallback"][1].pop())
        yield "window shifted a day", edited(shifted)
        return

    other_q = 1.0 if expect["q"] == 0.0 else 0.0

    def wrong_q(out):
        out["report"][1][0]["observed"] = repr(hill(expect["counts"].sum(axis=0), other_q))

    def dropped(out):
        short = oracle_steps(expect, expect["replicates"] - 1)
        for k, mean in zip(ORACLE_STEPS, short):
            out["curve"][1][k - 1]["observed"] = repr(float(mean))

    yield "wrong q", edited(wrong_q)
    yield "one replicate dropped", edited(dropped)


def negative_controls(outputs: dict, expect: dict) -> dict[str, bool]:
    """For each perturbation of a correct output, whether check caught it."""
    return {
        name: bool(check(0, perturbed, expect))
        for name, perturbed in _perturbations(outputs, expect)
    }
