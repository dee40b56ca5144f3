#!/usr/bin/env python3
"""Record the reference fitted parameters that the output check compares to.

Runs each workload's CLI invocation once per seed and writes
``perfbench/reference.json``:

* ``ftr-jhu``: the continent totals do not depend on the seed, so every
  seed must give the same fits; the values of seed 0 are stored with a
  tight relative tolerance, and the generating parameters of the cutoff
  continents get a looser one (integer rounding of the curve).
* ``dar-shannon``: the table depends on the seed, so the median over the seeds
  is stored, each with a relative tolerance of four times its largest
  deviation from the median, rounded up to two significant digits.

Run from the repository root: ``python3 perfbench/record_reference.py``
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tplec import cli  # noqa: E402

DAR_PARAMS = ("c", "w", "d", "t_max", "f_max")


def _run(name: str, seed: int, workdir: Path) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    prepared = workloads.WORKLOADS[name][0](seed, workdir)
    out = workdir / "report.csv"
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        rc = cli.main(prepared.argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{name} seed {seed}: exit status {rc}")
    return checks.load_outputs(out)


def _round_up(x: float) -> float:
    """Round up to two significant digits."""
    exponent = math.floor(math.log10(x)) - 1
    return round(math.ceil(x / 10**exponent) * 10**exponent, 12)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30)
    args = parser.parse_args()
    scratch = ROOT / ".bench_work" / "reference"

    reference = {}
    first = None
    for seed in range(args.seeds):
        outputs = _run("ftr-jhu", seed, scratch)
        units = {
            r["unit"]: {k: float(r[k]) for k in ("c", "w", "d")}
            for r in outputs["report"][1]
            if r["fallback_used"] == "false"
        }
        fallback = {
            r["unit"]: {k: float(r[k]) for k in ("z", "ln_c")}
            for r in outputs["fallback"][1]
        }
        if first is None:
            first = (units, fallback)
        elif (units, fallback) != first:
            raise SystemExit(f"ftr-jhu fits differ between seed 0 and seed {seed}")
    reference["ftr-jhu"] = {
        "rtol": dict.fromkeys(("c", "w", "d", "z", "ln_c"), 1e-6),
        "truth_rtol": dict.fromkeys(("c", "w", "d"), 1e-4),
        "units": first[0],
        "fallback": first[1],
    }

    for name in ("dar-shannon",):
        values = {k: [] for k in DAR_PARAMS}
        for seed in range(args.seeds):
            row = _run(name, seed, scratch)["report"][1][0]
            if row["fallback_used"] != "false":
                raise SystemExit(f"{name} seed {seed} fell back to the power law")
            for k in DAR_PARAMS:
                values[k].append(float(row[k]))
        medians = {k: float(np.median(v)) for k, v in values.items()}
        spread = {
            k: max(abs(x - medians[k]) / abs(medians[k]) for x in v)
            for k, v in values.items()
        }
        reference[name] = {
            "rtol": {k: _round_up(4.0 * s) for k, s in spread.items()},
            "seeds": args.seeds,
            "values": medians,
            "range": {k: [min(v), max(v)] for k, v in values.items()},
        }

    shutil.rmtree(scratch, ignore_errors=True)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
