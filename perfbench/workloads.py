"""Deterministic synthetic inputs for the benchmark workloads.

Every generator takes only the workload seed. It writes the input files
into a directory, and returns the ``tplec`` argument list (without
``--out``) together with the facts the output check needs and the sizes
recorded with every result.

* ``ftr-jhu``: a JHU-layout deaths file. Each continent's daily total
  follows a known curve exactly; the seed only decides how the daily
  increments are split across countries and provinces, and where the
  source corrections fall. So the continent fits are the same for every
  seed, while the cross-country variance-mean pairs differ.
* ``dar-shannon``: a sparse abundance table drawn from per-taxon
  incidence probabilities, with log-series counts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

FTR_FIRST_DATE = date(2020, 1, 22)
FTR_DAYS = 1100
FTR_START = date(2021, 3, 21)
FTR_END = date(2022, 12, 31)

# Five continents follow y = c * t**w * exp(d*t) exactly on the window
# (t = 1 on FTR_START); Oceania grows as c * t**w * exp(k*t) with k > 0,
# which pins the taper at its ceiling and routes it to the power law.
FTR_CONTINENTS = (
    # name, kind, c, w, d or k, baseline, countries, split countries
    ("Africa", "plec", 120.0, 1.20, -0.0015, 110_000, 54, 0),
    ("Asia", "plec", 90.0, 1.50, -0.0020, 420_000, 48, 2),
    ("Europe", "plec", 300.0, 1.30, -0.0016, 900_000, 50, 3),
    ("North America", "plec", 260.0, 1.40, -0.0018, 700_000, 36, 2),
    ("Oceania", "pl", 2.0, 1.10, 0.0008, 1_500, 20, 1),
    ("South America", "plec", 200.0, 1.25, -0.0014, 650_000, 52, 0),
)
FTR_PROVINCES = 4  # province rows per split country, the same for every seed

DAR_SAMPLES = 400


@dataclass(frozen=True)
class Prepared:
    """Generated inputs for one workload and seed."""

    argv: list[str]  # tplec arguments, without --out
    expect: dict  # facts the output check compares against
    sizes: dict  # recorded with every result


def _csv_date(d: date) -> str:
    return f"{d.month}/{d.day}/{d.year % 100:02d}"


def _continent_totals(c, w, dk, baseline) -> np.ndarray:
    """Cumulative continent total per day on the full date axis."""
    pre = (FTR_START - FTR_FIRST_DATE).days
    post = FTR_DAYS - pre
    frac = np.arange(1, pre + 1) / pre
    ramp = np.rint(baseline * frac**2).astype(np.int64)
    t = np.arange(1, post + 1, dtype=np.float64)
    growth = c * t**w * np.exp(dk * t)
    window = baseline + np.rint(growth).astype(np.int64)
    totals = np.concatenate([ramp, window])
    if np.any(np.diff(totals) < 0):
        raise AssertionError("continent curve is not monotone on the date axis")
    return totals


def _split(rng, totals: np.ndarray, parts: int) -> np.ndarray:
    """Split a cumulative series into ``parts`` cumulative series.

    Daily increments are shared out multinomially with skewed weights,
    so every part is monotone and the parts sum to ``totals`` exactly.
    """
    weights = rng.lognormal(0.0, 1.2, size=parts)
    weights /= weights.sum()
    increments = np.diff(totals, prepend=0)
    return np.cumsum(rng.multinomial(increments, weights), axis=0).T


def prepare_ftr(seed: int, workdir: Path) -> Prepared:
    rng = np.random.default_rng(seed)
    dates = [FTR_FIRST_DATE + timedelta(days=i) for i in range(FTR_DAYS)]
    window0 = (FTR_START - FTR_FIRST_DATE).days
    window1 = (FTR_END - FTR_FIRST_DATE).days

    rows = []  # (province, country, counts)
    continent_of: dict[str, str] = {}
    expected_units = {}
    observed = {"World": 0}
    n_countries = 0
    n_corrections = 0
    for name, kind, c, w, dk, baseline, n_members, n_split in FTR_CONTINENTS:
        totals = _continent_totals(c, w, dk, baseline)
        members = _split(rng, totals, n_members)
        prefix = name.replace(" ", "")
        countries = [f"{prefix}-{j:02d}" for j in range(n_members)]
        # one quoted name per continent, as with "Korea, South"
        countries[1] = f"{prefix} Isles, North"

        if kind == "plec":
            # one source correction: counts move from the largest
            # single-row country to another, so the donor decreases on
            # that day while the continent total is unchanged
            day = int(rng.integers(window0 + 10, window1 - 10))
            a = n_split + int(np.argmax(members[n_split:, day - 1]))
            b = int(rng.choice([j for j in range(n_split, n_members) if j != a]))
            delta = int(members[a, day] - members[a, day - 1]) + 1 + int(members[a, day - 1] // 50)
            members[a, day:] -= delta
            members[b, day:] += delta
            n_corrections += 1

        for j, country in enumerate(countries):
            continent_of[country] = name
            n_countries += 1
            if j < n_split:
                provinces = _split(rng, members[j], FTR_PROVINCES)
                for p in range(FTR_PROVINCES):
                    rows.append((f"Province {p}", country, provinces[p]))
            else:
                rows.append(("", country, members[j]))
        expected_units[name] = {"kind": kind, "c": c, "w": w, "d": dk}
        observed[name] = int(totals[window1])
        observed["World"] += int(totals[window1])

    order = rng.permutation(len(rows))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["Province/State", "Country/Region", "Lat", "Long"] + [_csv_date(d) for d in dates]
    )
    for i in order:
        province, country, counts = rows[i]
        lat = f"{rng.uniform(-60, 70):.4f}"
        lon = f"{rng.uniform(-180, 180):.4f}"
        writer.writerow([province, country, lat, lon] + counts.tolist())
    deaths = workdir / "deaths.csv"
    deaths.write_text(out.getvalue(), encoding="utf-8")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["country", "continent"])
    for country in sorted(continent_of):
        writer.writerow([country, continent_of[country]])
    continents = workdir / "continents.csv"
    continents.write_text(out.getvalue(), encoding="utf-8")

    argv = [
        "ftr",
        "--deaths", str(deaths),
        "--continents", str(continents),
        "--start", FTR_START.isoformat(),
        "--end", FTR_END.isoformat(),
    ]
    units = sorted(expected_units) + ["World"]
    expect = {
        "workload": "ftr-jhu",
        "command": "ftr",
        "units": units,
        "fallback_units": [n for n, v in expected_units.items() if v["kind"] == "pl"],
        "horizons": 3,
        "truth": expected_units,
        "observed": observed,
    }
    sizes = {
        "rows": len(rows),
        "countries": n_countries,
        "days": FTR_DAYS,
        "window_days": window1 - window0 + 1,
        "units": len(units),
        "cells": len(rows) * FTR_DAYS,
        "corrections": n_corrections,
    }
    return Prepared(argv=argv, expect=expect, sizes=sizes)


def _shannon_table(rng) -> np.ndarray:
    """Sparse long-tailed community: rare incidence, log-series counts."""
    n_taxa = 4000
    probs = np.geomspace(0.25, 0.002, n_taxa)
    tail = np.linspace(0.995, 0.6, n_taxa)  # common taxa are also abundant
    present = rng.random((DAR_SAMPLES, n_taxa)) < probs
    counts = rng.logseries(np.broadcast_to(tail, present.shape))
    return np.where(present, counts, 0)


def _write_table(counts: np.ndarray, path: Path) -> None:
    n_samples, n_taxa = counts.shape
    lines = ["sample_id\t" + "\t".join(f"otu{j:04d}" for j in range(n_taxa))]
    for i in range(n_samples):
        lines.append(f"S{i:03d}\t" + "\t".join(map(str, counts[i].tolist())))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _prepare_dar(seed, workdir, build, q, replicates, name) -> Prepared:
    rng = np.random.default_rng(seed)
    counts = build(rng).astype(np.int64)
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, rng.integers(0, counts.shape[1])] = 1
    path = workdir / f"{name}.tsv"
    _write_table(counts, path)
    cli_seed = int(rng.integers(0, 2**31))
    argv = [
        "dar",
        "--abundance", str(path),
        "--q", repr(float(q)),
        "--replicates", str(replicates),
        "--seed", str(cli_seed),
    ]
    nnz = int(np.count_nonzero(counts))
    expect = {
        "workload": f"dar-{name}",
        "command": "dar",
        "unit": name,
        "q": float(q),
        "replicates": replicates,
        "cli_seed": cli_seed,
        "counts": counts,
    }
    sizes = {
        "samples": counts.shape[0],
        "taxa": counts.shape[1],
        "nnz": nnz,
        "density": round(nnz / counts.size, 6),
        "replicates": replicates,
        "q": float(q),
        "cells": int(counts.size),
    }
    return Prepared(argv=argv, expect=expect, sizes=sizes)


def prepare_dar_shannon(seed: int, workdir: Path) -> Prepared:
    return _prepare_dar(seed, workdir, _shannon_table, 1.0, 50, "shannon")


WORKLOADS = {
    "ftr-jhu": (
        prepare_ftr,
        "JHU-layout file with many countries per continent: ingest and the "
        "variance-mean aggregation dominate, both coupling routes run, the "
        "accumulation kernel does no work",
    ),
    "dar-shannon": (
        prepare_dar_shannon,
        "q=1, 50 replicates on a sparse long-tailed table: the accumulation kernel "
        "on float Hill sums dominates, the point-fit route with blank bands runs",
    ),
}
