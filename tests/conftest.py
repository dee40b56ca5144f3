"""Shared synthetic fixture builders for the CLI and acceptance tests."""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest


def _csv_date(d: date) -> str:
    return f"{d.month}/{d.day}/{d.year % 100:02d}"


def build_unit_countries(
    names, prewindow_days, window_days, rel_growth, baseline_third, tpl_a, tpl_b
):
    """Three country series whose sum follows a known growth curve.

    ``rel_growth(t)`` gives the continent-level relative count at window
    day t (t = 1 on the first window day). The three countries are the
    per-country third plus symmetric offsets of size sqrt(tpl variance),
    so the cross-country deviations cancel in the sum and the per-day
    (mean, variance) pairs follow V = tpl_a * M**tpl_b up to integer
    rounding. The pre-window values are flat, pinning the baseline at
    3 * baseline_third + the symmetric offsets (which cancel).
    """
    n = window_days
    thirds = [int(round(rel_growth(t) / 3.0)) for t in range(1, n + 1)]
    deltas = []
    for g in thirds:
        mean = baseline_third + g
        deltas.append(int(round(math.sqrt(tpl_a * mean**tpl_b))))
    # flat pre-window offsets sized to keep every country monotone
    pre_delta = max(deltas[0], 1)
    offsets = (-1, 0, 1)
    rows = {}
    for name, s in zip(names, offsets):
        pre = [baseline_third + s * pre_delta] * prewindow_days
        window = [baseline_third + g + s * d for g, d in zip(thirds, deltas)]
        values = pre + window
        if any(b < a for a, b in zip(values, values[1:])):
            raise AssertionError(f"fixture for {name} is not monotone")
        if min(values) < 0:
            raise AssertionError(f"fixture for {name} has negative counts")
        rows[name] = values
    return rows


def build_deaths_csv(first_date: date, rows: dict[str, list[int]]) -> str:
    n_days = len(next(iter(rows.values())))
    dates = [first_date + timedelta(days=i) for i in range(n_days)]
    lines = [
        "Province/State,Country/Region,Lat,Long,"
        + ",".join(_csv_date(d) for d in dates)
    ]
    for country, values in rows.items():
        name = f'"{country}"' if "," in country else country
        lines.append(f",{name},,," + ",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


def build_ftr_fixture():
    """Deaths CSV + continent map engineered from known curves.

    Two continents follow exact cutoff curves (plus a known baseline and
    a known variance-mean law); one grows as a pure power law with mild
    positive curvature, which forces the taper against its ceiling and
    routes that unit to the power-law fallback.
    """
    first = date(2021, 3, 1)
    start = date(2021, 3, 21)
    end = date(2021, 5, 21)
    prewindow = (start - first).days
    window = (end - start).days + 1

    units = {
        "Alphia": {
            "kind": "plec",
            "c": 500.0,
            "w": 1.4,
            "d": -0.012,
            "baseline_third": 10_000,
            "tpl_a": 0.5,
            "tpl_b": 1.3,
            "countries": ["Alphia-A", "Alphia-B", "Alphia-C"],
        },
        "Betia": {
            "kind": "plec",
            "c": 80.0,
            "w": 1.15,
            "d": -0.007,
            "baseline_third": 2_500,
            "tpl_a": 0.9,
            "tpl_b": 1.2,
            "countries": ["Betia-A", "Betia-B", "Betia-C"],
        },
        "Gammia": {
            "kind": "pl",
            "c": 300.0,
            "w": 1.6,
            "curvature": 0.002,
            "baseline_third": 4_000,
            "tpl_a": 0.7,
            "tpl_b": 1.25,
            "countries": ["Gammia-A", "Gammia-B", "Gammia-C"],
        },
    }

    all_rows: dict[str, list[int]] = {}
    continent_lines = ["country,continent"]
    meta = {}
    for unit, cfg in units.items():
        if cfg["kind"] == "plec":
            growth = lambda t, c=cfg["c"], w=cfg["w"], d=cfg["d"]: (
                c * t**w * math.exp(d * t)
            )
        else:
            growth = lambda t, c=cfg["c"], w=cfg["w"], k=cfg["curvature"]: (
                c * t**w * math.exp(k * t)
            )
        rows = build_unit_countries(
            cfg["countries"],
            prewindow,
            window,
            growth,
            cfg["baseline_third"],
            cfg["tpl_a"],
            cfg["tpl_b"],
        )
        all_rows.update(rows)
        for country in cfg["countries"]:
            continent_lines.append(f"{country},{unit}")
        baseline = sum(rows[c][prewindow - 1] for c in cfg["countries"])
        meta[unit] = dict(cfg, baseline=baseline)

    return {
        "deaths_csv": build_deaths_csv(first, all_rows),
        "continents_csv": "\n".join(continent_lines) + "\n",
        "start": start,
        "end": end,
        "meta": meta,
    }


@pytest.fixture
def ftr_fixture():
    return build_ftr_fixture()


def build_saturating_table(rng_seed=7, n_taxa=150, n_samples=120):
    """Synthetic community with known total richness.

    Incidence probabilities span common to rare so pooled richness
    saturates well inside the sample count, giving the accumulation
    curve a clear taper.
    """
    rng = np.random.default_rng(rng_seed)
    probs = np.geomspace(0.6, 0.04, n_taxa)
    counts = np.zeros((n_samples, n_taxa), dtype=np.int64)
    for i in range(n_samples):
        present = rng.random(n_taxa) < probs
        counts[i, present] = rng.integers(1, 6, size=int(present.sum()))
        if counts[i].sum() == 0:
            counts[i, rng.integers(0, n_taxa)] = 1
    sample_ids = tuple(f"s{i:03d}" for i in range(n_samples))
    taxon_ids = tuple(f"t{j:03d}" for j in range(n_taxa))
    from tplec import AbundanceTable

    # true richness = taxa that actually occur somewhere
    richness = int((counts.sum(axis=0) > 0).sum())
    return AbundanceTable(sample_ids, taxon_ids, counts), richness


def abundance_tsv(table) -> str:
    from tplec import serialize_abundance_table

    return serialize_abundance_table(table)
