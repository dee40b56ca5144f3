"""Parsers for the two input data families plus the truncation transform.

Cumulative-fatality time series arrive in the public JHU CSV layout
(``Province/State,Country/Region,Lat,Long`` then one ``M/D/YY`` column
per day). Abundance tables arrive as TSV with taxa across the top and
one sample per row. Continent assignments come from a two-column CSV.

Each parser converts its whole count block to int64 in one numpy call,
which applies ``int()`` to every cell and so accepts exactly what the
per-cell scanner accepts. The scanner runs only when that conversion
fails or yields a negative count; it names the row and column of the
first bad cell in row-major order. Counts must fit in int64.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Callable, Iterable, Mapping

import numpy as np

from .diversity import AbundanceTable
from .errors import (
    DateOutOfRange,
    DuplicateSampleId,
    MalformedHeader,
    MisalignedDates,
    RaggedRow,
    UnmappedCountry,
    UnparseableCount,
    UnparseableDate,
)

_JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")


_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class RegionSeries:
    """Daily cumulative counts for one region (one source row).

    ``cumulative`` is a read-only int64 array; any integer sequence
    passed in is converted.
    """

    region: str
    dates: tuple[date, ...]
    cumulative: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.cumulative, dtype=np.int64)
        if counts.flags.writeable:
            counts = counts.copy()  # never freeze the caller's array
            counts.flags.writeable = False
        object.__setattr__(self, "cumulative", counts)


@dataclass(frozen=True)
class TruncatedSeries:
    """A series re-based at a chosen start date.

    ``baseline`` is the cumulative count on the day before the start
    date (0 when the start is the first date); ``f_rel[i]`` is the
    cumulative count at day index ``t_index[i]`` minus the baseline,
    with day index 1 on the start date itself.
    """

    start_date: date
    baseline: int
    t_index: tuple[int, ...]
    f_rel: tuple[int, ...]


def _reader(text) -> Iterable[list[str]]:
    stream = io.StringIO(text) if isinstance(text, str) else text
    return csv.reader(stream)


def _parse_header_date(cell: str, column: int) -> date:
    try:
        return datetime.strptime(cell.strip(), "%m/%d/%y").date()
    except ValueError:
        raise UnparseableDate(
            f"header column {column}: {cell!r} is not an M/D/YY date"
        ) from None


def _parse_header_dates(cells: list[str]) -> tuple[date, ...]:
    """Header dates, numbered from column 5.

    A cell that spells the day after its predecessor in canonical M/D/YY
    skips ``strptime``; ``%y`` maps it back to that day only up to 2068.
    """
    dates: list[date] = []
    for column, cell in enumerate(cells, start=5):
        if dates:
            nxt = dates[-1] + timedelta(days=1)
            if nxt.year <= 2068 and cell.strip() == (
                f"{nxt.month}/{nxt.day}/{nxt.year % 100:02d}"
            ):
                dates.append(nxt)
                continue
        dates.append(_parse_header_date(cell, column))
    return tuple(dates)


def _parse_count(cell: str, row: int, column_name: str) -> int:
    try:
        value = int(cell.strip())
    except ValueError:
        raise UnparseableCount(
            f"row {row}, column {column_name}: {cell!r} is not an integer"
        ) from None
    if value < 0:
        raise UnparseableCount(
            f"row {row}, column {column_name}: count {value} is negative"
        )
    if value > _INT64_MAX:
        raise UnparseableCount(
            f"row {row}, column {column_name}: count {value} exceeds the int64 range"
        )
    return value


def _scan_counts(block, columns, first_row: int) -> np.ndarray:
    """Cell-by-cell parse; raises for the first bad cell in row-major order."""
    counts = np.empty((len(block), len(columns)), dtype=np.int64)
    for i, row in enumerate(block):
        for j, cell in enumerate(row):
            counts[i, j] = _parse_count(cell, first_row + i, columns[j])
    return counts


def _count_block(block: list[list[str]], columns, first_row: int) -> np.ndarray:
    """int64 matrix of a rectangular block of count cells.

    One numpy call converts the block; it applies ``int()`` to each
    cell. ``_scan_counts`` runs only when that fails or finds a negative
    count, so every diagnostic names the same cell as a per-cell parse.
    """
    try:
        counts = np.array(block, dtype=np.int64).reshape(len(block), len(columns))
    except (ValueError, OverflowError):
        counts = None
    if counts is None or (counts < 0).any():
        counts = _scan_counts(block, columns, first_row)
    return counts


def parse_jhu_deaths(text) -> list[RegionSeries]:
    """Parse a JHU-layout deaths CSV into one series per source row.

    Province rows keep their country key so a later aggregation pass can
    sum them. Non-monotone cumulative counts (source data corrections)
    are kept as-is but flagged with a warning.
    """
    rows = list(_reader(text))
    if not rows:
        raise MalformedHeader("empty input")
    header = rows[0]
    if tuple(h.strip() for h in header[:4]) != _JHU_FIXED_COLUMNS:
        raise MalformedHeader(
            f"expected leading columns {','.join(_JHU_FIXED_COLUMNS)}, "
            f"got {','.join(header[:4])}"
        )
    if len(header) < 5:
        raise MalformedHeader("no date columns present")
    dates = _parse_header_dates(header[4:])
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:
            raise MalformedHeader(f"date axis is not daily between {a} and {b}")

    body = rows[1:]
    # rows before a ragged one are parsed (and warned about) first
    n_ok = next(
        (i for i, row in enumerate(body) if len(row) != len(header)), len(body)
    )
    body, ragged = body[:n_ok], body[n_ok:]
    counts = _count_block([row[4:] for row in body], header[4:], first_row=2)
    counts.flags.writeable = False
    drops = np.diff(counts, axis=1) < 0
    for i in np.flatnonzero(drops.any(axis=1)):
        warnings.warn(
            f"cumulative counts for {body[i][1].strip()!r} decrease at "
            f"{dates[int(drops[i].argmax()) + 1]} (source correction retained as-is)",
            stacklevel=2,
        )
    if ragged:
        raise RaggedRow(
            f"row {n_ok + 2} has {len(ragged[0])} fields, header has {len(header)}"
        )
    return [
        RegionSeries(region=row[1].strip(), dates=dates, cumulative=counts[i])
        for i, row in enumerate(body)
    ]


def serialize_jhu_deaths(series: list[RegionSeries]) -> str:
    """Canonical JHU-layout CSV: province/lat/long blank, M/D/YY dates."""
    if not series:
        return ",".join(_JHU_FIXED_COLUMNS) + "\r\n"
    dates = series[0].dates
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        list(_JHU_FIXED_COLUMNS) + [f"{d.month}/{d.day}/{d.year % 100:02d}" for d in dates]
    )
    for s in series:
        writer.writerow(["", s.region, "", ""] + [str(v) for v in s.cumulative])
    return out.getvalue()


def parse_continent_map(text) -> dict[str, str]:
    """Parse a ``country,continent`` CSV (header required) into a dict."""
    rows = list(_reader(text))
    if not rows or [h.strip() for h in rows[0]] != ["country", "continent"]:
        raise MalformedHeader("expected header 'country,continent'")
    mapping: dict[str, str] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise RaggedRow(f"row {i} has {len(row)} fields, expected 2")
        mapping[row[0].strip()] = row[1].strip()
    return mapping


def _group_sum(
    series: list[RegionSeries], key: Callable[[RegionSeries], str]
) -> tuple[list[str], np.ndarray]:
    """Sum the series sharing ``key(series)``: sorted keys, one row each.

    All series must share one date axis; the result is read-only.
    """
    dates = series[0].dates
    keys = []
    for s in series:
        if s.dates != dates:
            raise MisalignedDates(
                f"series for {s.region!r} does not share the common date axis"
            )
        keys.append(key(s))
    names = sorted(set(keys))
    index = {name: i for i, name in enumerate(names)}
    totals = np.zeros((len(names), len(dates)), dtype=np.int64)
    for k, s in zip(keys, series):
        totals[index[k]] += s.cumulative
    totals.flags.writeable = False
    return names, totals


def country_totals(series: list[RegionSeries]) -> tuple[list[str], np.ndarray]:
    """Province rows summed per country: sorted names and a countries x days matrix."""
    if not series:
        return [], np.zeros((0, 0), dtype=np.int64)
    return _group_sum(series, lambda s: s.region)


def aggregate_regions(
    series: list[RegionSeries], continent_map: Mapping[str, str]
) -> list[RegionSeries]:
    """Sum country rows into continents plus a synthetic World total.

    Every country key must be mapped and all series must share one date
    axis. Continents come back sorted by name with World appended.
    """
    if not series:
        return []

    def continent(s: RegionSeries) -> str:
        name = continent_map.get(s.region)
        if name is None:
            raise UnmappedCountry(f"no continent assigned for {s.region!r}")
        return name

    names, totals = _group_sum(series, continent)
    dates = series[0].dates
    out = [RegionSeries(name, dates, row) for name, row in zip(names, totals)]
    out.append(RegionSeries("World", dates, totals.sum(axis=0)))
    return out


def truncate_series(
    series: RegionSeries, start_date: date, end_date: date | None = None
) -> TruncatedSeries:
    """Re-base a series at ``start_date``, absorbing earlier counts.

    The cumulative count on the day before the start becomes the
    baseline; day indices count from 1 at the start date. ``end_date``
    (inclusive) optionally shortens the window.
    """
    if start_date not in series.dates:
        raise DateOutOfRange(
            f"start date {start_date} is outside {series.dates[0]}..{series.dates[-1]}"
        )
    stop = end_date if end_date is not None else series.dates[-1]
    if stop not in series.dates or stop < start_date:
        raise DateOutOfRange(
            f"end date {stop} is outside {start_date}..{series.dates[-1]}"
        )
    i0 = series.dates.index(start_date)
    i1 = series.dates.index(stop)
    baseline = int(series.cumulative[i0 - 1]) if i0 > 0 else 0
    window = series.cumulative[i0 : i1 + 1]
    return TruncatedSeries(
        start_date=start_date,
        baseline=baseline,
        t_index=tuple(range(1, len(window) + 1)),
        f_rel=tuple((window - baseline).tolist()),
    )


def _split_tsv(text) -> list[list[str]]:
    raw = text if isinstance(text, str) else text.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r").split("\t") for line in lines]


def parse_abundance_table(text) -> AbundanceTable:
    """Parse a TSV abundance table: taxa across the top, samples as rows.

    The header may either list only the taxon identifiers or carry a
    leading corner label above the sample-id column; both layouts are
    accepted. Counts must be nonnegative integers that fit in int64.
    """
    rows = _split_tsv(text)
    if not rows or rows == [[""]]:
        raise MalformedHeader("empty input")
    header = rows[0]
    body = rows[1:]
    if not body:
        raise MalformedHeader("no sample rows present")

    if all(len(r) == len(header) + 1 for r in body):
        taxa = header  # header lists taxa only
    else:
        taxa = header[1:]  # leading corner label above the sample ids
    if not taxa or any(t.strip() == "" for t in taxa):
        raise MalformedHeader("empty taxon column header")
    if len(set(taxa)) != len(taxa):
        raise MalformedHeader("duplicate taxon identifiers in header")

    sample_ids: list[str] = []
    seen: set[str] = set()
    error = None
    for i, row in enumerate(body):
        if len(row) != len(taxa) + 1:
            error = RaggedRow(
                f"row {i + 2} has {len(row)} fields, expected {len(taxa) + 1}"
            )
            break
        sid = row[0].strip()
        if sid in seen:
            error = DuplicateSampleId(f"sample id {sid!r} appears more than once")
            break
        seen.add(sid)
        sample_ids.append(sid)
    # a bad count in a row before the first bad row is reported first
    counts = _count_block(
        [row[1:] for row in body[: len(sample_ids)]], taxa, first_row=2
    )
    if error is not None:
        raise error
    return AbundanceTable(
        sample_ids=tuple(sample_ids), taxon_ids=tuple(taxa), counts=counts
    )


def serialize_abundance_table(table: AbundanceTable) -> str:
    """Canonical TSV form: corner label, then taxa; one sample per row."""
    lines = ["\t".join(("sample_id",) + table.taxon_ids)]
    for i, sid in enumerate(table.sample_ids):
        lines.append("\t".join([sid] + [str(int(v)) for v in table.counts[i]]))
    return "\n".join(lines) + "\n"
