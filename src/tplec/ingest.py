"""Parsers for the two input data families plus the truncation transform.

Cumulative-fatality time series arrive in the public JHU CSV layout
(``Province/State,Country/Region,Lat,Long`` then one ``M/D/YY`` column
per day). Abundance tables arrive as TSV with taxa across the top and
one sample per row. Continent assignments come from a two-column CSV.

Both parsers hand their count rows, as text, to one byte-level
converter. It takes a fixed number of cells at a time, encodes them as
ASCII and reads every cell of 1 to 18 plain digits with a few numpy
passes; at most 18 digits, a count cannot overflow int64. When any
cell is something else (a sign, a space, a non-ASCII digit, a 19th
digit, a quoted separator), the converter declines and the per-cell
scanner parses every count with ``int()``. So the accepted counts
are exactly ``int()``'s, and the scanner names the row and column of the
first bad cell in row-major order. Counts must fit in int64.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .diversity import AbundanceTable
from .errors import (
    CountOverflow,
    DateOutOfRange,
    DuplicateCountry,
    DuplicateSampleId,
    InvalidArgument,
    MalformedHeader,
    RaggedRow,
    ReservedRegion,
    UnmappedCountry,
    UnparseableCount,
    UnparseableDate,
)

_JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")


_INT64_MAX = int(np.iinfo(np.int64).max)
_BLOCK_CELLS = 1 << 14  # cells per converter pass: its scratch arrays stay small
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1, so no overflow check is needed


class DeathsRow(NamedTuple):
    """One row of a ``DeathsTable``: a region and its daily counts."""

    region: str
    cumulative: np.ndarray


@dataclass(frozen=True)
class DeathsTable:
    """Daily cumulative counts, one row per region, on one date axis.

    ``counts`` is a read-only regions x dates int64 matrix of
    nonnegative counts, with at least one date. A read-only int64 array
    is kept as it is; any other integer array or sequence is converted
    and frozen as a copy. ``len(table)`` and ``table[i]`` view the table
    as its rows, which is how perfbench's tracer counts parsed cells.
    """

    regions: tuple[str, ...]
    dates: tuple[date, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if not self.dates:
            raise InvalidArgument("a deaths table needs at least one date")
        if counts.shape != (len(self.regions), len(self.dates)):
            raise InvalidArgument(
                f"counts shape {counts.shape} does not match "
                f"{len(self.regions)} regions x {len(self.dates)} dates"
            )
        if counts.size and counts.min() < 0:
            row = int((counts < 0).any(axis=1).argmax())
            raise InvalidArgument(f"region {self.regions[row]!r} has a negative count")
        if counts.flags.writeable:
            counts = counts.copy()  # never freeze the caller's array
            counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.regions)

    def __getitem__(self, row: int) -> DeathsRow:
        return DeathsRow(self.regions[row], self.counts[row])


@dataclass(frozen=True)
class TruncatedSeries:
    """A series re-based at a chosen start date.

    ``baseline`` is the cumulative count on the day before the start
    date (0 when the start is the first date); ``f_rel[t - 1]`` is the
    cumulative count at day index t minus the baseline, with day index
    1 on the start date itself.
    """

    start_date: date
    baseline: int
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


def _digit_block(
    rows: Iterable[str], n_rows: int, n_cols: int, sep: str
) -> np.ndarray | None:
    """int64 matrix of ``n_rows`` rows of ``n_cols`` plain-digit cells.

    Each row is one string of cells joined by ``sep``. Rows are taken a
    block of about ``_BLOCK_CELLS`` cells at a time (a wider row is a
    block of its own). Returns None at the first block that holds a cell
    other than 1 to ``_MAX_DIGITS`` ASCII digits or a row with the wrong
    number of cells; the caller then scans every cell.
    """
    counts = np.empty((n_rows, n_cols), dtype=np.int64)
    rows = iter(rows)
    per_block = max(1, _BLOCK_CELLS // n_cols)
    for r0 in range(0, n_rows, per_block):
        k = min(per_block, n_rows - r0)
        chunk = list(itertools.islice(rows, k))
        chunk.append("")  # every row, the last included, ends in "\n"
        try:
            raw = np.frombuffer("\n".join(chunk).encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            return None
        digits = raw - ord("0")  # wraps: every other byte lands above 9
        ends = np.flatnonzero(digits > 9)
        if ends.size != k * n_cols:
            return None
        terminators = raw[ends].reshape(k, n_cols)
        if not (
            (terminators[:, :-1] == ord(sep)).all()
            and (terminators[:, -1] == ord("\n")).all()
        ):
            return None
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        widths = ends - starts
        if widths.min() < 1 or widths.max() > _MAX_DIGITS:
            return None
        values = digits[ends - 1].astype(np.int64)
        multi = np.flatnonzero(widths > 1)  # most cells of a sparse table are "0"
        if multi.size:
            first, width = starts[multi], widths[multi]
            acc = digits[first].astype(np.int64)
            for j in range(1, int(width.max())):
                live = np.flatnonzero(width > j)
                acc[live] = acc[live] * 10 + digits[first[live] + j]
            values[multi] = acc
        counts[r0 : r0 + k] = values.reshape(k, n_cols)
    return counts


def parse_jhu_deaths(text) -> DeathsTable:
    """Parse a JHU-layout deaths CSV into a table with one row per source row.

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
    joined = (",".join(row[4:]) for row in body)
    counts = _digit_block(joined, len(body), len(header) - 4, ",")
    if counts is None:  # csv cells: a quoted "1,000" is one cell here
        counts = _scan_counts([row[4:] for row in body], header[4:], first_row=2)
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
    return DeathsTable(tuple(row[1].strip() for row in body), dates, counts)


def serialize_jhu_deaths(table: DeathsTable) -> str:
    """Canonical JHU-layout CSV: province/lat/long blank, M/D/YY dates."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        list(_JHU_FIXED_COLUMNS)
        + [f"{d.month}/{d.day}/{d.year % 100:02d}" for d in table.dates]
    )
    for region, cumulative in zip(table.regions, table.counts.tolist()):
        writer.writerow(["", region, "", ""] + cumulative)
    return out.getvalue()


def parse_continent_map(text) -> dict[str, str]:
    """Parse a ``country,continent`` CSV (header required) into a dict.

    Each country may appear once; a repeat raises ``DuplicateCountry``.
    """
    rows = list(_reader(text))
    if not rows or [h.strip() for h in rows[0]] != ["country", "continent"]:
        raise MalformedHeader("expected header 'country,continent'")
    mapping: dict[str, str] = {}
    row_of: dict[str, int] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise RaggedRow(f"row {i} has {len(row)} fields, expected 2")
        country = row[0].strip()
        if country in row_of:
            raise DuplicateCountry(
                f"country {country!r} appears on rows {row_of[country]} and {i}"
            )
        row_of[country] = i
        mapping[country] = row[1].strip()
    return mapping


def _group_rows(
    table: DeathsTable, keys: Sequence[str]
) -> tuple[DeathsTable, list[list[int]]]:
    """Rows of ``table`` summed per key, keys sorted, and each key's rows.

    ``keys[i]`` is the key of row i. Raises ``CountOverflow`` naming the
    first key, in sorted order, whose total exceeds the int64 range.
    """
    members: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    names = tuple(sorted(members))
    counts = np.zeros((len(names), len(table.dates)), dtype=np.int64)
    for total, name in zip(counts, names):
        for i in members[name]:
            total += table.counts[i]
            # two addends in [0, 2**63) wrap to a negative sum, never a positive one
            if total.min() < 0:
                raise CountOverflow(f"the total for {name!r} exceeds the int64 range")
    counts.flags.writeable = False
    return DeathsTable(names, table.dates, counts), [members[name] for name in names]


def aggregate_regions(
    table: DeathsTable, continent_map: Mapping[str, str]
) -> tuple[DeathsTable, DeathsTable, list[list[int] | slice]]:
    """Units (each continent, then World), country totals, and unit members.

    Province rows are summed per country, countries per continent and
    continents into World. Countries and continents come sorted by name;
    an empty table has no units. Every country key must be mapped to a
    continent other than World. ``members[i]`` selects the rows of unit
    i's countries in the country table.
    """
    for region in table.regions:
        if region not in continent_map:
            raise UnmappedCountry(f"no continent assigned for {region!r}")
    countries, _ = _group_rows(table, table.regions)
    keys = [continent_map[country] for country in countries.regions]
    if "World" in keys:
        country = countries.regions[keys.index("World")]
        raise ReservedRegion(
            f"continent 'World' (country {country!r}) is reserved for the "
            "total of all continents"
        )
    continents, members = _group_rows(countries, keys)
    world, _ = _group_rows(continents, ["World"] * len(continents))
    members += [slice(None)] * len(world)  # World's members: every country
    units = DeathsTable(
        continents.regions + world.regions,
        table.dates,
        np.concatenate([continents.counts, world.counts]),
    )
    return units, countries, members


def truncate_series(
    table: DeathsTable, start_date: date, end_date: date | None = None
) -> tuple[slice, list[TruncatedSeries]]:
    """The window's columns, and each row of ``table`` re-based at ``start_date``.

    The cumulative count on the day before the start becomes a row's
    baseline; day indices count from 1 at the start date. ``end_date``
    (inclusive) optionally shortens the window.
    """
    dates = table.dates
    if start_date not in dates:
        raise DateOutOfRange(
            f"start date {start_date} is outside {dates[0]}..{dates[-1]}"
        )
    stop = end_date if end_date is not None else dates[-1]
    if stop not in dates or stop < start_date:
        raise DateOutOfRange(f"end date {stop} is outside {start_date}..{dates[-1]}")
    i0 = dates.index(start_date)
    window = slice(i0, dates.index(stop) + 1)
    baselines = table.counts[:, i0 - 1] if i0 > 0 else np.zeros(len(table), np.int64)
    rebased = table.counts[:, window] - baselines[:, None]
    return window, [
        TruncatedSeries(start_date, baseline, tuple(row))
        for baseline, row in zip(baselines.tolist(), rebased.tolist())
    ]


def _tsv_lines(text) -> list[str]:
    raw = text if isinstance(text, str) else text.read()
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return [line.rstrip("\r") for line in lines]


def parse_abundance_table(text) -> AbundanceTable:
    """Parse a TSV abundance table: taxa across the top, samples as rows.

    The header may either list only the taxon identifiers or carry a
    leading corner label above the sample-id column; both layouts are
    accepted. Counts must be nonnegative integers that fit in int64.
    """
    lines = _tsv_lines(text)
    if not lines or lines == [""]:
        raise MalformedHeader("empty input")
    header = lines[0].split("\t")
    body = lines[1:]
    if not body:
        raise MalformedHeader("no sample rows present")

    widths = [line.count("\t") + 1 for line in body]
    if all(w == len(header) + 1 for w in widths):
        taxa = header  # header lists taxa only
    else:
        taxa = header[1:]  # leading corner label above the sample ids
    if not taxa or any(t.strip() == "" for t in taxa):
        raise MalformedHeader("empty taxon column header")
    if len(set(taxa)) != len(taxa):
        raise MalformedHeader("duplicate taxon identifiers in header")

    sample_ids: list[str] = []
    count_rows: list[str] = []  # each row's count cells, still one string
    seen: set[str] = set()
    error = None
    for i, (line, width) in enumerate(zip(body, widths)):
        if width != len(taxa) + 1:
            error = RaggedRow(
                f"row {i + 2} has {width} fields, expected {len(taxa) + 1}"
            )
            break
        sid, rest = line.split("\t", 1)
        sid = sid.strip()
        if sid in seen:
            error = DuplicateSampleId(f"sample id {sid!r} appears more than once")
            break
        seen.add(sid)
        sample_ids.append(sid)
        count_rows.append(rest)
    # a bad count in a row before the first bad row is reported first
    counts = _digit_block(count_rows, len(count_rows), len(taxa), "\t")
    if counts is None:
        cells = [row.split("\t") for row in count_rows]
        counts = _scan_counts(cells, taxa, first_row=2)
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
