"""Parsers for the two input data families plus the truncation transform.

Cumulative-fatality time series arrive in the public JHU CSV layout
(``Province/State,Country/Region,Lat,Long`` then one ``M/D/YY`` column
per day). Abundance tables arrive as TSV with taxa across the top and
one sample per row. Continent assignments come from a two-column CSV.

Every file is read as its bytes, and a library caller's ``str`` as its
UTF-8 bytes. One check where the input enters raises ``NotUtf8`` for
bytes that are not UTF-8, and turns each CRLF and bare CR into LF.
Count-file lines are read as the source ends them. A deaths-file line
is split at its first four commas only, so that its date cells reach
the converter below, uncounted, as the one bytes string they already
are. On a line with a quote, ``csv`` first reads the cells up to the
last quote; when they are a complete record of at most four cells and
a comma follows that quote, the commas are counted after them, unless
the line holds a NUL or its rest is longer than ``csv``'s field limit.
``csv`` reads every other line as it is, with the further lines a
quoted cell spans, and the whole continent map; a record it cannot
read raises ``MalformedCsv`` naming the row. A record it reads goes,
with its block, to the per-cell reader below, at that reader's cost.
Header dates are read with ``int()``, as ``datetime``'s ``%m/%d/%y``
reads them.

Both parsers hand their count rows to one converter, ``_digit_blocks``.
It takes a block of rows at a time if they are ASCII, if each row has
the expected number of separators, and if every cell is 1 to 18 digits,
so that no count overflows int64. A block of nearly all one-digit
cells, such as an abundance table's "0" cells, is read two bytes per
cell; any other block by its cells' terminators, with one whole-array
update per digit place. A deaths file keeps every cell, in a dense
matrix; an abundance table keeps only each block's nonzero cells, and
its layout is taken from its first row's width alone. A row the
converter reads thus has the expected width. It stops at the first
block it declines, and the parser keeps the rows before that block and
reads every row from there on cell by cell: it counts the row's fields
and parses each cell with ``int()``, which also takes a sign, spaces or
non-ASCII digits. The first ragged row, repeated sample id or bad cell
(named by row and column), in row order, is raised; a deaths file's
decrease warnings for the rows before a ragged row come first.
"""

from __future__ import annotations

import csv
import io
import itertools
import warnings
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .diversity import _INT64_MAX, AbundanceTable, _int64_array
from .errors import (
    CountOverflow,
    DateOutOfRange,
    DuplicateCountry,
    DuplicateSampleId,
    InvalidArgument,
    MalformedCsv,
    MalformedHeader,
    NotUtf8,
    RaggedRow,
    ReservedRegion,
    UnmappedCountry,
    UnparseableCount,
    UnparseableDate,
)

_JHU_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")


_BLOCK_CELLS = 1 << 14  # cells per converter pass: its scratch arrays stay small
_MAX_DIGITS = 18  # 10**18 - 1 < 2**63 - 1, so no overflow check is needed
_SPARSE_SHARE = 8  # a two-byte block has at most one continuation digit per 8 cells
_TWO_BYTE_WIDENING = 4  # a two-byte block's scratch is O(bytes), so the next is wider


class DeathsRow(NamedTuple):
    """One row of a ``DeathsTable``: a region and its daily counts."""

    region: str
    cumulative: np.ndarray


@dataclass(frozen=True, eq=False)
class DeathsTable:
    """Daily cumulative counts, one row per region, on one date axis.

    ``counts`` is a read-only regions x dates int64 matrix of
    nonnegative counts, with at least one date. A read-only int64 array
    is kept as it is; any other array or sequence of integers in the
    int64 range is converted and frozen as a copy. ``len(table)`` and
    ``table[i]`` view the table as its rows, which is how perfbench's
    tracer counts parsed cells.
    """

    regions: tuple[str, ...]
    dates: tuple[date, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = _int64_array(self.counts)
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

    @classmethod
    def _of_checked(cls, regions, dates, counts: np.ndarray) -> "DeathsTable":
        """The table of ``counts``, an int64 matrix its caller has checked, frozen in place.

        Its shape matches and no count is negative, so nothing is scanned:
        a parsed file's counts, or sums of checked tables' rows.
        """
        table = cls.__new__(cls)
        counts.flags.writeable = False
        for name, value in (("regions", regions), ("dates", dates), ("counts", counts)):
            object.__setattr__(table, name, value)
        return table

    def __eq__(self, other):
        if type(other) is not DeathsTable:
            return NotImplemented
        labels = (self.regions, self.dates) == (other.regions, other.dates)
        return labels and np.array_equal(self.counts, other.counts)

    def __len__(self) -> int:
        return len(self.regions)

    def __getitem__(self, row: int) -> DeathsRow:
        return DeathsRow(self.regions[row], self.counts[row])


def _input_bytes(text: str | bytes) -> bytes:
    """A file's bytes, or a str as its UTF-8 bytes, each CRLF and bare CR a LF.

    Bytes that are not UTF-8 raise ``NotUtf8`` naming the first bad byte's
    offset. A str is encoded with "surrogatepass", which ``_utf8`` undoes.
    """
    if isinstance(text, str):
        data = text.encode("utf-8", "surrogatepass")
    else:
        data = text
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NotUtf8(f"byte {exc.start} is not UTF-8: {exc.reason}") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _utf8(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


def decode_utf8(text: str | bytes) -> str:
    """A file's bytes as the parsers read them: checked, each CRLF and bare CR a LF."""
    return _utf8(_input_bytes(text))


def _csv_record(lines: Iterable[str], row: int, strict: bool = False) -> list[str] | None:
    """The next record ``csv`` reads from ``lines``, or None at their end.

    This is the one place the package calls ``csv.reader``. The reader
    takes only the lines its record spans, so the caller can go on
    reading ``lines``. A ``csv.Error`` becomes ``MalformedCsv`` naming
    ``row``; ``strict`` makes a quote left open at the end of ``lines``,
    or text after a closing quote, one too.
    """
    try:
        return next(csv.reader(lines, strict=strict), None)
    except csv.Error as exc:
        raise MalformedCsv(f"row {row}: {exc}") from None


def _leading_cells(line: bytes, row: int) -> tuple[list[str], bytes] | None:
    """A quoted line's cells up to its last quote, and the bytes after the
    comma that follows it; None when ``csv`` must read the whole line.

    That prefix is read by ``csv`` alone, strictly, so that a quote left
    open or text after a closing quote declines it. It must be a complete
    record of at most four cells, and the rest, which holds no quote, must
    hold no NUL and be no longer than ``csv``'s field limit, so that
    splitting it at its commas gives the cells ``csv`` would.
    """
    end = line.rfind(b'"') + 1
    rest = line[end + 1 :]
    if line[end : end + 1] != b"," or b"\0" in line or len(rest) > csv.field_size_limit():
        return None
    try:
        cells = _csv_record([_utf8(line[:end])], row, strict=True)
    except MalformedCsv:
        return None
    return (cells, rest) if len(cells) <= 4 else None


def _jhu_records(data: bytes) -> Iterator[tuple[list[str], bytes | None]]:
    """(cells, date cells) for each record of a JHU file's bytes.

    Each line, as the source ends it, is split at its first four commas,
    counted after the leading cells that ``_leading_cells`` reads when it
    has a quote: its date cells stay the comma-joined bytes, with the
    line's ending, that ``_digit_block`` reads. ``csv`` reads every other
    line as it is, with the further lines a quoted cell spans. A record
    it reads, or a line of fewer than five cells, has all its cells in
    the list and None for its date cells; a blank line has no cells.
    """
    lines = io.BytesIO(data)
    for row, line in enumerate(lines, start=1):
        if b'"' in line:
            split = _leading_cells(line, row)
        else:
            split = ([], line) if line != b"\n" else None
        if split is None:
            texts = (_utf8(raw) for raw in itertools.chain([line], lines))
            yield _csv_record(texts, row), None
            continue
        leading, rest = split
        cells = rest.split(b",", 4 - len(leading))
        if len(leading) + len(cells) == 5:
            dates = cells.pop()
        else:
            dates, cells[-1] = None, cells[-1].rstrip(b"\n")
        yield leading + [_utf8(cell) for cell in cells], dates


def _cells(record: tuple[list[str], bytes | None]) -> list[str]:
    cells, dates = record
    return cells if dates is None else cells + _utf8(dates).rstrip("\n").split(",")


_MONTHS = {f"{m:{w}}": m for m in range(1, 13) for w in ("", "02")}
_DAYS = {f"{d:{w}}": d for d in range(1, 32) for w in ("", "02", "2")}  # 1, 01, " 1"


def _header_date(cell: str, column: int) -> date:
    """The stripped ``cell`` read as the ``datetime`` format ``%m/%d/%y`` reads it.

    Month 1-12 and day 1-31 in one or two ASCII digits; the day may also
    be a space and a digit, or 1 or 2 and any decimal digit. Two decimal
    digits of year, 00-68 read as 20xx and 69-99 as 19xx. The day must exist.
    """
    parts = cell.strip().split("/")
    if len(parts) == 3:
        m, d, y = parts
        month = _MONTHS.get(m)
        day = _DAYS.get(d)
        if day is None and len(d) == 2 and d[0] in "12" and d[1].isdecimal():
            day = int(d)
        if month and day and len(y) == 2 and y.isdecimal():
            year = int(y)
            try:
                return date(year + (2000 if year <= 68 else 1900), month, day)
            except ValueError:
                pass
    raise UnparseableDate(f"header column {column}: {cell!r} is not an M/D/YY date")


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


def _digit_blocks(rows: Iterable[bytes], n_cols: int, sep: str) -> Iterator[np.ndarray]:
    """Each block of ``rows``' cells as a flat int64 array, in row-major order.

    Each row is the bytes of ``n_cols`` cells joined by ``sep``, with or
    without the "\\n" that ends its line. Stops at the first block that
    holds a cell other than 1 to ``_MAX_DIGITS`` ASCII digits or a row
    with the wrong number of cells, an empty row included, having taken
    that block's rows from ``rows``. So every block it yields proves its
    rows' width, and the cells it yields are those of the rows before the
    block it declined, or of every row.

    Each block takes one route, by its byte count. A block of at most
    ``2 + 1/_SPARSE_SHARE`` bytes per cell, so that nearly every cell is
    one digit and its terminator, is read by ``_two_byte_cells``. Any
    other is read by finding each cell's terminator, with one whole-array
    update per digit place. Both routes take and decline the same blocks.
    Rows are taken a block of about ``_BLOCK_CELLS`` cells at a time, or
    ``_TWO_BYTE_WIDENING`` times that after a two-byte block, whose
    scratch is O(bytes) where the other route's is O(8 bytes per cell);
    a wider row is a block of its own.
    """
    rows = iter(rows)
    narrow = max(1, _BLOCK_CELLS // n_cols)
    wide = max(1, _TWO_BYTE_WIDENING * _BLOCK_CELLS // n_cols)
    per_block = narrow
    # a "0" cell and its terminator, as one little-endian uint16
    zero = np.full(n_cols, ord("0") | ord(sep) << 8, dtype=np.uint16)
    zero[-1] = ord("0") | ord("\n") << 8
    while chunk := list(itertools.islice(rows, per_block)):
        k = len(chunk)
        ended = [row if row.endswith(b"\n") else row + b"\n" for row in chunk]
        # a byte above 127 is no digit, so a row that is not ASCII declines
        raw = np.frombuffer(b"".join(ended), dtype=np.uint8)
        if _SPARSE_SHARE * (raw.size - 2 * k * n_cols) <= k * n_cols:
            values = _two_byte_cells(raw, zero, k)
            if values is None:
                return
            per_block = wide
            yield values
            continue
        # The other route reads the block here, so that its scratch lives
        # until the next block's replaces it. Freed as a function returned,
        # it took about 1200 more page faults in a cold ftr-jhu parse.
        per_block = narrow
        digits = raw - ord("0")  # wraps: every other byte lands above 9
        ends = np.flatnonzero(digits > 9)
        if ends.size != k * n_cols:
            return
        terminators = raw[ends].reshape(k, n_cols)
        if not (
            (terminators[:, :-1] == ord(sep)).all()
            and (terminators[:, -1] == ord("\n")).all()
        ):
            return
        widths = ends.copy()  # a cell starts after the terminator before it
        widths[1:] -= ends[:-1] + 1
        if widths.min() < 1 or widths.max() > _MAX_DIGITS:
            return
        values = digits[ends - 1].astype(np.int64)  # all a one-digit cell needs
        longer = widths > 1  # most cells of a sparse table are "0"
        # where most cells are longer, picking them out costs more than it saves
        dense = 2 * np.count_nonzero(longer) > longer.size
        multi = slice(None) if dense else np.flatnonzero(longer)
        last, width = ends[multi] - 1, widths[multi]
        if width.size:
            _add_leading_digits(values, multi, digits, last, width)
        yield values


def _two_byte_cells(raw: np.ndarray, zero: np.ndarray, k: int) -> np.ndarray | None:
    """The cells of a block's bytes, read two bytes per cell, or None.

    With each continuation digit (a digit another digit follows) deleted,
    a block of valid cells is each cell's last digit and then its
    terminator: read as one little-endian uint16, that less ``zero``'s
    entry for its column is the digit, 0 to 9. Anything else, a byte
    that is not ASCII included, lands above 9.
    """
    digits = raw - ord("0")  # wraps: every other byte lands above 9
    is_digit = digits <= 9
    cont = np.flatnonzero(is_digit[:-1] & is_digit[1:])
    if raw.size - cont.size != 2 * k * zero.size:
        return None
    pairs = np.delete(raw, cont) if cont.size else raw
    offset = pairs.view("<u2").reshape(k, zero.size) - zero
    if offset.max() > 9:
        return None
    values = offset.astype(np.int64).reshape(-1)
    if cont.size:
        # a run of continuation digits is one cell's, just before its last digit
        run_end = np.empty(cont.size, dtype=bool)
        np.not_equal(cont[1:], cont[:-1] + 1, out=run_end[:-1])
        run_end[-1] = True
        ends = np.flatnonzero(run_end)
        width = ends + 2  # each multi-digit cell's digits
        width[1:] -= ends[:-1] + 1
        if width.max() > _MAX_DIGITS:
            return None
        last = cont[ends] + 1
        cells = (last - 1 - ends) // 2  # the pair its last digit is in
        _add_leading_digits(values, cells, digits, last, width)
    return values


def _add_leading_digits(values, cells, digits, last, width) -> None:
    """Add to ``values[cells]`` each cell's digits before its last one.

    The cell's last digit is ``digits[last]`` and it has ``width`` digits.
    One whole-array update per digit place, most significant first; a cell
    too narrow for a place adds 0.
    """
    acc = np.zeros(width.size, dtype=np.int64)
    for j in range(int(width.max()) - 1, 0, -1):
        acc += digits[last - j] * (width > j)
        acc *= 10
    values[cells] += acc


def _digit_block(
    rows: Iterable[bytes], n_rows: int, n_cols: int, sep: str
) -> tuple[np.ndarray, int]:
    """The ``n_rows`` x ``n_cols`` int64 matrix of ``_digit_blocks``, and how
    many leading rows of it the converter read; the other rows are unset."""
    counts = np.empty((n_rows, n_cols), dtype=np.int64)
    flat = counts.reshape(-1)
    done = 0
    for values in _digit_blocks(itertools.islice(rows, n_rows), n_cols, sep):
        flat[done : done + values.size] = values
        done += values.size
    return counts, done // n_cols


def _nonzero_of_blocks(
    rows: Iterable[bytes], n_cols: int, sep: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat index and value of each nonzero cell ``_digit_blocks`` reads,
    and how many leading rows it read.

    The index is ``row * n_cols + column``, ascending, so the cells come
    in row-major order; only a block's nonzero cells outlive it.
    """
    cells = [np.empty(0, dtype=np.intp)]
    kept = [np.empty(0, dtype=np.int64)]
    done = 0
    for values in _digit_blocks(rows, n_cols, sep):
        nonzero = np.flatnonzero(values != 0)  # faster on a mask than on int64
        cells.append(nonzero + done)
        kept.append(values[nonzero])
        done += values.size
    return np.concatenate(cells), np.concatenate(kept), done // n_cols


def parse_jhu_deaths(text: str | bytes) -> DeathsTable:
    """Parse a JHU-layout deaths CSV into a table with one row per source row.

    Province rows keep their country key so a later aggregation pass can
    sum them. Non-monotone cumulative counts (source data corrections)
    are kept as-is but flagged with a warning.
    """
    records = list(_jhu_records(_input_bytes(text)))
    if not records:
        raise MalformedHeader("empty input")
    header = _cells(records[0])
    if tuple(h.strip() for h in header[:4]) != _JHU_FIXED_COLUMNS:
        raise MalformedHeader(
            f"expected leading columns {','.join(_JHU_FIXED_COLUMNS)}, "
            f"got {','.join(header[:4])}"
        )
    if len(header) < 5:
        raise MalformedHeader("no date columns present")
    dates = tuple(_header_date(c, col) for col, c in enumerate(header[4:], start=5))
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:
            raise MalformedHeader(f"date axis is not daily between {a} and {b}")

    body, width = records[1:], len(header)
    # a record with no date bytes goes to the converter as an empty row,
    # which it declines, so its block is read cell by cell
    rows = (b"" if dates is None else dates for _, dates in body)
    counts, done = _digit_block(rows, len(body), width - 4, ",")
    # the rows from the declined block on are read cell by cell, up to the
    # first ragged one, and warned about before it is raised
    rest = [_cells(r) for r in body[done:]]
    n_ok = done + next((i for i, r in enumerate(rest) if len(r) != width), len(rest))
    cells = [r[4:] for r in rest[: n_ok - done]]  # a quoted "1,000" is one cell
    counts[done:n_ok] = _scan_counts(cells, header[4:], first_row=done + 2)
    body, counts = body[:n_ok], counts[:n_ok]
    drops = counts[:, 1:] < counts[:, :-1]
    for i in np.flatnonzero(drops.any(axis=1)):
        warnings.warn(
            f"cumulative counts for {body[i][0][1].strip()!r} decrease at "
            f"{dates[int(drops[i].argmax()) + 1]} (source correction retained as-is)",
            stacklevel=2,
        )
    if n_ok < done + len(rest):
        raise RaggedRow(
            f"row {n_ok + 2} has {len(rest[n_ok - done])} fields, header has {width}"
        )
    regions = tuple(cells[1].strip() for cells, _ in body)
    return DeathsTable._of_checked(regions, dates, counts)


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


def parse_continent_map(text: str | bytes) -> dict[str, str]:
    """Parse a ``country,continent`` CSV (header required) into a dict.

    Each country may appear once; a repeat raises ``DuplicateCountry``.
    """
    lines = io.StringIO(decode_utf8(text))
    rows: list[list[str]] = []
    while (record := _csv_record(lines, len(rows) + 1)) is not None:
        rows.append(record)
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

    ``keys[i]`` is the key of row i. Each key's total is one array sum
    over its rows. Raises ``CountOverflow`` naming the first key, in
    sorted order, whose total exceeds the int64 range; the totals are
    summed exactly in Python ints only when the largest count times the
    largest group might exceed it.
    """
    members: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    names = tuple(sorted(members))
    groups = [members[name] for name in names]
    src = table.counts
    if groups and int(src.max()) > _INT64_MAX // max(map(len, groups)):
        for name, rows in zip(names, groups):
            if max(map(sum, zip(*src[rows].tolist()))) > _INT64_MAX:
                raise CountOverflow(f"the total for {name!r} exceeds the int64 range")
    counts = src[[rows[0] for rows in groups]]
    for total, rows in zip(counts, groups):
        if len(rows) > 1:
            np.sum(src[rows], axis=0, out=total)
    return DeathsTable._of_checked(names, table.dates, counts), groups


def aggregate_regions(
    table: DeathsTable, continent_map: Mapping[str, str]
) -> tuple[DeathsTable, DeathsTable, list[list[int] | slice]]:
    """Units (each continent, then World), country totals, and unit members.

    Province rows are summed per country, countries per continent and
    continents into World, each total by one int64 array sum; a total
    beyond the int64 range raises ``CountOverflow``. Countries and
    continents come sorted by name; an empty table has no units. Every
    country key must be mapped to a continent other than World.
    ``members[i]`` selects the rows of unit i's countries in the country
    table.
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
    units = DeathsTable._of_checked(
        continents.regions + world.regions,
        table.dates,
        np.concatenate([continents.counts, world.counts]),
    )
    return units, countries, members


def truncate_series(
    table: DeathsTable, start_date: date, end_date: date | None = None
) -> tuple[slice, list[int]]:
    """The window's columns, and each row's count on the day before ``start_date``.

    That count (0 when the start is the first date) is a row's baseline,
    as a Python int. ``end_date`` (inclusive) optionally shortens the window.
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
    baselines = table.counts[:, i0 - 1].tolist() if i0 > 0 else [0] * len(table.regions)
    return window, baselines


def _check_taxa(taxa: Sequence[str]) -> None:
    if not taxa or not all(map(str.strip, taxa)):
        raise MalformedHeader("empty taxon column header")
    if len(set(taxa)) != len(taxa):
        raise MalformedHeader("duplicate taxon identifiers in header")


def _first_repeat(ids: Sequence[str]) -> int:
    """Index of the first id that an earlier one equals, or ``len(ids)``."""
    seen: set[str] = set()
    for i, sid in enumerate(ids):
        if sid in seen:
            return i
        seen.add(sid)
    return len(ids)


def parse_abundance_table(text: str | bytes) -> AbundanceTable:
    """Parse a TSV abundance table: taxa across the top, samples as rows.

    The header may either list only the taxon identifiers or carry a
    leading corner label above the sample-id column; the first row's
    width picks the layout. Counts must be nonnegative integers that fit
    in int64, and so must their total. Only the nonzero cells are kept
    (see ``AbundanceTable``), and the rows are read one block at a time.
    """
    data = _input_bytes(text)
    lines = io.BytesIO(data)
    head, first = next(lines, None), next(lines, None)
    if head is None or (head == b"\n" and first is None):
        raise MalformedHeader("empty input")
    header = _utf8(head).rstrip("\n").split("\t")
    if first is None:
        raise MalformedHeader("no sample rows present")

    # the first row's width picks the layout; a converted row proves its
    # width, so only the rows the converter declines have their tabs counted
    taxa = header if first.count(b"\t") == len(header) else header[1:]
    _check_taxa(taxa)
    sample_ids: list[str] = []

    def count_rows() -> Iterator[bytes]:
        for line in itertools.chain([first], lines):
            sid, _, rest = line.partition(b"\t")
            sample_ids.append(_utf8(sid).strip())
            yield rest

    cells, values, done = _nonzero_of_blocks(count_rows(), len(taxa), "\t")
    # Every row from the block the converter declined on, if it declined
    # one, is read cell by cell; if not, it spent ``lines``. The first
    # ragged row, repeated sample id or bad cell, in row order, is raised.
    if done < len(sample_ids):
        lines = itertools.islice(io.BytesIO(data), done + 1, None)
    rest = [_utf8(line).rstrip("\n").split("\t") for line in lines]
    width = len(taxa) + 1
    n_ok = done + next((i for i, r in enumerate(rest) if len(r) != width), len(rest))
    del sample_ids[done:]
    sample_ids += [r[0].strip() for r in rest[: n_ok - done]]
    n_unique = _first_repeat(sample_ids)
    grid = [r[1:] for r in rest[: max(n_unique - done, 0)]]
    scanned = _scan_counts(grid, taxa, first_row=done + 2)
    if n_unique < n_ok:
        raise DuplicateSampleId(
            f"sample id {sample_ids[n_unique]!r} appears more than once"
        )
    if n_ok < done + len(rest):
        raise RaggedRow(
            f"row {n_ok + 2} has {len(rest[n_ok - done])} fields, expected {width}"
        )
    if rest:
        nonzero = np.flatnonzero(scanned)
        cells = np.concatenate([cells, nonzero + done * len(taxa)])
        values = np.concatenate([values, scanned.reshape(-1)[nonzero]])
    return AbundanceTable._from_cells(tuple(sample_ids), tuple(taxa), cells, values)


def serialize_abundance_table(table: AbundanceTable) -> str:
    """Canonical TSV form: corner label, then taxa; one sample per row."""
    lines = ["\t".join(("sample_id",) + table.taxon_ids)]
    for sid, row in zip(table.sample_ids, table.counts.tolist()):
        lines.append("\t".join([sid, *map(str, row)]))
    return "\n".join(lines) + "\n"
