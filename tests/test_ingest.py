"""Tests for file parsing, aggregation, and the truncation transform."""

import csv
import importlib.util
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from tplec import (
    DeathsTable,
    aggregate_regions,
    ingest,
    parse_abundance_table,
    parse_continent_map,
    parse_jhu_deaths,
    serialize_abundance_table,
    serialize_jhu_deaths,
    truncate_series,
)
from tplec.errors import (
    CountOverflow,
    DateOutOfRange,
    DuplicateCountry,
    DuplicateSampleId,
    MalformedCsv,
    MalformedHeader,
    NotUtf8,
    RaggedRow,
    ReservedRegion,
    TplecError,
    UnmappedCountry,
    UnparseableCount,
    UnparseableDate,
)
from tplec.ingest import _digit_block, _nonzero_of_blocks

INT64_MAX = 2**63 - 1

SMALL_CSV = (
    "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21,3/3/21\n"
    ",Freedonia,12.0,-3.5,5,8,13\n"
    ",Sylvania,0,0,100,110,125\n"
)


class TestParseJhuDeaths:
    def test_small_fixture(self):
        table = parse_jhu_deaths(SMALL_CSV)
        assert table.regions == ("Freedonia", "Sylvania")
        assert table.dates == (date(2021, 3, 1), date(2021, 3, 2), date(2021, 3, 3))
        assert table.counts.tolist() == [[5, 8, 13], [100, 110, 125]]
        assert len(table) == 2
        assert table[1].region == "Sylvania"
        assert table[1].cumulative.tolist() == [100, 110, 125]

    def test_quoted_country_key(self):
        text = (
            "Province/State,Country/Region,Lat,Long,3/1/21\n"
            ',"Korea, South",36,128,44\n'
        )
        table = parse_jhu_deaths(text)
        assert table.regions == ("Korea, South",)
        assert table.counts.tolist() == [[44]]

    def test_unparseable_count_names_row_and_column(self):
        text = (
            "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"
            ",Freedonia,0,0,5,oops\n"
        )
        with pytest.raises(UnparseableCount, match=r"row 2.*3/2/21"):
            parse_jhu_deaths(text)

    def test_negative_count_rejected(self):
        text = "Province/State,Country/Region,Lat,Long,3/1/21\n,Freedonia,0,0,-4\n"
        with pytest.raises(UnparseableCount, match="negative"):
            parse_jhu_deaths(text)

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_jhu_deaths("State,Country,Lat,Long,3/1/21\n,X,0,0,1\n")

    @pytest.mark.parametrize("text", ["", b""], ids=["str", "bytes"])
    def test_empty_input(self, text):
        with pytest.raises(MalformedHeader, match="^empty input$"):
            parse_jhu_deaths(text)

    def test_bad_date_column(self):
        with pytest.raises(UnparseableDate):
            parse_jhu_deaths(
                "Province/State,Country/Region,Lat,Long,2021-03-01\n,X,0,0,1\n"
            )

    def test_gapped_date_axis_rejected(self):
        with pytest.raises(MalformedHeader, match="daily"):
            parse_jhu_deaths(
                "Province/State,Country/Region,Lat,Long,3/1/21,3/3/21\n,X,0,0,1,2\n"
            )

    def test_ragged_row(self):
        text = "Province/State,Country/Region,Lat,Long,3/1/21\n,Freedonia,0,0\n"
        with pytest.raises(RaggedRow):
            parse_jhu_deaths(text)

    def test_non_monotone_counts_warn_but_parse(self):
        text = (
            "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21,3/3/21\n"
            ",Freedonia,0,0,10,8,12\n"
        )
        with pytest.warns(UserWarning, match="decrease"):
            table = parse_jhu_deaths(text)
        assert table.counts.tolist() == [[10, 8, 12]]

    def test_round_trip(self):
        parsed = parse_jhu_deaths(SMALL_CSV)
        text = serialize_jhu_deaths(parsed)
        again = parse_jhu_deaths(text)
        assert (again.regions, again.dates, again.counts.tolist()) == (
            parsed.regions, parsed.dates, parsed.counts.tolist()
        )
        assert serialize_jhu_deaths(again) == text

    def test_header_only_round_trip_keeps_the_dates(self):
        text = "Province/State,Country/Region,Lat,Long,3/1/21\r\n"
        table = parse_jhu_deaths(text)
        assert table.dates == (date(2021, 3, 1),) and table.counts.shape == (0, 1)
        assert serialize_jhu_deaths(table) == text


class TestAggregateRegions:
    def test_elementwise_sum(self):
        table = parse_jhu_deaths(SMALL_CSV)
        mapping = {"Freedonia": "Ruritania", "Sylvania": "Ruritania"}
        units, countries, members = aggregate_regions(table, mapping)
        assert units.regions == ("Ruritania", "World")
        assert units.dates == table.dates
        assert units.counts.tolist() == [[105, 118, 138], [105, 118, 138]]
        assert countries.counts.tolist() == table.counts.tolist()
        assert members == [[0, 1], slice(None)]

    def test_world_sums_all_continents(self):
        rng = np.random.default_rng(8)
        dates = (date(2021, 3, 1), date(2021, 3, 2))
        # rows c0 and c1 appear twice, as a country's province rows do
        regions = tuple(f"c{i % 4}" for i in range(6))
        counts = np.sort(rng.integers(0, 100, size=(6, 2)), axis=1)
        mapping = {f"c{i}": f"K{i % 3}" for i in range(4)}
        units, countries, members = aggregate_regions(
            DeathsTable(regions, dates, counts), mapping
        )
        assert units.regions == ("K0", "K1", "K2", "World")
        assert countries.regions == ("c0", "c1", "c2", "c3")
        for country, row in zip(countries.regions, countries.counts):
            mine = [i for i, region in enumerate(regions) if region == country]
            assert row.tolist() == counts[mine].sum(axis=0).tolist()
        for unit, row, rows in zip(units.regions, units.counts, members):
            mine = [i for i, c in enumerate(countries.regions) if unit in (mapping[c], "World")]
            assert countries.counts[rows].tolist() == countries.counts[mine].tolist()
            assert row.tolist() == countries.counts[mine].sum(axis=0).tolist()
        assert units.counts[-1].tolist() == counts.sum(axis=0).tolist()

    def test_empty_table_has_no_units(self):
        dates = (date(2021, 3, 1),)
        table = DeathsTable((), dates, np.zeros((0, 1), dtype=np.int64))
        units, countries, members = aggregate_regions(table, {})
        assert (units.regions, units.dates, units.counts.shape) == ((), dates, (0, 1))
        assert len(countries) == 0 and members == []

    def test_unmapped_country(self):
        table = parse_jhu_deaths(SMALL_CSV)
        with pytest.raises(UnmappedCountry, match="Atlantis|Sylvania"):
            aggregate_regions(table, {"Freedonia": "Ruritania"})
        with pytest.raises(UnmappedCountry) as err:
            aggregate_regions(
                DeathsTable(("Atlantis",), table.dates, [(1, 2, 3)]),
                {"Freedonia": "Ruritania"},
            )
        assert "Atlantis" in str(err.value)

    def test_continent_named_world_is_rejected(self):
        # World is the synthetic total of all continents; a continent of
        # that name would give two World units
        table = DeathsTable(("A", "B"), (date(2021, 3, 1),), [(1,), (2,)])
        with pytest.raises(ReservedRegion, match="continent 'World' \\(country 'A'\\)"):
            aggregate_regions(table, {"A": "World", "B": "K"})


class TestAggregationOverflow:
    # each count fits in int64; any two of them summed do not
    TEXT = (
        "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"
        ",A,0,0,1,6900000000000000000\n"
        ",B,0,0,2,6900000000000000000\n"
    )

    def test_continent_total(self):
        table = parse_jhu_deaths(self.TEXT)
        with pytest.raises(CountOverflow, match="total for 'K' exceeds the int64"):
            aggregate_regions(table, {"A": "K", "B": "K"})

    def test_country_total(self):
        # province rows are summed per country first, so the country is named
        text = self.TEXT.replace(",B,", ",A,")
        with pytest.raises(CountOverflow, match="total for 'A' exceeds the int64"):
            aggregate_regions(parse_jhu_deaths(text), {"A": "K"})

    def test_world_total(self):
        table = parse_jhu_deaths(self.TEXT)
        with pytest.raises(CountOverflow, match="total for 'World' exceeds the int64"):
            aggregate_regions(table, {"A": "K1", "B": "K2"})

    def test_largest_total_accepted(self):
        top = 2**63 - 1
        table = DeathsTable(("A", "B"), (date(2021, 3, 1),), [(top - 5,), (5,)])
        units, _, _ = aggregate_regions(table, {"A": "K", "B": "K"})
        assert units.counts.tolist() == [[top], [top]]


class TestTruncateSeries:
    DATES = tuple(date(2021, 3, d) for d in (1, 2, 3, 4))
    TABLE = DeathsTable(("X", "Y"), DATES, [(100, 150, 210, 300), (1, 2, 3, 5)])

    def test_interior_start(self):
        window, baselines = truncate_series(self.TABLE, date(2021, 3, 3))
        assert window == slice(2, 4)
        assert baselines == [150, 2]
        assert self.TABLE.counts[:, window].tolist() == [[210, 300], [3, 5]]

    def test_start_at_first_date(self):
        window, baselines = truncate_series(self.TABLE, date(2021, 3, 1))
        assert window == slice(0, 4)
        assert baselines == [0, 0]

    def test_window_length_spring_2021(self):
        start = date(2021, 3, 21)
        end = date(2021, 5, 21)
        days = (end - start).days + 1
        dates = tuple(
            date.fromordinal(date(2021, 3, 1).toordinal() + i) for i in range(120)
        )
        table = DeathsTable(("X",), dates, [tuple(range(120))])
        window, (baseline,) = truncate_series(table, start, end)
        assert days == 62
        assert len(dates[window]) == 62
        assert window == slice(20, 82)
        assert baseline == 19

    def test_out_of_range(self):
        with pytest.raises(DateOutOfRange):
            truncate_series(self.TABLE, date(2021, 2, 28))
        with pytest.raises(DateOutOfRange):
            truncate_series(self.TABLE, date(2021, 3, 2), date(2021, 3, 9))

    def test_baseline_reconstructs_tail(self):
        window, baselines = truncate_series(self.TABLE, date(2021, 3, 2))
        for row, baseline in zip(self.TABLE.counts.tolist(), baselines):
            assert [baseline] + row[window] == row  # the day before, then the window


ABUNDANCE_TSV = (
    "sample_id\tt1\tt2\tt3\n"
    "s1\t5\t0\t2\n"
    "s2\t1\t3\t0\n"
)


def _assert_bytes_read_as_text(parse, text, tmp_path):
    """``parse`` gives the same result, or error, on a file's bytes as on
    the str ``read_text`` reads from them."""

    def outcome(source):
        try:
            return parse(source)
        except TplecError as exc:
            return type(exc), str(exc)

    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(path.read_bytes()) == outcome(path.read_text(encoding="utf-8"))


HEAD_2 = "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_jhu_deaths, SMALL_CSV),
        (parse_jhu_deaths, SMALL_CSV.replace("\n", "\r\n")),
        (parse_jhu_deaths, SMALL_CSV.replace("\n", "\r")),
        (parse_jhu_deaths, HEAD_2 + ",C\u00f4te,0,0,1,2\n,\u4e2d\u56fd,0,0,3,4"),
        (parse_jhu_deaths, HEAD_2 + ',"Korea,\r\nSouth",0,0,1,2\r,"B",0,0,"3\r",4'),
        (parse_jhu_deaths, HEAD_2 + ',A,0,0,1,2\n,"B,0,0,3,4'),  # a quote left open
        (parse_jhu_deaths, HEAD_2 + ",A,0,0,1,\u0663\n"),  # a non-ASCII digit
        (parse_continent_map, "country,continent\nA,K\nB,L\n"),
        (parse_continent_map, "country,continent\r\nA,K\r\nB,L\r\n"),
        (parse_continent_map, "country,continent\rA,K\rB,L"),
        (parse_continent_map, "country,continent\nC\u00f4te d'Ivoire,\u00c1frica\n"),
        (parse_continent_map, 'country,continent\n"A\r\nB",K\n"C",L\r'),
    ],
    ids=[
        "deaths_lf", "deaths_crlf", "deaths_cr", "deaths_utf8_labels",
        "deaths_quoted_lines", "deaths_open_quote", "deaths_utf8_count",
        "map_lf", "map_crlf", "map_cr", "map_utf8_labels", "map_quoted_lines",
    ],
)
def test_deaths_and_continent_bytes_are_read_as_read_text_reads_them(
    parse, text, tmp_path
):
    _assert_bytes_read_as_text(parse, text, tmp_path)


class TestParseAbundanceTable:
    def test_small_fixture(self):
        table = parse_abundance_table(ABUNDANCE_TSV)
        assert table.sample_ids == ("s1", "s2")
        assert table.taxon_ids == ("t1", "t2", "t3")
        assert table.counts.tolist() == [[5, 0, 2], [1, 3, 0]]

    def test_header_without_corner_label(self):
        text = "t1\tt2\tt3\ns1\t5\t0\t2\ns2\t1\t3\t0\n"
        table = parse_abundance_table(text)
        assert table.taxon_ids == ("t1", "t2", "t3")
        assert table.counts.tolist() == [[5, 0, 2], [1, 3, 0]]

    def test_crlf_accepted(self):
        table = parse_abundance_table(ABUNDANCE_TSV.replace("\n", "\r\n"))
        assert table.counts.tolist() == [[5, 0, 2], [1, 3, 0]]

    def test_duplicate_sample_id(self):
        text = ABUNDANCE_TSV + "s1\t1\t1\t1\n"
        with pytest.raises(DuplicateSampleId):
            parse_abundance_table(text)

    def test_empty_taxon_header(self):
        with pytest.raises(MalformedHeader):
            parse_abundance_table("sample_id\tt1\t\ts3\ns1\t1\t2\t3\n")

    def test_ragged_row(self):
        with pytest.raises(RaggedRow):
            parse_abundance_table("sample_id\tt1\tt2\ns1\t1\n")

    def test_negative_count(self):
        with pytest.raises(UnparseableCount):
            parse_abundance_table("sample_id\tt1\tt2\ns1\t1\t-2\n")

    @pytest.mark.parametrize(
        "text",
        [
            ABUNDANCE_TSV,
            ABUNDANCE_TSV.replace("\n", "\r\n"),
            ABUNDANCE_TSV.replace("\n", "\r"),
            "\ufeffsample_id\tt\u00e9\ns\u00e9\t3\n",  # a byte-order mark, UTF-8 labels
            "c\tA\tB\ns1\t\u0663\t1\ns1\t1\t2\n",  # a non-ASCII digit
            "c\tA\tB\ns1\t1\t2\ns2\t1\n",
        ],
        ids=["lf", "crlf", "cr", "utf8_labels", "utf8_count", "ragged"],
    )
    def test_bytes_are_read_as_read_text_reads_them(self, text, tmp_path):
        _assert_bytes_read_as_text(parse_abundance_table, text, tmp_path)

    @pytest.mark.parametrize(
        "data",
        [b"sample_id\tt1\ns1\t3\ns\xe92\t1\n", b"c\tA\tB\ns1\t1\n\xff\t1\t2\r\n"],
        ids=["bad_label", "after_a_ragged_row"],
    )
    def test_bytes_that_are_not_utf8_raise_as_read_text_does(self, data, tmp_path):
        # the typed error names the byte that read_text names, before any other
        path = tmp_path / "table.tsv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as expected:
            path.read_text(encoding="utf-8")
        with pytest.raises(NotUtf8) as got:
            parse_abundance_table(data)
        expect = f"byte {expected.value.start} is not UTF-8: {expected.value.reason}"
        assert str(got.value) == expect

    def test_round_trip_preserves_order(self):
        table = parse_abundance_table(ABUNDANCE_TSV)
        text = serialize_abundance_table(table)
        again = parse_abundance_table(text)
        assert again.sample_ids == table.sample_ids
        assert again.taxon_ids == table.taxon_ids
        assert np.array_equal(again.counts, table.counts)
        assert serialize_abundance_table(again) == text


@pytest.mark.parametrize(
    "text, expect",
    [
        ("c\tA\tB\ns1\t1\t2\t3\ns2\t1\t2\n", (RaggedRow, "row 3 has 3 fields, expected 4")),
        ("c\tA\tB\ns1\t1\t2\ns2\t1\t2\t3\n", (RaggedRow, "row 3 has 4 fields, expected 3")),
        ("\tA\tB\ns1\t1\t2\t3\ns2\t1\n", (MalformedHeader, "empty taxon column header")),
        ("A\tB\ns1\t1\t2\ns2\t1\n", (RaggedRow, "row 3 has 2 fields, expected 3")),
        ("\tA\tB\ns1\t1\t2\ns2\t1\t0\n", [[1, 2], [1, 0]]),
        ("A\tB\ns1\t0\t2\ns2\t1\t0\n", [[0, 2], [1, 0]]),
        ("c\tA\tB\ns1\t1\tx\ns1\t1\t2\n", (UnparseableCount, "row 2, column B: 'x' is not an integer")),
        ("c\tA\tB\ns1\t1\t2\ns1\t1\t2\ns3\t1\n", (DuplicateSampleId, "sample id 's1' appears more than once")),
        ("c\tA\tB\ns1\t1\t2\ns2\t1\ns1\t1\t2\n", (RaggedRow, "row 3 has 2 fields, expected 3")),
        ("c\tA\tB\ns1\t1\t2\ns2\n", (RaggedRow, "row 3 has 1 fields, expected 3")),
        ("c\tA\tB\ns1\t1\t2\ns2\t1\ns3\tx\t1\n", (RaggedRow, "row 3 has 2 fields, expected 3")),
        ("c\tA\t\ns1\t1\t2\n", (MalformedHeader, "empty taxon column header")),
        ("A\tB\n s1\t1\t2\ns1 \t3\t4\n", (DuplicateSampleId, "sample id 's1' appears more than once")),
    ],
    ids=[
        "first_row_wide", "later_row_wide", "empty_corner_ragged",
        "taxa_only_header_ragged", "empty_corner",
        "taxa_only_header", "bad_count_before_repeat", "repeat_before_ragged",
        "ragged_before_repeat", "row_without_tab", "bad_count_after_ragged",
        "empty_taxon_converted", "repeat_converted",
    ],
)
def test_abundance_layout_and_first_error(text, expect):
    """The first row's width alone picks the layout; then the first ragged
    row, repeated sample id or bad cell, in row order, is raised."""
    if isinstance(expect, list):
        table = parse_abundance_table(text)
        assert (table.sample_ids, table.taxon_ids) == (("s1", "s2"), ("A", "B"))
        assert table.counts.tolist() == expect
    else:
        with pytest.raises(expect[0]) as err:
            parse_abundance_table(text)
        assert str(err.value) == expect[1]


class TestContinentMap:
    def test_parses(self):
        mapping = parse_continent_map("country,continent\nFreedonia,Ruritania\n")
        assert mapping == {"Freedonia": "Ruritania"}

    def test_header_required(self):
        with pytest.raises(MalformedHeader):
            parse_continent_map("Freedonia,Ruritania\nSylvania,Ruritania\n")

    def test_ragged(self):
        with pytest.raises(RaggedRow):
            parse_continent_map("country,continent\nFreedonia\n")

    def test_repeated_country_names_both_rows(self):
        # a repeat would otherwise move the country to the last continent named
        text = "country,continent\nA,K\nB,K\nA,L\n"
        with pytest.raises(DuplicateCountry, match="'A' appears on rows 2 and 4"):
            parse_continent_map(text)


def _per_cell_first_error(grid, columns):
    """The per-cell scan the parsers ran before the one-call conversion.

    It stops at the first bad cell in row-major order. Returns (values, None) when every cell parses, else (None, message).
    Counts beyond int64 used to pass this scan and fail later; they are
    now rejected at their cell with the message below.
    """
    values = []
    for i, row in enumerate(grid, start=2):
        out = []
        for name, cell in zip(columns, row):
            try:
                value = int(cell.strip())
            except ValueError:
                return None, f"row {i}, column {name}: {cell!r} is not an integer"
            if value < 0:
                return None, f"row {i}, column {name}: count {value} is negative"
            if value > 2**63 - 1:
                return None, (
                    f"row {i}, column {name}: count {value} exceeds the int64 range"
                )
            out.append(value)
        values.append(out)
    return values, None


CORRUPT_CELLS = (
    "1.0", "1e3", "", "  ", "-3", "0x10", "1_000", "٣", " 5 ", "+5", str(2**63),
)  # fmt: skip
N_ROWS, N_COLS = 3, 4
POSITIONS = (
    ((0, 0),),
    ((1, 2),),
    ((N_ROWS - 1, N_COLS - 1),),
    ((1, 3), (2, 0)),  # the earlier row wins over the earlier column
    ((0, 2), (0, 1)),  # within a row the earlier column wins
)


def _corrupt_grid(cell, positions):
    grid = [[str(10 * i + j) for j in range(N_COLS)] for i in range(N_ROWS)]
    for i, j in positions:
        grid[i][j] = cell
    return grid


def _as_jhu(grid):
    first = date(2021, 3, 1).toordinal()
    days = [date.fromordinal(first + k) for k in range(len(grid[0]))]
    dates = [f"{d.month}/{d.day}/{d.year % 100:02d}" for d in days]
    lines = ["Province/State,Country/Region,Lat,Long," + ",".join(dates)]
    lines += [f",C{i},0,0," + ",".join(row) for i, row in enumerate(grid)]
    return "\n".join(lines) + "\n", dates


def _as_tsv(grid):
    taxa = [f"t{j}" for j in range(len(grid[0]))]
    lines = ["sample_id\t" + "\t".join(taxa)]
    lines += [f"s{i}\t" + "\t".join(row) for i, row in enumerate(grid)]
    return "\n".join(lines) + "\n", taxa


@pytest.mark.filterwarnings("ignore:cumulative counts")
@pytest.mark.parametrize("positions", POSITIONS)
@pytest.mark.parametrize("cell", CORRUPT_CELLS)
@pytest.mark.parametrize("layout", ["jhu", "tsv"])
def test_corruption_matrix_matches_per_cell_scan(layout, cell, positions):
    grid = _corrupt_grid(cell, positions)
    text, columns = _as_jhu(grid) if layout == "jhu" else _as_tsv(grid)
    expected, message = _per_cell_first_error(grid, columns)
    parse = parse_jhu_deaths if layout == "jhu" else parse_abundance_table
    if message is not None:
        with pytest.raises(UnparseableCount) as err:
            parse(text)
        assert type(err.value) is UnparseableCount
        assert str(err.value) == message
    else:
        assert parse(text).counts.tolist() == expected


class TestCountsBeyondInt64:
    BIG = "99999999999999999999"

    def test_jhu(self):
        text = f"Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n,X,0,0,1,{self.BIG}\n"
        with pytest.raises(UnparseableCount, match=r"row 2, column 3/2/21: count .* int64"):
            parse_jhu_deaths(text)

    def test_abundance(self):
        text = f"sample_id\tt1\tt2\ns1\t{self.BIG}\t1\n"
        with pytest.raises(UnparseableCount, match=r"row 2, column t1: count .* int64"):
            parse_abundance_table(text)

    def test_largest_int64_accepted(self):
        top = 2**63 - 1
        table = parse_abundance_table(f"sample_id\tt1\ns1\t{top}\n")
        assert table.counts.tolist() == [[top]]


def test_bad_count_before_ragged_row_is_reported_first():
    tsv = "sample_id\tt1\tt2\ns1\t1\tx\ns2\t1\n"
    with pytest.raises(UnparseableCount, match="row 2, column t2"):
        parse_abundance_table(tsv)
    jhu = "Province/State,Country/Region,Lat,Long,3/1/21\n,A,0,0,x\n,B,0,0\n"
    with pytest.raises(UnparseableCount, match="row 2, column 3/1/21"):
        parse_jhu_deaths(jhu)
    with pytest.raises(RaggedRow, match="row 3"):
        parse_jhu_deaths(jhu.replace(",x", ",1"))


def test_decrease_warnings_keep_row_order_and_text():
    text = (
        "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21,3/3/21\n"
        ",A,0,0,1,2,3\n"
        ",B,0,0,5,4,3\n"
        ",C,0,0,1,2,1\n"
    )
    with pytest.warns(UserWarning) as record:
        parse_jhu_deaths(text)
    assert [str(w.message) for w in record] == [
        "cumulative counts for 'B' decrease at 2021-03-02 (source correction retained as-is)",
        "cumulative counts for 'C' decrease at 2021-03-03 (source correction retained as-is)",
    ]


JHU_HEAD = "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"
DECREASE = "cumulative counts for {!r} decrease at 2021-03-02 (source correction retained as-is)"
OVER_FIELD_LIMIT = "1" * (csv.field_size_limit() + 1)

# (rows after the header, the table's regions and counts or the first error,
# the warnings, whether csv reads the whole record), as the parser gave
# them before a quoted line's leading cells were read on their own
QUOTED_LINES = {
    "quoted_province": ('"Prov, X",Chad,1.5,2.5,1,2\n', (["Chad"], [[1, 2]]), [], False),
    "quoted_country": (
        ',"Korea, South",1,2,5,3\n,Chad,1,2,1,2\n',
        (["Korea, South", "Chad"], [[5, 3], [1, 2]]),
        [DECREASE.format("Korea, South")],
        False,
    ),
    "quoted_lat": (',Chad,"1.5",2,1,2\n', (["Chad"], [[1, 2]]), [], False),
    "four_quoted_cells": ('"a","b","c","d",7,8\n', (["b"], [[7, 8]]), [], False),
    "doubled_quote": (',"say ""hi""",1,2,4,4\n', (['say "hi"'], [[4, 4]]), [], False),
    "quoted_short_row": (',"K, S",1\n', (RaggedRow, "row 2 has 3 fields, header has 6"), [], False),
    "quoted_ragged_row": (
        ',"K, S",1,2,1,2,3\n', (RaggedRow, "row 2 has 7 fields, header has 6"), [], False
    ),
    "quoted_country_bad_cell": (
        ',"K, S",1,2,x,2\n',
        (UnparseableCount, "row 2, column 3/1/21: 'x' is not an integer"),
        [],
        False,
    ),
    "literal_quote_in_unquoted_cell": ('x"y,Chad,1,2,1,2\n', (["Chad"], [[1, 2]]), [], True),
    "literal_quote_ending_unquoted_cell": ('x",Chad,1,2,1,2\n', (["Chad"], [[1, 2]]), [], False),
    "text_after_closing_quote": ('"a"b,Chad,1,2,1,2\n', (["Chad"], [[1, 2]]), [], True),
    "open_quote_onto_next_line": (
        ',"Two\nLines",1,2,3,4\n,Chad,1,2,1,2\n',
        (["Two\nLines", "Chad"], [[3, 4], [1, 2]]),
        [],
        True,
    ),
    "quote_opened_before_a_comma": (
        '",Chad,1,2,1,2\n,Peru,1,2,1,2\n',
        (RaggedRow, "row 2 has 1 fields, header has 6"),
        [],
        True,
    ),
    "open_quote_to_the_end": (
        ',"Chad,1,2,1,2\n,Peru,1,2,1,2\n',
        (RaggedRow, "row 2 has 2 fields, header has 6"),
        [],
        True,
    ),
    "quoted_date_cell": (
        ',Chad,1,2,"1,000",2\n',
        (UnparseableCount, "row 2, column 3/1/21: '1,000' is not an integer"),
        [],
        True,
    ),
    "quoted_country_and_date_cell": (
        ',"K, S",1,2,"1,000",2\n',
        (UnparseableCount, "row 2, column 3/1/21: '1,000' is not an integer"),
        [],
        True,
    ),
    "nul_among_date_cells": (
        ',"K, S",1,2,1\x00,2\n',
        (UnparseableCount, "row 2, column 3/1/21: '1\\x00' is not an integer"),
        [],
        True,
    ),
    "date_cell_over_field_limit": (
        f',"K, S",1,2,{OVER_FIELD_LIMIT},2\n',
        (MalformedCsv, "row 2: field larger than field limit (131072)"),
        [],
        True,
    ),
}


@pytest.mark.parametrize(
    "rows, expect, said, whole", QUOTED_LINES.values(), ids=QUOTED_LINES.keys()
)
def test_quoted_lines_read_as_before(rows, expect, said, whole, monkeypatch):
    """csv reads a quoted line's leading cells alone when they end at its last
    quote, and the whole record otherwise; either way the table, the
    warnings and the first error are the same."""
    records = []
    read = ingest._csv_record

    def spy(lines, row, strict=False):
        records.append((row, strict))
        return read(lines, row, strict)

    monkeypatch.setattr(ingest, "_csv_record", spy)
    text = JHU_HEAD + rows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expect[0], list):
            table = parse_jhu_deaths(text)
            assert [list(table.regions), table.counts.tolist()] == list(expect)
        else:
            with pytest.raises(expect[0]) as err:
                parse_jhu_deaths(text)
            assert str(err.value) == expect[1]
    assert [str(w.message) for w in caught] == said
    assert ((2, False) in records) == whole


@pytest.mark.parametrize(
    "line",
    [
        '"a, b",c,1.5,2,0,10',
        ',"a, b",1.5,2,0,10',
        '"a","b","c","d",0,10',
        '"a","b","c","d"',
        ',"a"',
        '"",,,,',
        'x",y,1,2,3',
        ',"é, ü",1,2,30,4',
    ],
)
def test_leading_cells_and_date_cells_are_the_csv_record(line):
    (record,) = ingest._jhu_records(line.encode())
    assert ingest._cells(record) == next(csv.reader([line]))
    assert isinstance(record[1], bytes) == (len(ingest._cells(record)) > 4)


def test_deaths_table_is_read_only_int64():
    table = parse_jhu_deaths(SMALL_CSV)
    assert table.counts.dtype == np.int64
    with pytest.raises(ValueError):
        table.counts[0, 0] = 1
    built = DeathsTable(("X",), table.dates, [(1, 2, 3)])
    assert built.counts.dtype == np.int64
    assert not built.counts.flags.writeable
    mine = np.array([[1, 2, 3]])
    DeathsTable(("X",), table.dates, mine)
    assert mine.flags.writeable  # the caller's array is copied, not frozen
    frozen = np.array([[1, 2, 3]])
    frozen.flags.writeable = False
    assert DeathsTable(("X",), table.dates, frozen).counts is frozen  # not copied
    _, (baseline,) = truncate_series(built, date(2021, 3, 2))
    assert type(baseline) is int


@pytest.mark.parametrize(
    "parse, text, bumped",
    [
        (parse_jhu_deaths, SMALL_CSV, SMALL_CSV.replace(",125\n", ",126\n")),
        (parse_abundance_table, ABUNDANCE_TSV, ABUNDANCE_TSV.replace("\t3\t", "\t4\t")),
    ],
    ids=["deaths", "abundance"],
)
def test_tables_compare_by_labels_and_counts(parse, text, bumped):
    assert bumped != text
    assert parse(text) == parse(text)
    assert parse(text) != parse(bumped)


@pytest.mark.parametrize(
    "parse, text, name",
    [
        (parse_jhu_deaths, SMALL_CSV, "DeathsTable"),
        (parse_abundance_table, ABUNDANCE_TSV, "AbundanceTable"),
    ],
    ids=["deaths", "abundance"],
)
def test_tables_are_unhashable(parse, text, name):
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(parse(text))


@pytest.mark.parametrize(
    "cells, expected",
    [
        ("2/28/21,03/01/21, 3/2/21", (date(2021, 2, 28), date(2021, 3, 1), date(2021, 3, 2))),
        ("12/30/68,12/31/68", (date(2068, 12, 30), date(2068, 12, 31))),
        ("12/31/68,1/1/69", MalformedHeader),  # %y reads 69 as 1969
        ("2/28/21,2/29/21", UnparseableDate),
        ("3/1/21,3/2/21x", UnparseableDate),
    ],
)
def test_header_dates_match_strptime(cells, expected):
    ncols = len(cells.split(","))
    text = f"Province/State,Country/Region,Lat,Long,{cells}\n,X,0,0" + ",1" * ncols + "\n"
    if isinstance(expected, tuple):
        assert parse_jhu_deaths(text).dates == expected
    else:
        with pytest.raises(expected):
            parse_jhu_deaths(text)


# --- the byte-level count converter and its fallback to the per-cell scanner


def _parse_both(grid):
    """Count matrices of ``grid`` written as a JHU file and as a TSV table."""
    jhu, _ = _as_jhu(grid)
    tsv, _ = _as_tsv(grid)
    return parse_jhu_deaths(jhu).counts, parse_abundance_table(tsv).counts


def _random_grid(rng, shape, max_digits):
    """Cells of 1..max_digits digits, leading zeros included; 19-digit
    cells start with 0..8 so that every value fits in int64."""
    grid = []
    for _ in range(shape[0]):
        row = []
        for _ in range(shape[1]):
            n = int(rng.integers(1, max_digits + 1))
            first = str(rng.integers(0, 9 if n == 19 else 10))
            row.append(first + "".join(str(d) for d in rng.integers(0, 10, n - 1)))
        grid.append(row)
    for row in grid:
        row[0] = "1" + row[0][1:]  # no all-zero sample in the TSV
    return grid


@pytest.mark.filterwarnings("ignore:cumulative counts")
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (12, 31), (50, 400)])
@pytest.mark.parametrize("max_digits", [1, 3, 18, 19])
def test_converter_matches_numpy_int_oracle(shape, max_digits):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + max_digits)
    grid = _random_grid(rng, shape, max_digits)
    oracle = np.array(grid, dtype=np.int64)  # int() per cell
    counts = parse_jhu_deaths(_as_jhu(grid)[0]).counts
    assert counts.dtype == np.int64 and np.array_equal(counts, oracle)
    tsv = _as_tsv(grid)[0]
    if sum(int(cell) for row in grid for cell in row) <= INT64_MAX:
        counts = parse_abundance_table(tsv).counts
        assert counts.dtype == np.int64 and np.array_equal(counts, oracle)
    else:  # a table's counts must total at most the int64 maximum
        with pytest.raises(CountOverflow):
            parse_abundance_table(tsv)
    rows = ["\t".join(r).encode("ascii") for r in grid]
    fast, done = _digit_block(iter(rows), *shape, "\t")
    *sparse, sparse_done = _nonzero_of_blocks(rows, shape[1], "\t")
    # the converter stops at the block that holds a 19-digit cell
    long_row = next((i for i, r in enumerate(grid) if max(map(len, r)) > 18), shape[0])
    assert sparse_done == done <= long_row
    assert (done == shape[0]) == (long_row == shape[0])
    assert np.array_equal(fast[:done], oracle[:done])
    cells = np.flatnonzero(oracle[:done])
    assert np.array_equal(sparse[0], cells)
    assert np.array_equal(sparse[1], oracle.ravel()[cells])


@pytest.mark.parametrize(
    "grid, expect",
    [
        ([["0", "00", "007"], ["0" * 18, "0", "010"]], [[0, 0, 7], [0, 0, 10]]),
        ([["0", "0", "0"]] * 2, [[0, 0, 0]] * 2),  # all zero
    ],
)
def test_converter_zero_and_leading_zero_cells(grid, expect):
    jhu, _ = _as_jhu(grid)
    assert parse_jhu_deaths(jhu).counts.tolist() == expect
    rows = [",".join(r).encode("ascii") for r in grid]
    counts, done = _digit_block(rows, 2, 3, ",")
    assert done == 2 and counts.tolist() == expect


def test_converter_digit_limit():
    eighteen, nineteen = "9" * 18, "1" + "0" * 18
    counts, done = _digit_block([eighteen.encode()], 1, 1, "\t")
    assert done == 1 and counts.tolist() == [[10**18 - 1]]
    assert _digit_block([nineteen.encode()], 1, 1, "\t")[1] == 0
    top = str(2**63 - 1)
    assert _digit_block([top.encode()], 1, 1, ",")[1] == 0
    jhu, _ = _as_jhu([[eighteen, nineteen, top]])
    expect = [10**18 - 1, 10**18, 2**63 - 1]
    assert parse_jhu_deaths(jhu).counts.tolist() == [expect]


@pytest.mark.parametrize(
    "rows, n_cols",
    [
        ([b"1\t2", b"3"], 2),  # a short row
        ([b"1\t2\t3", b"4\t5"], 2),  # a long row, same number of cells overall
        ([b"1\t2", b"3,4"], 2),  # the wrong separator
        ([b"1\t", b"3\t4"], 2),  # an empty cell
        ([b"1\t2", b" 3\t4"], 2),  # a space
        (["1\t٣".encode()], 2),  # a non-ASCII digit, as its UTF-8 bytes
    ],
)
def test_converter_declines_what_it_does_not_accept(rows, n_cols, two_byte_blocks):
    assert _digit_block(rows, len(rows), n_cols, "\t")[1] == 0
    # amid 80 rows of "0" cells the block is read two bytes per cell; amid
    # 80 rows of "99" cells, by its terminators
    for pad, two_byte in [(b"0", 1), (b"99", 0)]:
        padding = [b"\t".join([pad] * n_cols)] * 40
        padded = padding + rows + padding
        two_byte_blocks.clear()
        assert _digit_block(padded, len(padded), n_cols, "\t")[1] == 0
        assert len(two_byte_blocks) == two_byte


@pytest.mark.parametrize("layout", ["jhu", "tsv"])
def test_bad_cell_in_a_later_block_is_named(layout):
    rows, cols = 300, 700  # 14 converter blocks
    grid = [[str(i * cols + j) for j in range(cols)] for i in range(rows)]
    grid[250][333] = "4x"
    text, columns = _as_jhu(grid) if layout == "jhu" else _as_tsv(grid)
    _, message = _per_cell_first_error(grid, columns)
    assert message == f"row 252, column {columns[333]}: '4x' is not an integer"
    parse = parse_jhu_deaths if layout == "jhu" else parse_abundance_table
    with pytest.raises(UnparseableCount) as err:
        parse(text)
    assert str(err.value) == message
    grid[250][333] = str(250 * cols + 333)
    for counts in _parse_both(grid):
        assert np.array_equal(counts, np.array(grid, dtype=np.int64))


def test_rows_wider_than_a_block():
    # wider than a block of either route: ingest._BLOCK_CELLS is 1 << 14, and
    # a block after one read two bytes per cell is four times that
    cols = (1 << 16) + 3
    for every in (1, 100):  # each cell, or one in 100 (two bytes per cell), not "0"
        row = [str(j % 1000) if j % every == 0 else "0" for j in range(cols)]
        grid = [row, row.copy()]
        text, taxa = _as_tsv(grid)
        assert np.array_equal(
            parse_abundance_table(text).counts, np.array(grid, dtype=np.int64)
        )
        grid[1][-2] = "-1"
        text, taxa = _as_tsv(grid)
        with pytest.raises(UnparseableCount) as err:
            parse_abundance_table(text)
        assert str(err.value) == f"row 3, column {taxa[-2]}: count -1 is negative"


@pytest.fixture
def two_byte_blocks(monkeypatch):
    """The cell count of each block the converter reads two bytes per cell."""
    cells = []
    read = ingest._two_byte_cells

    def spy(raw, zero, k):
        cells.append(k * zero.size)
        return read(raw, zero, k)

    monkeypatch.setattr(ingest, "_two_byte_cells", spy)
    return cells


@pytest.fixture
def scanned_rows(monkeypatch):
    """The row number of each cell the per-cell scanner reads, in order."""
    rows = []
    parse = ingest._parse_count

    def spy(cell, row, column_name):
        rows.append(row)
        return parse(cell, row, column_name)

    monkeypatch.setattr(ingest, "_parse_count", spy)
    return rows


def _same_table(a, b):
    if isinstance(a, DeathsTable):
        return a == b
    labels = (a.sample_ids, a.taxon_ids) == (b.sample_ids, b.taxon_ids)
    return labels and np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("layout", ["jhu", "tsv"])
def test_a_declined_block_is_read_from_its_first_row(
    layout, scanned_rows, monkeypatch
):
    # blocks of 2 rows of 3 cells, read by their terminators: rows 2-9 of
    # the file are converted, and the block of rows 10 and 11 is declined
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", 6)
    grid = [["12", "12", "12"] for _ in range(10)]
    parse = parse_jhu_deaths if layout == "jhu" else parse_abundance_table
    write = _as_jhu if layout == "jhu" else _as_tsv
    grid[-1][0] = "1"
    expect = parse(write(grid)[0])
    assert scanned_rows == []
    grid[-1][0] = "+1"
    assert _same_table(parse(write(grid)[0]), expect)
    assert scanned_rows == [10] * 3 + [11] * 3


def test_benchmark_layouts_take_the_converter(scanned_rows):
    # quoted country names and province rows, as in JHU files and perfbench's
    jhu = (
        "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21,3/3/21\n"
        ',"Korea, South",35.9078,127.7669,1,22,333\n'
        "Province 0,Canada,53.9333,-116.5765,4444,55555,666666\n"
        'Province 1,"Asia Isles, North",-25.0919,-11.9266,0,007,7000000\n'
        ",Chad,15.4542,18.7322,0,0,0\n"
    )
    table = parse_jhu_deaths(jhu)
    assert table.regions == ("Korea, South", "Canada", "Asia Isles, North", "Chad")
    expect = [[1, 22, 333], [4444, 55555, 666666], [0, 7, 7000000], [0, 0, 0]]
    assert table.counts.tolist() == expect
    tsv = "sample_id\tt1\tt2\tt3\nS000\t0\t120\t0\nS001\t7\t0\t3\n"
    assert parse_abundance_table(tsv).counts.tolist() == [[0, 120, 0], [7, 0, 3]]
    assert scanned_rows == []


# perfbench's seeded input generators; its dataclass needs it in sys.modules
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.filterwarnings("ignore:cumulative counts")
def test_benchmark_workloads_take_their_routes(two_byte_blocks, tmp_path):
    # the dar-shannon table's cells are 95% "0", and every block of it is
    # read two bytes per cell; nearly every cell of the ftr-jhu deaths file
    # is a count of two or more digits, and no block of it is
    workloads.prepare_dar_shannon(7, tmp_path)
    table = parse_abundance_table((tmp_path / "shannon.tsv").read_bytes())
    assert sum(two_byte_blocks) == len(table.sample_ids) * len(table.taxon_ids)
    two_byte_blocks.clear()
    workloads.prepare_ftr(7, tmp_path)
    parse_jhu_deaths((tmp_path / "deaths.csv").read_bytes())
    assert two_byte_blocks == []


@pytest.mark.filterwarnings("ignore:cumulative counts")
def test_benchmark_deaths_lines_are_split_without_a_whole_csv_read(
    scanned_rows, tmp_path, monkeypatch
):
    # csv reads only the leading cells of each of the ftr-jhu deaths file's
    # quoted lines, strictly, and no record whole, so that every block
    # reaches the converter and no cell is read on its own
    led, reads = [], []
    leading_cells, csv_record = ingest._leading_cells, ingest._csv_record

    def leading_spy(line, row):
        led.append(line)
        return leading_cells(line, row)

    def csv_spy(lines, row, strict=False):
        reads.append(strict)
        return csv_record(lines, row, strict)

    monkeypatch.setattr(ingest, "_leading_cells", leading_spy)
    monkeypatch.setattr(ingest, "_csv_record", csv_spy)
    workloads.prepare_ftr(7, tmp_path)
    data = (tmp_path / "deaths.csv").read_bytes()
    parse_jhu_deaths(data)
    quoted = [line for line in data.splitlines() if b'"' in line]
    assert len(quoted) == 15 and [line.rstrip(b"\n") for line in led] == quoted
    assert reads == [True] * 15
    assert scanned_rows == []


@pytest.mark.filterwarnings("ignore:cumulative counts")
def test_one_signed_cell_in_a_benchmark_input_is_read_with_its_block(
    scanned_rows, tmp_path
):
    # "+1" in the last row is read as "1", and only the rows from the block
    # that holds it on are read cell by cell
    workloads.prepare_dar_shannon(7, tmp_path)
    workloads.prepare_ftr(7, tmp_path)
    for name, sep, parse in [
        ("shannon.tsv", b"\t", parse_abundance_table),
        ("deaths.csv", b",", parse_jhu_deaths),
    ]:
        head, last = (tmp_path / name).read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
        cells = last.split(sep)
        expect = parse(head + b"\n" + sep.join(cells[:-1] + [b"1"]) + b"\n")
        assert scanned_rows == []
        table = parse(head + b"\n" + sep.join(cells[:-1] + [b"+1"]) + b"\n")
        assert _same_table(table, expect)
        last_row = head.count(b"\n") + 2
        n_cols = len(cells) - (1 if sep == b"\t" else 4)
        rows = sorted(set(scanned_rows))
        assert rows == list(range(rows[0], last_row + 1)) and rows[0] > 2
        assert len(rows) <= 4 * ingest._BLOCK_CELLS // n_cols  # one block at most
        assert scanned_rows == [row for row in rows for _ in range(n_cols)]
        scanned_rows.clear()


class TestConverterBoundaries:
    HEAD = "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21"

    def test_header_only_jhu_file(self):
        table = parse_jhu_deaths(self.HEAD + "\n")
        assert table.regions == () and table.counts.shape == (0, 2)

    def test_trailing_empty_cell(self):
        with pytest.raises(UnparseableCount) as err:
            parse_abundance_table("sample_id\tt1\tt2\ns1\t1\t\n")
        assert str(err.value) == "row 2, column t2: '' is not an integer"

    def test_crlf_tsv_with_multi_digit_counts(self):
        text = "sample_id\tt1\tt2\r\ns1\t120\t0\r\ns2\t7\t31\r\n"
        for variant in (text, text.replace("\r\n", "\n")):
            assert parse_abundance_table(variant).counts.tolist() == [[120, 0], [7, 31]]

    def test_quoted_count_with_comma_goes_to_the_scanner(self):
        with pytest.raises(UnparseableCount) as err:
            parse_jhu_deaths(self.HEAD + '\n,X,0,0,"1,000",5\n')
        assert str(err.value) == "row 2, column 3/1/21: '1,000' is not an integer"
        table = parse_jhu_deaths(self.HEAD + '\n,X,0,0,"12",15\n')
        assert table.counts.tolist() == [[12, 15]]

    def test_quoted_comma_does_not_widen_a_short_row(self):
        # split at its comma, the one cell "1,2" would fill both date columns
        with pytest.raises(RaggedRow) as err:
            parse_jhu_deaths(self.HEAD + '\n,X,0,0,"1,2"\n')
        assert str(err.value) == "row 2 has 5 fields, header has 6"

    def test_cell_holding_a_newline(self):
        with pytest.raises(UnparseableCount) as err:
            parse_jhu_deaths(self.HEAD + '\n,X,0,0,0,"1\n2"\n,Y,0,0,1,2\n')
        assert str(err.value) == "row 2, column 3/2/21: '1\\n2' is not an integer"
        # int() strips the newline, so the scanner accepts the count
        table = parse_jhu_deaths(self.HEAD + '\n,X,0,0,"3\n",4\n,Y,0,0,1,2\n')
        assert table.counts.tolist() == [[3, 4], [1, 2]]


class TestRecordReader:
    """Lines that ``csv`` reads, and lines split without it."""

    HEAD = "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"

    def test_blank_line_is_a_record_of_no_fields(self):
        with pytest.raises(RaggedRow) as err:
            parse_jhu_deaths(self.HEAD + ",A,0,0,1,2\n\n,B,0,0,3,4\n")
        assert str(err.value) == "row 3 has 0 fields, header has 6"

    def test_quote_inside_an_unquoted_field_is_kept(self):
        table = parse_jhu_deaths(self.HEAD + ',Cote d"Ivoire,0,0,1,2\n')
        assert table.regions == ('Cote d"Ivoire',)
        assert table.counts.tolist() == [[1, 2]]

    def test_unterminated_quote_runs_to_the_end_of_the_file(self):
        # csv reads the rest of the file as one cell: a row of 2 fields
        with pytest.raises(RaggedRow) as err:
            parse_jhu_deaths(self.HEAD + ',A,0,0,1,2\n,"B,0,0,3,4\n,C,0,0,5,6\n')
        assert str(err.value) == "row 3 has 2 fields, header has 6"

    @pytest.mark.parametrize(
        "text",
        [
            HEAD.replace("\n", "\r\n") + ",A,0,0,1,2\r\n,B,0,0,3,4\r\n",
            HEAD + ",A,0,0,1,2\n,B,0,0,3,4",
        ],
        ids=["crlf", "no_final_newline"],
    )
    def test_line_endings(self, text):
        table = parse_jhu_deaths(text)
        assert table.regions == ("A", "B")
        assert table.counts.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "last, expect",
        [
            (',B,0,0,3,"4', [[1, 2], [3, 4]]),
            (',B,0,0,3,"4\n', [[1, 2], [3, 4]]),
            (',B,0,0,3,"x', "row 3, column 3/2/21: 'x' is not an integer"),
            (',B,0,0,3,"x\n', "row 3, column 3/2/21: 'x\\n' is not an integer"),
        ],
        ids=["count_unended", "count_ended", "bad_cell_unended", "bad_cell_ended"],
    )
    def test_quote_left_open_on_the_last_line_reads_the_line_as_it_ends(
        self, last, expect
    ):
        # csv reads the last line as the file ends it: an open quote takes
        # the line's "\n" into its cell when the line has one, and none else
        text = self.HEAD + ",A,0,0,1,2\n" + last
        if isinstance(expect, list):
            assert parse_jhu_deaths(text).counts.tolist() == expect
        else:
            with pytest.raises(UnparseableCount) as err:
                parse_jhu_deaths(text)
            assert str(err.value) == expect

    def test_bare_carriage_return_names_its_row(self):
        # a bare CR ends a line, as Path.read_text reads it
        with pytest.raises(RaggedRow) as err:
            parse_jhu_deaths(self.HEAD + ",A,0,0,1,2\n,B,0,0,3\r,4\n")
        assert str(err.value) == "row 3 has 5 fields, header has 6"
        with pytest.raises(RaggedRow) as err:
            parse_continent_map("country,continent\nA\r,K\n")
        assert str(err.value) == "row 2 has 1 fields, expected 2"

    @pytest.fixture
    def no_csv(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(csv, "reader", refuse)

    def test_unquoted_file_is_split_without_csv(self, no_csv):
        table = parse_jhu_deaths(SMALL_CSV)
        assert table.regions == ("Freedonia", "Sylvania")
        assert table.counts.tolist() == [[5, 8, 13], [100, 110, 125]]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_files_are_split_without_csv(self, no_csv, newline):
        table = parse_jhu_deaths(SMALL_CSV.replace("\n", newline))
        assert table == parse_jhu_deaths(SMALL_CSV)
