"""Tests for file parsing, aggregation, and the truncation transform."""

from datetime import date

import numpy as np
import pytest

from tplec import (
    RegionSeries,
    aggregate_regions,
    parse_abundance_table,
    parse_continent_map,
    parse_jhu_deaths,
    serialize_abundance_table,
    serialize_jhu_deaths,
    truncate_series,
)
from tplec.errors import (
    DateOutOfRange,
    DuplicateSampleId,
    MalformedHeader,
    MisalignedDates,
    RaggedRow,
    UnmappedCountry,
    UnparseableCount,
    UnparseableDate,
)

SMALL_CSV = (
    "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21,3/3/21\n"
    ",Freedonia,12.0,-3.5,5,8,13\n"
    ",Sylvania,0,0,100,110,125\n"
)


class TestParseJhuDeaths:
    def test_small_fixture(self):
        series = parse_jhu_deaths(SMALL_CSV)
        assert len(series) == 2
        assert series[0].region == "Freedonia"
        assert series[0].dates == (date(2021, 3, 1), date(2021, 3, 2), date(2021, 3, 3))
        assert series[0].cumulative.tolist() == [5, 8, 13]
        assert series[1].cumulative.tolist() == [100, 110, 125]

    def test_quoted_country_key(self):
        text = (
            "Province/State,Country/Region,Lat,Long,3/1/21\n"
            ',"Korea, South",36,128,44\n'
        )
        series = parse_jhu_deaths(text)
        assert series[0].region == "Korea, South"
        assert series[0].cumulative.tolist() == [44]

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
            series = parse_jhu_deaths(text)
        assert series[0].cumulative.tolist() == [10, 8, 12]

    def test_round_trip(self):
        parsed = parse_jhu_deaths(SMALL_CSV)
        text = serialize_jhu_deaths(parsed)
        again = parse_jhu_deaths(text)
        assert [(s.region, s.dates, s.cumulative.tolist()) for s in again] == [
            (s.region, s.dates, s.cumulative.tolist()) for s in parsed
        ]
        assert serialize_jhu_deaths(again) == text


class TestAggregateRegions:
    def test_elementwise_sum(self):
        series = parse_jhu_deaths(SMALL_CSV)
        mapping = {"Freedonia": "Ruritania", "Sylvania": "Ruritania"}
        out = aggregate_regions(series, mapping)
        assert [s.region for s in out] == ["Ruritania", "World"]
        assert out[0].cumulative.tolist() == [105, 118, 138]
        assert out[1].cumulative.tolist() == [105, 118, 138]

    def test_world_sums_all_continents(self):
        rng = np.random.default_rng(8)
        dates = (date(2021, 3, 1), date(2021, 3, 2))
        series = []
        mapping = {}
        for i in range(6):
            values = tuple(int(v) for v in np.sort(rng.integers(0, 100, size=2)))
            series.append(RegionSeries(f"c{i}", dates, values))
            mapping[f"c{i}"] = f"K{i % 3}"
        out = aggregate_regions(series, mapping)
        world = out[-1]
        assert world.region == "World"
        for j in range(2):
            continent_total = sum(s.cumulative[j] for s in out[:-1])
            country_total = sum(s.cumulative[j] for s in series)
            assert world.cumulative[j] == continent_total == country_total

    def test_unmapped_country(self):
        series = parse_jhu_deaths(SMALL_CSV)
        with pytest.raises(UnmappedCountry, match="Atlantis|Sylvania"):
            aggregate_regions(series, {"Freedonia": "Ruritania"})
        with pytest.raises(UnmappedCountry) as err:
            aggregate_regions(
                [RegionSeries("Atlantis", series[0].dates, (1, 2, 3))],
                {"Freedonia": "Ruritania"},
            )
        assert "Atlantis" in str(err.value)

    def test_misaligned_dates(self):
        a = RegionSeries("A", (date(2021, 3, 1),), (1,))
        b = RegionSeries("B", (date(2021, 3, 2),), (1,))
        with pytest.raises(MisalignedDates):
            aggregate_regions([a, b], {"A": "K", "B": "K"})


class TestTruncateSeries:
    DATES = tuple(date(2021, 3, d) for d in (1, 2, 3, 4))
    SERIES = RegionSeries("X", DATES, (100, 150, 210, 300))

    def test_interior_start(self):
        out = truncate_series(self.SERIES, date(2021, 3, 3))
        assert out.baseline == 150
        assert out.t_index == (1, 2)
        assert out.f_rel == (60, 150)

    def test_start_at_first_date(self):
        out = truncate_series(self.SERIES, date(2021, 3, 1))
        assert out.baseline == 0
        assert out.f_rel == (100, 150, 210, 300)

    def test_window_length_spring_2021(self):
        start = date(2021, 3, 21)
        end = date(2021, 5, 21)
        days = (end - start).days + 1
        dates = tuple(
            date.fromordinal(date(2021, 3, 1).toordinal() + i) for i in range(120)
        )
        series = RegionSeries("X", dates, tuple(range(120)))
        out = truncate_series(series, start, end)
        assert days == 62
        assert len(out.f_rel) == 62

    def test_out_of_range(self):
        with pytest.raises(DateOutOfRange):
            truncate_series(self.SERIES, date(2021, 2, 28))
        with pytest.raises(DateOutOfRange):
            truncate_series(self.SERIES, date(2021, 3, 2), date(2021, 3, 9))

    def test_baseline_reconstructs_tail(self):
        out = truncate_series(self.SERIES, date(2021, 3, 2))
        for t, f in zip(out.t_index, out.f_rel):
            original = self.SERIES.cumulative[1 + t - 1]
            assert out.baseline + f == original


ABUNDANCE_TSV = (
    "sample_id\tt1\tt2\tt3\n"
    "s1\t5\t0\t2\n"
    "s2\t1\t3\t0\n"
)


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

    def test_round_trip_preserves_order(self):
        table = parse_abundance_table(ABUNDANCE_TSV)
        text = serialize_abundance_table(table)
        again = parse_abundance_table(text)
        assert again.sample_ids == table.sample_ids
        assert again.taxon_ids == table.taxon_ids
        assert np.array_equal(again.counts, table.counts)
        assert serialize_abundance_table(again) == text


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
    dates = [f"3/{d}/21" for d in range(1, N_COLS + 1)]
    lines = ["Province/State,Country/Region,Lat,Long," + ",".join(dates)]
    lines += [f",C{i},0,0," + ",".join(row) for i, row in enumerate(grid)]
    return "\n".join(lines) + "\n", dates


def _as_tsv(grid):
    taxa = [f"t{j}" for j in range(N_COLS)]
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
    elif layout == "jhu":
        assert [s.cumulative.tolist() for s in parse(text)] == expected
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


def test_region_series_is_read_only_int64():
    series = parse_jhu_deaths(SMALL_CSV)[0]
    assert series.cumulative.dtype == np.int64
    with pytest.raises(ValueError):
        series.cumulative[0] = 1
    built = RegionSeries("X", series.dates, (1, 2, 3))
    assert built.cumulative.dtype == np.int64
    assert not built.cumulative.flags.writeable
    mine = np.array([1, 2, 3])
    RegionSeries("X", series.dates, mine)
    assert mine.flags.writeable  # the caller's array is copied, not frozen
    out = truncate_series(built, date(2021, 3, 2))
    assert all(type(v) is int for v in (out.baseline, *out.f_rel))


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
        assert parse_jhu_deaths(text)[0].dates == expected
    else:
        with pytest.raises(expected):
            parse_jhu_deaths(text)
