"""Property checks: baseline invariance of ``couple``, ``fit_plec`` on noiseless
curves, the kernel against its oracle, the JHU record reader against
``csv.reader``, the header-date reader against ``datetime.strptime``, the
count converter, dense and sparse, against ``int()``, and ``aggregate_regions``
against exact per-key sums."""

import csv
import io
from datetime import date, datetime, timedelta
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tplec import PlecModel, couple, fit_plec, ingest, plec_eval
from tplec.errors import CountOverflow, MalformedCsv, TplecError, UnparseableDate
from tplec.ingest import (
    DeathsTable,
    _cells,
    _digit_block,
    _header_date,
    _input_bytes,
    _jhu_records,
    _nonzero_of_blocks,
    aggregate_regions,
)

from test_kernels import argsort_curves, kernel_curves

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def _outcome(observed, pairs, baseline):
    try:
        return couple(observed, pairs, baseline=baseline)
    except TplecError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(
    c=st.floats(1.0, 1e5),
    w=st.floats(0.1, 3.0),
    d=st.floats(-0.1, -1e-5),
    days=st.integers(1, 90),
    baseline=st.integers(0, 10**12),
    law=st.none() | st.tuples(st.floats(-3.0, 3.0), st.floats(0.5, 2.5)),
)
def test_couple_is_invariant_under_a_baseline_shift(c, w, d, days, baseline, law):
    model = PlecModel(c, w, d)
    f = [int(round(plec_eval(model, float(t)))) for t in range(1, days + 1)]
    pairs = None
    if law is not None:
        ln_a, b = law
        pairs = [(m, float(np.exp(ln_a)) * m**b) for m in (10.0, 100.0, 1e3, 1e4)]
    plain = _outcome(f, pairs, 0)
    shifted = _outcome([baseline + v for v in f], pairs, baseline)
    if isinstance(plain, tuple):  # the same error, in the same order
        assert shifted == plain
        return
    assert (shifted.model, shifted.diagnostics, shifted.asymptote) == (
        plain.model,
        plain.diagnostics,
        plain.asymptote,
    )
    assert shifted.observed_series == tuple(baseline + v for v in f)
    assert shifted.n == plain.n == sum(v > 0 for v in f)


@PROPERTY
@given(
    c=st.floats(0.1, 1e5),
    w=st.floats(0.3, 2.5),
    turn=st.floats(0.3, 3.0),  # the turning point -w/d, in spans
    n=st.integers(15, 200),
)
def test_fit_plec_recovers_a_noiseless_curve(c, w, turn, n):
    x = np.arange(1.0, n + 1.0)
    true = PlecModel(c, w, -w / (turn * (n - 1)))
    model, diagnostics = fit_plec(list(zip(x, plec_eval(true, x))))
    assert diagnostics.converged and not diagnostics.constraint_active
    np.testing.assert_allclose(
        (model.c, model.w, model.d), (true.c, true.w, true.d), rtol=1e-8, atol=0
    )


@st.composite
def sparse_tables(draw):
    n_samples = draw(st.integers(1, 12))
    n_taxa = draw(st.integers(1, 16))
    cell = st.sampled_from([0, 0, 0]) | st.integers(1, 10**6)
    counts = draw(arrays(np.int64, (n_samples, n_taxa), elements=cell))
    for i in np.flatnonzero(counts.sum(axis=1) == 0):  # every sample is non-empty
        counts[i, i % n_taxa] = 1
    perms = draw(st.lists(st.permutations(range(n_samples)), min_size=1, max_size=4))
    return counts, np.array(perms, dtype=np.int64)


@PROPERTY
@given(
    table=sparse_tables(),
    q=st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 4.0),
)
def test_kernel_equals_argsort_oracle(table, q):
    counts, perms = table
    got = kernel_curves(counts, perms, q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


def _csv_records(text):
    """csv's records and, if it stops at one, the message naming its row."""
    records = []
    try:
        records.extend(csv.reader(io.StringIO(text, newline=None)))
    except csv.Error as exc:
        return records, f"row {len(records) + 1}: {exc}"
    return records, None


def _split_records(text):
    records = []
    try:
        for record in _jhu_records(_input_bytes(text)):
            records.append(_cells(record))
    except MalformedCsv as exc:
        return records, str(exc)
    return records, None


@settings(PROPERTY, max_examples=1000)
@given(text=st.text(alphabet='a1,"\n\r ', max_size=60))
def test_record_reader_equals_csv_reader(text):
    assert _split_records(text) == _csv_records(text)


DATE_CHARS = "0123456789/ \u0662"  # ARABIC-INDIC DIGIT TWO: a decimal digit
DATE_PART = (
    st.integers(0, 99).map(str)
    | st.integers(0, 99).map("{:02}".format)
    | st.text(DATE_CHARS.replace("/", ""), max_size=3)
)


@settings(PROPERTY, max_examples=1000)
@given(
    cell=st.text(DATE_CHARS, max_size=10)
    | st.builds("{}/{}/{}".format, DATE_PART, DATE_PART, DATE_PART)
)
@example(cell="12/31/68")  # the last year %y reads as 20xx
@example(cell="1/1/69")
@example(cell=" 3/ 1/21 ")  # %d takes a space and one digit
@example(cell="3/1\u0662/2\u0662")  # any decimal digit after 1 or 2, and in the year
@example(cell="3/0\u0662/21")
@example(cell="2/29/00")
@example(cell="2/29/21")
def test_header_date_equals_strptime(cell):
    try:
        expected = datetime.strptime(cell.strip(), "%m/%d/%y").date()
    except ValueError:
        expected = f"header column 5: {cell!r} is not an M/D/YY date"
    try:
        got = _header_date(cell, 5)
    except UnparseableDate as exc:
        got = str(exc)
    assert got == expected


DIGIT_CELL = st.text("0123456789", min_size=1, max_size=20)  # leading zeros too
ODD_CELL = st.sampled_from(["", "+1", " 1", "1_0", "\u0663"])  # int() reads "\u0663" as 3


@st.composite
def _count_rows(draw):
    """``n_cols`` and rows of digit cells, with a few odd cells and at most
    one row a cell short or long."""
    n_cols, n_rows = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    row = st.lists(DIGIT_CELL, min_size=n_cols, max_size=n_cols)
    rows = [draw(row) for _ in range(n_rows)]
    at = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
    for i, j in draw(st.lists(at, max_size=2)):
        rows[i][j] = draw(ODD_CELL)
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=1)):
        rows[i] = rows[i][:-1] if n_cols > 1 and draw(st.booleans()) else rows[i] + ["0"]
    return n_cols, rows


def _plain(cell):
    return cell.isascii() and cell.isdigit() and len(cell) <= 18


@PROPERTY
@given(
    grid=_count_rows(),
    sep=st.sampled_from([",", "\t"]),
    block=st.sampled_from([1, 5, 1 << 14]),  # cells per converter block
)
@example(grid=(3, [["0", "00", "007"], ["0" * 18, "0", "010"]]), sep="\t", block=5)
@example(grid=(2, [["0", "0"], ["0", "0"]]), sep=",", block=1)
def test_converter_reads_int_of_every_cell_or_declines(grid, sep, block):
    n_cols, rows = grid
    texts = [sep.join(row).encode("utf-8") for row in rows]
    with patch.object(ingest, "_BLOCK_CELLS", block):
        counts = _digit_block(texts, len(rows), n_cols, sep)
        sparse = _nonzero_of_blocks(texts, n_cols, sep)
    plain = all(len(row) == n_cols and all(map(_plain, row)) for row in rows)
    assert (counts is not None) == plain and (sparse is not None) == plain
    if plain:
        assert counts.tolist() == [[int(cell) for cell in row] for row in rows]
        nonzero = [
            (i * n_cols + j, int(cell))
            for i, row in enumerate(rows)
            for j, cell in enumerate(row)
            if int(cell)
        ]
        assert list(zip(sparse[0].tolist(), sparse[1].tolist())) == nonzero


INT64_MAX = 2**63 - 1
# near 2**62, two counts fit in int64 and three do not, so the bound on the
# largest count times the largest group often fails and the exact sums run
COUNT = st.integers(0, 1000) | st.integers(2**62 - 2**20, 2**62 + 2**20)


@st.composite
def _grouped_tables(draw):
    """Row keys with repeats (province rows), a continent per country, and counts."""
    n_rows, n_dates = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    regions = draw(st.lists(st.sampled_from("abcde"), min_size=n_rows, max_size=n_rows))
    continent = st.sampled_from(["K", "L", "M"])
    continent_map = {country: draw(continent) for country in sorted(set(regions))}
    rows = [draw(st.lists(COUNT, min_size=n_dates, max_size=n_dates)) for _ in regions]
    return regions, continent_map, rows


def _exact_sums(rows, keys):
    """Python-int totals per key, keys sorted."""
    totals = {}
    for key, row in zip(keys, rows):
        totals[key] = [a + b for a, b in zip(totals.get(key, [0] * len(row)), row)]
    return sorted(totals.items())


@PROPERTY
@given(table=_grouped_tables())
@example(table=(["a", "a", "a"], {"a": "K"}, [[2**62 - 1], [1], [1]]))  # bound fails, fits
@example(table=(["b", "a", "b", "a"], {"a": "K", "b": "K"}, [[2**62]] * 4))  # 'a' first
@example(table=(["a", "b"], {"a": "K", "b": "K"}, [[2**62, 0], [2**62, 1]]))  # the continent
@example(table=(["a", "b"], {"a": "K", "b": "L"}, [[0, 2**62], [1, 2**62]]))  # World
def test_aggregate_regions_equals_exact_per_key_sums(table):
    regions, continent_map, rows = table
    dates = tuple(date(2021, 1, 1) + timedelta(days=i) for i in range(len(rows[0])))
    deaths = DeathsTable(tuple(regions), dates, rows)
    countries = _exact_sums(rows, regions)
    continents = _exact_sums([r for _, r in countries], [continent_map[c] for c, _ in countries])
    world = _exact_sums([r for _, r in continents], ["World"] * len(continents))
    for name, total in countries + continents + world:  # the first level, then sorted
        if max(total) > INT64_MAX:
            with pytest.raises(CountOverflow, match=f"^the total for {name!r} exceeds"):
                aggregate_regions(deaths, continent_map)
            return
    units, got_countries, members = aggregate_regions(deaths, continent_map)
    assert list(zip(got_countries.regions, got_countries.counts.tolist())) == countries
    assert list(zip(units.regions, units.counts.tolist())) == continents + world
    names = got_countries.regions
    assert [[names[i] for i in m] for m in members[:-1]] == [
        [c for c in names if continent_map[c] == k] for k, _ in continents
    ]
