"""A fixed-seed slice of the differential parser fuzz, at this checkout only:
each generated file parses alike from its str and its bytes, and every
failure is a ``TplecError``."""

import importlib.util
from pathlib import Path

import pytest

from tplec import errors, ingest

# the seeded case generator of benchmarks/fuzz_parsers.py
_SPEC = importlib.util.spec_from_file_location(
    "fuzz_parsers", Path(__file__).parents[1] / "benchmarks" / "fuzz_parsers.py"
)
fuzz_parsers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz_parsers)


@pytest.mark.parametrize("kind", fuzz_parsers.PARSERS)
def test_generated_files_parse_alike_from_str_and_bytes(kind):
    parse = getattr(ingest, fuzz_parsers.PARSERS[kind])
    for i, (text, data) in enumerate(fuzz_parsers.cases(kind, seed=0, n=100)):
        found = [fuzz_parsers.outcome(kind, parse, source) for source in (text, data)]
        for result, _ in found:
            name = result.get("error", ["TplecError"])[0]
            error = getattr(errors, name, Exception)
            assert issubclass(error, errors.TplecError), (i, result)
        if data == text.encode("utf-8", "surrogatepass") and _is_utf8(data):
            assert found[0] == found[1], i
        else:
            assert found[1][0]["error"][0] == "NotUtf8", i


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _read_abundance(text: str):
    """(sample ids, taxa, counts) of an abundance table, by README's rules alone.

    Lines end at LF, CRLF or a bare CR. The first row's width picks the
    header layout; then the taxa are checked; then, in row order, the
    first ragged row, repeated sample id or cell that ``int()`` rejects
    is an error; then a sample with no count, then the total's range.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines in ([], [""]):
        raise errors.MalformedHeader("empty input")
    header, rows = lines[0].split("\t"), [line.split("\t") for line in lines[1:]]
    if not rows:
        raise errors.MalformedHeader("no sample rows present")
    taxa = header if len(rows[0]) == len(header) + 1 else header[1:]
    if not taxa or not all(taxon.strip() for taxon in taxa):
        raise errors.MalformedHeader("empty taxon column header")
    if len(set(taxa)) != len(taxa):
        raise errors.MalformedHeader("duplicate taxon identifiers in header")
    ids, counts = [], []
    for number, (sample, *cells) in enumerate(rows, start=2):
        if len(cells) != len(taxa):
            raise errors.RaggedRow(
                f"row {number} has {len(cells) + 1} fields, expected {len(taxa) + 1}"
            )
        if sample.strip() in ids:
            raise errors.DuplicateSampleId(
                f"sample id {sample.strip()!r} appears more than once"
            )
        ids.append(sample.strip())
        counts.append([])
        for taxon, cell in zip(taxa, cells):
            where = f"row {number}, column {taxon}"
            try:
                value = int(cell.strip())
            except ValueError:
                raise errors.UnparseableCount(f"{where}: {cell!r} is not an integer")
            if value < 0:
                raise errors.UnparseableCount(f"{where}: count {value} is negative")
            if value >= 2**63:
                raise errors.UnparseableCount(
                    f"{where}: count {value} exceeds the int64 range"
                )
            counts[-1].append(value)
    for sample, row in zip(ids, counts):
        if not any(row):
            raise errors.EmptyCommunity(f"sample {sample!r} has no positive count")
    if sum(map(sum, counts)) >= 2**63:
        raise errors.CountOverflow("the total of all counts exceeds the int64 range")
    return ids, taxa, counts


def _abundance_outcome(read, text):
    try:
        return "table", read(text)
    except errors.TplecError as exc:
        return type(exc).__name__, str(exc)


def _parsed(text):
    table = ingest.parse_abundance_table(text)
    return list(table.sample_ids), list(table.taxon_ids), table.counts.tolist()


def test_abundance_parse_equals_a_brute_force_reader():
    kinds = set()
    for i, (text, _) in enumerate(fuzz_parsers.cases("abundance", seed=0, n=100)):
        expect = _abundance_outcome(_read_abundance, text)
        assert _abundance_outcome(_parsed, text) == expect, i
        kinds.add(expect[0])
    # tables and every error the rules name were compared
    assert kinds == {
        "table", "MalformedHeader", "RaggedRow", "DuplicateSampleId",
        "UnparseableCount", "EmptyCommunity", "CountOverflow",
    }
