#!/usr/bin/env python3
"""Parse generated input files at this checkout and at REV, and compare.

    python benchmarks/fuzz_parsers.py --against REV --seed 0 --cases 5000

Draws ``--cases`` deaths files, continent maps and abundance tables from
``--seed`` and parses each one from its str and from its bytes with this
checkout's ``src`` and with REV's. REV is checked out with ``git
worktree`` into a temporary directory (under ``TMPDIR``), which is
removed afterwards, and each revision parses in its own process. The
parsed tables, the warnings and the first error's type and text must be
the same. One line per parser gives the counts of cases, parses, errors,
cases with a warning and differences; the first differences follow, and
the exit status is 1 if there is any.

The generator uses only the standard library, and each case draws from
its own seeded ``random.Random``, so both processes draw the same cases.
It covers CRLF and bare CR, a byte-order mark, quoted cells over several
lines, open quotes, quoted leading cells of deaths lines (with a literal
quote, text after a closing quote, or a NUL, a quote or an overlong cell
among the date cells), ragged and wide rows, blank lines, a corner cell or
none, repeated, blank and non-ASCII labels, lone surrogates, invalid
UTF-8 bytes, counts of 1 to 19 digits with leading zeros ("00", "010"),
cells ``int()`` reads or rejects, counts whose total overflows int64,
and tables of mostly "0" cells, some large enough to span several
converter blocks with a bad cell on a block boundary. Half of those
large deaths files have a record that csv reads whole (a province over
two lines or a quoted date cell) in the converter's first block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARSERS = {
    "deaths": "parse_jhu_deaths",
    "continents": "parse_continent_map",
    "abundance": "parse_abundance_table",
}

ENDINGS = ("\n", "\r\n", "\r")
WORDS = ("Chad", "Peru", "Fiji", "Asia", "Europe", "otu", "S", "taxon", "Oceania")
ODD_LABELS = (
    "", " ", " padded ", "Korea, South", 'say "hi"', "Côte d'Ivoire",
    "日本", "x\ud800", "two\nlines", "tab\there", "World", "\ufeffmark",
)
ODD_COUNTS = (
    "", "+1", " 1", "1 ", "1_0", "٣", "²", "-1", "x", "1.0", "0x1", "4\t",
)
LEADING_ZEROS = ("00", "010", "007", "0" * 18, "0" * 19, "000123")
NINETEEN = ("1" + "0" * 18, str(2**63 - 1), str(2**63), "9" * 19, "0" * 18 + "1")
# a leading cell of a deaths line: quoted, holding a literal quote, text
# after a closing quote, or a quote left open ("{}" is the cell)
QUOTED_LEADING = (
    '"{}"', '"{}, x"', '"{}""q"""', '""', ' "{}"', 'x"{}', '{}"', '"{}"b', '"{}',
)
# a date cell csv must read on a line with a quote: a NUL, a quote, or
# one beyond csv's field limit of 131072 characters
QUOTED_LINE_DATES = ("1\x00", "\x00", '"1,000"', '"7"', "1" * 131073)
BAD_BYTES = (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")
BLOCKS = (1 << 14, 1 << 15, 1 << 16)  # converter block sizes a large case spans


def _label(rng: random.Random) -> str:
    if rng.random() < 0.85:
        return rng.choice(WORDS) + str(rng.randrange(1000))
    return rng.choice(ODD_LABELS)


def _count(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.55:
        return str(rng.randrange(1, 10))
    if r < 0.85:
        width = rng.randint(2, 18)
        return str(rng.randrange(10 ** (width - 1), 10**width))
    if r < 0.93:
        return rng.choice(LEADING_ZEROS)
    if r < 0.97:
        return rng.choice(NINETEEN)
    return rng.choice(("9" * 18, "1" + "0" * 17, "4" * 17))


def _low_count(rng: random.Random) -> str:
    """A count as an abundance table holds them: mostly one digit, few long."""
    r = rng.random()
    if r < 0.7:
        return str(rng.randrange(1, 10))
    if r < 0.99:
        return str(rng.randrange(10, 1000))
    return str(rng.randrange(1, 10 ** rng.randint(4, 18)))


def _counts(rng: random.Random, n: int, zero_share: float, count) -> list[str]:
    cells = ["0"] * n
    if n > 64:
        picked = rng.sample(range(n), round(n * (1 - zero_share)))
    else:
        picked = [j for j in range(n) if rng.random() >= zero_share]
    for j in picked:
        cells[j] = count(rng)
    return cells


def _layout(rng: random.Random) -> tuple:
    """Rows, columns, cells on a block boundary, share of "0" cells, count drawer.

    Most cases are small, with counts of every kind. One in eight is a
    mostly-"0" table of up to 200 columns, and one in fifty is large
    enough to span converter blocks, with odd cells put on a boundary.
    """
    r = rng.random()
    if r < 0.02:
        block = rng.choice(BLOCKS)
        n_cols = rng.randint(200, 3000)
        per_block = max(1, block // n_cols)
        n_rows = per_block + rng.randint(1, 3)
        spots = [(per_block - 1, n_cols - 1), (per_block, 0), (per_block - 1, 0)]
        return n_rows, n_cols, spots, rng.choice((0.9, 0.97, 0.99)), _low_count
    if r < 0.15:
        n_rows, n_cols = rng.randint(2, 20), rng.randint(16, 200)
        return n_rows, n_cols, [], rng.choice((0.9, 0.97, 0.99)), _low_count
    n_rows = rng.randint(1, 6) if rng.random() < 0.97 else 0
    n_cols = rng.choice((1, 2, 3, 5, 8, 12)) if rng.random() < 0.97 else 0
    return n_rows, n_cols, [], rng.choice((0.0, 0.5, 0.9, 0.97)), _count


def _spoil(rng: random.Random, rows: list[list[str]], first: int, spots) -> None:
    """Put odd or 19-digit counts from column ``first`` on, at ``spots`` or anywhere."""
    if not rows or len(rows[0]) <= first or rng.random() < 0.7:
        return
    for _ in range(rng.randint(1, 2)):
        if spots and rng.random() < 0.6:
            i, j = rng.choice(spots)
            j += first
        else:
            i = rng.randrange(len(rows))
            j = rng.randrange(first, len(rows[i]))
        if j < len(rows[i]):
            rows[i][j] = rng.choice(ODD_COUNTS + NINETEEN)


def _misshape(rng: random.Random, rows: list[list[str]], extra: str) -> None:
    """Make a row short or long, or one short and a later one long."""
    if len(rows) < 1 or rng.random() < 0.85:
        return
    i = rng.randrange(len(rows))
    way = rng.randrange(3)
    if way == 0 and len(rows[i]) > 1:
        rows[i].pop()
    elif way == 1:
        rows[i].append(extra)
    elif i + 1 < len(rows) and len(rows[i]) > 1:
        rows[i].pop()
        rows[rng.randrange(i + 1, len(rows))].append(extra)


def _csv_lines(rng: random.Random, rows: list[list[str]], needless=0.05) -> list[str]:
    """Rows as CSV lines: a cell that needs quotes mostly has them, a share
    ``needless`` of others too, and in one file in fifty a quote opens at a
    comma and runs on."""
    lines = []
    for row in rows:
        cells = []
        for cell in row:
            r = rng.random()
            if any(c in cell for c in ',"\n\r') and r < 0.95 or r < needless:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    if lines and rng.random() < 0.02:
        i = rng.randrange(len(lines))
        cells = lines[i].split(",")
        j = rng.randrange(len(cells))
        cells[j] = '"' + cells[j]
        lines[i] = ",".join(cells)
    return lines


def _file(rng: random.Random, lines: list[str]) -> str:
    """Lines, maybe with a blank one, each ended by one ending or a mix,
    the last maybe not; maybe after a byte-order mark."""
    if rng.random() < 0.05:
        lines.insert(rng.randrange(len(lines) + 1), "")
    mixed = rng.random() < 0.05
    ending = rng.choice(ENDINGS) if rng.random() < 0.3 else "\n"
    ends = [rng.choice(ENDINGS) if mixed else ending for _ in lines]
    if ends and rng.random() < 0.2:
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return "\ufeff" + text if rng.random() < 0.03 else text


def _date_cell(rng: random.Random, d: date) -> str:
    if rng.random() < 0.95:
        return f"{d.month}/{d.day}/{d.year % 100:02d}"
    return f"{d.month:02d}/{d.day:02d}/{d.year % 100:02d}"


def deaths_text(rng: random.Random) -> str:
    fixed = ["Province/State", "Country/Region", "Lat", "Long"]
    n_rows, n_dates, spots, zero_share, count = _layout(rng)
    start = date(2020, 1, 22) + timedelta(days=rng.randrange(2000))
    dates = [start + timedelta(days=i) for i in range(n_dates)]
    header = fixed + [_date_cell(rng, d) for d in dates]
    if dates and rng.random() < 0.05:
        d = rng.choice(dates)
        odd = (f" {d.month}/{d.day}/{d.year % 100:02d} ", "13/1/21", "2/30/21", "x")
        header[rng.randrange(4, len(header))] = rng.choice(odd)
    if rng.random() < 0.05:
        header[rng.randrange(len(header))] = rng.choice(("Province", "", "1/1/19"))
    if n_dates > 2 and rng.random() < 0.03:
        del header[4 + rng.randrange(1, n_dates - 1)]  # a gap in the date axis
    rows = []
    # a large file's labels are plain, so that its counts reach the converter
    label = _label if n_rows <= 20 else lambda rng: rng.choice(WORDS)
    cumulative = rng.random() < 0.5
    for _ in range(n_rows):
        province = label(rng) if rng.random() < 0.3 else ""
        coords = [rng.choice(("1.5", "-20.25", "", "x"))] * 2
        counts = _counts(rng, n_dates, zero_share, count)
        if cumulative and rng.random() < 0.9:  # so only some rows warn
            total = 0
            for j, cell in enumerate(counts):
                if cell.isdigit() and len(cell) < 16:
                    total += int(cell)
                    counts[j] = str(total)
        rows.append([province, label(rng)] + coords + counts)
    _spoil(rng, rows, 4, spots)
    if rows and n_dates and rng.random() < 0.05:
        rows[rng.randrange(len(rows))][4] = rng.choice(("1,000", "12"))  # quoted below
    _misshape(rng, rows, "0")
    # a large file's cells are quoted only where they must be, so that its
    # blocks reach the converter, but half of them have one record that csv
    # reads whole in the first block, which sends it to the per-cell reader
    lines = [",".join(header)] + _csv_lines(rng, rows, 0.0 if spots else 0.05)
    if spots and rng.random() < 0.5:
        _whole_csv_record(rng, lines, min(len(rows), max(1, BLOCKS[0] // n_dates)))
    _quote_leading_cells(rng, lines)
    if rows and rng.random() < 0.03:
        # an open quote in the last cell runs to the end of a file with no last ending
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ',"' + rng.choice(ODD_COUNTS + ("7",))
        return _file(rng, lines).rstrip("\r\n")
    return _file(rng, lines)


def _whole_csv_record(rng: random.Random, lines: list[str], first: int) -> None:
    """Make one of the ``first`` lines after the header, if it has no quote,
    one that csv reads whole: a province over two lines, or a quoted date cell."""
    i = 1 + rng.randrange(first)
    cells = lines[i].split(",")
    if '"' in lines[i] or len(cells) < 5:
        return
    if rng.random() < 0.5:
        cells[0] = '"Two\nLines"'
    else:
        j = rng.randrange(4, len(cells))
        cells[j] = f'"{cells[j]}"'
    lines[i] = ",".join(cells)


def _quote_leading_cells(rng: random.Random, lines: list[str]) -> None:
    """In one file in five, give some lines without a quote a leading cell
    of a ``QUOTED_LEADING`` shape, and a few of those an odd date cell."""
    if rng.random() >= 0.2:
        return
    for i, line in enumerate(lines):
        if '"' in line or rng.random() >= (0.05 if i == 0 else 0.3):
            continue
        cells = line.split(",")
        j = rng.randrange(min(4, len(cells)))
        cells[j] = rng.choice(QUOTED_LEADING).format(cells[j])
        if len(cells) > 4 and rng.random() < 0.1:
            cells[rng.randrange(4, len(cells))] = rng.choice(QUOTED_LINE_DATES)
        lines[i] = ",".join(cells)


def continents_text(rng: random.Random) -> str:
    header = "country,continent"
    if rng.random() < 0.1:
        header = rng.choice((" country , continent ", "Country,continent", "country"))
    rows = [[_label(rng), rng.choice(("Asia", "Europe", "World", _label(rng)))]
            for _ in range(rng.randrange(7))]
    if len(rows) > 1 and rng.random() < 0.1:
        rows[-1][0] = rows[0][0]  # a country listed twice
    if rows and rng.random() < 0.1:
        i = rng.randrange(len(rows))
        rows[i] = rows[i][:1] if rng.random() < 0.5 else rows[i] + ["x"]
    lines = [header] + _csv_lines(rng, rows)
    return _file(rng, lines)


def abundance_text(rng: random.Random) -> str:
    n_rows, n_taxa, spots, zero_share, count = _layout(rng)
    taxa = [f"t{j}" for j in range(n_taxa)]
    if taxa and rng.random() < 0.1:
        taxa[rng.randrange(n_taxa)] = rng.choice(("", " ", "t0", _label(rng)))
    corner = [rng.choice(("sample_id", "", "id"))] if rng.random() < 0.6 else []
    header = corner + taxa
    rows = []
    for i in range(n_rows):
        counts = _counts(rng, n_taxa, zero_share, count)
        if n_taxa and counts.count("0") == n_taxa and rng.random() < 0.97:
            counts[rng.randrange(n_taxa)] = "1"  # a sample with no count is an error
        rows.append([f"S{i}"] + counts)
        if rng.random() < 0.03:
            rows[-1][0] = rng.choice(("S0", "", _label(rng)))
    _spoil(rng, rows, 1, spots)
    _misshape(rng, rows, "0")
    return _file(rng, ["\t".join(header)] + ["\t".join(row) for row in rows])


DRAW = {
    "deaths": deaths_text,
    "continents": continents_text,
    "abundance": abundance_text,
}


def cases(kind: str, seed: int, n: int):
    """(str, bytes) of each of the ``n`` cases of parser ``kind``.

    The bytes are the str's UTF-8 (with "surrogatepass"); one in ten has
    an invalid byte inserted.
    """
    for i in range(n):
        rng = random.Random(f"{seed}:{kind}:{i}")
        text = DRAW[kind](rng)
        data = text.encode("utf-8", "surrogatepass")
        if rng.random() < 0.1:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.choice(BAD_BYTES) + data[at:]
        yield text, data


def _described(kind: str, result) -> list:
    if kind == "deaths":
        dates = [d.isoformat() for d in result.dates]
        return [list(result.regions), dates, result.counts.tolist()]
    if kind == "continents":
        return list(result.items())
    return [list(result.sample_ids), list(result.taxon_ids), result.counts.tolist()]


def outcome(kind: str, parse, source) -> tuple[dict, list]:
    """``{"table": ...}`` or ``{"error": [type name, text]}``, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = {"table": _described(kind, parse(source))}
        except Exception as exc:  # every failure is an outcome to compare
            result = {"error": [type(exc).__name__, str(exc)]}
    return result, [[w.category.__name__, str(w.message)] for w in caught]


def _record(found: tuple[dict, list]) -> list:
    """[failed, warned, the outcome as JSON, or its digest when it is long]."""
    result, said = found
    detail = json.dumps(found)
    if len(detail) > 2000:
        detail = hashlib.sha256(detail.encode()).hexdigest()
    return ["error" in result, bool(said), detail]


def work(src: str, seed: int, n: int, out: str) -> None:
    """Write one JSON line per case and kind: the str's and the bytes' outcomes."""
    sys.path.insert(0, src)
    from tplec import ingest

    if not Path(ingest.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {ingest.__file__}, not the tree at {src}")
    with open(out, "w", encoding="ascii") as f:
        for kind, name in PARSERS.items():
            parse = getattr(ingest, name)
            for text, data in cases(kind, seed, n):
                line = [_record(outcome(kind, parse, form)) for form in (text, data)]
                f.write(json.dumps(line) + "\n")


def _tally(kind: str, mine: list[str], theirs: list[str], shown: list[str]) -> int:
    """Print ``kind``'s counts, keep its first differences in ``shown``, and
    return how many cases differ."""
    parsed = errors = warned = differences = 0
    for i, (a, b) in enumerate(zip(mine, theirs, strict=True)):
        for failed, said, _ in json.loads(a):
            parsed += not failed
            errors += failed
            warned += said
        if a != b:
            differences += 1
            if len(shown) < 5:
                here, there = a[:600], b[:600]
                shown.append(f"{kind} case {i}:\n  here:  {here}\n  there: {there}")
    print(
        f"{kind:<11} {len(mine)} cases x 2 forms: {parsed} parsed, {errors} errors, "
        f"{warned} warned, {differences} differences"
    )
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=5000, help="cases per parser")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        work(args.worker, args.seed, args.cases, args.out)
        return 0
    if not args.against:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory(prefix="fuzz_parsers-") as tmp:
        tree = Path(tmp) / "against"
        git = ["git", "-C", str(ROOT), "worktree"]
        add = ["add", "--detach", "--quiet", str(tree), args.against]
        subprocess.run(git + add, check=True)
        try:
            outs, workers = [], []
            for src in (ROOT / "src", tree / "src"):
                outs.append(Path(tmp) / f"{len(outs)}.jsonl")
                command = [
                    sys.executable, __file__, "--worker", str(src), "--seed",
                    str(args.seed), "--cases", str(args.cases), "--out", str(outs[-1]),
                ]
                env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
                workers.append(subprocess.Popen(command, env=env))
            if any([w.wait() for w in workers]):
                raise SystemExit("a worker failed")
            mine, theirs = (out.read_text().splitlines() for out in outs)
        finally:
            subprocess.run(git + ["remove", "--force", str(tree)], check=True)
    shown: list[str] = []
    total = 0
    for k, kind in enumerate(PARSERS):
        part = slice(k * args.cases, (k + 1) * args.cases)
        total += _tally(kind, mine[part], theirs[part], shown)
    print(*shown, sep="\n")
    print(f"{total} differences against {args.against} (seed {args.seed})")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
