"""Byte-for-byte regression of the ``ftr`` and ``dar`` reports.

The files under ``tests/golden/`` hold the DSV and ``obj`` outputs of
the CLI on the ``conftest`` fixtures. To record them again from the
code on ``PYTHONPATH``::

    PYTHONPATH=src python tests/test_golden.py --record

Re-record only when a change to the output is intended, and say why.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

from tplec.cli import main

from conftest import abundance_tsv, build_ftr_fixture, build_saturating_table

GOLDEN = Path(__file__).parent / "golden"


def write_outputs(directory: Path) -> list[str]:
    """Run every golden case into ``directory``; return the output file names."""
    fixture = build_ftr_fixture()
    inputs = directory / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    deaths = inputs / "deaths.csv"
    continents = inputs / "continents.csv"
    community = inputs / "community.tsv"
    deaths.write_text(fixture["deaths_csv"])
    continents.write_text(fixture["continents_csv"])
    community.write_text(abundance_tsv(build_saturating_table()[0]))

    ftr = [
        "ftr",
        "--deaths", str(deaths),
        "--continents", str(continents),
        "--start", fixture["start"].isoformat(),
        "--end", fixture["end"].isoformat(),
    ]  # fmt: skip
    dar = ["dar", "--abundance", str(community), "--replicates", "60", "--seed", "11"]
    runs = {
        "ftr": ftr,
        "dar_q0": dar + ["--q", "0"],
        "dar_q1": dar + ["--q", "1"],
    }
    for name, argv in runs.items():
        for fmt, suffix in (("dsv", ".csv"), ("obj", ".json")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                status = main(argv + ["--format", fmt, "--out", str(directory / (name + suffix))])
            if status != 0:
                raise RuntimeError(f"{name} --format {fmt} exited {status}")
    return sorted(p.name for p in directory.iterdir() if p.is_file())


def test_outputs_match_golden_files(tmp_path, capsys):
    names = write_outputs(tmp_path)
    capsys.readouterr()  # the q > 0 note on stderr is not part of the outputs
    assert names == sorted(p.name for p in GOLDEN.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        written = write_outputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for name in written:
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
    print(f"recorded {len(written)} files in {GOLDEN}")
