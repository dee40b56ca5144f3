"""End-to-end tests of the command-line surface on synthetic fixtures."""

import json
import math

import numpy as np
import pytest

from tplec.cli import _vm_pairs_for_unit, main
from tplec.reporting import CURVE_COLUMNS, FALLBACK_COLUMNS, REPORT_COLUMNS

from conftest import abundance_tsv, build_saturating_table


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def ftr_paths(tmp_path, ftr_fixture):
    deaths = tmp_path / "deaths.csv"
    continents = tmp_path / "continents.csv"
    deaths.write_text(ftr_fixture["deaths_csv"])
    continents.write_text(ftr_fixture["continents_csv"])
    return deaths, continents, ftr_fixture


def run_ftr(ftr_paths, tmp_path, fmt="dsv", extra=()):
    deaths, continents, fixture = ftr_paths
    out = tmp_path / ("report.json" if fmt == "obj" else "report.csv")
    status = main(
        [
            "ftr",
            "--deaths",
            str(deaths),
            "--continents",
            str(continents),
            "--start",
            fixture["start"].isoformat(),
            "--end",
            fixture["end"].isoformat(),
            "--out",
            str(out),
            "--format",
            fmt,
            *extra,
        ]
    )
    return status, out


class TestFtrCommand:
    def test_report_reproduces_generator_asymptotes(self, ftr_paths, tmp_path):
        status, out = run_ftr(ftr_paths, tmp_path)
        assert status == 0
        header, rows = read_rows(out)
        assert header == REPORT_COLUMNS
        fixture = ftr_paths[2]
        by_unit = {r["unit"]: r for r in rows}
        assert set(by_unit) == {"Alphia", "Betia", "Gammia", "World"}
        for unit in ("Alphia", "Betia"):
            cfg = fixture["meta"][unit]
            row = by_unit[unit]
            assert row["fallback_used"] == "false"
            x_max_true = -cfg["w"] / cfg["d"]
            y_max_true = cfg["c"] * x_max_true ** cfg["w"] * math.exp(-cfg["w"])
            assert float(row["t_max"]) == pytest.approx(x_max_true, rel=0.01)
            assert float(row["f_max"]) == pytest.approx(
                cfg["baseline"] + y_max_true, rel=0.01
            )
            assert float(row["lower_95"]) <= float(row["f_max"]) <= float(
                row["upper_95"]
            )

    def test_power_law_unit_marked_fallback(self, ftr_paths, tmp_path):
        status, out = run_ftr(ftr_paths, tmp_path)
        assert status == 0
        _, rows = read_rows(out)
        gammia = next(r for r in rows if r["unit"] == "Gammia")
        assert gammia["fallback_used"] == "true"
        assert gammia["t_max"] == ""
        assert gammia["f_max"] == ""
        assert gammia["date_max"] == ""
        assert gammia["completion_pct"] == ""

    def test_fallback_rows_written_separately(self, ftr_paths, tmp_path):
        status, out = run_ftr(ftr_paths, tmp_path)
        assert status == 0
        fallback = out.with_name("report_fallback.csv")
        assert fallback.exists()
        header, rows = read_rows(fallback)
        assert header == FALLBACK_COLUMNS
        gammia_rows = [r for r in rows if r["unit"] == "Gammia"]
        assert len(gammia_rows) == 3  # default horizons: +30/+60/+90 days
        for r in rows:
            assert float(r["lower_95"]) <= float(r["predicted"]) <= float(
                r["upper_95"]
            )

    def test_completion_has_one_decimal(self, ftr_paths, tmp_path):
        _, out = run_ftr(ftr_paths, tmp_path)
        _, rows = read_rows(out)
        for r in rows:
            if r["completion_pct"]:
                whole, frac = r["completion_pct"].split(".")
                assert len(frac) == 1

    def test_unmapped_country_exits_2(self, ftr_paths, tmp_path, capsys):
        deaths, continents, fixture = ftr_paths
        # drop one mapping line
        lines = fixture["continents_csv"].splitlines()
        continents.write_text("\n".join(lines[:-1]) + "\n")
        status, _ = run_ftr((deaths, continents, fixture), tmp_path)
        assert status == 2
        assert "UnmappedCountry" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        status = main(
            [
                "ftr",
                "--deaths",
                str(tmp_path / "nope.csv"),
                "--continents",
                str(tmp_path / "nope2.csv"),
                "--start",
                "2021-03-21",
                "--end",
                "2021-05-21",
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_obj_format_embeds_everything(self, ftr_paths, tmp_path):
        status, out = run_ftr(ftr_paths, tmp_path, fmt="obj")
        assert status == 0
        document = json.loads(out.read_text())
        units = {u["unit"]: u for u in document["units"]}
        alphia = units["Alphia"]
        assert alphia["model"]["kind"] == "plec"
        assert alphia["tpl"]["n_pairs"] > 0
        assert alphia["observed_series"]
        assert alphia["band"]["lower"] < alphia["band"]["point"]
        gammia = units["Gammia"]
        assert gammia["fallback_used"] is True
        assert gammia["model"]["kind"] == "pl"
        assert gammia["horizon_bands"]


@pytest.fixture
def dar_paths(tmp_path):
    table, richness = build_saturating_table()
    path = tmp_path / "community.tsv"
    path.write_text(abundance_tsv(table))
    return path, richness


def run_dar(path, out, extra=()):
    return main(
        [
            "dar",
            "--abundance",
            str(path),
            "--replicates",
            "60",
            "--seed",
            "11",
            "--out",
            str(out),
            *extra,
        ]
    )


class TestDarCommand:
    def test_predicts_known_richness(self, dar_paths, tmp_path):
        path, richness = dar_paths
        out = tmp_path / "dar.csv"
        assert run_dar(path, out) == 0
        header, rows = read_rows(out)
        assert header == REPORT_COLUMNS
        row = rows[0]
        assert row["fallback_used"] == "false"
        assert float(row["f_max"]) == pytest.approx(richness, rel=0.05)
        curve = out.with_name("dar_curve.csv")
        header, curve_rows = read_rows(curve)
        assert header == CURVE_COLUMNS
        for r in curve_rows:
            if r["lower"]:
                assert float(r["lower"]) <= float(r["predicted"]) <= float(r["upper"])

    def test_byte_identical_reruns(self, dar_paths, tmp_path):
        path, _ = dar_paths
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_dar(path, out1) == 0
        assert run_dar(path, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            out1.with_name("a_curve.csv").read_bytes()
            == out2.with_name("b_curve.csv").read_bytes()
        )

    def test_higher_order_emits_curve_without_bands(self, dar_paths, tmp_path, capsys):
        path, _ = dar_paths
        out = tmp_path / "q2.csv"
        assert run_dar(path, out, extra=("--q", "2")) == 0
        err = capsys.readouterr().err
        assert "q = 0" in err
        _, rows = read_rows(out)
        assert rows[0]["lower_95"] == ""
        assert rows[0]["upper_95"] == ""
        _, curve_rows = read_rows(out.with_name("q2_curve.csv"))
        assert all(r["lower"] == "" and r["upper"] == "" for r in curve_rows)
        assert any(r["predicted"] != "" for r in curve_rows)

    def test_replicate_floor(self, dar_paths, tmp_path, capsys):
        path, _ = dar_paths
        status = main(
            [
                "dar",
                "--abundance",
                str(path),
                "--replicates",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert status == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--q", "-1"), ("--q", "nan"), ("--q", "inf"), ("--seed", "-1")],
    )
    def test_bad_argument_exits_2_with_one_line(
        self, dar_paths, tmp_path, capsys, flag, value
    ):
        path, _ = dar_paths
        status = run_dar(path, tmp_path / "x.csv", extra=(flag, value))
        assert status == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cmd_dar: {flag} ")
        assert not (tmp_path / "x.csv").exists()


class TestCurveCommand:
    def test_observed_column_round_trips(self, ftr_paths, tmp_path):
        status, report = run_ftr(ftr_paths, tmp_path, fmt="obj")
        assert status == 0
        out = tmp_path / "curve.csv"
        status = main(
            [
                "curve",
                "--report",
                str(report),
                "--unit",
                "Alphia",
                "--horizon",
                "80",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        header, rows = read_rows(out)
        assert header == CURVE_COLUMNS
        document = json.loads(report.read_text())
        alphia = next(u for u in document["units"] if u["unit"] == "Alphia")
        observed = alphia["observed_series"]
        for t, value in enumerate(observed, start=1):
            assert float(rows[t - 1]["observed"]) == value
        assert rows[len(observed)]["observed"] == ""
        for r in rows:
            assert float(r["lower"]) <= float(r["predicted"]) <= float(r["upper"])
        assert rows[0]["date"] == ftr_paths[2]["start"].isoformat()

    def test_final_row_hits_maximum_for_integer_peak(self, tmp_path):
        # w/|d| chosen so the curve peaks exactly on an integer day
        out = tmp_path / "peak.csv"
        status = main(
            [
                "curve",
                "--params",
                "5.0,1.0,-0.01",
                "--tpl",
                "0.0,1.0",
                "--n",
                "25",
                "--horizon",
                "100",
                "--out",
                str(out),
            ]
        )
        assert status == 0
        _, rows = read_rows(out)
        y_max = 5.0 * 100.0**1.0 * math.exp(-1.0)
        assert float(rows[-1]["predicted"]) == pytest.approx(y_max, rel=1e-9)
        values = [float(r["predicted"]) for r in rows]
        assert max(values) == values[-1]

    def test_unknown_unit_exits_2(self, ftr_paths, tmp_path, capsys):
        _, report = run_ftr(ftr_paths, tmp_path, fmt="obj")
        status = main(
            [
                "curve",
                "--report",
                str(report),
                "--unit",
                "Nowhere",
                "--horizon",
                "10",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        assert status == 2
        assert "Nowhere" in capsys.readouterr().err


def _per_column_vm_pairs(members, lo, hi):
    """The per-column loop the variance-mean pairs were first computed with."""
    pairs = []
    for col in members[:, lo : hi + 1].T:
        mean = float(col.mean())
        var = float(col.var(ddof=1)) if col.size > 1 else 0.0
        if mean > 0.0 and var > 0.0:
            pairs.append((mean, var))
    return pairs


@pytest.mark.parametrize("n_members", [1, 2, 3, 9, 129, 260])
def test_vm_pairs_equal_per_column_loop_exactly(n_members):
    rng = np.random.default_rng(n_members)
    days = 400
    steps = rng.integers(0, 10 ** rng.integers(1, 7, size=(n_members, 1)), (n_members, days))
    members = np.cumsum(steps, axis=1)
    members[:, :20] = 0  # days with zero mean are dropped
    members[0, 20:40] = members[1:, 20:40] = 7  # and days with zero variance
    members.flags.writeable = False
    for lo, hi in ((0, days - 1), (15, 300), (100, 100)):
        got = _vm_pairs_for_unit(members, lo, hi)
        assert got == _per_column_vm_pairs(members, lo, hi)
        assert all(type(m) is float and type(v) is float for m, v in got)


def _with_last_cell(path, value):
    sep = "," if path.suffix == ".csv" else "\t"
    head = path.read_text().rstrip("\n").rpartition(sep)[0]
    path.write_text(f"{head}{sep}{value}\n")


BEYOND_INT64 = "99999999999999999999"
CURVE_ARGS = ["curve", "--tpl", "0.0,1.0", "--horizon", "10"]


@pytest.mark.parametrize(
    "case, expect",
    [
        ("ftr --n 0", "InvalidArgument: n must be >= 1"),
        ("dar --n 0", "InvalidArgument: n must be >= 1"),
        ("dar --q 1 --n 0", "InvalidArgument: n must be >= 1, got 0"),
        ("dar --n -1", "InvalidArgument: n must be >= 1, got -1"),
        ("curve --n 0", "InvalidArgument: n must be >= 1"),
        ("curve d > 0", "InvalidArgument: taper parameter d must be <= 0"),
        ("ftr count beyond int64", "exceeds the int64 range"),
        ("dar count beyond int64", "exceeds the int64 range"),
    ],
)
def test_bad_argument_or_count_exits_2_with_one_line(
    case, expect, ftr_paths, dar_paths, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    if case.startswith("ftr"):
        if "int64" in case:
            _with_last_cell(ftr_paths[0], BEYOND_INT64)
        extra = case.split()[1:] if "--n" in case else ()
        status, out = run_ftr(ftr_paths, tmp_path, extra=extra)
    elif case.startswith("dar"):
        if "int64" in case:
            _with_last_cell(dar_paths[0], BEYOND_INT64)
        extra = case.split()[1:] if "--n" in case else ()
        status = run_dar(dar_paths[0], out, extra=extra)
    else:
        params = "1,1,0.1" if "d > 0" in case else "1,1,-0.1"
        n = "0" if "--n" in case else "5"
        status = main(CURVE_ARGS + ["--params", params, "--n", n, "--out", str(out)])
    assert status == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expect in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["ftr", "dar", "curve"])
def test_bad_n_is_rejected_before_any_input_is_read(command, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = {
        "ftr": ["ftr", "--deaths", missing, "--continents", missing]
        + ["--start", "2021-03-01", "--end", "2021-04-01"],
        "dar": ["dar", "--abundance", missing, "--q", "1"],
        "curve": ["curve", "--report", missing, "--unit", "X", "--horizon", "10"],
    }[command]
    assert main(argv + ["--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: cmd_{command}: InvalidArgument: n must be >= 1, got 0\n"
    )


def test_aggregation_overflow_exits_2_with_one_line(tmp_path, capsys):
    deaths = tmp_path / "deaths.csv"
    continents = tmp_path / "continents.csv"
    deaths.write_text(
        "Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n"
        ",A,0,0,1,6900000000000000000\n"
        ",B,0,0,2,6900000000000000000\n"
    )
    continents.write_text("country,continent\nA,K\nB,K\n")
    out = tmp_path / "x.csv"
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", "2021-03-01", "--end", "2021-03-02", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: aggregate_regions: CountOverflow: "
        "the total for 'K' exceeds the int64 range\n"
    )
    assert not out.exists()
