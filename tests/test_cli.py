"""End-to-end tests of the command-line surface on synthetic fixtures."""

import json
import math

import pytest

from tplec.cli import main
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
