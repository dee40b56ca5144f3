"""End-to-end tests of the command-line surface on synthetic fixtures."""

import csv
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import tplec
from tplec import (
    AccumulationCurve,
    cli,
    date_to_day_index,
    fit_pl_growth,
    parse_continent_map,
    parse_jhu_deaths,
)
from tplec.cli import main
from tplec.coupling import _VM_BLOCK, _vm_pairs_for_unit
from tplec.coupling import run_ftr as run_ftr_units
from tplec.reporting import (
    CURVE_COLUMNS,
    FALLBACK_COLUMNS,
    REPORT_COLUMNS,
    curve_rows,
    rows_to_dsv,
)

from conftest import (
    abundance_tsv,
    build_deaths_csv,
    build_saturating_table,
    fail_in_helpers,
    set_workers,
)

GOLDEN = Path(__file__).parent / "golden"


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

    def test_horizon_dates_are_the_fallback_rows_dates(self, ftr_paths, tmp_path):
        end = ftr_paths[2]["end"]
        horizons = [end + timedelta(days=10), end + timedelta(days=45)]
        extra = ("--horizon", ",".join(d.isoformat() for d in horizons))
        status, out = run_ftr(ftr_paths, tmp_path, extra=extra)
        assert status == 0
        _, rows = read_rows(out.with_name("report_fallback.csv"))
        dates = [r["horizon_date"] for r in rows if r["unit"] == "Gammia"]
        assert dates == [d.isoformat() for d in horizons]

    @pytest.mark.parametrize(
        "fmt, unused",
        [
            ("dsv", ["unit_payload", "to_json"]),
            ("obj", ["report_row", "fallback_rows"]),
        ],
        ids=["dsv", "obj"],
    )
    def test_a_run_builds_only_the_records_its_format_writes(
        self, ftr_paths, tmp_path, monkeypatch, fmt, unused
    ):
        cli._bind_library()

        def unused_call(*args):
            raise AssertionError("a record the format does not write was built")

        for name in unused:
            monkeypatch.setattr(cli.reporting, name, unused_call)
        status, out = run_ftr(ftr_paths, tmp_path, fmt=fmt)
        assert status == 0
        written = sorted(path.name for path in tmp_path.glob("report*"))
        if fmt == "dsv":
            assert written == ["report.csv", "report_fallback.csv"]
        else:
            assert written == ["report.json"]

    def test_a_run_with_no_fallback_unit_removes_an_earlier_fallback_file(
        self, ftr_paths, tmp_path
    ):
        status, out = run_ftr(ftr_paths, tmp_path)
        assert status == 0
        assert out.with_name("report_fallback.csv").exists()
        deaths, continents, _ = ftr_paths
        for path in (deaths, continents):
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(line for line in lines if "Gammia" not in line))
        status, out = run_ftr(ftr_paths, tmp_path)
        assert status == 0
        _, rows = read_rows(out)
        assert [r["unit"] for r in rows] == ["Alphia", "Betia", "World"]
        assert not any(r["fallback_used"] == "true" for r in rows)
        assert sorted(p.name for p in tmp_path.glob("report*")) == ["report.csv"]

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

    def test_obj_report_rejects_horizon(self, tmp_path, capsys):
        # an obj report has no curve for --horizon to shape; no file is read
        out = tmp_path / "d.json"
        extra = ("--format", "obj", "--horizon", "5")
        assert run_dar(tmp_path / "missing.tsv", out, extra=extra) == 2
        assert capsys.readouterr().err == (
            "error: cmd_dar: --horizon cannot be used with --format obj\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_obj_report_has_the_ftr_unit_schema(self, dar_paths, tmp_path, q):
        path, _ = dar_paths
        out = tmp_path / "d.json"
        assert run_dar(path, out, extra=("--q", q, "--format", "obj")) == 0
        document = json.loads(out.read_text())
        assert list(document) == ["command", "q", "replicates", "seed", "units"]
        assert document["command"] == "dar" and document["q"] == float(q)
        assert (document["replicates"], document["seed"]) == (60, 11)
        [unit] = document["units"]
        assert unit["unit"] == "community"
        assert type(unit["observed_latest"]) is float
        assert unit["observed_latest"] == unit["observed_series"][-1]
        assert len(unit["observed_series"]) == unit["n"]
        if q == "0":
            assert unit["tpl"]["n_pairs"] > 2
            assert unit["band"]["point"] == unit["asymptote"]["y_max"]
        else:
            assert unit["tpl"] is None
            assert "band" not in unit and "asymptote" in unit

    def test_fallback_r_squared_is_the_power_law_fit_at_every_q(
        self, dar_paths, tmp_path, monkeypatch
    ):
        # convex and noisy: the cutoff fit pins its taper, the power law takes over
        k = np.arange(1, 121)
        noise = 1 + 0.01 * np.random.default_rng(3).standard_normal(k.size)
        mean = 5.0 * k**0.8 * np.exp(0.004 * k) * noise
        variance = 0.3 * mean**1.4
        variance[-1] = 0.0

        def convex_curve(table, replicates, q, seed):
            return AccumulationCurve(mean, variance, replicates, q, seed)

        monkeypatch.setattr(cli, "resample_accumulation", convex_curve)
        points = [(int(t), float(m)) for t, m in zip(k, mean)]
        expected = fit_pl_growth(points).r ** 2
        r_squared = {}
        for q in ("0", "1"):
            out = tmp_path / f"q{q}.csv"
            assert run_dar(dar_paths[0], out, extra=("--q", q)) == 0
            _, [row] = read_rows(out)
            assert row["fallback_used"] == "true"
            r_squared[q] = float(row["r_squared"])
        assert r_squared["1"] == expected
        assert r_squared["1"] == r_squared["0"]


def _without_unit_field(name):
    def spoil(document):
        del document["units"][0][name]
        return json.dumps(document)

    return spoil


def _with_unit_field(name, value, record=None):
    def spoil(document):
        unit = document["units"][0]
        (unit if record is None else unit[record])[name] = value
        return json.dumps(document)

    return spoil


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

    def test_every_ftr_unit_draws_the_same_curve_from_its_report(
        self, ftr_paths, tmp_path
    ):
        # Gammia falls back, so a "pl" model record is read back too
        status, report = run_ftr(ftr_paths, tmp_path, fmt="obj")
        assert status == 0
        deaths, continents, fixture = ftr_paths
        table = parse_jhu_deaths(deaths.read_text())
        continent_map = parse_continent_map(continents.read_text())
        results = list(
            run_ftr_units(table, continent_map, fixture["start"], fixture["end"])
        )
        assert [unit for unit, _ in results] == ["Alphia", "Betia", "Gammia", "World"]
        for unit, result in results:
            out = tmp_path / f"{unit}.csv"
            argv = ["curve", "--report", str(report), "--unit", unit]
            assert main(argv + ["--horizon", "120", "--out", str(out)]) == 0
            expected = rows_to_dsv(CURVE_COLUMNS, curve_rows(result, 120))
            assert out.read_bytes() == expected.encode("utf-8")

    def test_readme_params_example_runs(self, tmp_path):
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        i = next(i for i, s in enumerate(lines) if s.startswith("tplec curve --params"))
        command = lines[i]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        argv = shlex.split(command)
        assert argv[:2] == ["tplec", "curve"]
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert main(argv[1:]) == 0
        assert len(Path(argv[out]).read_text().splitlines()) == 1 + 200

    @pytest.mark.parametrize("q", ["0", "1"])
    def test_reads_a_dar_report(self, dar_paths, tmp_path, q):
        report = tmp_path / "d.json"
        assert run_dar(dar_paths[0], report, extra=("--q", q, "--format", "obj")) == 0
        assert run_dar(dar_paths[0], tmp_path / "d.csv", extra=("--q", q)) == 0
        out = tmp_path / "c.csv"
        argv = ["curve", "--report", str(report), "--unit", "community"]
        assert main(argv + ["--horizon", "120", "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "d_curve.csv").read_bytes()

    @pytest.mark.parametrize(
        "spoil, expect",
        [
            (lambda doc: "{not json", "is not JSON"),
            (lambda doc: json.dumps({"command": "dar"}), "has no 'units' list"),
            (lambda doc: json.dumps([doc]), "has no 'units' list"),
            (_without_unit_field("model"), "lacks 'model'"),
            (_without_unit_field("tpl"), "lacks 'tpl'"),
            (_without_unit_field("n"), "lacks 'n'"),
            (_with_unit_field("n", "12"), "has n = '12'"),
            (_with_unit_field("model", ["plec"]), "is malformed"),
            (_with_unit_field("observed_series", 5), "is malformed"),
            (_with_unit_field("observed_series", "abc"), "is malformed"),
            (_with_unit_field("observed_series", [1.0, math.nan]), "is malformed"),
            (_with_unit_field("baseline", math.nan), "baseline = nan is not a"),
            (_with_unit_field("w", math.nan, "model"), "w = nan is not a"),
            (_with_unit_field("w", "0.5", "model"), "w = '0.5' is not a"),
            (_with_unit_field("b", math.inf, "tpl"), "b = inf is not a"),
            (_with_unit_field("kind", "PL", "model"), "kind 'PL' is neither"),
            (_with_unit_field("c", -1, "model"), "is malformed: scale c must be > 0"),
        ],
        ids=[
            "not_json", "no_units", "top_level_list", "no_model", "no_tpl",
            "no_n", "n_text", "model_list", "series_number", "series_text",
            "series_nan", "baseline_nan", "w_nan", "w_text", "b_inf",
            "kind_unknown", "c_nonpositive",
        ],
    )  # fmt: skip
    def test_malformed_report_exits_2_with_one_line(
        self, dar_paths, tmp_path, capsys, spoil, expect
    ):
        report = tmp_path / "d.json"
        assert run_dar(dar_paths[0], report, extra=("--format", "obj")) == 0
        report.write_text(spoil(json.loads(report.read_text())))
        out = tmp_path / "c.csv"
        argv = ["curve", "--report", str(report), "--unit", "community"]
        assert main(argv + ["--horizon", "10", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cmd_curve: ")
        assert expect in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, expect",
        [
            ("--n 3", "--n cannot be used with --report"),
            ("--baseline 5", "--baseline cannot be used with --report"),
            ("--baseline 0", "--baseline cannot be used with --report"),
            ("--start 2020-01-01", "--start cannot be used with --report"),
            ("--tpl 1,2", "--tpl cannot be used with --report"),
            ("", "--unit is required with --report"),
            (
                "--params 5,1,-0.01 --tpl 0,1 --n 25 --unit Nowhere",
                "--unit cannot be used with --params",
            ),
        ],
        ids=["n", "baseline", "baseline_zero", "start", "tpl", "no_unit", "params_unit"],
    )
    def test_report_rejects_flags_it_would_ignore(
        self, tmp_path, capsys, extra, expect
    ):
        out = tmp_path / "c.csv"
        argv = ["curve", "--horizon", "3", *extra.split()]
        if "--params" not in argv:
            argv += ["--report", str(GOLDEN / "ftr.json")]
            argv += ["--unit", "Alphia"] if extra else []
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cmd_curve: {expect}\n"
        assert not out.exists()


def test_replicates_beyond_memory_exit_2_with_one_line(dar_paths, tmp_path, capsys):
    # the permutation array alone would need about 850 PiB, so its
    # allocation fails at once, before anything is allocated
    out = tmp_path / "o.csv"
    argv = ["dar", "--abundance", str(dar_paths[0]), "--replicates", str(10**15)]
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dar: MemoryError: ")
    assert not out.exists()


def test_helper_thread_memory_error_exits_2_with_one_line(
    dar_paths, tmp_path, capsys, monkeypatch
):
    set_workers(monkeypatch, 2)
    fail_in_helpers(monkeypatch)
    out = tmp_path / "o.csv"
    argv = ["dar", "--abundance", str(dar_paths[0]), "--replicates", "4"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: dar: MemoryError: helper ran out\n"
    assert not out.exists()


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_no_scipy():
    # scipy.special alone took about 0.3 s of every cold start
    _run_python(
        "import tplec.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )


def _modules_imported(args, cwd):
    """Exit status, imported modules and other stderr lines of ``python ARGS``.

    ``-X importtime`` prints one line for every module the run imports.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, cwd=cwd, capture_output=True, text=True,
    )  # fmt: skip
    imported, other = set(), []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:"):
            other.append(line)
        elif "self [us]" not in line:
            imported.add(line.rsplit("|", 1)[1].strip())
    return done.returncode, imported, other


@pytest.mark.parametrize(
    "args, status, err",
    [
        (["-c", "import tplec"], 0, []),
        (["-c", "import tplec.cli"], 0, []),
        (["-m", "tplec", "--help"], 0, []),
        (
            ["-m", "tplec", "dar", "--abundance", "missing.tsv", "--replicates", "1"]
            + ["--out", "report.csv"],
            2,
            ["error: cmd_dar: --replicates must be at least 2"],
        ),
    ],
    ids=["import_tplec", "import_cli", "help", "argument_error"],
)
def test_help_and_argument_errors_load_no_numpy(args, status, err, tmp_path):
    # numpy and the library took about 50 of the 81 ms that importing the CLI took
    returncode, imported, other = _modules_imported(args, tmp_path)
    assert (returncode, other) == (status, err)
    assert "numpy" not in imported
    assert {m for m in imported if m.split(".")[0] == "tplec"} <= {
        "tplec", "tplec.cli", "tplec.errors", "tplec.__main__"
    }  # fmt: skip


def test_package_exports_resolve_to_their_defining_modules():
    star = {}
    exec("from tplec import *", star)
    for name in tplec.__all__:
        value = getattr(tplec, name)
        assert star[name] is value
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(tplec.__all__) <= set(dir(tplec))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tplec.no_such_name
    from tplec import reporting

    assert reporting is importlib.import_module("tplec.reporting")


def test_outside_tracer_wraps_the_cli_before_the_first_call():
    # perfbench/tracing.py patches names on tplec.cli right after the
    # import, before any command has bound them
    perfbench = str(Path(__file__).parents[1] / "perfbench")
    not_on_the_cli = [
        "aggregate_regions", "truncate_series", "_collapse_by_country",
        "_vm_pairs_for_unit", "run_ftr_pipeline", "fit_cutoff", "fit_pl_growth",
    ]  # fmt: skip
    _run_python(
        textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {perfbench!r})
            import tplec.cli as cli, tracing
            missing = tracing.Tracer().missing
            assert missing == ["tplec.cli." + n for n in {not_on_the_cli!r}], missing
            for module, name, *_ in tracing.PATCHES:
                if module == "tplec.cli" and name not in {not_on_the_cli!r}:
                    assert getattr(cli, name).__module__.startswith("tplec."), name
            assert getattr(cli, "fit_cutoff", None) is None
            """
        )
    )


def test_a_value_set_on_the_cli_first_is_the_one_the_command_calls(
    ftr_paths, tmp_path
):
    deaths, continents, fixture = ftr_paths
    start, end = fixture["start"].isoformat(), fixture["end"].isoformat()
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", start, "--end", end, "--out", str(tmp_path / "r.csv")]
    _run_python(
        textwrap.dedent(
            f"""
            import tplec.cli as cli
            calls = []
            def spy(data):
                from tplec.ingest import parse_jhu_deaths
                calls.append(len(data))
                return parse_jhu_deaths(data)
            cli.parse_jhu_deaths = spy
            assert cli.main({argv!r}) == 0
            assert len(calls) == 1 and cli.parse_jhu_deaths is spy
            """
        )
    )


def test_ftr_run_loads_no_strptime(ftr_paths, tmp_path):
    # the first strptime call imports _strptime, locale and calendar: 3.5 ms
    deaths, continents, fixture = ftr_paths
    start, end = fixture["start"].isoformat(), fixture["end"].isoformat()
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", start, "--end", end, "--out", str(tmp_path / "r.csv")]
    _run_python(
        f"import sys; from tplec.cli import main; assert main({argv!r}) == 0; "
        "assert '_strptime' not in sys.modules, 'strptime ran'"
    )


def test_dsv_cells_holding_a_comma_are_quoted(ftr_paths, dar_paths, tmp_path):
    _, continents, _ = ftr_paths
    continents.write_text(
        continents.read_text().replace(",Gammia\n", ',"Gammia, Far"\n')
    )
    status, out = run_ftr(ftr_paths, tmp_path)
    assert status == 0
    assert run_dar(dar_paths[0].rename(tmp_path / "a,b.tsv"), tmp_path / "d.csv") == 0
    for path, unit in [
        (out, "Gammia, Far"),
        (out.with_name("report_fallback.csv"), "Gammia, Far"),
        (tmp_path / "d.csv", "a,b"),
    ]:
        header, *rows = csv.reader(path.read_text().splitlines())
        assert all(len(row) == len(header) for row in rows)
        assert unit in [row[0] for row in rows]


def test_dsv_cell_holding_a_bare_cr_is_quoted(dar_paths, tmp_path):
    table = dar_paths[0].rename(tmp_path / "a\rb.tsv")
    assert run_dar(table, tmp_path / "d.csv") == 0
    with open(tmp_path / "d.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [13, 13]
    assert rows[1][0] == "a\rb"


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
        got = _vm_pairs_for_unit(members[:, lo : hi + 1])
        want = np.array(_per_column_vm_pairs(members, lo, hi)).reshape(-1, 2)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # the same to the last bit
        if n_members == 1:
            assert got.shape == (0, 2)


@pytest.mark.parametrize("n_members", [1, 2, 3, 8193])
def test_blocked_vm_pairs_equal_each_day_alone(n_members):
    """Each block of days gives the pairs of each day's column alone, to the
    last bit, for a day count that is not a multiple of the block."""
    step = max(1, _VM_BLOCK // n_members)
    days = 2 * step + 3 if step > 1 else 5
    rng = np.random.default_rng(n_members)
    members = rng.integers(0, 10**9, (n_members, days))
    if n_members > 1:
        members[:, 1] = 0  # a day with zero mean is dropped
        members[:, 2] = 7  # and one with zero variance
    got = _vm_pairs_for_unit(members)
    want = np.array(_per_column_vm_pairs(members, 0, days - 1)).reshape(-1, 2)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert len(want) == (days - 2 if n_members > 1 else 0)


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


@pytest.mark.parametrize("q", ["0", "1", "2"])
@pytest.mark.parametrize("excess", [0, 1], ids=["int64_max", "one_more"])
def test_dar_count_total_at_the_int64_boundary(excess, q, tmp_path, capsys, recwarn):
    rows = [[1, 2], [3, 1], [2, 2], [1, 4], [5, 1]]
    rows.append([2**63 - 1 - sum(map(sum, rows)) + excess, 0])
    path = tmp_path / "big.tsv"
    path.write_text(
        "sample_id\ta\tb\n" + "".join(f"s{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(rows))
    )
    out = tmp_path / "big.csv"
    status = run_dar(path, out, extra=["--q", q])
    err = capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    if excess:
        assert status == 2 and not out.exists()
        assert err == (
            "error: parse_abundance_table: CountOverflow: "
            "the total of all counts exceeds the int64 range\n"
        )
    else:  # six samples give too few variance-mean pairs at q = 0
        assert "CountOverflow" not in err
        assert status == (2 if q == "0" else 0)


BAD_N = "InvalidArgument: n must be >= 1, got 0"


@pytest.mark.parametrize(
    "command, extra, expect",
    [
        ("ftr", "--n 0", BAD_N),
        ("dar", "--n 0", BAD_N),
        ("curve", "--n 0", BAD_N),
        ("ftr", "--end 2021-03-01", "--start must precede --end"),
        ("ftr", "--horizon 2021-02-28", "horizon dates must not precede --start"),
        ("dar", "--horizon 0", "InvalidArgument: horizon must be >= 1, got 0"),
        ("dar", "--horizon -3", "InvalidArgument: horizon must be >= 1, got -3"),
        ("curve", "--horizon 0", "InvalidArgument: horizon must be >= 1, got 0"),
        ("curve", "--horizon -4", "InvalidArgument: horizon must be >= 1, got -4"),
    ],
    ids=[
        "ftr", "dar", "curve", "ftr_end_at_start", "ftr_horizon_before_start",
        "dar_horizon_zero", "dar_horizon_negative", "curve_horizon_zero",
        "curve_horizon_negative",
    ],
)  # fmt: skip
def test_bad_n_is_rejected_before_any_input_is_read(
    command, extra, expect, tmp_path, capsys
):
    # every condition on the arguments alone is checked before a file is read
    missing = str(tmp_path / "missing")
    argv = {
        "ftr": ["ftr", "--deaths", missing, "--continents", missing]
        + ["--start", "2021-03-01", "--end", "2021-04-01"],
        "dar": ["dar", "--abundance", missing, "--q", "1"],
        "curve": ["curve", "--report", missing, "--unit", "X", "--horizon", "10"],
    }[command]
    assert main(argv + extra.split() + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: cmd_{command}: {expect}\n"


def test_header_only_deaths_file_writes_a_header_only_report(tmp_path, capsys):
    deaths = tmp_path / "deaths.csv"
    continents = tmp_path / "continents.csv"
    deaths.write_text("Province/State,Country/Region,Lat,Long,3/1/21,3/2/21\n")
    continents.write_text("country,continent\n")
    out = tmp_path / "x.csv"
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", "2021-03-01", "--end", "2021-03-02", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines() == [",".join(REPORT_COLUMNS)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "continents.csv", "deaths.csv", "x.csv",
    ]  # fmt: skip


def test_single_country_continent_fails_fast_naming_it(ftr_paths, tmp_path, capsys):
    # one member country gives no cross-country variance, so no scaling law
    deaths, continents, _ = ftr_paths
    n_days = len(deaths.read_text().splitlines()[0].split(",")) - 4
    with deaths.open("a") as f:
        f.write(",Solo-A,,," + ",".join(str(10 * t) for t in range(n_days)) + "\n")
    with continents.open("a") as f:
        f.write("Solo-A,Solo\n")
    status, out = run_ftr(ftr_paths, tmp_path)
    assert status == 2
    assert capsys.readouterr().err == (
        "error: couple: Solo: TooFewPoints: "
        "need at least 3 variance-mean pairs, got 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("q, expect", [("0", "3 variance-mean pairs"), ("1", "4 points")])
def test_dar_fit_failure_exits_2_with_one_line(tmp_path, capsys, q, expect):
    # three samples: too few steps for the cutoff fit or the scaling law
    table = tmp_path / "tiny.tsv"
    table.write_text("sample_id\tt1\tt2\ns1\t1\t0\ns2\t2\t3\ns3\t0\t4\n")
    out = tmp_path / "x.csv"
    assert run_dar(table, out, extra=("--q", q)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        f"error: run_dar_pipeline: TooFewPoints: need at least {expect}, got "
    )
    assert not out.exists()


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


@pytest.mark.filterwarnings("ignore:cumulative counts")
def test_fallback_coefficient_overflow_exits_2_with_one_line(tmp_path, capsys):
    # a total of 0 for 600 days and then a steep fall: the unit falls back to
    # a power law whose intercept ln_c, about 34068, is beyond exp's range
    start = date(2020, 1, 22)
    rows = {"A": [0] * 600 + [10**15, 10**9, 1000, 5, 1]}
    rows |= {"B": [0] * 605, "C": [0] * 605}
    deaths = tmp_path / "deaths.csv"
    continents = tmp_path / "continents.csv"
    deaths.write_text(build_deaths_csv(start, rows))
    continents.write_text("country,continent\nA,K\nB,K\nC,K\n")
    out = tmp_path / "r.csv"
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", "2020-01-22", "--end", "2021-09-17"]
    argv += ["--horizon", str(start + timedelta(days=608)), "--out", str(out)]
    assert main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ftr: NonFiniteValue: c = exp(34068.")
    assert line.endswith(") of unit 'K' is not finite: inf")
    assert sorted(tmp_path.iterdir()) == [continents, deaths]  # no report


def test_continent_named_world_exits_2_with_one_line(ftr_paths, tmp_path, capsys):
    _, continents, _ = ftr_paths
    continents.write_text(continents.read_text().replace(",Gammia", ",World"))
    status, out = run_ftr(ftr_paths, tmp_path)
    assert status == 2
    assert capsys.readouterr().err == (
        "error: aggregate_regions: ReservedRegion: continent 'World' "
        "(country 'Gammia-A') is reserved for the total of all continents\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "source, cell, stage",
    [
        (0, '"{}"', "parse_jhu_deaths"),  # a quoted country: csv reads the row
        (1, "{}", "parse_continent_map"),  # csv reads every row of the map
    ],
    ids=["quoted_country", "continent_map_cell"],
)
def test_csv_field_over_the_limit_exits_2_with_one_line(
    source, cell, stage, ftr_paths, tmp_path, capsys
):
    path = ftr_paths[source]
    path.write_text(
        path.read_text().replace("Alphia-B,", cell.format("X" * 200_000) + ",", 1)
    )
    status, out = run_ftr(ftr_paths, tmp_path)
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {stage}: MalformedCsv: row 3: field larger than field limit (131072)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, stage",
    [
        ("ftr_deaths", "parse_jhu_deaths"),
        ("ftr_continents", "parse_continent_map"),
        ("dar", "parse_abundance_table"),
        ("curve", "cmd_curve"),
    ],
)
def test_input_that_is_not_utf8_exits_2_with_one_line(
    command, stage, ftr_paths, dar_paths, tmp_path, capsys
):
    deaths, continents, _ = ftr_paths
    report = tmp_path / "report.json"
    report.write_bytes((GOLDEN / "ftr.json").read_bytes())
    path = {
        "ftr_deaths": deaths,
        "ftr_continents": continents,
        "dar": dar_paths[0],
        "curve": report,
    }[command]
    data = path.read_bytes()
    offset = data.index(b"\n") + 3  # a Latin-1 byte in the second line
    path.write_bytes(data[:offset] + b"\xe9" + data[offset:])
    out = tmp_path / "out.csv"
    if command.startswith("ftr"):
        status, out = run_ftr(ftr_paths, tmp_path)
    elif command == "dar":
        status = run_dar(path, out)
    else:
        argv = ["curve", "--report", str(report), "--unit", "Alphia"]
        status = main(argv + ["--horizon", "3", "--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err == (
        f"error: {stage}: NotUtf8: byte {offset} is not UTF-8: "
        "invalid continuation byte\n"
    )
    assert not out.exists()


def test_repeated_country_in_continent_map_exits_2_with_one_line(
    ftr_paths, tmp_path, capsys
):
    _, continents, _ = ftr_paths
    lines = continents.read_text().splitlines()
    country = lines[1].split(",")[0]
    continents.write_text("\n".join(lines + [f"{country},Elsewhere"]) + "\n")
    status, out = run_ftr(ftr_paths, tmp_path)
    assert status == 2
    assert capsys.readouterr().err == (
        "error: parse_continent_map: DuplicateCountry: "
        f"country {country!r} appears on rows 2 and {len(lines) + 1}\n"
    )
    assert not out.exists()


def test_turning_point_past_the_calendar_leaves_its_date_blank(tmp_path, capsys):
    # a taper of -1e-7 puts the maximum about 1.5e7 days (41,000 years) out
    start = date(2021, 3, 21)
    total = [50000 * t**1.5 * math.exp(-1e-7 * t) for t in range(1, 121)]
    rows = {"A": [round(0.6 * v) for v in total], "B": [round(0.4 * v) for v in total]}
    deaths = tmp_path / "deaths.csv"
    continents = tmp_path / "continents.csv"
    deaths.write_text(build_deaths_csv(start, rows))
    continents.write_text("country,continent\nA,K\nB,K\n")
    argv = ["ftr", "--deaths", str(deaths), "--continents", str(continents)]
    argv += ["--start", "2021-03-21", "--end", "2021-07-18"]
    csv, obj = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(argv + ["--out", str(csv)]) == 0
    assert main(argv + ["--format", "obj", "--out", str(obj)]) == 0
    assert capsys.readouterr().err == ""
    _, report = read_rows(csv)
    assert [row["unit"] for row in report] == ["K", "World"]
    for row in report:
        assert float(row["t_max"]) > date_to_day_index(start, date.max)
        assert row["date_max"] == ""
        assert float(row["lower_95"]) < float(row["f_max"]) < float(row["upper_95"])
    for unit in json.loads(obj.read_text())["units"]:
        assert unit["asymptote"]["date_of_max"] is None
        assert unit["band"]["point"] > unit["observed_latest"]


@pytest.mark.parametrize(
    "extra, expect",
    [
        ("--params 5,nan,-0.01 --tpl 0,1", "bad --params/--tpl: --params = nan"),
        ("--params 5,1,-inf --tpl 0,1", "bad --params/--tpl: --params = -inf"),
        ("--params 5,1,-0.01 --tpl inf,1", "bad --params/--tpl: --tpl = inf"),
        (
            "--params 5,1,-0.01 --tpl 0,1 --baseline nan",
            "InvalidArgument: --baseline = nan",
        ),
    ],
    ids=["w_nan", "d_minus_inf", "ln_a_inf", "baseline_nan"],
)
def test_curve_params_reject_non_finite_numbers(extra, expect, tmp_path, capsys):
    out = tmp_path / "c.csv"
    argv = ["curve", *extra.split(), "--n", "5", "--horizon", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cmd_curve: {expect} is not a finite number\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "params, expect",
    [
        (
            "5,1,-0.01 --tpl 1000,1",
            "the variance at mean 4.95024916874584 is not finite: inf",
        ),
        ("1e300,50,-1e-12 --tpl 0,1", "the cutoff curve at x = 2 is not finite: inf"),
    ],
    ids=["variance", "prediction"],
)
def test_curve_overflow_exits_2_with_one_line(params, expect, tmp_path, capsys):
    out = tmp_path / "c.csv"
    argv = ["curve", "--params", *params.split(), "--n", "5", "--horizon", "3"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cmd_curve: NonFiniteValue: {expect}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expect",
    [
        (
            ["ftr", "--end", "9999-12-31"],
            "error: truncate_series: DateOutOfRange: end date 9999-12-31 is outside "
            "2021-03-21..2021-05-21\n",
        ),
        (
            CURVE_ARGS + ["--params", "5,1,-0.01", "--n", "5"]
            + ["--start", "9999-12-01", "--horizon", "100"],
            "error: cmd_curve: DateOutOfRange: day index 32 from 9999-12-01 "
            "is past 9999-12-31\n",
        ),
    ],
    ids=["ftr_end_at_calendar_end", "curve_past_calendar_end"],
)  # fmt: skip
def test_date_past_the_calendar_exits_2_with_one_line(
    argv, expect, ftr_paths, tmp_path, capsys
):
    if argv[0] == "ftr":
        status, out = run_ftr(ftr_paths, tmp_path, extra=argv[1:])
    else:
        out = tmp_path / "c.csv"
        status = main(argv + ["--out", str(out)])
    assert status == 2
    assert capsys.readouterr().err == expect
    assert not out.exists()
