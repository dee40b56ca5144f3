"""Tests for asymptotes, confidence bands, and the coupled pipelines."""

import math
import re
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from tplec import (
    AccumulationCurve,
    PlecModel,
    TplFit,
    compute_asymptote,
    confidence_band,
    couple,
    coupling,
    date_to_day_index,
    day_index_to_date,
    fit_cutoff,
    fit_plec,
    parse_abundance_table,
    parse_continent_map,
    parse_jhu_deaths,
    plec_eval,
    reporting,
    resample_accumulation,
    run_dar_pipeline,
    run_ftr,
)
from tplec.errors import (
    DateOutOfRange,
    InvalidArgument,
    NoAsymptote,
    NonFiniteValue,
    NonPositiveValue,
)
from tplec.regression import PlFit

from conftest import abundance_tsv, build_saturating_table

GOLDEN = Path(__file__).parent / "golden"


class TestComputeAsymptote:
    def test_unit_case(self):
        asym = compute_asymptote(PlecModel(c=1.0, w=1.0, d=-1.0))
        assert asym.x_max == pytest.approx(1.0)
        assert asym.y_max == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rounded_diversity_parameters(self):
        # three-decimal reference parameters land within 5% of the
        # value derived from the unrounded fit
        model = PlecModel(c=math.exp(6.598), w=0.386, d=-0.0002)
        asym = compute_asymptote(model)
        assert asym.x_max == pytest.approx(1930.0, rel=1e-12)
        assert asym.y_max == pytest.approx(9414.0, rel=0.05)

    def test_rounded_fatality_parameters(self):
        asym = compute_asymptote(PlecModel(c=1504.372, w=1.323, d=-0.007))
        assert asym.x_max == pytest.approx(193.0, rel=0.025)

    def test_no_asymptote_signals(self):
        with pytest.raises(NoAsymptote):
            compute_asymptote(PlecModel(c=1.0, w=-0.5, d=-0.01))
        with pytest.raises(NoAsymptote):
            compute_asymptote(PlecModel(c=1.0, w=1.0, d=0.0))

    def test_value_consistent_with_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            model = PlecModel(
                c=10 ** rng.uniform(-1, 4),
                w=rng.uniform(0.2, 3.0),
                d=-(10 ** rng.uniform(-4, -1)),
            )
            asym = compute_asymptote(model)
            assert asym.y_max == plec_eval(model, asym.x_max)

    def test_curve_unimodal_around_maximum(self):
        model = PlecModel(c=3.0, w=1.2, d=-0.02)
        asym = compute_asymptote(model)
        left = np.linspace(asym.x_max * 0.01, asym.x_max * 0.999, 100)
        right = np.linspace(asym.x_max * 1.001, asym.x_max * 10, 100)
        lv = plec_eval(model, left)
        rv = plec_eval(model, right)
        assert np.all(np.diff(lv) > 0)
        assert np.all(np.diff(rv) < 0)
        assert lv.max() < asym.y_max and rv.max() < asym.y_max


def test_fit_cutoff_falls_back_on_singular_normal_equations():
    # x_max = 9e-300 puts the start's taper -1/(2*x_max) at -6e298: base·base
    # underflows to 0, so c and the Jacobian are not finite at any damping
    points = [(1e-300 * i, float(i)) for i in range(1, 10)]
    assert fit_cutoff(points) == (None, None, None)


class TestConfidenceBand:
    def test_zero_variance_collapses(self):
        band = confidence_band(42.0, None, 5, variance=0.0)
        assert band.lower == band.point == band.upper == 42.0

    def test_direct_arithmetic(self):
        band = confidence_band(100.0, None, 4, variance=400.0)
        assert band.lower == pytest.approx(80.4, abs=1e-12)
        assert band.upper == pytest.approx(119.6, abs=1e-12)

    def test_variance_from_scaling_law(self):
        tpl = TplFit(ln_a=0.0, b=2.0, r_squared=1.0, n_pairs=5)
        band = confidence_band(50.0, tpl, 25)
        assert band.variance == pytest.approx(2500.0, rel=1e-14)
        assert band.lower == pytest.approx(30.4, abs=1e-10)
        assert band.upper == pytest.approx(69.6, abs=1e-10)

    def test_symmetry_and_root_n_scaling(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            point = 10 ** rng.uniform(-1, 6)
            # variance commensurate with the point so half-widths can be
            # recomputed from the endpoints without cancellation
            variance = point**2 * 10 ** rng.uniform(-2, 2)
            n = int(rng.integers(1, 100))
            band = confidence_band(point, None, n, variance=variance)
            assert band.upper + band.lower == pytest.approx(
                2.0 * point, rel=1e-12
            )
            tight = confidence_band(point, None, 2 * n, variance=variance)
            ratio = (band.upper - band.point) / (tight.upper - tight.point)
            assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(NonPositiveValue):
            confidence_band(0.0, None, 4, variance=1.0)
        with pytest.raises(ValueError):
            confidence_band(1.0, None, 0, variance=1.0)
        with pytest.raises(InvalidArgument):
            confidence_band(1.0, None, 0, variance=1.0)


class TestDayIndex:
    def test_reference_dates(self):
        start = date(2021, 3, 21)
        assert day_index_to_date(start, 113) == date(2021, 7, 11)
        assert day_index_to_date(start, 1) == start
        assert day_index_to_date(start, 193) == date(2021, 9, 29)

    def test_inverse(self):
        start = date(2020, 2, 10)
        assert date_to_day_index(start, date(2021, 5, 21)) == 467
        for t in (1, 50, 467):
            assert date_to_day_index(start, day_index_to_date(start, t)) == t

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            day_index_to_date(date(2021, 3, 21), 0)

    @pytest.mark.parametrize("t", [32, 10**12], ids=["past_date_max", "past_timedelta"])
    def test_index_past_the_calendar_raises_date_out_of_range(self, t):
        start = date(9999, 12, 1)
        assert day_index_to_date(start, 31) == date.max
        with pytest.raises(DateOutOfRange, match=f"day index {t} from 9999-12-01"):
            day_index_to_date(start, t)


START = date(2021, 3, 21)


def _series_from_curve(model: PlecModel, baseline: int, days: int) -> list[int]:
    """Baseline-inclusive integer series of the curve from t = 1."""
    curve = (plec_eval(model, float(t)) for t in range(1, days + 1))
    return [baseline + int(round(y)) for y in curve]


def _tpl_pairs(a: float, b: float):
    means = np.geomspace(50.0, 5e4, 20)
    return [(float(m), a * float(m) ** b) for m in means]


class TestFtrPipeline:
    def test_completion_percentage_examples(self):
        assert f"{127983 / 182643 * 100:.1f}" == "70.1"
        assert f"{854545 / 875359 * 100:.1f}" == "97.6"

    def test_band_matches_hand_composed_chain(self):
        model = PlecModel(c=400.0, w=1.3, d=-0.015)
        series = _series_from_curve(model, baseline=20_000, days=62)
        pairs = _tpl_pairs(0.4, 1.35)
        result = couple(series, pairs, n=62, baseline=20_000, start_date=START)
        assert not result.fallback_used
        # independently compose variance prediction and band arithmetic
        point = result.band.point
        variance = math.exp(result.tpl.ln_a) * point**result.tpl.b
        half = 1.96 * math.sqrt(variance / 62)
        assert result.band.variance == pytest.approx(variance, rel=1e-9)
        assert result.band.lower == pytest.approx(point - half, rel=1e-9)
        assert result.band.upper == pytest.approx(point + half, rel=1e-9)
        # the point estimate carries the truncation baseline
        assert point == pytest.approx(
            20_000 + result.asymptote.y_max, rel=1e-12
        )

    def test_recovers_generator_asymptote(self):
        model = PlecModel(c=400.0, w=1.3, d=-0.015)
        series = _series_from_curve(model, baseline=20_000, days=62)
        result = couple(
            series, _tpl_pairs(0.4, 1.35), n=62, baseline=20_000, start_date=START
        )
        truth = compute_asymptote(model)
        assert result.asymptote.x_max == pytest.approx(truth.x_max, rel=1e-2)
        assert result.asymptote.y_max == pytest.approx(truth.y_max, rel=1e-2)
        assert result.calendar_date_of_max == day_index_to_date(
            START, int(math.floor(truth.x_max + 0.5))
        )
        observed = series[-1]
        assert result.completion_pct == pytest.approx(
            observed / (20_000 + result.asymptote.y_max) * 100.0, rel=1e-12
        )

    def test_pure_power_law_routes_to_fallback(self):
        days = 40
        series = [
            1_000 + int(round(5.0 * t**1.8 * math.exp(0.002 * t)))
            for t in range(1, days + 1)
        ]
        result = couple(
            series, _tpl_pairs(0.5, 1.2), n=40, horizons=(50, 80), baseline=1_000
        )
        assert result.fallback_used
        assert isinstance(result.model, PlFit)
        assert result.asymptote is None
        assert result.band is None
        assert len(result.horizon_bands) == 2
        t0, band0 = result.horizon_bands[0]
        assert t0 == 50
        assert band0.point == pytest.approx(
            1_000 + result.model.predict(50), rel=1e-12
        )

    def test_fallback_coefficient_beyond_exp_range_raises_non_finite(self):
        days = 40
        series = [1_000 + round(5.0 * t**1.8) for t in range(1, days + 1)]
        result = couple(series, None, baseline=1_000)
        assert result.fallback_used
        huge = replace(result, model=replace(result.model, ln_c=800.0))
        with pytest.raises(NonFiniteValue) as err:
            reporting.report_row("K", huge)
        assert str(err.value) == "c = exp(800.0) of unit 'K' is not finite: inf"

    def test_fallback_exclusivity(self):
        model = PlecModel(c=400.0, w=1.3, d=-0.015)
        series = _series_from_curve(model, baseline=0, days=62)
        ok = couple(series, _tpl_pairs(0.4, 1.35))
        assert (not ok.fallback_used) and isinstance(ok.model, PlecModel)
        assert ok.asymptote is not None and ok.band is not None
        assert ok.n == 62  # every day of the curve is a fitted point

    def test_baseline_shift_at_reporting_level(self):
        variance = 900.0
        base = confidence_band(500.0, None, 9, variance=variance)
        shifted = confidence_band(500.0 + 250.0, None, 9, variance=variance)
        assert shifted.point - base.point == pytest.approx(250.0, abs=1e-9)
        assert shifted.lower - base.lower == pytest.approx(250.0, abs=1e-9)
        assert shifted.upper - base.upper == pytest.approx(250.0, abs=1e-9)
        assert shifted.upper - shifted.point == pytest.approx(
            base.upper - base.point, abs=1e-9
        )


class TestCouple:
    def test_values_at_or_below_baseline_keep_their_day_index(self):
        model = PlecModel(c=400.0, w=1.3, d=-0.015)
        observed = [500, 480] + _series_from_curve(model, baseline=500, days=60)
        result = couple(observed, None, baseline=500)
        points = [(t, v - 500) for t, v in enumerate(observed, start=1)][2:]
        assert result.model == fit_plec(points)[0]
        assert result.n == 60
        assert result.observed_series == tuple(observed)
        assert result.tpl is None and result.band is None

    def test_integer_series_is_exact_beyond_2_53(self, monkeypatch):
        # float64 cannot tell 2**60 + 1 from 2**60: the excess must be taken in integers
        baseline = 2**60
        observed = [baseline + t for t in range(1, 31)]
        fitted = []

        def recording_fit_plec(points):
            fitted.append(np.array(points))
            return fit_plec(points)

        monkeypatch.setattr(coupling, "fit_plec", recording_fit_plec)
        pairs = _tpl_pairs(0.5, 1.2)
        from_list = couple(observed, pairs, horizons=(40,), baseline=baseline)
        from_array = couple(
            np.array(observed, dtype=np.int64), np.array(pairs), horizons=(40,),
            baseline=baseline,
        )
        assert len(fitted) == 2
        for points in fitted:
            assert points.dtype == np.float64 and points.shape == (30, 2)
            assert points[:, 0].tolist() == [float(t) for t in range(1, 31)]
            assert points[:, 1].tolist() == [float(t) for t in range(1, 31)]
        assert from_list.n == 30
        assert from_list.observed_series == tuple(observed)
        assert from_array == from_list

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observed_value_names_its_day_before_any_fit(
        self, value, monkeypatch
    ):
        def no_fit(points):
            raise AssertionError("couple fitted a series with a non-finite value")

        monkeypatch.setattr(coupling, "fit_loglog", no_fit)
        monkeypatch.setattr(coupling, "fit_plec", no_fit)
        observed = [float(5 * t**1.5) for t in range(1, 40)]
        observed[6] = value
        with pytest.raises(NonFiniteValue, match="day index 7 is not finite"):
            couple(observed, _tpl_pairs(0.5, 1.2))

    @pytest.mark.parametrize("baseline", [math.nan, math.inf, -math.inf])
    def test_non_finite_baseline_is_rejected(self, baseline):
        with pytest.raises(NonFiniteValue, match="baseline must be finite"):
            couple([float(5 * t**1.5) for t in range(1, 40)], None, baseline=baseline)

    @pytest.mark.parametrize(
        "observed, baseline, dtype",
        [
            (list(range(1, 40)), 2**63, "int64"),
            (list(range(1, 40)), -(2**63) - 1, "int64"),
            (np.arange(1, 40, dtype=np.uint64), -1, "uint64"),
        ],
        ids=["int64_above", "int64_below", "uint64_below"],
    )
    def test_integer_baseline_outside_the_series_range_is_rejected(
        self, observed, baseline, dtype
    ):
        with pytest.raises(InvalidArgument) as err:
            couple(observed, None, baseline=baseline)
        assert str(err.value).startswith(
            f"baseline {baseline} lies outside the series' integer range ({dtype}, "
        )

    @pytest.mark.parametrize(
        "observed, baseline",
        [
            (list(range(1, 40)), -(2**63)),
            (np.arange(1, 40) + 2**62, -(2**62)),
            (np.arange(1, 40) + 2**62, np.int64(-(2**62))),
        ],
        ids=["int64_min", "near_2_62", "numpy_baseline"],
    )
    def test_baseline_whose_difference_leaves_the_integer_range_is_rejected(
        self, observed, baseline
    ):
        # v - baseline would wrap in int64 and fail later as a log of a
        # nonpositive value, naming neither the baseline nor the overflow
        with pytest.raises(InvalidArgument) as err:
            couple(observed, None, baseline=baseline)
        assert str(err.value) == (
            f"baseline {baseline} is so far below the series that its largest "
            "difference exceeds the int64 maximum 9223372036854775807"
        )

    def test_baseline_whose_largest_difference_is_the_integer_maximum_is_kept(self):
        top = 2**63 - 1
        result = couple(list(range(1, 40)), None, baseline=39 - top)
        assert result.fallback_used
        assert result.baseline == float(39 - top)

    def test_observed_must_be_one_series(self):
        with pytest.raises(InvalidArgument, match="1-d series"):
            couple([[1, 2, 3, 4, 5]], None)

    def test_fallback_without_pairs_has_no_bands(self):
        observed = [
            1_000 + int(round(5.0 * t**1.8 * math.exp(0.002 * t))) for t in range(1, 41)
        ]
        result = couple(observed, None, horizons=(50, 80), baseline=1_000)
        assert result.fallback_used
        assert result.tpl is None and result.horizon_bands == ()


def _curve_from_model(model: PlecModel, steps: int, replicates=100, seed=0):
    k = np.arange(1, steps + 1, dtype=float)
    mean = plec_eval(model, k)
    variance = 0.3 * mean**1.4
    variance[-1] = 0.0  # full pool is permutation invariant
    return AccumulationCurve(
        mean_diversity=mean,
        variance_diversity=variance,
        replicates=replicates,
        q=0.0,
        seed=seed,
    )


class TestDarPipeline:
    def test_recovers_generator_asymptote(self):
        model = PlecModel(c=math.exp(6.598), w=0.386, d=-0.0002)
        curve = _curve_from_model(model, steps=1473)
        result = run_dar_pipeline(curve)
        truth = compute_asymptote(model)
        assert not result.fallback_used
        assert result.asymptote.x_max == pytest.approx(truth.x_max, rel=1e-4)
        assert result.asymptote.y_max == pytest.approx(truth.y_max, rel=1e-4)
        assert result.baseline == 0.0
        assert result.calendar_date_of_max is None
        assert result.n == 1473

    def test_band_width_scales_with_root_n(self):
        model = PlecModel(c=50.0, w=0.5, d=-0.001)
        curve = _curve_from_model(model, steps=400)
        r1 = run_dar_pipeline(curve, n=400)
        r2 = run_dar_pipeline(curve, n=800)
        h1 = r1.band.upper - r1.band.point
        h2 = r2.band.upper - r2.band.point
        assert h1 / h2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_final_zero_variance_step_excluded_from_scaling_fit(self):
        model = PlecModel(c=50.0, w=0.5, d=-0.001)
        curve = _curve_from_model(model, steps=300)
        result = run_dar_pipeline(curve)
        assert result.tpl.n_pairs == 299

    def test_nonzero_order_fits_without_scaling_law(self):
        model = PlecModel(c=50.0, w=0.5, d=-0.001)
        # no usable variance-mean pair: only q = 0 would need one
        curve = replace(
            _curve_from_model(model, steps=300), q=1.0, variance_diversity=np.zeros(300)
        )
        result = run_dar_pipeline(curve)
        assert result.tpl is None and result.band is None
        assert not result.fallback_used
        assert result.asymptote.y_max == pytest.approx(
            compute_asymptote(model).y_max, rel=1e-6
        )
        assert result.n == 300


def test_run_ftr_reproduces_the_golden_report(ftr_fixture):
    # the library call alone, emitted as the CLI emits it, gives the CLI's bytes
    start, end = ftr_fixture["start"], ftr_fixture["end"]
    horizon_dates = [end + timedelta(days=k) for k in (30, 60, 90)]
    horizons = [date_to_day_index(start, d) for d in horizon_dates]
    units = run_ftr(
        parse_jhu_deaths(ftr_fixture["deaths_csv"]),
        parse_continent_map(ftr_fixture["continents_csv"]),
        start,
        end,
        horizons=horizons,
    )
    payloads = [reporting.unit_payload(unit, result) for unit, result in units]
    document = reporting.to_json({"command": "ftr", "units": payloads})
    assert document.encode("utf-8") == (GOLDEN / "ftr.json").read_bytes()


def test_readme_python_blocks_run(ftr_fixture, tmp_path, monkeypatch, capsys):
    # every python block of the README runs as written, in a directory
    # holding the fixture's deaths.csv and continents.csv
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    (tmp_path / "deaths.csv").write_text(ftr_fixture["deaths_csv"])
    (tmp_path / "continents.csv").write_text(ftr_fixture["continents_csv"])
    monkeypatch.chdir(tmp_path)
    printed = []
    for block in blocks:
        exec(block, {})
        printed.append(capsys.readouterr().out.splitlines())
    units = run_ftr(
        parse_jhu_deaths(ftr_fixture["deaths_csv"]),
        parse_continent_map(ftr_fixture["continents_csv"]),
        ftr_fixture["start"],
        ftr_fixture["end"],
    )
    rows = [str(reporting.report_row(unit, result)) for unit, result in units]
    assert len(rows) == 4
    assert printed == [["False 62 True"], rows]


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_run_dar_pipeline_reproduces_the_golden_report(q):
    # the observed series the result carries is the one the CLI emits
    table = parse_abundance_table(abundance_tsv(build_saturating_table()[0]))
    curve = resample_accumulation(table, 60, q, 11)
    result = run_dar_pipeline(curve)
    header = {"command": "dar", "q": q, "replicates": 60, "seed": 11}
    units = [reporting.unit_payload("community", result)]
    document = reporting.to_json({**header, "units": units})
    golden = GOLDEN / f"dar_q{q:.0f}.json"
    assert document.encode("utf-8") == golden.read_bytes()
