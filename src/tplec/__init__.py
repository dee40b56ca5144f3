"""Coupled power-law estimation.

Fits Taylor's power law (variance against mean on log-log scale) and
power-law-with-exponential-cutoff growth curves, computes the cutoff
curve's maximal accrual value and where it occurs, and couples the two
fits so the asymptote prediction carries a 95% confidence band.
"""

from .coupling import (
    AsymptotePrediction,
    ConfidenceBand,
    CoupledPrediction,
    compute_asymptote,
    confidence_band,
    couple,
    date_to_day_index,
    day_index_to_date,
    fit_cutoff,
    run_dar_pipeline,
    run_ftr,
)
from .diversity import (
    AbundanceTable,
    AccumulationCurve,
    accumulate,
    hill_number,
    resample_accumulation,
)
from .ingest import (
    DeathsTable,
    aggregate_regions,
    parse_abundance_table,
    parse_continent_map,
    parse_jhu_deaths,
    serialize_abundance_table,
    serialize_jhu_deaths,
    truncate_series,
)
from .plec import (
    FitDiagnostics,
    PlecModel,
    fit_plec,
    plec_eval,
    plec_jacobian,
)
from .regression import (
    PlFit,
    TplFit,
    fit_loglog,
    fit_pl_growth,
    predict_variance,
)

__version__ = "0.1.0"

__all__ = [
    "AbundanceTable",
    "AccumulationCurve",
    "AsymptotePrediction",
    "ConfidenceBand",
    "CoupledPrediction",
    "DeathsTable",
    "FitDiagnostics",
    "PlFit",
    "PlecModel",
    "TplFit",
    "accumulate",
    "aggregate_regions",
    "compute_asymptote",
    "confidence_band",
    "couple",
    "date_to_day_index",
    "day_index_to_date",
    "fit_cutoff",
    "fit_loglog",
    "fit_pl_growth",
    "fit_plec",
    "hill_number",
    "parse_abundance_table",
    "parse_continent_map",
    "parse_jhu_deaths",
    "plec_eval",
    "plec_jacobian",
    "predict_variance",
    "resample_accumulation",
    "run_dar_pipeline",
    "run_ftr",
    "serialize_abundance_table",
    "serialize_jhu_deaths",
    "truncate_series",
]
