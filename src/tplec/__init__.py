"""Coupled power-law estimation.

Fits Taylor's power law (variance against mean on log-log scale) and
power-law-with-exponential-cutoff growth curves, computes the cutoff
curve's maximal accrual value and where it occurs, and couples the two
fits so the asymptote prediction carries a 95% confidence band.

Each exported name is imported from its module on first use, so that
``import tplec`` and the command line's ``--help`` load no numpy.
"""

import importlib

from .errors import UnknownAttribute

__version__ = "0.1.0"

_EXPORTS = {
    "coupling": (
        "AsymptotePrediction",
        "ConfidenceBand",
        "CoupledPrediction",
        "compute_asymptote",
        "confidence_band",
        "couple",
        "date_to_day_index",
        "day_index_to_date",
        "fit_cutoff",
        "run_dar_pipeline",
        "run_ftr",
    ),
    "diversity": (
        "AbundanceTable",
        "AccumulationCurve",
        "accumulate",
        "hill_number",
        "resample_accumulation",
    ),
    "ingest": (
        "DeathsTable",
        "aggregate_regions",
        "parse_abundance_table",
        "parse_continent_map",
        "parse_jhu_deaths",
        "serialize_abundance_table",
        "serialize_jhu_deaths",
        "truncate_series",
    ),
    "plec": (
        "FitDiagnostics",
        "PlecModel",
        "fit_plec",
        "plec_eval",
        "plec_jacobian",
    ),
    "regression": (
        "PlFit",
        "TplFit",
        "fit_loglog",
        "fit_pl_growth",
        "predict_variance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise UnknownAttribute(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
