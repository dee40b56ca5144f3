"""Spans and counts around the module-level functions the CLI calls.

The wrappers are installed from outside the program by replacing module
attributes. ``tplec.cli`` binds most names at import (``from .ingest
import parse_jhu_deaths``), so each function is patched where it is
looked up at call time: in ``tplec.cli``, in ``tplec.coupling`` for the
fitters, on the ``_kernels`` module that ``tplec.diversity`` calls
through, and on ``tplec.reporting`` for the emitters.

Every span records its name, start, end, parent span and invocation.
Each patched name belongs to one per-layer bucket; a bucket's time is
the self time of its spans (duration minus the direct child spans), so
the buckets of one invocation add up to its root span, ``cli.main``.
A name the program no longer has is skipped and listed as missing.

The tracing overhead of an invocation is estimated from parts that can
be timed precisely: its number of spans times the cost of one wrapper
around a no-op, timed in a tight loop (``span_cost``), plus the time
its count hooks took, which is measured directly. The difference
between a traced and an untraced call is of the order of the host's
noise, so it is printed but not used.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _count_deaths_cells(counts, args, kwargs, result):
    if result:
        counts["ingest.cells"] += len(result) * len(result[0].cumulative)


def _count_table_cells(counts, args, kwargs, result):
    counts["ingest.cells"] += int(result.counts.size)


def _count_kernel(counts, args, kwargs, result):
    table, perms = args[0], args[1]
    counts["kernels.replicate_steps"] += int(perms.shape[0] * perms.shape[1])
    counts["kernels.nnz"] += int(np.count_nonzero(table))


def _count_pipeline(counts, args, kwargs, result):
    counts["coupling.units"] += 1
    counts["coupling.fallback_units"] += int(bool(result.fallback_used))


def _count_point_fit(counts, args, kwargs, result):
    # fit_cutoff returns (model, diagnostics, asymptote); no asymptote
    # sends the unit to the power law
    counts["coupling.units"] += 1
    counts["coupling.fallback_units"] += int(result[2] is None)


def _count_plec(counts, args, kwargs, result):
    diagnostics = result[1]
    counts["plec.fits"] += 1
    counts["plec.iterations"] += int(diagnostics.iterations)
    counts["plec.converged"] += int(
        diagnostics.converged and not diagnostics.constraint_active
    )


def _count_pairs(counts, args, kwargs, result):
    counts["regression.pairs"] += len(args[0])


def _count_bytes(counts, args, kwargs, result):
    counts["reporting.bytes_out"] += len(args[1].encode("utf-8"))


# (module, attribute, span name, time bucket, count hook)
PATCHES = (
    ("tplec.cli", "main", "cli.main", "cli.self_s", None),
    ("tplec.cli", "_read_text", "ingest.read_text", "ingest.parse_s", None),
    ("tplec.cli", "parse_jhu_deaths", "ingest.parse_jhu_deaths", "ingest.parse_s", _count_deaths_cells),
    ("tplec.cli", "parse_continent_map", "ingest.parse_continent_map", "ingest.parse_s", None),
    ("tplec.cli", "parse_abundance_table", "ingest.parse_abundance_table", "ingest.parse_s", _count_table_cells),
    ("tplec.cli", "aggregate_regions", "ingest.aggregate_regions", "ingest.aggregate_s", None),
    ("tplec.cli", "truncate_series", "ingest.truncate_series", "ingest.aggregate_s", None),
    ("tplec.cli", "_collapse_by_country", "cli.collapse_by_country", "cli.vm_pairs_s", None),
    ("tplec.cli", "_vm_pairs_for_unit", "cli.vm_pairs_for_unit", "cli.vm_pairs_s", None),
    ("tplec.cli", "resample_accumulation", "diversity.resample_accumulation", "diversity.resample_self_s", None),
    ("tplec._kernels", "accumulation_curves", "kernels.accumulation_curves", "kernels.accumulation_s", _count_kernel),
    ("tplec.cli", "run_ftr_pipeline", "coupling.run_ftr_pipeline", "coupling.pipeline_self_s", _count_pipeline),
    ("tplec.cli", "run_dar_pipeline", "coupling.run_dar_pipeline", "coupling.pipeline_self_s", _count_pipeline),
    ("tplec.cli", "fit_cutoff", "coupling.fit_cutoff", "coupling.pipeline_self_s", _count_point_fit),
    ("tplec.coupling", "fit_plec", "plec.fit_plec", "plec.fit_s", _count_plec),
    ("tplec.coupling", "fit_loglog", "regression.fit_loglog", "regression.fit_s", _count_pairs),
    ("tplec.coupling", "fit_pl_growth", "regression.fit_pl_growth", "regression.fit_s", _count_pairs),
    ("tplec.cli", "fit_pl_growth", "regression.fit_pl_growth", "regression.fit_s", _count_pairs),
    ("tplec.reporting", "report_row", "reporting.report_row", "reporting.emit_s", None),
    ("tplec.reporting", "fallback_rows", "reporting.fallback_rows", "reporting.emit_s", None),
    ("tplec.reporting", "unit_payload", "reporting.unit_payload", "reporting.emit_s", None),
    ("tplec.reporting", "curve_rows", "reporting.curve_rows", "reporting.emit_s", None),
    ("tplec.reporting", "rows_to_dsv", "reporting.rows_to_dsv", "reporting.emit_s", None),
    ("tplec.reporting", "to_json", "reporting.to_json", "reporting.emit_s", None),
    ("tplec.cli", "_write_text", "reporting.write_text", "reporting.emit_s", _count_bytes),
)

TIME_BUCKETS = tuple(dict.fromkeys(p[3] for p in PATCHES))
COUNTS = (
    "ingest.cells",
    "kernels.replicate_steps",
    "kernels.nnz",
    "coupling.units",
    "coupling.fallback_units",
    "plec.fits",
    "plec.iterations",
    "regression.pairs",
    "reporting.bytes_out",
)


class Tracer:
    """Keeps spans and counts in memory; patches only while installed."""

    def __init__(self, patches=PATCHES):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = {}
        self.hook_s: Counter = Counter()  # invocation -> seconds in count hooks
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._invocation = -1
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, attribute, span, bucket, hook in patches:
            owner = sys.modules.get(module)
            if owner is None or not callable(getattr(owner, attribute, None)):
                self.missing.append(f"{module}.{attribute}")
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, span, bucket, hook)
            self._patches.append((owner, attribute, original, wrapper))

    def _wrap(self, fn, name, bucket, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1] if tracer._stack else None,
                "invocation": tracer._invocation,
                "name": name,
                "bucket": bucket,
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                h0 = perf_counter()
                hook(tracer.counts[tracer._invocation], args, kwargs, result)
                tracer.hook_s[tracer._invocation] += perf_counter() - h0
            return result

        return wrapper

    def install(self, invocation: int) -> None:
        self._invocation = invocation
        self.counts[invocation] = Counter()
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 7) -> float:
        """Median cost in seconds of one span: a wrapped no-op minus a bare one."""
        probe = Tracer(patches=())

        def noop():
            return None

        wrapped = probe._wrap(noop, "probe", "probe", None)
        costs = []
        for _ in range(repeats):
            probe.spans.clear()
            t0 = perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = perf_counter()
            for _ in range(calls):
                noop()
            t2 = perf_counter()
            costs.append(((t1 - t0) - (t2 - t1)) / calls)
        return statistics.median(costs)

    def layers(self, invocation: int) -> dict:
        """Per-bucket self time and counts of one traced invocation."""
        spans = [s for s in self.spans if s["invocation"] == invocation]
        child_time = Counter()
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {bucket: 0.0 for bucket in TIME_BUCKETS}
        root = 0.0
        for s in spans:
            duration = s["end"] - s["start"]
            out[s["bucket"]] += duration - child_time[s["id"]]
            if s["parent"] is None:
                root += duration
        counts = self.counts.get(invocation, Counter())
        for key in COUNTS:
            out[key] = counts[key]
        fits = counts["plec.fits"]
        out["plec.converged_ratio"] = counts["plec.converged"] / fits if fits else 0.0
        out["trace.root_s"] = root
        out["trace.spans"] = len(spans)
        out["trace.hook_s"] = self.hook_s[invocation]
        return out
