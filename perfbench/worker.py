"""Child process that runs ``tplec.cli.main`` repeatedly in one interpreter.

Usage: ``python3 perfbench/worker.py CONFIG.json``. The config names the
CLI arguments (without ``--out``), the output directory, the index of
the first invocation, the ``time.monotonic()`` after which no invocation
starts, the minimum number of timed invocations and whether to trace.

``import tplec.cli`` is the first thing this process does, so the
``time.monotonic()`` stamps it reports (``imported_at`` after that
import, ``first_done_at`` after the first invocation) measure, against
the parent's stamp taken just before it started this process, what a
CLI user pays: interpreter start and import, then a first call.

Every invocation is timed. The peak RSS of this process right after the
first invocation is the peak RSS of a process that ran one invocation.
Every invocation writes into its own directory, so the parent can check
each output afterwards. With tracing on, even-numbered invocations run
with the wrappers installed and odd-numbered ones without, so traced
and untraced calls interleave.
"""

import time

import tplec.cli as cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _call(main, argv) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1


def run(cfg: dict) -> dict:
    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()

    out_root = Path(cfg["out_root"])
    invocations = []

    def invoke(index: int, traced: bool) -> None:
        out = out_root / f"inv{index:04d}" / "report.csv"
        out.parent.mkdir(parents=True)
        argv = cfg["argv"] + ["--out", str(out)]
        if traced:
            tracer.install(index)
        c0 = time.process_time()
        t0 = time.perf_counter()
        rc = _call(cli.main, argv)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if traced:
            tracer.uninstall()
        invocations.append(
            {
                "index": index,
                "out": str(out),
                "rc": rc,
                "traced": traced,
                "wall_s": t1 - t0,
                "cpu_s": c1 - c0,
            }
        )

    base = cfg["index_base"]
    count = 0
    while True:
        invoke(base + count, tracer is not None and count % 2 == 0)
        if count == 0:
            first_done_at = time.monotonic()
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        count += 1
        if count >= cfg["min_invocations"] and time.monotonic() >= cfg["until"]:
            break

    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_status = "imported"
    except ImportError as exc:
        numba_status = f"not importable: {exc}"

    result = {
        "invocations": invocations,
        "imported_at": IMPORTED_AT,
        "first_done_at": first_done_at,
        "peak_rss_mb": peak_kb / 1024.0,
        "tplec_file": str(Path(cli.__file__).resolve()),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": numba_status,
        },
    }
    if tracer is not None:
        result["layers"] = {
            inv["index"]: tracer.layers(inv["index"])
            for inv in invocations
            if inv["traced"]
        }
        result["span_cost_s"] = tracer.span_cost()
        result["missing_hooks"] = tracer.missing
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    return result


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(cfg)
    Path(cfg["result_file"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
