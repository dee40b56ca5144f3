#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``tplec`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload ftr-jhu --seed 1 --seconds 18 --trace 0

It generates the workload's inputs from ``--seed`` (see workloads.py),
then runs ``tplec.cli.main`` on them in five fresh child interpreters
("sessions"), one after another: session k starts no invocation after
(k + 1) / 5 of ``--seconds`` from the start of the first session, and
runs at least one. That is a closed loop with one client,
single-threaded (the BLAS/OpenMP thread counts are pinned to 1). Every invocation's output
is checked (checks.py) outside the timed region.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: wall time of the fastest ``cli.main(argv)`` call of the
  run, in an interpreter that has already imported ``tplec.cli``;
* ``cpu_s``: user+sys CPU time of the least costly such call;
* ``cold_s``: what a user of the command line waits for: median over
  the sessions of the time from starting a fresh interpreter through
  ``import tplec.cli`` and one ``cli.main(argv)`` call; work moved out
  of the import into the first call shows here and not in ``wall_s``;
* ``setup_s``: median over the sessions of the time from starting the
  interpreter until ``import tplec.cli`` returns;
* ``peak_rss_mb``: median over the sessions of the peak RSS after the
  first invocation;
* ``ok_frac``: invocations that exit 0 and pass the output check,
  divided by invocations attempted.

The fastest call, not the median, is reported because on a shared
2-vCPU x86_64 VM (Xeon, 2.1 GHz) other tenants slowed every call for
stretches of seconds to minutes, by up to 2x, and the fastest of many
calls is the least disturbed. Each run prints the median and upper
percentiles too, and its record keeps every sample.

``--trace 1`` runs one session that alternates traced and untraced
invocations, wraps the module-level functions the CLI calls
(tracing.py), and prints per-layer self times and counts of the fastest
traced invocation, its tracing overhead, and an ``-X importtime``
breakdown of the import.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes a record with the environment, the workload sizes and every
sample to ``.bench_work/results/``; a traced run writes its spans and
counts there too. The benchmark exits with status 2, printing no
result, when the checkout has no ``src/tplec`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SESSIONS = {0: 5, 1: 1}  # fresh interpreters per run, by --trace
MIN_INVOCATIONS = {0: 1, 1: 4}  # per session; traced runs need two traced, two untraced
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _run_child(argv, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        return subprocess.run(
            argv, env=env, cwd=ROOT, timeout=remaining, check=False, **kwargs
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish in time") from exc


def measure_imports(env, deadline) -> dict[str, float]:
    """Median self time of numpy, scipy and tplec modules under -X importtime."""
    samples = {"import.numpy_s": [], "import.scipy_s": [], "import.tplec_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = _run_child(
            [sys.executable, "-X", "importtime", "-c", "import tplec.cli"],
            env, deadline, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"import tplec.cli failed:\n{proc.stderr[-2000:]}")
        self_us = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            fields = line[len("import time:"):].split("|")
            self_us[fields[2].strip().split(".")[0]] += int(fields[0])
        for key in samples:
            samples[key].append(self_us[key.split(".")[1][:-2]] / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_sessions(prepared, run_dir, seconds, trace, env, deadline) -> list[dict]:
    """Run worker.py in SESSIONS[trace] fresh interpreters, one after another."""
    sessions = []
    base = 0
    src = (ROOT / "src").resolve()
    first_start = time.monotonic()
    for number in range(SESSIONS[trace]):
        session_dir = run_dir / f"session{number}"
        session_dir.mkdir()
        cfg = {
            "argv": prepared.argv,
            "out_root": str(session_dir / "out"),
            "index_base": base,
            "until": first_start + seconds * (number + 1) / SESSIONS[trace],
            "min_invocations": MIN_INVOCATIONS[trace],
            "trace": bool(trace),
            "result_file": str(session_dir / "worker.json"),
        }
        cfg_file = session_dir / "worker-config.json"
        cfg_file.write_text(json.dumps(cfg), encoding="utf-8")
        log = session_dir / "worker.log"
        with log.open("w", encoding="utf-8") as stderr:
            started = time.monotonic()
            proc = _run_child(
                [sys.executable, str(HERE / "worker.py"), str(cfg_file)],
                env, deadline, stdout=stderr, stderr=stderr,
            )
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8")[-3000:]
            raise BenchError(f"worker exited with status {proc.returncode}:\n{tail}")
        result = json.loads((session_dir / "worker.json").read_text(encoding="utf-8"))
        if src not in Path(result["tplec_file"]).parents:
            raise BenchError(f"ran {result['tplec_file']}, not the tplec under {src}")
        result["setup_s"] = result["imported_at"] - started
        result["cold_s"] = result["first_done_at"] - started
        base += len(result["invocations"])
        sessions.append(result)
    return sessions


def check_invocations(invocations, expect) -> tuple[int, dict, dict]:
    """Failed count, problems by invocation, and the negative controls."""
    problems = {}
    first_bytes = None
    controls = {}
    for inv in invocations:
        out = Path(inv["out"])
        outputs = checks.load_outputs(out) if inv["rc"] == 0 else {}
        found = checks.check(inv["rc"], outputs, expect)
        files = sorted(out.parent.iterdir())
        raw = {p.name: p.read_bytes() for p in files}
        if first_bytes is None:
            first_bytes = raw
        elif raw != first_bytes:
            found.append("output differs from the first invocation's")
        if found:
            problems[inv["index"]] = found
        elif not controls:
            controls = checks.negative_controls(outputs, expect)
    return len(problems), problems, controls


def host_probe(repeats: int = 9) -> dict[str, float]:
    """Median time in ms of a fixed pure-Python loop and a fixed numpy pass.

    Recorded with every result and used in no metric. On a shared host a
    run whose calls and probe are both slow ran in a slow stretch of the
    host, not on slower code.
    """
    data = np.arange(1_000_000, dtype=np.int64)
    python_ms, numpy_ms = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sum(i * i for i in range(100_000))
        t1 = time.perf_counter()
        np.cumsum(data[::-1])
        t2 = time.perf_counter()
        python_ms.append((t1 - t0) * 1e3)
        numpy_ms.append((t2 - t1) * 1e3)
    return {"python_ms": statistics.median(python_ms), "numpy_ms": statistics.median(numpy_ms)}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _spread(values) -> str:
    """Sample count, min, median, max and the highest percentile with 10 samples beyond."""
    n = len(values)
    text = (
        f"{n} samples: min {min(values):.4f}, median {statistics.median(values):.4f}, "
        f"max {max(values):.4f}"
    )
    for pct in (99, 90, 80, 75):
        if n * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return f"{text}, p{pct} {q:.4f}"
    return text


def end_to_end(invocations, failed, sessions) -> dict:
    """Metric name -> (value, unit, note) for ``--trace 0``."""
    walls = [inv["wall_s"] for inv in invocations]
    cpus = [inv["cpu_s"] for inv in invocations]
    colds = [s["cold_s"] for s in sessions]
    setups = [s["setup_s"] for s in sessions]
    rss = [s["peak_rss_mb"] for s in sessions]
    passed = len(invocations) - failed
    return {
        "wall_s": (min(walls), "s", _spread(walls)),
        "cpu_s": (min(cpus), "s", _spread(cpus)),
        "cold_s": (statistics.median(colds), "s", _spread(colds)),
        "setup_s": (statistics.median(setups), "s", _spread(setups)),
        "peak_rss_mb": (statistics.median(rss), "MB", "after the first invocation; " + _spread(rss)),
        "ok_frac": (
            passed / len(invocations), "ratio", f"{passed} of {len(invocations)} invocations"
        ),
    }


def per_layer(invocations, imports, session) -> dict:
    """Metric name -> (value, unit, note) for ``--trace 1``; prints the table."""
    traced = [inv for inv in invocations if inv["traced"]]
    untraced = [inv["wall_s"] for inv in invocations if not inv["traced"]]
    fastest = min(traced, key=lambda inv: inv["wall_s"])
    layers = session["layers"][str(fastest["index"])]
    traced_wall = fastest["wall_s"]
    overhead = layers["trace.spans"] * session["span_cost_s"] + layers["trace.hook_s"]
    # traced call i against the untraced call i + 1; the first call is cold
    by_index = {inv["index"]: inv for inv in invocations}
    paired = [
        inv["wall_s"] - by_index[inv["index"] + 1]["wall_s"]
        for inv in traced[1:]
        if inv["index"] + 1 in by_index
    ]

    values = {k: (layers[k], "s", "self time") for k in tracing.TIME_BUCKETS}
    values.update({k: (layers[k], "count", "") for k in tracing.COUNTS})
    values["reporting.bytes_out"] = (layers["reporting.bytes_out"], "bytes", "")
    values["plec.converged_ratio"] = (layers["plec.converged_ratio"], "ratio", "")
    values.update(
        {k: (v, "s", f"median of {IMPORTTIME_REPEATS} children") for k, v in imports.items()}
    )
    values["trace.wall_s"] = (traced_wall, "s", f"fastest of {len(traced)} traced")
    values["trace.untraced_wall_s"] = (
        min(untraced), "s", f"fastest of {len(untraced)} untraced"
    )
    values["trace.overhead_s"] = (
        overhead, "s", "spans x cost of one span + time in count hooks"
    )
    values["trace.spans"] = (layers["trace.spans"], "count", "")

    root = layers["trace.root_s"]
    print(
        f"per-layer self time of traced invocation {fastest['index']} "
        f"(fastest of {len(traced)} traced):"
    )
    for bucket in tracing.TIME_BUCKETS:
        share = layers[bucket] / root if root else 0.0
        print(f"  {bucket:<28}{layers[bucket]:>10.4f} s {share:>7.1%}")
    accounted = sum(layers[b] for b in tracing.TIME_BUCKETS)
    print(f"  {'sum of the above':<28}{accounted:>10.4f} s   root span cli.main {root:.4f} s")
    print(
        f"tracing overhead: {overhead:.6f} s = {layers['trace.spans']} spans x "
        f"{session['span_cost_s'] * 1e6:.2f} us + {layers['trace.hook_s']:.6f} s in count hooks"
    )
    if paired:
        print(
            f"traced - untraced wall, median of {len(paired)} adjacent pairs: "
            f"{statistics.median(paired):+.4f} s (host noise dominates it)"
        )
    if session["missing_hooks"]:
        print("not traced (absent from the program): " + ", ".join(session["missing_hooks"]))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "tplec" / "cli.py").is_file():
        print(f"error: no tplec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    prepare, why = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    (run_dir / "tmp").mkdir()
    results_dir.mkdir(exist_ok=True)
    env = _child_env(run_dir / "tmp")
    try:
        prepared = prepare(args.seed, run_dir / "inputs")
        probes = [host_probe()]
        sessions = run_sessions(prepared, run_dir, args.seconds, args.trace, env, deadline)
        invocations = [inv for session in sessions for inv in session["invocations"]]
        probes.append(host_probe())
        failed, problems, controls = check_invocations(invocations, prepared.expect)
        if args.trace:
            imports = measure_imports(env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    environment = dict(
        sessions[0]["env"],
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        threads={v: os.environ[v] for v in THREAD_VARS},
        platform=platform.platform(),
        commit=git_commit(),
    )
    print(f"workload {args.workload}, seed {args.seed}: {why}")
    print("sizes: " + ", ".join(f"{k}={v}" for k, v in prepared.sizes.items()))
    print("env: " + json.dumps(environment, sort_keys=True))
    for index, found in sorted(problems.items())[:5]:
        print(f"FAILED invocation {index}: " + "; ".join(found[:5]))
    print("negative controls caught: " + json.dumps(controls, sort_keys=True))
    print("host probe before / after the sessions: " + " / ".join(
        f"python loop {p['python_ms']:.2f} ms, numpy pass {p['numpy_ms']:.2f} ms" for p in probes))
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": prepared.sizes,
        "env": environment,
        "invocations": invocations,
        "problems": problems,
        "negative_controls": controls,
        "host_probe": probes,
    }
    if args.trace:
        session = sessions[0]
        values = per_layer(invocations, imports, session)
        print("setup split (-X importtime self time): " + ", ".join(
            f"{k} {v:.4f} s" for k, v in imports.items()))
        spans_file = results_dir / f"{tag}-spans.json"
        spans_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "spans": session["spans"],
            "counts": session["counts"],
            "layers": session["layers"],
            "span_cost_s": session["span_cost_s"],
            "missing_hooks": session["missing_hooks"],
        }), encoding="utf-8")
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        values = end_to_end(invocations, failed, sessions)
        record["sessions"] = [
            {k: s[k] for k in ("setup_s", "cold_s", "peak_rss_mb")} for s in sessions
        ]

    for name, (value, unit, note) in values.items():
        print(f"{name:<28}{value:>14.6g} {unit:<6} {note}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}
    record["metrics"] = metrics
    record["run_s"] = time.monotonic() - started
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0 and bool(controls) and all(controls.values()),
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
