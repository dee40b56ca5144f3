#!/usr/bin/env python3
"""Minor page faults and wall time of warm CLI calls in one process.

    python benchmarks/warm_faults.py ftr-jhu --seed 7 --calls 8
    python benchmarks/warm_faults.py ftr-jhu --calls 12 --against HEAD~1 --pairs 6

Builds the workload's inputs from ``--seed`` with perfbench's
``workloads.py``, then starts one fresh interpreter that imports
``tplec.cli`` from ``--src`` (this checkout's ``src`` by default) and
calls ``cli.main`` on them once, untimed, and then ``--calls`` more
times. For each of those warm calls it prints the minor faults
(``ru_minflt``), the wall time and the CPU time; then the best and
median wall time, the best CPU time, and the median and largest fault
count. The calls' own warnings and notes go to standard error only if
a call fails. A warm call that reuses the heap the calls before it left
takes few faults; one that hands MB-sized blocks back to the kernel and
maps them again takes one per 4 KiB page.

With ``--against REV``, REV is checked out with ``git worktree`` into a
temporary directory, removed afterwards, and ``--pairs`` pairs of such
interpreters run on the same inputs, one on ``--src`` and one on REV's
``src``, in ABBA order (``--src`` first in pairs 1, 3, 5, ...), so
that a slow stretch of the host falls on both sides. Each interpreter
prints one line; then, for each side, the median over its interpreters
of the best wall time and of the median fault count, and, for the
pairs, the median ratio of ``--src``'s best wall time to REV's and the
pairs in which ``--src`` was faster.

The inputs are built in this process and the calls run in another, so
that the generator's own large arrays do not move glibc's malloc
thresholds before the first call, as in perfbench's worker. The BLAS
and OpenMP thread counts are pinned to 1, as perfbench pins them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def calls(src: str, argv: list[str], n: int, out_dir: Path) -> list[tuple[int, float, float]]:
    """Minor faults, wall and CPU seconds of each of ``n`` warm ``cli.main`` calls."""
    sys.path.insert(0, src)
    import tplec.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the tree at {src}")
    measured = []
    for i in range(n + 1):
        out = out_dir / f"call{i}" / "report.csv"
        out.parent.mkdir()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        c0, t0 = time.process_time(), time.perf_counter()
        rc = cli.main(argv + ["--out", str(out)])
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if rc != 0:
            raise SystemExit(f"call {i} exited with status {rc}")
        if i:  # the first call loads numpy and the library
            measured.append((faults, wall, cpu))
    return measured


def run_worker(workload: str, src: str, argv: list[str], n: int, tmp: str) -> list:
    """(faults, wall, cpu) of each of ``n`` warm calls in a fresh interpreter
    that imports ``src``, writing its reports under a new directory in ``tmp``."""
    work = Path(tempfile.mkdtemp(prefix="worker-", dir=tmp))
    out, cfg, result = work / "out", work / "config.json", work / "result.json"
    out.mkdir()
    cfg.write_text(json.dumps({
        "src": src, "argv": argv, "calls": n, "out": str(out), "result": str(result),
    }), encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update((var, "1") for var in THREAD_VARS)
    command = [sys.executable, __file__, workload, "--worker", str(cfg)]
    worker = subprocess.run(command, env=env, stderr=subprocess.PIPE, text=True)
    if worker.returncode:
        sys.stderr.write(worker.stderr)
        raise SystemExit("the worker failed")
    return json.loads(result.read_text(encoding="utf-8"))


def paired(workload: str, srcs: dict[str, str], argv: list[str], args, tmp: str) -> None:
    """Run ``args.pairs`` pairs of workers on the two trees of ``srcs``, in
    ABBA order, printing each worker's line and then the pairs' figures."""
    here, there = srcs
    best: dict[str, list[float]] = {here: [], there: []}
    faults: dict[str, list[float]] = {here: [], there: []}
    for pair in range(args.pairs):
        for side in (here, there) if pair % 2 == 0 else (there, here):
            measured = run_worker(workload, srcs[side], argv, args.calls, tmp)
            best[side].append(min(wall for _, wall, _ in measured))
            faults[side].append(statistics.median(f for f, _, _ in measured))
            print(f"pair {pair + 1:>3} {side:>12}: wall best {best[side][-1] * 1e3:8.2f}"
                  f" ms, minor faults median {faults[side][-1]:g}")
    for side in srcs:
        print(f"{side:>12}: median best wall {statistics.median(best[side]) * 1e3:.2f}"
              f" ms, median of the median faults {statistics.median(faults[side]):g}")
    ratios = [a / b for a, b in zip(best[here], best[there])]
    print(f"{workload} seed {args.seed}, {args.pairs} pairs of {args.calls} warm calls: "
          f"best wall {here} / {there}, median ratio {statistics.median(ratios):.3f}; "
          f"{here} faster in {sum(r < 1 for r in ratios)}/{args.pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--calls", type=int, default=8, help="warm calls to measure")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the tree to import")
    parser.add_argument("--against", metavar="REV", help="a git revision to pair with")
    parser.add_argument("--pairs", type=int, default=6, help="pairs of runs, with --against")
    parser.add_argument("--worker", metavar="CONFIG", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        cfg = json.loads(Path(args.worker).read_text(encoding="utf-8"))
        measured = calls(cfg["src"], cfg["argv"], cfg["calls"], Path(cfg["out"]))
        Path(cfg["result"]).write_text(json.dumps(measured), encoding="utf-8")
        return 0
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload must be one of {', '.join(sorted(workloads.WORKLOADS))}")
    prepare, _ = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="warm_faults-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        prepared = prepare(args.seed, inputs)
        if args.against:
            from worktree import checkout  # in this script's directory

            with checkout(args.against, Path(tmp)) as tree:
                srcs = {"this tree": args.src, args.against: str(tree / "src")}
                paired(args.workload, srcs, prepared.argv, args, tmp)
            return 0
        measured = run_worker(args.workload, args.src, prepared.argv, args.calls, tmp)

    for i, (faults, wall, cpu) in enumerate(measured, start=1):
        print(f"call {i:>3}: {faults:>6} minor faults, {wall * 1e3:8.2f} ms, "
              f"cpu {cpu * 1e3:8.2f} ms")
    faults, walls, cpus = zip(*measured)
    print(
        f"{args.workload} seed {args.seed}, {len(walls)} warm calls: "
        f"wall best {min(walls) * 1e3:.2f} ms, "
        f"median {statistics.median(walls) * 1e3:.2f} ms; "
        f"cpu best {min(cpus) * 1e3:.2f} ms; "
        f"minor faults median {statistics.median(faults):g}, max {max(faults)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
