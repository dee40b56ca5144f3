#!/usr/bin/env python3
"""Benchmark the accumulation kernel at q = 0, 1 and 2.

The resampled accumulation curve is the package's hot loop. The kernel
takes the table's taxon-major nonzero list, as ``AbundanceTable`` keeps
it. The script runs the kernel on the drawn table, which at the default
size takes the count key (counts read from the sort keys, f(x) from a
per-call table), and on a copy with every count times 1,000,003, which
takes the slot key (counts gathered by slot, f(x) computed per
replicate). For each table it first reports the median time of a call
with zero replicates, which is the kernel's set-up alone. Then, for
each order, it reports the median wall and CPU time of ``--repeats``
calls and checks a few steps of one replicate against ``hill_number`` of
the pooled prefix. The kernel splits the replicates over one thread per
usable CPU; the script prints that worker count, and CPU time above wall
time is the split's cost. Run with defaults, or scale the problem:

    python benchmarks/bench_accumulation.py --samples 400 --taxa 4000 --replicates 50
"""

import argparse
import statistics
import time

import numpy as np

from tplec import AbundanceTable, _kernels
from tplec.diversity import hill_number

ORDERS = (0.0, 1.0, 2.0)
SCALE = 1_000_003  # too wide for a count key, so the copy takes the slot key


def build_problem(n_samples, n_taxa, replicates, density, seed=0):
    rng = np.random.default_rng(seed)
    counts = np.where(
        rng.random((n_samples, n_taxa)) < density,
        rng.integers(1, 50, size=(n_samples, n_taxa)),
        0,
    ).astype(np.int64)
    for i in range(n_samples):
        if counts[i].sum() == 0:
            counts[i, rng.integers(0, n_taxa)] = 1
    perms = np.stack(
        [np.random.default_rng(seed + 1 + r).permutation(n_samples) for r in range(replicates)]
    ).astype(np.int64)
    return counts, perms


def median_times(table, perms, q, repeats):
    """Median wall and CPU seconds of ``repeats`` kernel calls, and the last curves."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        curves = _kernels.accumulation_curves(
            table.values, perms, q, table.lengths, table.samples, table.sample_totals
        )
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus), curves


def max_check_error(counts, perms, curves, q):
    """Largest relative error of a few steps of replicate 0 against hill_number."""
    n = perms.shape[1]
    worst = 0.0
    for k in sorted({1, n // 3, 2 * n // 3, n - 1, n}):
        want = hill_number(counts[perms[0, :k]].sum(axis=0), q)
        worst = max(worst, abs(curves[0, k - 1] - want) / want)
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--taxa", type=int, default=2000)
    parser.add_argument("--replicates", type=int, default=100)
    parser.add_argument("--density", type=float, default=0.08)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    counts, perms = build_problem(args.samples, args.taxa, args.replicates, args.density)
    ids = [str(i) for i in range(max(counts.shape))]
    print(
        f"problem: {args.samples} samples x {args.taxa} taxa, "
        f"{args.replicates} replicates, nnz={np.count_nonzero(counts)}, "
        f"median of {args.repeats}, {_kernels._worker_count(args.replicates)} worker(s)"
    )
    failed = False
    for label, scaled in (("drawn", counts), (f"x{SCALE}", counts * SCALE)):
        table = AbundanceTable(ids[: args.samples], ids[: args.taxa], scaled)
        seconds, _, _ = median_times(table, perms[:0], 1.0, args.repeats)
        print(f"{label} set-up: {seconds * 1000:9.2f} ms (0 replicates, q=1)")
        for q in ORDERS:
            wall, cpu, curves = median_times(table, perms, q, args.repeats)
            err = max_check_error(scaled, perms, curves, q)
            failed |= err > 1e-12
            print(
                f"{label} q={q:g}: {wall * 1000:9.2f} ms wall {cpu * 1000:9.2f} ms CPU   "
                f"max rel err vs hill_number {err:.1e}"
            )
    if failed:
        raise SystemExit("kernel disagrees with hill_number beyond 1e-12")


if __name__ == "__main__":
    main()
