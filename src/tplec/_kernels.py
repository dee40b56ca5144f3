"""Hot accumulation kernel: per-step Hill numbers along sample orderings.

The table is sparse (most taxa are absent from most samples), so the
kernel takes the taxon-major (CSC) list of nonzero entries that
``AbundanceTable`` keeps, and no layer forms a samples-by-taxa matrix.
Each taxon owns one segment of that list. A sample ordering only
reorders the entries inside each segment, so these are fixed once per
call:

* each taxon's pooled count, one ``np.add.reduceat`` over the segments;
* every entry's packed key ``segment | low``. The key is ``uint32``
  when segment, step and the entry's slot (its index within its
  segment) fit in 32 bits together, ``uint64`` otherwise. The low field
  is the entry's count when segment, step and count fit in that same
  width and the largest pooled count is below nnz (the count key);
  otherwise it is the slot (the slot key). The choice is read from the
  table and never widens the key;
* with the count key at q > 0, the table ``F[x] = f(x)`` for x from 0
  to the largest pooled count: at most nnz float64, built once per call
  and read, never written, by every worker;
* every segment's offset, the sum of the pooled counts of the segments
  before it, which is what a running sum over the list holds on
  entering it.

For each replicate the kernel then

1. maps each entry's sample to its step through the inverse
   permutation and packs the step between segment and low field;
2. sorts the keys in place (segment and step make them unique), which
   puts each taxon's entries in step order;
3. reads each entry's count, from the low field with the count key or
   by gathering it by slot with the slot key, and takes each taxon's
   running total as one ``cumsum`` minus the segment offsets;
4. takes f of the running totals, ``F[total]`` with the count key and
   directly with the slot key, where ``f(x) = x ln x`` at q = 1 and
   ``x**q`` otherwise, and adds ``f(new) - f(old)`` per step with
   ``bincount`` and ``cumsum`` over steps.

Each of these passes writes into one of four buffers of nnz entries,
allocated once per worker: 28 bytes per entry with ``uint32`` keys, 32
with ``uint64`` keys. Every integer sum (running totals, sample
totals, offsets) is formed in int64 and is at most the table's total,
which ``AbundanceTable`` bounds by the int64 maximum; a float sum would
be exact only below 2**53.

Every q runs one worker. At q = 0 it sorts nothing and stops after the
step keys of pass 1: a taxon enters the curve at its first step, its
segment's smallest step key (``np.minimum.reduceat``) shifted past the
low field, and one ``bincount`` + ``cumsum`` of those steps is the curve.

No replicate reads another's result and numpy releases the GIL in
every pass, so the replicates are split over one thread per CPU this
process may use (``_split``). Each worker owns its buffers and its rows
of the output and shares the read-only set-up, so memory is
O(nnz x workers) and every row is bit-identical however the replicates
are split. The final step is evaluated directly from the fully pooled
count vector, so every replicate ends on the bit-identical value.

A Hill sum that overflows float64, as ``x**q`` does for large counts at
a large q, raises ``NonFiniteValue`` naming q instead of giving inf or
NaN. ``hill_direct`` checks its sums and its result, each worker the
rows it writes, each under its own ``np.errstate``, which numpy keeps per
thread, so no RuntimeWarning is printed on the way.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import NonFiniteValue


def _overflow(q: float) -> str:
    return f"at q = {q:g} the Hill number's power sums overflow float64"


def _hill(s, n, q: float):
    """Hill number at q > 0 of a pool of total n whose sum of x ln x (q = 1) or x**q is s."""
    if q == 1.0:
        return np.exp(np.log(n) - s / n)
    return (s / n**q) ** (1.0 / (1.0 - q))


def _f(x: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """The summand of a Hill power sum at q > 0: x ln x at q = 1, x**q otherwise."""
    if q == 1.0:
        np.log(x, out=out)
        out *= x
    else:
        np.power(x, q, out=out)
    return out


def hill_direct(pooled: np.ndarray, q: float) -> float:
    """q-order Hill number of one pooled count vector (caller validates).

    Raises ``NonFiniteValue`` naming q when a sum it forms is not finite.
    """
    c = pooled[pooled > 0].astype(np.float64)
    if q == 0.0:
        return float(c.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n = c.sum()
        s = float((c * np.log(c)).sum()) if q == 1.0 else float((c**q).sum())
        h = _hill(s, n, q)
    if not (np.isfinite(s) and np.isfinite(n) and np.isfinite(h)):
        raise NonFiniteValue(_overflow(q))
    return float(h)


def _bits(n: int) -> int:
    """Bits needed to store every integer in 0..n-1."""
    return max(int(n) - 1, 0).bit_length()


def _worker_count(replicates: int) -> int:
    """Threads to run ``replicates`` on: one per usable CPU, at most one per replicate."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, replicates))


def _split(work, replicates: int) -> None:
    """Run ``work(rows)`` over every replicate, split across ``_worker_count`` threads.

    With w workers the calling thread takes rows ``0, w, 2w, ...`` and
    each of w - 1 helper threads one other residue mod w. A helper's
    exception is re-raised here once every helper has been joined, so
    no helper outlives the call.
    """
    workers = _worker_count(replicates)
    failure = None

    def helper(rows):
        nonlocal failure
        try:
            work(rows)
        except BaseException as exc:  # re-raised on the calling thread
            failure = exc

    started = []
    try:
        for first in range(1, workers):
            rows = range(first, replicates, workers)
            thread = threading.Thread(target=helper, args=(rows,))
            thread.start()
            started.append(thread)
        work(range(0, replicates, workers))
    finally:
        for thread in started:
            thread.join()
    if failure is not None:
        raise failure


def accumulation_curves(
    values: np.ndarray,
    perms: np.ndarray,
    q: float,
    lengths: np.ndarray,
    samples: np.ndarray,
    sample_totals: np.ndarray,
) -> np.ndarray:
    """Per-step Hill numbers along each permutation, one row per replicate.

    ``values``, ``lengths``, ``samples`` and ``sample_totals`` are an
    ``AbundanceTable``'s taxon-major nonzero list and its sample totals;
    every count, and their total, is at most the int64 maximum.
    """
    n_rep, n_steps = perms.shape
    last = n_steps - 1
    col_len = lengths[lengths > 0]
    col_start = np.cumsum(col_len) - col_len
    out = np.empty((n_rep, n_steps), dtype=np.float64)
    pooled = np.add.reduceat(values, col_start) if values.size else values
    out[:, last] = hill_direct(pooled, q)

    # key = segment | step | low, low the entry's count (count key) or its
    # index within its segment (slot key); see the module docstring
    lbits = _bits(col_len.max(initial=1))
    sbits = _bits(n_steps)
    gbits = _bits(col_len.size)
    key_type = np.uint32 if gbits + sbits + lbits <= 32 else np.uint64
    top = int(pooled.max(initial=0))
    cbits = int(values.max(initial=0)).bit_length()
    f_table = None
    if top < values.size and gbits + sbits + cbits <= np.iinfo(key_type).bits:
        lbits = cbits
        low = values
        if q != 0.0:
            # f(x) = f_table[x], read-only and shared by the workers
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                x = np.arange(top + 1, dtype=np.float64)
                f_table = _f(x, q, out=np.empty_like(x))
            f_table[0] = 0.0  # f(0) = 0, where x ln x gives NaN
    else:
        seg_start = np.repeat(col_start, col_len)
        low = np.arange(samples.size) - seg_start
    base = np.repeat(np.arange(col_len.size, dtype=key_type), col_len)
    base <<= sbits + lbits
    base |= low.astype(key_type)
    # a segment's entries only change order, so the running sum over the
    # list on entering the segment is the same for every replicate
    offset = np.repeat(np.cumsum(pooled) - pooled, col_len)
    step_keys = np.arange(n_steps, dtype=key_type) << lbits

    def work(rows):
        # per-worker buffers, reused: each pass writes into one of them. A
        # take in any mode but "raise" writes its out array directly, and an
        # int64 (intp) index is taken without a cast; every index is in range.
        inv = np.empty(n_steps, dtype=key_type)
        keys = np.empty(samples.size, dtype=key_type)
        ints = np.empty(samples.size, dtype=np.int64)  # slots, running sums, steps
        total = np.empty(samples.size, dtype=np.float64)  # then each entry's gain
        f = np.empty_like(total)
        # numpy's error state is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for r in rows:
                perm = perms[r]
                inv[perm] = step_keys
                np.take(inv, samples, out=keys, mode="wrap")
                if q == 0.0:
                    # a taxon enters the curve at its first step, the
                    # smallest step key over its segment
                    firsts = np.minimum.reduceat(keys, col_start) >> lbits
                    out[r, :last] = np.cumsum(np.bincount(firsts, minlength=n_steps)[:last])
                    continue
                keys |= base
                # the keys are unique, so any sort gives the (taxon, step) order
                keys.sort()
                gathered = total.view(np.int64)
                running = ints
                if f_table is None:
                    slots = ints
                    np.bitwise_and(keys, (1 << lbits) - 1, out=slots)
                    slots += seg_start
                    np.take(values, slots, out=gathered, mode="wrap")
                    np.cumsum(gathered, out=running)
                    np.subtract(running, offset, out=total)  # exact in int64, then rounded
                    _f(total, q, out=f)
                else:
                    np.bitwise_and(keys, (1 << lbits) - 1, out=gathered)
                    np.cumsum(gathered, out=running)
                    running -= offset
                    np.take(f_table, running, out=f, mode="wrap")
                # each entry's change to its taxon's f; a segment starts from f(0) = 0
                gain = total
                np.subtract(f[1:], f[:-1], out=gain[1:])
                gain[col_start] = f[col_start]
                steps = ints
                np.right_shift(keys, lbits, out=steps)
                steps &= (1 << sbits) - 1
                gains = np.bincount(steps, weights=gain, minlength=n_steps)
                acc = np.cumsum(gains[:last])
                n_k = np.cumsum(sample_totals[perm[:last]]).astype(np.float64)
                out[r, :last] = _hill(acc, n_k, q)
                if not np.isfinite(out[r, :last]).all():
                    raise NonFiniteValue(_overflow(q))

    _split(work, n_rep)
    return out
