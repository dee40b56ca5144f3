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
* at q > 0, the list laid out as rows of whole segments (``_rows``),
  each padded to the longest row with the key type's maximum, which
  sorts after every real key. Rows are filled in list order up to W
  entries: 2 KiB of keys (512 ``uint32`` or 256 ``uint64`` keys, the
  longest run numpy's AVX-512 sort orders with one in-register sorting
  network), or twice the longest segment where that is more. So every
  row but the last is more than half full, the rows hold fewer than
  2 nnz + W slots, and a table whose longest segment is half its
  entries or more is one row. On the ``dar-shannon`` table (nnz 81,979,
  longest segment 124) that is 169 rows of 512, 5.5% padding. The set-up
  keeps each entry's sample and its key without the step in that
  layout, and each entry's place in it, ``row_of``.

For each replicate the kernel then

1. maps each entry's sample to its step through the inverse
   permutation, in the row layout, and ORs in the padded keys;
2. sorts each row (segment and step make the keys unique, and no
   segment spans two rows), which puts each taxon's entries in step
   order, and takes the keys back into list order through ``row_of``:
   the flat sort's result, with no sort longer than a row;
3. reads each entry's count, from the low field with the count key or
   by gathering it by slot with the slot key, takes off each segment's
   first count the pooled total of the segments before it, and takes
   each taxon's running total as one ``cumsum`` over the whole list;
4. takes f of the running totals, ``F[total]`` with the count key and
   directly with the slot key, where ``f(x) = x ln x`` at q = 1 and
   ``x**q`` otherwise, and writes each step's sum of ``f(new) - f(old)``
   into the replicate's row of the output with one weighted
   ``bincount`` over steps.

The workers only scatter these per-step increments. Once every
replicate is done, one tail on the calling thread forms every curve, a
block of about nnz / (8 x steps) replicates at a time: an in-place
``cumsum`` over steps and, at q > 0, the Hill number of each sum and
the running sample total.

Each of these passes writes into one of the worker's buffers, allocated
once per worker: 28 bytes per entry (keys, and three of int64 or
float64) and 4 per row slot with ``uint32`` keys, 32 and 8 with
``uint64`` keys, and each replicate adds temporaries of O(segments +
steps). The shared set-up holds 24 bytes per segment, 8 per entry
(``row_of``), 12 per row slot (16 with ``uint64`` keys), and ``F`` or,
with the slot key, each entry's segment start (8 bytes per entry). The
tail's block is about nnz / 8 cells, so each of its few int64 and
float64 temporaries holds about 1 byte per entry, and it runs once the
workers' buffers are freed.
Every integer sum (running totals, sample totals) is formed in int64
and lies between minus and plus the table's total, which
``AbundanceTable`` bounds by the int64 maximum; a float sum would be
exact only below 2**53.

Every q runs one worker. At q = 0 it sorts nothing and builds no rows:
it maps the list's samples to step keys in list order, and a taxon
enters the curve at its first step, its segment's smallest step key
(``np.minimum.reduceat``) shifted past the low field; one ``bincount``
of those steps is the row of increments, and the tail's ``cumsum`` the
curve. Then the set-up holds a copy of the samples (8 bytes per entry)
and each worker only its keys.

No replicate reads another's result and numpy releases the GIL in
every pass over the list, so the replicates are split over one thread
per CPU this process may use (``_split``). Each worker owns its buffers
and its rows of the output and shares the read-only set-up, so memory
is O(nnz x workers) and every row is bit-identical however the
replicates are split. The final step is evaluated directly from the fully pooled
count vector, so every replicate ends on the bit-identical value.

A Hill sum that overflows float64, as ``x**q`` does for large counts at
a large q, raises ``NonFiniteValue`` naming q instead of giving inf or
NaN. ``hill_direct`` checks its sums and its result, and the tail every
curve it forms. Each worker and the tail run under their own
``np.errstate``, which numpy keeps per thread, so no RuntimeWarning is
printed on the way, and no ``TplecError`` is raised on a helper thread.
"""

from __future__ import annotations

import bisect
import os
import threading

import numpy as np

from .errors import NonFiniteValue

# the widest row of keys numpy's AVX-512 sort orders with one in-register
# sorting network: 512 uint32 or 256 uint64 keys
_ROW_BYTES = 2048


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


def _rows(col_len: np.ndarray, itemsize: int) -> np.ndarray:
    """Each row's length when the segments are laid out as rows of whole segments.

    Rows are filled greedily in list order up to ``_ROW_BYTES`` of keys,
    or twice the longest segment's entries where that is more, so every
    row but the last is more than half full. One Python step per row.
    """
    ends = np.cumsum(col_len).tolist()
    cap = max(_ROW_BYTES // itemsize, 2 * int(col_len.max(initial=0)))
    bounds = [0]
    while bounds[-1] < (ends[-1] if ends else 0):
        bounds.append(ends[bisect.bisect_right(ends, bounds[-1] + cap) - 1])
    return np.diff(bounds)


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
    count_key = top < values.size and gbits + sbits + cbits <= np.iinfo(key_type).bits
    if count_key:
        lbits = cbits
    step_keys = np.arange(n_steps, dtype=key_type) << lbits
    f_table = None
    if q == 0.0:
        # np.take copies an index it may not write to on every call, and
        # the table's arrays are read-only
        samples = samples.copy()
    else:
        if count_key:
            low = values
            # f(x) = f_table[x], read-only and shared by the workers
            f_table = np.empty(top + 1, dtype=np.float64)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                _f(np.arange(top + 1, dtype=np.float64), q, out=f_table)
            f_table[0] = 0.0  # f(0) = 0, where x ln x gives NaN
        else:
            seg_start = np.repeat(col_start, col_len)
            low = np.arange(samples.size) - seg_start
        # the entries laid out as rows of whole segments, each padded with
        # the key type's maximum, which sorts after every real key; entry i
        # sits at row_of[i] of the flattened rows
        row_len = _rows(col_len, np.dtype(key_type).itemsize)
        filled = np.arange(row_len.max(initial=0)) < row_len[:, None]
        row_of = np.flatnonzero(filled)
        row_samples = np.zeros(filled.shape, dtype=samples.dtype)
        row_samples[filled] = samples
        base = np.repeat(np.arange(col_len.size, dtype=key_type), col_len)
        base <<= sbits + lbits
        base |= low.astype(key_type)
        row_base = np.full(filled.shape, np.iinfo(key_type).max, dtype=key_type)
        row_base[filled] = base
        del filled, base, low

    def work(rows):
        # per-worker buffers, reused: each pass writes into one of them. A
        # take in any mode but "raise" writes its out array directly, and an
        # int64 (intp) index is taken without a cast; every index is in range.
        inv = np.empty(n_steps, dtype=key_type)
        keys = np.empty(samples.size, dtype=key_type)
        if q != 0.0:
            row_keys = np.empty_like(row_base)
            ints = np.empty(samples.size, dtype=np.int64)  # slots, running sums, steps
            gain = np.empty(samples.size, dtype=np.float64)  # counts, totals, gains
            f = np.empty_like(gain)
        # numpy's error state is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for r in rows:
                inv[perms[r]] = step_keys
                if q == 0.0:
                    # a taxon enters the curve at its first step, the
                    # smallest step key over its segment
                    np.take(inv, samples, out=keys, mode="wrap")
                    steps, gain = np.minimum.reduceat(keys, col_start) >> lbits, None
                else:
                    np.take(inv, row_samples, out=row_keys, mode="wrap")
                    row_keys |= row_base
                    # the keys are unique and no segment spans two rows, so
                    # sorting each row gives the (taxon, step) order of the list
                    row_keys.sort(axis=1)
                    np.take(row_keys, row_of, out=keys, mode="wrap")
                    counts = gain.view(np.int64)
                    if f_table is None:
                        np.bitwise_and(keys, (1 << lbits) - 1, out=ints)
                        ints += seg_start
                        np.take(values, ints, out=counts, mode="wrap")
                    else:
                        np.bitwise_and(keys, (1 << lbits) - 1, out=counts)
                    # a running sum over the whole list restarts at each segment
                    # once its first count has the pooled total before it taken off
                    np.subtract.at(counts, col_start[1:], pooled[:-1])
                    np.cumsum(counts, out=ints)
                    if f_table is None:
                        np.copyto(gain, ints)  # exact in int64, then rounded
                        _f(gain, q, out=f)
                    else:
                        np.take(f_table, ints, out=f, mode="wrap")
                    # each entry's change to its taxon's f; a segment starts from f(0) = 0
                    np.subtract(f[1:], f[:-1], out=gain[1:])
                    gain[col_start] = f[col_start]
                    steps = np.right_shift(keys, lbits, out=ints)
                    steps &= (1 << sbits) - 1
                # each step's increment: the taxa it adds, or the f it adds
                out[r, :last] = np.bincount(steps, weights=gain, minlength=n_steps)[:last]

    _split(work, n_rep)
    # one tail forms every curve from its increments, a block of replicates
    # at a time: about nnz / 8 cells, so that its temporaries stay within
    # one worker's buffers
    block = max(1, samples.size // (8 * n_steps))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n_rep, block):
            acc = out[start : start + block, :last]
            np.cumsum(acc, axis=1, out=acc)
            if q != 0.0:
                n_k = np.cumsum(sample_totals[perms[start : start + block, :last]], axis=1)
                acc[...] = _hill(acc, n_k.astype(np.float64), q)
            if not np.isfinite(acc).all():
                raise NonFiniteValue(_overflow(q))
    return out
