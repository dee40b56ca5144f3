"""Hot accumulation kernel: per-step Hill numbers along sample orderings.

The table is sparse (most taxa are absent from most samples), so the
kernel works on the list of nonzero entries and never forms a
cumulative samples-by-taxa matrix. For each replicate:

1. gather the nonzero entries in step order, using the row offsets of
   the sample-major (CSR) entry list built once per call;
2. stable-sort them by taxon id, which leaves each taxon's entries in
   step order (the ids are stored in the narrowest unsigned dtype, so
   up to 65536 taxa numpy radix-sorts them);
3. take each taxon's running total with a segmented ``cumsum``;
4. add ``f(new) - f(old)`` per step with ``bincount`` and ``cumsum``
   over steps, where ``f(x) = x ln x`` at q = 1 and ``x**q`` otherwise.
   At q = 0 the curve counts each taxon at its first-occurrence step.

Memory per replicate is O(nnz); replicates are processed one at a time.
The final step is evaluated directly from the fully pooled count vector,
so every replicate ends on the bit-identical value.
"""

from __future__ import annotations

import numpy as np


def hill_direct(pooled: np.ndarray, q: float) -> float:
    """q-order Hill number of one pooled count vector (caller validates)."""
    c = pooled[pooled > 0].astype(np.float64)
    n = c.sum()
    if q == 0.0:
        return float(c.size)
    if q == 1.0:
        s1 = float((c * np.log(c)).sum())
        return float(np.exp(np.log(n) - s1 / n))
    sq = float((c**q).sum())
    return float((sq / n**q) ** (1.0 / (1.0 - q)))


def accumulation_curves(
    counts: np.ndarray, perms: np.ndarray, q: float
) -> np.ndarray:
    """Per-step Hill numbers along each permutation, one row per replicate."""
    n_rep, n_steps = perms.shape
    last = n_steps - 1
    out = np.empty((n_rep, n_steps), dtype=np.float64)
    out[:, last] = hill_direct(counts.sum(axis=0), q)

    rows, cols = np.nonzero(counts)
    data = counts[rows, cols]
    sample_total = counts.sum(axis=1)
    row_len = np.bincount(rows, minlength=counts.shape[0])
    row_start = np.cumsum(row_len) - row_len
    taxon = cols.astype(np.min_scalar_type(max(counts.shape[1] - 1, 0)))
    # every replicate sorts the same entries by taxon, so each taxon's
    # segment sits at the same sorted positions every time
    col_len = np.bincount(cols, minlength=counts.shape[1])
    col_len = col_len[col_len > 0]
    col_start = np.cumsum(col_len) - col_len
    seg_start = np.repeat(col_start, col_len)
    first = np.zeros(rows.size, dtype=bool)
    first[col_start] = True

    for r in range(n_rep):
        perm = perms[r]
        lens = row_len[perm]
        ends = np.cumsum(lens)
        # CSR positions of the entries in step order, then stably by taxon
        idx = np.arange(rows.size) + np.repeat(row_start[perm] - (ends - lens), lens)
        order = np.argsort(taxon[idx], kind="stable")
        steps = np.repeat(np.arange(n_steps), lens)[order]
        if q == 0.0:
            gained = np.bincount(steps[first], minlength=n_steps)
            out[r, :last] = np.cumsum(gained[:last])
            continue
        before = np.concatenate(([0], np.cumsum(data[idx[order]])))
        total = (before[1:] - before[seg_start]).astype(np.float64)
        f = total * np.log(total) if q == 1.0 else total**q
        delta = f.copy()
        delta[1:] -= f[:-1]
        delta[first] = f[first]
        acc = np.cumsum(np.bincount(steps, weights=delta, minlength=n_steps)[:last])
        n_k = np.cumsum(sample_total[perm[:last]]).astype(np.float64)
        if q == 1.0:
            out[r, :last] = np.exp(np.log(n_k) - acc / n_k)
        else:
            out[r, :last] = (acc / n_k**q) ** (1.0 / (1.0 - q))
    return out
