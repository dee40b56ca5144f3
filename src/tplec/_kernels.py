"""Hot accumulation kernel: per-step Hill numbers along sample orderings.

The table is sparse (most taxa are absent from most samples), so the
kernel works on the taxon-major (CSC) list of nonzero entries and never
forms a cumulative samples-by-taxa matrix. Each taxon owns one segment
of that list. A sample ordering only reorders the entries inside each
segment, so two things are fixed once per call:

* every entry's packed key ``segment | slot``, where ``slot`` is the
  entry's index within its segment (``uint32`` when segment, step and
  slot fit in 32 bits together, ``uint64`` otherwise);
* every segment's offset, the sum of all counts in the segments before
  it, which is what a running sum over the list holds on entering it.

For each replicate the kernel then

1. maps each entry's sample to its step through the inverse
   permutation and packs the step between segment and slot;
2. sorts the keys with one ``np.sort`` (the keys are unique), which
   puts each taxon's entries in step order;
3. unpacks steps and slots, gathers the counts by slot and takes each
   taxon's running total as one ``cumsum`` minus the segment offsets;
4. adds ``f(new) - f(old)`` per step with ``bincount`` and ``cumsum``
   over steps, where ``f(x) = x ln x`` at q = 1 and ``x**q`` otherwise.

At q = 0 no sort is needed: a taxon enters the curve at its first
step, the minimum step over its segment (``np.minimum.reduceat``),
and one ``bincount`` + ``cumsum`` of those steps gives the curve.

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


def _bits(n: int) -> int:
    """Bits needed to store every integer in 0..n-1."""
    return max(int(n) - 1, 0).bit_length()


def accumulation_curves(
    counts: np.ndarray, perms: np.ndarray, q: float
) -> np.ndarray:
    """Per-step Hill numbers along each permutation, one row per replicate."""
    n_rep, n_steps = perms.shape
    last = n_steps - 1
    out = np.empty((n_rep, n_steps), dtype=np.float64)
    out[:, last] = hill_direct(counts.sum(axis=0), q)

    # flat indices of the transposed mask are taxon * n_samples + sample
    taxa, samples = np.divmod(np.flatnonzero((counts != 0).T), counts.shape[0])
    col_len = np.bincount(taxa)
    col_len = col_len[col_len > 0]
    col_start = np.cumsum(col_len) - col_len

    if q == 0.0:
        inv = np.empty(n_steps, dtype=np.min_scalar_type(max(last, 0)))
        step_ids = np.arange(n_steps, dtype=inv.dtype)
        for r in range(n_rep):
            inv[perms[r]] = step_ids
            firsts = np.minimum.reduceat(inv[samples], col_start)
            gained = np.bincount(firsts, minlength=n_steps)
            out[r, :last] = np.cumsum(gained[:last])
        return out

    data = counts[samples, taxa]
    sample_total = counts.sum(axis=1)
    seg_start = np.repeat(col_start, col_len)
    # a segment's entries only change order, so the running sum over the
    # list on entering the segment is the same for every replicate
    offset = np.repeat(np.cumsum(data)[col_start] - data[col_start], col_len)
    # key = segment | step | slot, with slot the index within the segment
    lbits = _bits(col_len.max(initial=1))
    sbits = _bits(n_steps)
    gbits = _bits(col_len.size)
    key_type = np.uint32 if gbits + sbits + lbits <= 32 else np.uint64
    base = np.repeat(np.arange(col_len.size, dtype=key_type), col_len)
    base <<= sbits + lbits
    base |= (np.arange(samples.size) - seg_start).astype(key_type)
    inv = np.empty(n_steps, dtype=key_type)
    step_keys = np.arange(n_steps, dtype=key_type) << lbits

    for r in range(n_rep):
        perm = perms[r]
        inv[perm] = step_keys
        # the keys are unique, so any sort gives the (taxon, step) order
        keys = np.sort(base | inv[samples])
        steps = ((keys >> lbits) & ((1 << sbits) - 1)).astype(np.intp)
        slot = (keys & ((1 << lbits) - 1)).astype(np.intp)
        total = (np.cumsum(data[seg_start + slot]) - offset).astype(np.float64)
        f = total * np.log(total) if q == 1.0 else total**q
        prev = np.empty_like(f)
        prev[1:] = f[:-1]
        prev[col_start] = 0.0
        acc = np.cumsum(np.bincount(steps, weights=f - prev, minlength=n_steps)[:last])
        n_k = np.cumsum(sample_total[perm[:last]]).astype(np.float64)
        if q == 1.0:
            out[r, :last] = np.exp(np.log(n_k) - acc / n_k)
        else:
            out[r, :last] = (acc / n_k**q) ** (1.0 / (1.0 - q))
    return out
