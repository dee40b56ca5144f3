"""Hill-number diversity and resampled diversity-accumulation curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    EmptyCommunity,
    InvalidArgument,
    InvalidPermutation,
    NegativeCount,
)


@dataclass(frozen=True)
class AbundanceTable:
    """Community count matrix, samples by taxa."""

    sample_ids: tuple[str, ...]
    taxon_ids: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (len(self.sample_ids), len(self.taxon_ids)):
            raise InvalidArgument(
                f"counts shape {counts.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.taxon_ids)} taxa"
            )
        if np.any(counts < 0):
            raise NegativeCount("abundance counts must be nonnegative")
        empty = np.where(counts.sum(axis=1) == 0)[0]
        if empty.size:
            raise EmptyCommunity(
                f"sample {self.sample_ids[empty[0]]!r} has no positive count"
            )

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_taxa(self) -> int:
        return len(self.taxon_ids)


@dataclass(frozen=True)
class AccumulationCurve:
    """Across-replicate mean and variance of cumulative diversity.

    Entry k - 1 describes the diversity of the first k pooled samples.
    The variance at the final step is zero because every permutation
    pools the same full set.
    """

    mean_diversity: np.ndarray
    variance_diversity: np.ndarray
    replicates: int
    q: float
    seed: int


def _check_order(q: float) -> None:
    if not (np.isfinite(q) and q >= 0):
        raise InvalidArgument(f"diversity order q must be finite and >= 0, got {q}")


def hill_number(counts, q: float) -> float:
    """Diversity of order q: richness at q = 0, exp-Shannon at q = 1,
    inverse Simpson at q = 2, and ``(sum p_i**q)**(1/(1-q))`` in general.
    """
    _check_order(q)
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgument("counts must be one-dimensional")
    if np.any(arr < 0):
        raise NegativeCount("counts must be nonnegative")
    if not np.any(arr > 0):
        raise EmptyCommunity("all counts are zero")
    return _kernels.hill_direct(arr, float(q))


def accumulate(table: AbundanceTable, order, q: float) -> np.ndarray:
    """Per-step pooled diversity along one sample ordering.

    Entry k is the Hill number of the element-wise sum of the first
    k samples in ``order``.
    """
    _check_order(q)
    perm = np.asarray(order, dtype=np.int64)
    if perm.shape != (table.n_samples,) or not np.array_equal(
        np.sort(perm), np.arange(table.n_samples)
    ):
        raise InvalidPermutation(
            f"order must be a permutation of 0..{table.n_samples - 1}"
        )
    return _kernels.accumulation_curves(table.counts, perm[None, :], float(q))[0]


def resample_accumulation(
    table: AbundanceTable, replicates: int, q: float, seed: int
) -> AccumulationCurve:
    """Accumulation curve averaged over uniformly random sample orderings.

    Replicate r draws its permutation from a generator seeded with
    ``seed + r``, so results are reproducible and independent of how the
    replicate loop is scheduled. The per-step variance is the unbiased
    (n - 1) sample variance across replicates; steps where every
    replicate agrees bit-for-bit report exactly zero.
    """
    if replicates < 2:
        raise InvalidArgument(f"need at least 2 replicates, got {replicates}")
    if seed < 0:
        raise InvalidArgument(f"seed must be nonnegative, got {seed}")
    _check_order(q)
    n = table.n_samples
    perms = np.empty((replicates, n), dtype=np.int64)
    for r in range(replicates):
        perms[r] = np.random.default_rng(seed + r).permutation(n)
    curves = _kernels.accumulation_curves(table.counts, perms, float(q))

    lo = curves.min(axis=0)
    hi = curves.max(axis=0)
    same = hi == lo
    mean = np.where(same, hi, curves.mean(axis=0))
    variance = np.where(same, 0.0, curves.var(axis=0, ddof=1))
    return AccumulationCurve(
        mean_diversity=mean,
        variance_diversity=variance,
        replicates=replicates,
        q=float(q),
        seed=seed,
    )
