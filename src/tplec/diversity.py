"""Hill-number diversity and resampled diversity-accumulation curves.

An ``AbundanceTable`` keeps only its nonzero cells, taxon-major, which
is the form the accumulation kernel (``_kernels``) takes; the dense
samples x taxa matrix exists only when ``counts`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    CountOverflow,
    EmptyCommunity,
    InvalidArgument,
    InvalidPermutation,
    NegativeCount,
    NonFiniteValue,
)

_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64_array(counts) -> np.ndarray:
    """``counts`` as an int64 array, which is ``counts`` itself if it is one.

    A cell that the conversion would change (1.5, 2**63) or cannot make
    (NaN, None) raises ``InvalidArgument``.
    """
    try:
        array = np.asarray(counts)
        if array.dtype == np.int64:
            return array
        with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
            converted = array.astype(np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgument(f"counts cannot be read as int64: {exc}") from None
    if not np.array_equal(converted, array):
        raise InvalidArgument(
            f"counts must be integers in the int64 range; a {array.dtype} cell is not"
        )
    return converted


@dataclass(frozen=True, eq=False, init=False)
class AbundanceTable:
    """Community counts, samples by taxa, kept as their nonzero cells.

    The cells are stored once, taxon-major: taxon j owns the next
    ``lengths[j]`` entries of ``samples`` (sample indices, ascending) and
    ``values`` (its positive int64 counts in those samples).
    ``sample_totals`` is each sample's total count. All four arrays are
    read-only. ``counts`` builds the dense samples x taxa int64 matrix on
    demand.

    ``AbundanceTable(sample_ids, taxon_ids, counts)`` takes that dense
    matrix, or any array or nested sequence of its shape whose cells are
    nonnegative integers in the int64 range. Every sample needs a
    positive count, and all the counts together must fit in int64, which
    bounds every sum the kernel forms.
    """

    sample_ids: tuple[str, ...]
    taxon_ids: tuple[str, ...]
    lengths: np.ndarray
    samples: np.ndarray
    values: np.ndarray
    sample_totals: np.ndarray

    def __init__(self, sample_ids, taxon_ids, counts):
        counts = _int64_array(counts)
        if counts.shape != (len(sample_ids), len(taxon_ids)):
            raise InvalidArgument(
                f"counts shape {counts.shape} does not match "
                f"{len(sample_ids)} samples x {len(taxon_ids)} taxa"
            )
        if np.any(counts < 0):
            raise NegativeCount("abundance counts must be nonnegative")
        cells = np.flatnonzero(counts)
        self._keep(sample_ids, taxon_ids, cells, counts.ravel()[cells])

    @classmethod
    def _from_cells(cls, sample_ids, taxon_ids, cells, values) -> "AbundanceTable":
        """The table of a parsed file's nonzero cells.

        ``cells`` holds each cell's flat index ``sample * n_taxa + taxon``
        in ascending order and ``values`` its count, every one positive.
        """
        table = cls.__new__(cls)
        table._keep(sample_ids, taxon_ids, cells, values)
        return table

    def _keep(self, sample_ids, taxon_ids, cells, values) -> None:
        n_samples, n_taxa = len(sample_ids), len(taxon_ids)
        samples, taxa = np.divmod(cells, max(n_taxa, 1))
        starts = np.searchsorted(samples, np.arange(n_samples + 1))
        empty = np.flatnonzero(starts[1:] == starts[:-1])
        if empty.size:
            raise EmptyCommunity(
                f"sample {sample_ids[empty[0]]!r} has no positive count"
            )
        # each count fits in int64; their total, which bounds every running
        # and sample total, is summed exactly only when it might not
        if values.size and int(values.max()) > _INT64_MAX // values.size:
            if sum(values.tolist()) > _INT64_MAX:
                raise CountOverflow("the total of all counts exceeds the int64 range")
        sample_totals = (
            np.add.reduceat(values, starts[:-1])
            if n_samples
            else np.zeros(0, dtype=np.int64)
        )
        # a stable sort keeps each taxon's samples ascending; on small
        # unsigned ids numpy sorts by radix
        taxa = taxa.astype(np.min_scalar_type(max(n_taxa - 1, 0)))
        order = np.argsort(taxa, kind="stable")
        fields = {
            "sample_ids": sample_ids,
            "taxon_ids": taxon_ids,
            "lengths": np.bincount(taxa, minlength=n_taxa),
            "samples": samples[order],
            "values": values[order],
            "sample_totals": sample_totals,
        }
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def counts(self) -> np.ndarray:
        """The dense samples x taxa int64 matrix, built on each read, read-only."""
        counts = np.zeros((self.n_samples, self.n_taxa), dtype=np.int64)
        taxa = np.repeat(np.arange(self.n_taxa), self.lengths)
        counts[self.samples, taxa] = self.values
        counts.flags.writeable = False
        return counts

    def __eq__(self, other):
        if type(other) is not AbundanceTable:
            return NotImplemented
        labels = (self.sample_ids, self.taxon_ids) == (other.sample_ids, other.taxon_ids)
        return labels and all(
            np.array_equal(mine, theirs)
            for mine, theirs in (
                (self.lengths, other.lengths),
                (self.samples, other.samples),
                (self.values, other.values),
            )
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
    if not np.isfinite(arr).all():
        raise NonFiniteValue("counts must be finite")
    if np.any(arr < 0):
        raise NegativeCount("counts must be nonnegative")
    if not np.any(arr > 0):
        raise EmptyCommunity("all counts are zero")
    return _kernels.hill_direct(arr, float(q))


def _curves(table: AbundanceTable, perms: np.ndarray, q: float) -> np.ndarray:
    return _kernels.accumulation_curves(
        table.values, perms, float(q), table.lengths, table.samples, table.sample_totals
    )


def accumulate(table: AbundanceTable, order, q: float) -> np.ndarray:
    """Per-step pooled diversity along one sample ordering.

    Entry k is the Hill number of the element-wise sum of the first
    k samples in ``order``.
    """
    _check_order(q)
    try:
        perm = _int64_array(order)  # 0.5 or "a" is no sample index
    except InvalidArgument:
        perm = None
    if perm is None or perm.shape != (table.n_samples,) or not np.array_equal(
        np.sort(perm), np.arange(table.n_samples)
    ):
        raise InvalidPermutation(
            f"order must be a permutation of 0..{table.n_samples - 1}"
        )
    return _curves(table, perm[None, :], q)[0]


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
    curves = _curves(table, perms, q)

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
