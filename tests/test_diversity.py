"""Tests for Hill numbers and resampled accumulation curves."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tplec import (
    AbundanceTable,
    accumulate,
    hill_number,
    parse_abundance_table,
    resample_accumulation,
)
from tplec.errors import (
    CountOverflow,
    EmptyCommunity,
    InvalidPermutation,
    NegativeCount,
    NonFiniteValue,
)

# small community with overlapping taxa; used for the exhaustive
# permutation oracle below
THREE_SAMPLES = AbundanceTable(
    sample_ids=("s1", "s2", "s3"),
    taxon_ids=("t1", "t2", "t3", "t4"),
    counts=np.array(
        [
            [5, 0, 2, 0],
            [0, 3, 1, 0],
            [1, 1, 0, 4],
        ]
    ),
)

# a count of 1000, whose 120th power overflows float64
LARGE_COUNT = AbundanceTable(("s1", "s2"), ("t1", "t2"), [[1000, 1], [5, 0]])


def pooled_hill_oracle(count_vectors, q: float) -> float:
    """Brute-force Hill number of summed counts, coded independently."""
    totals = [sum(col) for col in zip(*count_vectors)]
    positive = [v for v in totals if v > 0]
    n = sum(positive)
    if q == 0:
        return float(len(positive))
    probs = [v / n for v in positive]
    if q == 1:
        return math.exp(-sum(p * math.log(p) for p in probs))
    return sum(p**q for p in probs) ** (1.0 / (1.0 - q))


def exhaustive_accumulation_oracle(table: AbundanceTable, q: float):
    """Per-step value lists over every permutation of the samples."""
    n = table.n_samples
    per_step = [[] for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        for k in range(1, n + 1):
            vectors = [table.counts[i] for i in perm[:k]]
            per_step[k - 1].append(pooled_hill_oracle(vectors, q))
    return per_step


class TestHillNumber:
    def test_richness(self):
        assert hill_number([5, 3, 2], 0) == 3.0

    def test_uniform_community_equals_richness_at_any_order(self):
        for q in (0, 1, 2):
            assert hill_number([4, 4, 4, 4], q) == pytest.approx(4.0, rel=1e-14)

    def test_two_taxon_arithmetic(self):
        assert hill_number([8, 2], 2) == pytest.approx(1.0 / 0.68, rel=1e-12)
        expected_q1 = math.exp(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)))
        assert hill_number([8, 2], 1) == pytest.approx(expected_q1, rel=1e-12)

    def test_matches_oracle_for_fractional_orders(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            counts = rng.integers(0, 20, size=12)
            if counts.sum() == 0:
                counts[0] = 1
            for q in (0.0, 0.5, 1.0, 2.0, 3.0):
                expected = pooled_hill_oracle([counts.tolist()], q)
                assert hill_number(counts, q) == pytest.approx(expected, rel=1e-12)

    def test_empty_community_rejected(self):
        with pytest.raises(EmptyCommunity):
            hill_number([0, 0, 0], 0)

    def test_negative_counts_rejected(self):
        with pytest.raises(NegativeCount):
            hill_number([1, -1, 2], 0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hill_number([1, 2], -0.5)

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(42)
        counts = rng.integers(0, 50, size=30)
        counts[0] = 3
        for q in (0, 0.5, 1, 2):
            base = hill_number(counts, q)
            for _ in range(5):
                shuffled = rng.permutation(counts)
                assert hill_number(shuffled, q) == pytest.approx(base, rel=1e-12)

    def test_self_pooling_preserves_richness(self):
        counts = [7, 0, 3, 1]
        doubled = [2 * v for v in counts]
        assert hill_number(counts, 0) == hill_number(doubled, 0)

    @pytest.mark.parametrize(
        "counts, q",
        [
            ([1000, 1, 5], 120.0),  # 1000**120 overflows
            ([1] * 1000, 110.0),  # each 1**q is 1, but the total's 1000**110 is not
            ([1e308, 1.0], 1.0),  # 1e308 * ln(1e308) overflows
            ([1e308, 1e308], 0.5),  # so does the total
        ],
    )
    def test_overflowing_order_raises_naming_q(self, counts, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(NonFiniteValue, match=f"at q = {q:g} "):
                hill_number(counts, q)


class TestAccumulate:
    def test_single_sample(self):
        table = AbundanceTable(("only",), ("a", "b", "c"), np.array([[2, 0, 5]]))
        values = accumulate(table, [0], q=0)
        assert values.tolist() == [2.0]

    def test_disjoint_samples_add_richness(self):
        table = AbundanceTable(
            ("x", "y"),
            ("a", "b", "c", "d", "e"),
            np.array([[1, 1, 1, 0, 0], [0, 0, 0, 2, 3]]),
        )
        assert accumulate(table, [0, 1], q=0).tolist() == [3.0, 5.0]
        assert accumulate(table, [1, 0], q=0).tolist() == [2.0, 5.0]

    def test_every_permutation_matches_bruteforce(self):
        for q in (0.0, 1.0, 2.0):
            for perm in itertools.permutations(range(3)):
                got = accumulate(THREE_SAMPLES, perm, q)
                for k in range(1, 4):
                    expected = pooled_hill_oracle(
                        [THREE_SAMPLES.counts[i] for i in perm[:k]], q
                    )
                    assert got[k - 1] == pytest.approx(expected, rel=1e-12)

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPermutation):
            accumulate(THREE_SAMPLES, [0, 1, 1], q=0)
        with pytest.raises(InvalidPermutation):
            accumulate(THREE_SAMPLES, [0, 1], q=0)

    def test_float_order_is_not_truncated(self):
        with pytest.raises(InvalidPermutation):
            accumulate(THREE_SAMPLES, [0.5, 1, 2], q=0)
        # an integral float is read exactly
        assert accumulate(THREE_SAMPLES, [2.0, 0.0, 1.0], q=0).tolist() == (
            accumulate(THREE_SAMPLES, [2, 0, 1], q=0).tolist()
        )

    @pytest.mark.parametrize("order", [["a", "b", "c"], ["0", "1", "2"]])
    def test_string_order_raises_invalid_permutation(self, order):
        with pytest.raises(InvalidPermutation):
            accumulate(THREE_SAMPLES, order, q=0)

    def test_overflowing_order_raises_naming_q(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="at q = 120 "):
                accumulate(LARGE_COUNT, [1, 0], q=120.0)


class TestResampleAccumulation:
    def test_deterministic_given_seed(self):
        a = resample_accumulation(THREE_SAMPLES, replicates=50, q=0, seed=9)
        b = resample_accumulation(THREE_SAMPLES, replicates=50, q=0, seed=9)
        assert np.array_equal(a.mean_diversity, b.mean_diversity)
        assert np.array_equal(a.variance_diversity, b.variance_diversity)

    def test_final_step_variance_exactly_zero(self):
        for q in (0.0, 1.0, 2.0):
            curve = resample_accumulation(THREE_SAMPLES, replicates=64, q=q, seed=3)
            assert curve.variance_diversity[-1] == 0.0

    def test_final_step_mean_equals_pooled_diversity(self):
        for q in (0.0, 0.5, 1.0, 2.0):
            curve = resample_accumulation(THREE_SAMPLES, replicates=16, q=q, seed=4)
            assert curve.mean_diversity[-1] == hill_number(
                THREE_SAMPLES.counts.sum(axis=0), q
            )

    def test_mean_curve_monotone_for_richness(self):
        curve = resample_accumulation(THREE_SAMPLES, replicates=100, q=0, seed=5)
        diffs = np.diff(curve.mean_diversity)
        assert np.all(diffs >= 0)

    def test_every_replicate_sequence_monotone_for_richness(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            counts = rng.integers(0, 4, size=(8, 15))
            for i in range(8):
                if counts[i].sum() == 0:
                    counts[i, 0] = 1
            table = AbundanceTable(
                tuple(f"s{i}" for i in range(8)),
                tuple(f"t{j}" for j in range(15)),
                counts,
            )
            for _ in range(10):
                order = rng.permutation(8)
                values = accumulate(table, order, q=0)
                assert np.all(np.diff(values) >= 0)

    def test_converges_to_exhaustive_oracle(self):
        replicates = 4000
        curve = resample_accumulation(THREE_SAMPLES, replicates=replicates, q=0, seed=6)
        per_step = exhaustive_accumulation_oracle(THREE_SAMPLES, 0.0)
        for k, values in enumerate(per_step):
            mu = sum(values) / len(values)
            var = sum((v - mu) ** 2 for v in values) / len(values)
            se_mean = math.sqrt(var / replicates) if var > 0 else 0.0
            assert abs(curve.mean_diversity[k] - mu) <= max(3 * se_mean, 1e-12)

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            resample_accumulation(THREE_SAMPLES, replicates=1, q=0, seed=0)

    def test_overflowing_order_raises_naming_q(self):
        # the means were inf, with RuntimeWarnings from the kernel's workers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="at q = 120 "):
                resample_accumulation(LARGE_COUNT, replicates=10, q=120.0, seed=0)


class TestAbundanceTable:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AbundanceTable(("a",), ("x", "y"), np.array([[1, 2, 3]]))

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyCommunity):
            AbundanceTable(
                ("a", "b"), ("x", "y"), np.array([[1, 0], [0, 0]])
            )

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCount):
            AbundanceTable(("a",), ("x", "y"), np.array([[1, -2]]))

    def test_keeps_the_taxon_major_nonzero_list(self):
        counts = np.array([[0, 4, 1], [2, 0, 0], [5, 3, 0]])
        table = AbundanceTable(("a", "b", "c"), ("x", "y", "z"), counts)
        assert table.lengths.tolist() == [2, 2, 1]
        assert table.samples.tolist() == [1, 2, 0, 2, 0]
        assert table.values.tolist() == [2, 5, 4, 3, 1]
        assert table.sample_totals.tolist() == [5, 2, 8]
        assert table.counts.tolist() == counts.tolist()
        for array in (table.lengths, table.samples, table.values, table.counts):
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "counts, expect",
        [
            ([[1, 2], [3, 2**63 - 7]], None),  # the total is the int64 maximum
            ([[1, 2], [3, 2**63 - 6]], CountOverflow),
            ([[2**62] * 4, [1] * 4], CountOverflow),  # not a sample that wraps to 0
            ([[2**62, 2**62], [0, 0]], EmptyCommunity),
        ],
        ids=["int64_max", "one_more", "sample_wraps", "empty_first"],
    )
    def test_count_total_must_fit_in_int64(self, counts, expect):
        build = lambda: AbundanceTable(("a", "b"), tuple("wxyz"[: len(counts[0])]), counts)
        if expect is None:
            assert build().sample_totals.tolist() == [3, 2**63 - 4]
        else:
            with pytest.raises(expect):
                build()


def test_parse_and_accumulate_memory_grows_with_the_nonzero_cells():
    # 400 x 40 000 cells at 0.1% density: 31 MB of text, 128 MB as an int64 matrix
    rng = np.random.default_rng(8)
    n_samples, n_taxa = 400, 40_000
    zeros = ["0"] * n_taxa
    lines = ["sample_id\t" + "\t".join(f"t{j}" for j in range(n_taxa))]
    for i in range(n_samples):
        row = zeros.copy()
        for j in rng.choice(n_taxa, size=40, replace=False):
            row[j] = str(rng.integers(1, 1000))
        lines.append(f"s{i}\t" + "\t".join(row))
    text = "\n".join(lines) + "\n"
    data = text.encode()
    del lines
    tracemalloc.start()
    try:
        table = parse_abundance_table(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        del table
        tracemalloc.reset_peak()
        table = parse_abundance_table(data)  # as `tplec dar` reads a file
        bytes_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        accumulate(table, np.arange(n_samples), 1.0)
        accumulate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.size == n_samples * 40
    assert parse_peak < 100e6
    assert bytes_peak < 10e6
    assert accumulate_peak < 10e6
