"""The sparse accumulation kernel against independent oracles."""

import mpmath as mp
import numpy as np
import pytest

from tplec import _kernels

ORDERS = [0.0, 0.5, 1.0, 2.0, 3.0]


def random_table(rng, n_samples=20, n_taxa=30, density=0.3, high=6):
    counts = np.where(
        rng.random((n_samples, n_taxa)) < density,
        rng.integers(1, high, size=(n_samples, n_taxa)),
        0,
    )
    # keep every sample non-empty
    for i in range(n_samples):
        if counts[i].sum() == 0:
            counts[i, rng.integers(0, n_taxa)] = 1
    return counts.astype(np.int64)


def random_perms(rng, replicates, n_samples):
    return np.stack([rng.permutation(n_samples) for _ in range(replicates)]).astype(
        np.int64
    )


def pooled_hill(pooled, q):
    """Hill number of one count vector in 40-digit arithmetic."""
    c = [int(v) for v in pooled if v > 0]
    if q == 0.0:
        return float(len(c))
    with mp.workdps(40):
        n = mp.mpf(sum(c))
        p = [mp.mpf(v) / n for v in c]
        if q == 1.0:
            return float(mp.exp(-mp.fsum(x * mp.log(x) for x in p)))
        return float(mp.fsum(x ** mp.mpf(q) for x in p) ** (1 / (1 - mp.mpf(q))))


def brute_force_curves(counts, perms, q):
    """Per-step Hill number of the pooled prefix, one prefix at a time."""
    return np.array(
        [
            [pooled_hill(counts[perm[: k + 1]].sum(axis=0), q) for k in range(len(perm))]
            for perm in perms
        ]
    )


def dense_curves(counts, perms, q):
    """The original dense loop: one cumulative samples-by-taxa matrix per replicate."""
    out = np.empty(perms.shape, dtype=np.float64)
    final = _kernels.hill_direct(counts.sum(axis=0), q)
    for r, perm in enumerate(perms):
        cf = np.cumsum(counts[perm], axis=0).astype(np.float64)
        if q == 0.0:
            vals = np.count_nonzero(cf > 0, axis=1).astype(np.float64)
        else:
            n_k = cf.sum(axis=1)
            safe = np.where(cf > 0, cf, 1.0)
            if q == 1.0:
                vals = np.exp(np.log(n_k) - (safe * np.log(safe)).sum(axis=1) / n_k)
            else:
                sq = np.where(cf > 0, cf**q, 0.0).sum(axis=1)
                vals = (sq / n_k**q) ** (1.0 / (1.0 - q))
        vals[-1] = final
        out[r] = vals
    return out


def assert_curves_match(got, want, q):
    if q == 0.0:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("q", ORDERS)
def test_matches_brute_force_pooled_hill(q):
    rng = np.random.default_rng(17)
    counts = random_table(rng)
    perms = random_perms(rng, replicates=4, n_samples=counts.shape[0])
    got = _kernels.accumulation_curves(counts, perms, q)
    assert_curves_match(got, brute_force_curves(counts, perms, q), q)


@pytest.mark.parametrize("q", ORDERS)
def test_matches_dense_loop(q):
    rng = np.random.default_rng(21)
    counts = random_table(rng, n_samples=80, n_taxa=300, density=0.05, high=200)
    perms = random_perms(rng, replicates=10, n_samples=counts.shape[0])
    got = _kernels.accumulation_curves(counts, perms, q)
    assert_curves_match(got, dense_curves(counts, perms, q), q)


def _edge_table(name):
    rng = np.random.default_rng(22)
    if name == "single_sample":
        return np.array([[3, 0, 7, 1]], dtype=np.int64)
    counts = random_table(rng, n_samples=12, n_taxa=15)
    if name == "taxon_in_every_sample":
        counts[:, 4] = rng.integers(1, 9, size=12)
    elif name == "taxon_in_one_sample":
        counts[:, 4] = 0
        counts[7, 4] = 5
    elif name == "counts_near_1e6":
        # x ln x is ~1.4e7 here, so naive differences of it cancel badly
        counts = np.where(counts > 0, 10**6 - 3 + counts, 0)
    return counts


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize(
    "name",
    ["single_sample", "taxon_in_every_sample", "taxon_in_one_sample", "counts_near_1e6"],
)
def test_edge_tables_match_brute_force(name, q):
    counts = _edge_table(name)
    perms = random_perms(np.random.default_rng(23), 3, counts.shape[0])
    got = _kernels.accumulation_curves(counts, perms, q)
    assert got.shape == perms.shape
    assert_curves_match(got, brute_force_curves(counts, perms, q), q)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_final_column_bit_identical_across_replicates(q):
    rng = np.random.default_rng(18)
    counts = random_table(rng)
    perms = random_perms(rng, replicates=20, n_samples=counts.shape[0])
    final = _kernels.accumulation_curves(counts, perms, q)[:, -1]
    assert np.all(final == _kernels.hill_direct(counts.sum(axis=0), q))


def test_seeded_determinism():
    counts = random_table(np.random.default_rng(20))
    for q in (0.0, 1.0):
        a = _kernels.accumulation_curves(
            counts, random_perms(np.random.default_rng(5), 8, counts.shape[0]), q
        )
        b = _kernels.accumulation_curves(
            counts, random_perms(np.random.default_rng(5), 8, counts.shape[0]), q
        )
        assert np.array_equal(a, b)


def test_hill_direct_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(30):
        pooled = rng.integers(0, 30, size=50).astype(np.float64)
        if pooled.sum() == 0:
            pooled[0] = 1.0
        for q in ORDERS:
            want = pooled_hill(pooled, q)
            assert _kernels.hill_direct(pooled, q) == pytest.approx(want, rel=1e-12)
