"""The sparse accumulation kernel against independent oracles."""

import importlib.util
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from tplec import AbundanceTable, _kernels, accumulate, resample_accumulation
from tplec.diversity import hill_number
from tplec.errors import NonFiniteValue

from conftest import build_saturating_table, fail_in_helpers, set_workers

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


def kernel_curves(counts, perms, q):
    """The kernel on the nonzero list of a table built from a dense matrix."""
    ids = tuple(str(i) for i in range(max(counts.shape)))
    table = AbundanceTable(ids[: counts.shape[0]], ids[: counts.shape[1]], counts)
    return _kernels.accumulation_curves(
        table.values, perms, q, table.lengths, table.samples, table.sample_totals
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


def argsort_curves(counts, perms, q):
    """The former kernel loop: a stable argsort of the step-ordered entries by taxon.

    It visits each taxon's entries in step order, as the kernel does, so
    the two must agree bit for bit.
    """
    n_rep, n_steps = perms.shape
    last = n_steps - 1
    out = np.empty((n_rep, n_steps), dtype=np.float64)
    out[:, last] = _kernels.hill_direct(counts.sum(axis=0), q)

    rows, cols = np.nonzero(counts)
    data = counts[rows, cols]
    sample_total = counts.sum(axis=1)
    row_len = np.bincount(rows, minlength=counts.shape[0])
    row_start = np.cumsum(row_len) - row_len
    taxon = cols.astype(np.min_scalar_type(max(counts.shape[1] - 1, 0)))
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
    got = kernel_curves(counts, perms, q)
    assert_curves_match(got, brute_force_curves(counts, perms, q), q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


@pytest.mark.parametrize("q", ORDERS)
def test_matches_dense_loop(q):
    rng = np.random.default_rng(21)
    counts = random_table(rng, n_samples=80, n_taxa=300, density=0.05, high=200)
    perms = random_perms(rng, replicates=10, n_samples=counts.shape[0])
    got = kernel_curves(counts, perms, q)
    assert_curves_match(got, dense_curves(counts, perms, q), q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


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
    got = kernel_curves(counts, perms, q)
    assert got.shape == perms.shape
    assert_curves_match(got, brute_force_curves(counts, perms, q), q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_final_column_bit_identical_across_replicates(q):
    rng = np.random.default_rng(18)
    counts = random_table(rng)
    perms = random_perms(rng, replicates=20, n_samples=counts.shape[0])
    final = kernel_curves(counts, perms, q)[:, -1]
    assert np.all(final == _kernels.hill_direct(counts.sum(axis=0), q))


def test_seeded_determinism():
    counts = random_table(np.random.default_rng(20))
    for q in (0.0, 1.0):
        a = kernel_curves(counts, random_perms(np.random.default_rng(5), 8, counts.shape[0]), q)
        b = kernel_curves(counts, random_perms(np.random.default_rng(5), 8, counts.shape[0]), q)
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


def long_tailed_table(rng, n_samples=400, n_taxa=4000):
    """Sparse long-tailed community: rare incidence, log-series counts."""
    probs = np.geomspace(0.25, 0.002, n_taxa)
    tail = np.linspace(0.995, 0.6, n_taxa)
    present = rng.random((n_samples, n_taxa)) < probs
    counts = np.where(present, rng.logseries(np.broadcast_to(tail, present.shape)), 0)
    for i in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[i, rng.integers(0, n_taxa)] = 1
    return counts.astype(np.int64)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
def test_long_tailed_table_equals_argsort_oracle(q):
    rng = np.random.default_rng(33)
    counts = long_tailed_table(rng)
    perms = random_perms(rng, replicates=3, n_samples=counts.shape[0])
    got = kernel_curves(counts, perms, q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


def key_bits(counts):
    """Bits of a packed (taxon segment, step, slot) key for this table."""
    incidence = np.count_nonzero(counts, axis=0)
    n_segments = int(np.count_nonzero(incidence))
    width = lambda n: (n - 1).bit_length()  # bits for 0..n-1
    return width(n_segments) + width(counts.shape[0]) + width(int(incidence.max()))


def wide_key_table(rng, n_samples, n_taxa=2100):
    """Every taxon present, taxon 0 in every sample: 34 key bits at 1100 samples."""
    counts = np.zeros((n_samples, n_taxa), dtype=np.int64)
    counts[rng.integers(0, n_samples, size=n_taxa), np.arange(n_taxa)] = rng.integers(
        1, 40, size=n_taxa
    )
    extra = rng.random((n_samples, n_taxa)) < 0.002
    counts[extra] += rng.integers(1, 40, size=int(extra.sum()))
    counts[:, 0] = rng.integers(1, 40, size=n_samples)
    return counts


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize("n_samples, wide", [(1100, True), (300, False)], ids=["uint64", "uint32"])
def test_both_key_widths_match_dense_loop(n_samples, wide, q):
    rng = np.random.default_rng(34)
    counts = wide_key_table(rng, n_samples=n_samples)
    assert (key_bits(counts) > 32) == wide
    perms = random_perms(rng, replicates=2, n_samples=counts.shape[0])
    got = kernel_curves(counts, perms, q)
    assert_curves_match(got, dense_curves(counts, perms, q), q)
    assert np.array_equal(got, argsort_curves(counts, perms, q))


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started during the test, in start order."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize("q", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("n_samples, wide", [(1100, True), (300, False)], ids=["uint64", "uint32"])
def test_split_replicates_are_bit_identical(monkeypatch, thread_starts, n_samples, wide, q):
    rng = np.random.default_rng(34)
    counts = wide_key_table(rng, n_samples=n_samples)
    assert (key_bits(counts) > 32) == wide
    perms = random_perms(rng, replicates=4, n_samples=counts.shape[0])
    threads = threading.active_count()
    curves = {}
    for workers in (1, 2, 3, 6):  # 6 workers for 4 replicates leaves helpers idle
        set_workers(monkeypatch, workers)
        del thread_starts[:]
        curves[workers] = kernel_curves(counts, perms, q)
        assert len(thread_starts) == workers - 1
        assert threading.active_count() == threads
    for got in curves.values():
        assert np.array_equal(got, curves[1])
    assert_curves_match(curves[1], dense_curves(counts, perms, q), q)
    assert np.array_equal(curves[1], argsort_curves(counts, perms, q))


def layout_table(name):
    """A table for each key layout: the count key with f from a table, and
    the slot key with f taken directly, chosen for counts too wide for the
    key or for a largest pooled count at or above nnz."""
    if name == "pooled_over_nnz":
        return np.array([[300, 0], [150, 400], [250, 100]], dtype=np.int64)
    if name == "pooled_at_nnz":
        return np.array([[2, 1], [2, 1], [2, 1]], dtype=np.int64)
    if name == "count_too_wide":
        # 12 segment + 7 step bits leave the 14-bit count 8192 no room in
        # a uint32 key, though every pooled count is below nnz (~12000)
        rng = np.random.default_rng(36)
        counts = np.zeros((128, 4096), dtype=np.int64)
        for taxon in range(4096):
            counts[rng.choice(128, 3, replace=False), taxon] = rng.integers(1, 6, 3)
        counts[5, 7] = 8192
        return counts
    if name == "uint64_counts":
        # taxon 0 in every sample needs a uint64 key; counts of 1 there
        # keep the largest pooled count below nnz
        counts = wide_key_table(np.random.default_rng(34), n_samples=1100)
        counts[:, 0] = 1
        return counts
    counts = build_saturating_table()[0].counts
    return counts * 1_000_003 if name == "wide_counts" else counts


@pytest.fixture
def f_calls(monkeypatch):
    """The size of every array ``_kernels._f`` is called on, in call order."""
    sizes = []
    real_f = _kernels._f

    def f(x, q, out):
        sizes.append(x.size)
        return real_f(x, q, out)

    monkeypatch.setattr(_kernels, "_f", f)
    return sizes


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize(
    "name",
    ["counts", "uint64_counts", "wide_counts", "pooled_over_nnz", "pooled_at_nnz", "count_too_wide"],
)
def test_both_key_layouts_match_hill_number(monkeypatch, f_calls, name, q):
    counts = layout_table(name)
    perms = random_perms(np.random.default_rng(35), 3, counts.shape[0])
    curves = {}
    for workers in (1, 2):
        set_workers(monkeypatch, workers)
        curves[workers] = kernel_curves(counts, perms, q)
    assert np.array_equal(curves[1], curves[2])
    want = [[hill_number(prefix, q) for prefix in np.cumsum(counts[perm], axis=0)]
            for perm in perms]
    np.testing.assert_allclose(curves[1], want, rtol=1e-12, atol=0)
    # the count key builds f over 0..max pooled once per call; the slot
    # key takes f of every entry once per replicate
    if q == 0.0:
        assert f_calls == []
    elif name in ("counts", "uint64_counts"):
        assert f_calls == [counts.sum(axis=0).max() + 1] * 2
    else:
        assert f_calls == [np.count_nonzero(counts)] * 6


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scale", [1, 1_000_003], ids=["counts", "wide_counts"])
def test_an_overflowing_order_raises_in_both_key_layouts(monkeypatch, f_calls, scale, workers):
    # 1000**120 overflows float64; with the pooled check passed over, the
    # rows the workers write must raise, under their own error state
    counts = np.ones((40, 60), dtype=np.int64)
    counts[7, 3] = 1000
    table = AbundanceTable(
        tuple(f"s{i}" for i in range(40)), tuple(f"t{j}" for j in range(60)), counts * scale
    )
    set_workers(monkeypatch, workers)
    monkeypatch.setattr(_kernels, "hill_direct", lambda pooled, q: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="at q = 120 "):
            resample_accumulation(table, 4, 120.0, seed=0)
    assert len(f_calls) == (1 if scale == 1 else workers)


FULL_WIDTH_SAMPLE = 77


def row_table(name):
    """A table for each edge of the q > 0 row layout (``_kernels._rows``)."""
    rng = np.random.default_rng(37)
    if name == "rows_widen":
        # taxon 0's 600 entries outgrow the 512 uint32 keys of the
        # narrowest row, so the rows widen to hold it
        counts = random_table(rng, n_samples=600, n_taxa=200, density=0.02)
        counts[:, 0] = rng.integers(1, 6, size=600)
        return counts
    if name == "one_segment":
        return rng.integers(1, 9, size=(30, 1))
    if name == "one_entry_segments":
        counts = np.zeros((40, 300), dtype=np.int64)
        counts[np.arange(300) % 40, np.arange(300)] = rng.integers(1, 9, size=300)
        return counts
    if name == "full_width":
        # 4096 segments, 128 steps and a largest count of 8191 fill the
        # 12 + 7 + 13 bits of a uint32 count key, so the last taxon's 8191
        # at the last step is the key 2**32 - 1, the rows' pad value
        counts = np.zeros((128, 4096), dtype=np.int64)
        for taxon in range(4095):
            counts[rng.choice(128, 3, replace=False), taxon] = rng.integers(1, 6, 3)
        counts[FULL_WIDTH_SAMPLE, 4095] = 8191
        return counts
    if name == "uint64":
        return wide_key_table(np.random.default_rng(34), n_samples=1100)
    return build_saturating_table()[0].counts * 1_000_003  # the slot key


ROW_TABLES = ["rows_widen", "one_segment", "one_entry_segments", "full_width", "uint64", "slot_key"]


@pytest.mark.parametrize("name", ROW_TABLES)
def test_rows_hold_whole_segments(name):
    counts = row_table(name)
    col_len = np.count_nonzero(counts, axis=0)
    col_len = col_len[col_len > 0]
    itemsize = 8 if name == "uint64" else 4
    assert (key_bits(counts) > 32) == (name == "uint64")
    row_len = _kernels._rows(col_len, itemsize)
    cap = max(2048 // itemsize, 2 * col_len.max())
    # every row ends on a segment boundary, holds at most cap entries, and
    # every row but the last is more than half full
    assert set(np.cumsum(row_len).tolist()) <= set(np.cumsum(col_len).tolist())
    assert row_len.sum() == col_len.sum()
    assert row_len.max() <= cap and np.all(row_len[:-1] > cap // 2)
    if name == "rows_widen":
        assert row_len.max() > 512
    if col_len.sum() <= cap:
        assert row_len.size == 1


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", ROW_TABLES)
def test_row_layout_edges_match_oracles(monkeypatch, f_calls, name, q):
    counts = row_table(name)
    perms = random_perms(np.random.default_rng(38), 3, counts.shape[0])
    if name == "full_width":
        # replicate 0 ends on the sample whose key equals the pad value
        perm = perms[0]
        at = int(np.flatnonzero(perm == FULL_WIDTH_SAMPLE)[0])
        perm[[at, -1]] = perm[[-1, at]]
    curves = {}
    for workers in (1, 2):
        set_workers(monkeypatch, workers)
        curves[workers] = kernel_curves(counts, perms, q)
    assert np.array_equal(curves[1], curves[2])
    assert np.array_equal(curves[1], argsort_curves(counts, perms, q))
    want = [[hill_number(prefix, q) for prefix in np.cumsum(counts[perm], axis=0)]
            for perm in perms]
    np.testing.assert_allclose(curves[1], want, rtol=1e-12, atol=0)
    # the count key builds one f table per call, the slot key takes f per
    # replicate
    if name == "full_width":
        assert len(f_calls) == 2
    if name == "slot_key":
        assert len(f_calls) == 6


@pytest.mark.parametrize(
    "q, scale", [(0.0, 1), (1.0, 1), (1.0, 1_000_003)], ids=["q0", "count_key", "slot_key"]
)
def test_memory_per_call_is_as_documented(monkeypatch, q, scale):
    # the _kernels docstring's bytes per segment, entry and row slot, with
    # uint32 keys; numpy reports its buffers to tracemalloc
    counts = long_tailed_table(np.random.default_rng(33)) * scale
    assert key_bits(counts) <= 32
    ids = tuple(str(i) for i in range(max(counts.shape)))
    table = AbundanceTable(ids[: counts.shape[0]], ids[: counts.shape[1]], counts)
    perms = random_perms(np.random.default_rng(39), 8, counts.shape[0])
    nnz = table.values.size
    col_len = table.lengths[table.lengths > 0]
    row_len = _kernels._rows(col_len, 4)
    slots = row_len.size * row_len.max()
    if q == 0.0:
        shared, worker = 24 * col_len.size + 8 * nnz, 4 * nnz
    else:
        f_or_starts = 8 * (counts.sum(axis=0).max() + 1) if scale == 1 else 8 * nnz
        shared = 24 * col_len.size + 8 * nnz + 12 * slots + f_or_starts
        worker = 28 * nnz + 4 * slots
    # what the call holds when its workers start is the shared set-up
    real_split = _kernels._split
    live = {}

    def split(work, replicates):
        live[workers] = tracemalloc.get_traced_memory()[0] - out_bytes
        real_split(work, replicates)

    monkeypatch.setattr(_kernels, "_split", split)
    out_bytes = perms.size * 8
    peaks = {}
    for workers in (1, 2):
        set_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            _kernels.accumulation_curves(
                table.values, perms, q, table.lengths, table.samples, table.sample_totals
            )
            peaks[workers] = tracemalloc.get_traced_memory()[1] - out_bytes
        finally:
            tracemalloc.stop()
    # each replicate's temporaries, O(segments + steps), and numpy's
    # casting buffers: under 1.5 B per entry here, where a missing or an
    # extra buffer of nnz entries is 4 B or more
    slack = 64 * 1024 + 16 * col_len.size
    assert abs(live[1] - shared) <= slack and abs(live[2] - shared) <= slack
    assert abs(peaks[1] - live[1] - worker) <= slack
    # a second worker holds its own buffers, at most while the first does
    assert worker - slack <= peaks[2] - live[2] <= 2 * worker + 2 * slack


def test_one_ordering_starts_no_thread(thread_starts):
    table, _ = build_saturating_table()
    threads = threading.active_count()
    for q in (0.0, 1.0):
        accumulate(table, np.arange(table.n_samples), q)
    assert thread_starts == []
    assert threading.active_count() == threads


def test_resampling_joins_its_threads(thread_starts):
    table, _ = build_saturating_table()
    threads = threading.active_count()
    for q in (0.0, 1.0):
        resample_accumulation(table, 5, q, seed=2)
        assert threading.active_count() == threads
    assert len(thread_starts) == 2 * (_kernels._worker_count(5) - 1)


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_helper_error_reaches_the_caller(monkeypatch, q):
    table, _ = build_saturating_table()
    set_workers(monkeypatch, 2)
    fail_in_helpers(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="helper ran out"):
        resample_accumulation(table, 4, q, seed=3)
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
def test_each_worker_checks_its_rows_without_warnings(monkeypatch, workers):
    # with the pooled check passed over, every worker meets the overflow
    # itself, under its own thread's numpy error state
    table, _ = build_saturating_table()
    set_workers(monkeypatch, workers)
    monkeypatch.setattr(_kernels, "hill_direct", lambda pooled, q: 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="at q = 100 "):
            resample_accumulation(table, 10, 100.0, seed=0)


def mao_tau(counts):
    """Exact expected richness after k random samples, k = 1..n (Mao Tau).

    E[S_k] = sum_j (1 - C(n - s_j, k) / C(n, k)), where s_j is taxon j's
    incidence (Colwell, Mao & Chang 2004).
    """
    n = counts.shape[0]
    incidence = [int(s) for s in np.count_nonzero(counts, axis=0) if s > 0]
    expected = []
    for k in range(1, n + 1):
        missing = sum(Fraction(math.comb(n - s, k), math.comb(n, k)) for s in incidence)
        expected.append(float(len(incidence) - missing))
    return np.array(expected)


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    # a platform with no os.sched_getaffinity, such as macOS or Windows
    monkeypatch.delattr(_kernels.os, "sched_getaffinity")
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: 3)
    assert [_kernels._worker_count(r) for r in (1, 2, 3, 50)] == [1, 2, 3, 3]
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: None)
    assert _kernels._worker_count(50) == 1


def test_richness_mean_matches_mao_tau():
    table, _ = build_saturating_table()
    replicates = 400
    curve = resample_accumulation(table, replicates, 0.0, seed=11)
    expected = mao_tau(table.counts)
    # near saturation every replicate may see all S_n taxa, so the sample
    # variance is 0; the expected missing count m_k = S_n - E[S_k] is then
    # tiny, and its Poisson variance m_k stands in for the variance there
    var = curve.variance_diversity
    stderr = np.sqrt(np.where(var > 0, var, expected[-1] - expected) / replicates)
    assert np.all(np.abs(curve.mean_diversity - expected) <= 4 * stderr)
    assert curve.mean_diversity[-1] == expected[-1]


def test_kernel_benchmark_runs_and_agrees_with_hill_number(monkeypatch, capsys, f_calls):
    # benchmarks/bench_accumulation.py at toy size, on its drawn table
    # (count key) and the copy times 1,000,003 (slot key): its main()
    # exits nonzero if a kernel row disagrees with hill_number beyond 1e-12
    path = Path(__file__).parents[1] / "benchmarks" / "bench_accumulation.py"
    spec = importlib.util.spec_from_file_location("bench_accumulation", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    argv = ["--samples", "40", "--taxa", "120", "--replicates", "6", "--repeats", "1"]
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    bench.main()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"{label} {step}"
        for label in ("drawn", "x1000003")
        for step in ("set-up", "q=0", "q=1", "q=2")
    ]
    # one f table per q > 0 call on the drawn table (set-up, q = 1, q = 2),
    # f of every entry per replicate at q = 1 and 2 on the copy
    assert len(f_calls) == 3 + 2 * 6
