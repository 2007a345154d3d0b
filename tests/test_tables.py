import inspect
import math
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import abs_mertens_prefix_integral, exact_prefix_fraction, whole_array_prefix
from mobsum import cli, tables, verify
from mobsum.errors import InvalidArgumentError, RangeError, ResourceError
from mobsum.tables import (
    build_tables,
    cache_path,
    ell_series,
    evaluate,
    load_covering,
    load_table,
    m_series,
    save_table,
    sieve_mu,
    table_digest,
)
from mobsum.verify import verify_range

# mu(1..20), hand-checked
MU_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_mu_first_twenty(tables_small):
    assert tables_small.mu.mu[1:21].tolist() == MU_20


def test_mertens_is_prefix_sum_of_mu(tables_small):
    mu = tables_small.mu.mu
    mert = tables_small.mu.mertens
    assert np.array_equal(np.cumsum(mu[1:]), mert[1:])


def test_global_divisor_identity(tables_small):
    # sum_{d<=N} mu(d) floor(N/d) == 1; any single wrong mu value breaks it
    for N in (1, 2, 97, 1000, 20000):
        mu = tables_small.mu.mu
        d = np.arange(1, N + 1, dtype=np.int64)
        assert int(np.sum(mu[d].astype(np.int64) * (N // d))) == 1


def test_mertens_known_values(tables_small):
    mert = tables_small.mu.mertens
    assert mert[1] == 1
    assert mert[2] == 0
    assert mert[1637] == -16
    assert int(np.abs(mert[1:201]).sum()) == 461
    assert int(np.abs(mert[1:33]).sum()) == 59


@pytest.mark.parametrize("block", [1, 7, tables._BLOCK])
def test_block_carried_prefix_matches_whole_array(monkeypatch, block):
    # limits on and next to the block edges, with one short last block; a
    # block is built in spans, and no span size changes a value, radius or
    # record
    monkeypatch.setattr(tables, "_BLOCK", block)
    spans = (tables._SPAN, block // 2 + 1)
    for limit in sorted({1, block - 1, block, block + 1, 3 * block + 5} - {0}):
        table = sieve_mu(limit)
        assert table.mertens.dtype == np.int32
        assert np.array_equal(table.mertens, np.cumsum(table.mu, dtype=np.int64))
        ends = np.minimum(np.arange(-(-limit // block) + 1) * block, limit)
        whole = {kind: whole_array_prefix(table.mu, kind) for kind in ("m", "ell")}
        for span in spans:
            monkeypatch.setattr(tables, "_SPAN", span)
            # the ell build's values and radii are the same with the mcheck record
            for series, kind in ((m_series(table), "m"), (ell_series(table), "ell"),
                                 (ell_series(table, m_series(table)), "ell")):
                values, radius = whole[kind]
                assert series.values.tobytes() == values.tobytes()
                # the block-end radii are the per-index radii at the block ends
                assert series.error_radius.tobytes() == radius[ends].tobytes()
                assert all(series.radius(n) >= radius[n] for n in range(limit + 1))
                blocks = [values[a + 1:b + 1] for a, b in zip(ends[:-1], ends[1:])]
                assert series.block_absmax[1:].tolist() == [np.abs(v).max() for v in blocks]


def test_sieve_segment_size_deterministic(monkeypatch):
    a = sieve_mu(100000)
    monkeypatch.setattr(tables, "_SIEVE_BLOCK", 1 << 14)
    b = sieve_mu(100000)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.mertens, b.mertens)


def test_sieve_starts_no_thread(monkeypatch):
    # the segments are sieved in the calling thread
    def refuse(self):
        raise AssertionError("the sieve started a thread")

    monkeypatch.setattr(tables, "_SIEVE_BLOCK", 1 << 12)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert sieve_mu(100000).limit == 100000


def test_build_jobs_deterministic(monkeypatch):
    # 4096-entry segments: the sieve runs many segments, and each retained
    # array of the build is the same bytes whatever jobs says
    monkeypatch.setattr(tables, "_SIEVE_BLOCK", 1 << 12)
    builds = [build_tables(100000, jobs=jobs) for jobs in (1, 2, 4)]

    def arrays(t):
        return (t.mu.mu, t.mu.mertens, t.series.m.values, t.series.m.error_radius,
                t.series.ell.values, t.series.ell.error_radius)

    first = [a.tobytes() for a in arrays(builds[0])]
    for other in builds[1:]:
        assert [a.tobytes() for a in arrays(other)] == first


def test_block_maxima_are_the_block_slices_absmax(monkeypatch, tmp_path):
    # 97-index blocks over a 2e4 table, the last one short: each recorded
    # maximum is the largest value of its block, of |M|, |m|, |ell| and
    # |m(n) log n - ell(n) - 1|, and the same bytes for a table cut from a
    # larger cached one and for any sieve segment or build span size
    monkeypatch.setattr(tables, "_BLOCK", 97)
    built = build_tables(20000)
    M, m, ell = built.mu.mertens, built.series.m.values, built.series.ell.values
    log_n = np.log(np.arange(20001, dtype=np.float64)[1:])
    mcheck = np.concatenate(([0.0], m[1:] * log_n - (ell[1:] + 1.0)))
    starts = range(1, built.limit + 1, 97)
    for name, record, values in (("M", built.mu.block_absmax, M),
                                 ("m", built.series.m.block_absmax, m),
                                 ("ell", built.series.ell.block_absmax, ell),
                                 ("mcheck", built.series.ell.mcheck_absmax, mcheck)):
        want = [0.0] + [tables._absmax(values[a:a + 97]) for a in starts]
        assert record.tolist() == want, name
        if name == "ell":  # a chunk carries no largest |ell|
            continue

        def top(a, b):
            return getattr(built.chunk(a, b, ("M", "m", "ell")), f"{name}_max")

        assert [top(a, min(a + 97, 20001)) for a in starts] == want[1:]
        # a span off the grid, or short of its block's end, reduces its slice
        assert top(2, 98) == tables._absmax(values[2:98])
        assert top(98, 194) == tables._absmax(values[98:194])

    def maxima(t):
        return [a.tobytes() for a in (t.mu.block_absmax, t.series.m.block_absmax,
                                      t.series.ell.block_absmax, t.series.ell.mcheck_absmax)]

    save_table(sieve_mu(25000), cache_path(str(tmp_path), 25000))
    others = [tables.with_series(load_covering(str(tmp_path), 20000))]
    for segment in (7, 1 << 10):
        monkeypatch.setattr(tables, "_SIEVE_BLOCK", segment)
        others.append(build_tables(20000))
    monkeypatch.setattr(tables, "_SPAN", 10)  # each block built in spans of 10
    others.append(build_tables(20000))
    assert all(maxima(other) == maxima(built) for other in others)
    # an ell series built without m (as the benchmark's cache replay builds
    # it) records nothing, and its chunks reduce slices to the same maxima
    # and envelopes
    replay = tables.Tables(built.mu, tables.SeriesPair(m=m_series(built.mu),
                                                       ell=ell_series(built.mu)))
    assert replay.series.ell.mcheck_absmax is None
    assert replay.series.ell.values.tobytes() == ell.tobytes()
    for a in starts:
        b = min(a + 97, 20001)
        c, r = (t.chunk(a, b, ("M", "m", "ell")) for t in (built, replay))
        assert r.mcheck_max == c.mcheck_max == tables._absmax(mcheck[a:b])
        for target in ("m1", "mcheck-minus-1"):
            assert (verify._chunk_envelope(target, "log2x", a, b - 0.5, r)
                    == verify._chunk_envelope(target, "log2x", a, b - 0.5, c))


def test_sieve_block_peak_per_entry():
    # sieve_mu reserves 10 B per entry of the segment it sieves: mu (int8),
    # the prime product (int32), and the int32 n and the comparison of the
    # sign pass; the array headers add a few hundred bytes per call
    for lo, size in ((1, 1 << 20), (2**31 - 2**16, 2**16)):
        primes = tables._small_primes(math.isqrt(lo + size - 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tables._sieve_block(lo, lo + size, primes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 10 * size + 1024, (lo, peak / size)


def test_sieve_segment_edges_divisor_identity(monkeypatch):
    # with 7-entry segments every few n sits next to a segment edge; the
    # identity holding for every N <= limit pins down every mu(n)
    monkeypatch.setattr(tables, "_SIEVE_BLOCK", 7)
    limit = 2000
    mu = sieve_mu(limit).mu.astype(np.int64)
    d = np.arange(1, limit + 1, dtype=np.int64)
    for N in range(1, limit + 1):
        assert int(np.dot(mu[1:N + 1], N // d[:N])) == 1


def test_mertens_at_powers_of_ten(tables_big):
    # M(10^k) for k = 0..7, OEIS A084237
    assert [int(tables_big.mu.mertens[10**k]) for k in range(8)] == \
        [1, -1, 1, 2, -23, -48, 212, 1037]


def test_sieve_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        sieve_mu(0)


def test_sieve_rejects_limits_past_int32_before_allocating():
    # Mertens is int32; the guard must fire before the 2 GB mu array or the
    # sqrt-sized prime sieve is allocated
    tracemalloc.start()
    try:
        with pytest.raises(RangeError):
            sieve_mu(2**31)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16  # primes: 130 KB
    finally:
        tracemalloc.stop()


def test_sieve_rejects_tables_past_physical_memory_before_allocating(monkeypatch):
    # 64 MB of physical memory: 1e5 (2.1 MB retained plus scratch) fits,
    # 1e7 (210 MB retained) must fail before the mu array or the primes exist
    sysconf = {"SC_PHYS_PAGES": 1 << 14, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(tables.os, "sysconf", sysconf.__getitem__)
    assert sieve_mu(10**5).limit == 10**5
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="physical memory"):
            build_tables(10**7, jobs=2)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def test_cache_load_rejects_tables_past_physical_memory_before_reading(
        tmp_path, monkeypatch):
    # 16 MB of physical memory: a cached 1e6 table needs its 1 MB file plus
    # 21 MB of tables, so loading it must fail before the file is read; the
    # build fallback must not run either
    save_table(sieve_mu(10**6), cache_path(str(tmp_path), 10**6))
    sysconf = {"SC_PHYS_PAGES": 1 << 12, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(tables.os, "sysconf", sysconf.__getitem__)
    monkeypatch.setattr(tables, "sieve_mu", None)
    assert cli._get_tables(10**5, str(tmp_path)).limit == 10**5
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="physical memory"):
            cli._get_tables(10**6, str(tmp_path))
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def _trial_division_mu(lo, hi):
    """mu(n) for n in [lo, hi) by dividing out every prime up to sqrt(hi),
    the primes themselves found by trial division."""
    bound = math.isqrt(hi - 1)
    primes = [p for p in range(2, bound + 1)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    rest = np.arange(lo, hi, dtype=np.int64)
    mu = np.ones(hi - lo, dtype=np.int64)
    for p in primes:
        hit = rest % p == 0
        mu[hit] *= -1
        rest[hit] //= p
        mu[rest % p == 0] = 0
    mu[rest > 1] *= -1  # one prime factor above sqrt(hi) is left
    return mu


def test_sieve_block_at_top_of_int32_range():
    # the largest n a table holds: the int32 prime product must not wrap and
    # the large-prime rule (product < n) must hold where n is largest
    lo, hi = 2**31 - 4096, 2**31
    got = tables._sieve_block(lo, hi, tables._small_primes(math.isqrt(hi - 1)))
    assert np.array_equal(got, _trial_division_mu(lo, hi))
    # the sign pass flips the primes of the window, 2^31 - 1 among them:
    # their one prime factor is the large one, just below 2^31
    assert got[-1] == -1


def test_build_calls_the_layer_hooks_once_each(monkeypatch):
    # the traced benchmark times the layers by wrapping these module globals
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sieve_mu", "m_series", "ell_series"):
        monkeypatch.setattr(tables, name, counting(name, getattr(tables, name)))
    built = build_tables(1000, jobs=2)
    assert sorted(calls) == ["ell_series", "m_series", "sieve_mu"]
    calls.clear()
    tables.with_series(built.mu)
    assert sorted(calls) == ["ell_series", "m_series"]


def test_benchmarked_entry_points_take_jobs():
    # the benchmark passes jobs= to each of these
    for fn in (build_tables, verify_range):
        assert "jobs" in inspect.signature(fn).parameters, fn.__name__


def test_abs_mertens_prefix_integral_past_int32(tables_big):
    # the sum passes 2^31, so an int32 accumulator would wrap
    mert = tables_big.mu.mertens
    want = int(np.abs(mert[1:10**7].astype(np.int64)).sum())
    assert want >= 2**31
    assert abs_mertens_prefix_integral(tables_big.mu, 10**7) == want


def test_m_series_matches_exact_rationals(tables_small):
    ser = tables_small.series.m
    for n in (1, 2, 3, 10, 137, 300):
        exact = exact_prefix_fraction(tables_small.mu, n)
        assert abs(ser.values[n] - float(exact)) <= ser.radius(n) + 1e-15


def test_error_radius_monotone(tables_small):
    for ser in (tables_small.series.m, tables_small.series.ell):
        r = ser.error_radius
        assert r.shape == (-(-ser.limit // tables._BLOCK) + 1,) and r[0] == 0.0
        assert np.all(np.diff(r) >= 0.0)
        assert r[-1] < 1e-10  # compensated summation keeps the radius tiny


def test_ell_series_small_values(tables_small):
    # ell(n) = sum_{k<=n} mu(k) log(k)/k
    ser = tables_small.series.ell
    assert ser.values[1] == 0.0
    expect3 = -math.log(2) / 2 - math.log(3) / 3
    assert ser.values[3] == pytest.approx(expect3, abs=1e-15)


def test_evaluate_points(tables_small):
    pt = evaluate(tables_small, 8510.0)
    assert 8510 * pt.m > 36.0
    assert pt.M_over_x == pytest.approx(tables_small.mu.mertens[8510] / 8510.0)
    assert pt.m1 == pytest.approx(pt.m - pt.M_over_x, abs=1e-15)
    # mcheck at non-integer x: m(n) log x - ell(n)
    x = 1.5
    pt = evaluate(tables_small, x)
    assert pt.m_check == pytest.approx(math.log(x), abs=1e-15)  # n=1: m=1, ell=0


def test_evaluate_range_checks(tables_small):
    with pytest.raises(InvalidArgumentError):
        evaluate(tables_small, 0.5)
    with pytest.raises(RangeError):
        evaluate(tables_small, 20001.0)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            evaluate(tables_small, x)


def test_abs_mertens_prefix_integral(tables_small):
    # integral of |M| over [1, T] for integer T is the sum of |M(n)|
    assert abs_mertens_prefix_integral(tables_small.mu, 201) == 461
    assert abs_mertens_prefix_integral(tables_small.mu, 33) == 59


def test_exact_prefix_fraction_values(tables_small):
    assert exact_prefix_fraction(tables_small.mu, 3) == Fraction(1, 6)
    assert exact_prefix_fraction(tables_small.mu, 4) == Fraction(1, 6)


def test_cache_round_trip(tmp_path, tables_small):
    path = cache_path(str(tmp_path), tables_small.limit)
    save_table(tables_small.mu, path)
    loaded = load_table(path)
    assert loaded.limit == tables_small.limit
    assert np.array_equal(loaded.mu, tables_small.mu.mu)
    assert np.array_equal(loaded.mertens, tables_small.mu.mertens)


def test_cache_detects_corruption(tmp_path, tables_small):
    path = cache_path(str(tmp_path), tables_small.limit)
    save_table(tables_small.mu, path)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(InvalidArgumentError):
        load_table(path)


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.tbl"
    path.write_bytes(b"not a table\n123")
    with pytest.raises(InvalidArgumentError):
        load_table(str(path))


def test_cache_file_layout(tmp_path, tables_small):
    path = cache_path(str(tmp_path), tables_small.limit)
    save_table(tables_small.mu, path)
    header = f"MOEBIUS-TABLE v2 limit={tables_small.limit}\n".encode("ascii")
    raw = open(path, "rb").read()
    assert len(raw) == len(header) + tables_small.limit + 16
    assert raw.startswith(header)
    assert raw[-16:] == table_digest(tables_small.mu)
    assert os.listdir(tmp_path) == [os.path.basename(path)]  # no temp file left


def test_cache_rejects_v1_format(tmp_path):
    path = tmp_path / "moebius-3.tbl"
    path.write_bytes(b"MOEBIUS-TABLE v1 limit=3\n" + bytes(3 * 9 + 8))
    with pytest.raises(InvalidArgumentError, match="v1 is no longer read"):
        load_table(str(path))


@pytest.mark.parametrize("edit", [lambda raw: raw[:-1], lambda raw: raw[:-17],
                                  lambda raw: raw + b"\0"])
def test_cache_rejects_truncated_or_trailing(tmp_path, tables_small, edit):
    path = cache_path(str(tmp_path), tables_small.limit)
    save_table(tables_small.mu, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(edit(raw))
    with pytest.raises(InvalidArgumentError):
        load_table(path)


def test_save_table_failure_leaves_no_temp_file(tmp_path, tables_small, monkeypatch):
    def boom(table):
        raise OSError("disk full")

    monkeypatch.setattr("mobsum.tables.table_digest", boom)
    with pytest.raises(OSError):
        save_table(tables_small.mu, cache_path(str(tmp_path), tables_small.limit))
    assert os.listdir(tmp_path) == []


def test_concurrent_saves_of_one_table(tmp_path):
    table = sieve_mu(5000)
    path = cache_path(str(tmp_path), table.limit)
    errors = []

    def writer():
        try:
            for _ in range(10):
                save_table(table, path)
        except Exception as exc:  # collected and asserted below
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    assert np.array_equal(load_table(path).mertens, table.mertens)


def test_load_covering_cuts_exactly(tmp_path, tables_small):
    cache = str(tmp_path)
    assert load_covering(cache, 100) is None
    assert load_covering(str(tmp_path / "missing"), 100) is None
    save_table(sieve_mu(3000), cache_path(cache, 3000))
    save_table(tables_small.mu, cache_path(cache, tables_small.limit))
    # a stray temporary file from an interrupted writer is not a cache file
    (tmp_path / "moebius-50000.tbl.tmp").write_bytes(b"partial")
    (tmp_path / "moebius-4000.tbl.abc123.tmp").write_bytes(b"partial")
    for limit in (3000, 2999, 5000, tables_small.limit):
        got = load_covering(cache, limit)
        fresh = sieve_mu(limit)
        assert got.limit == limit
        assert np.array_equal(got.mu, fresh.mu)
        assert np.array_equal(got.mertens, fresh.mertens)
        assert got.mu.base is None  # a copy, not a view of the larger table
    assert load_covering(cache, tables_small.limit + 1) is None
    # the smallest covering file is the one read; a bad one is reported
    open(cache_path(cache, tables_small.limit), "wb").write(b"junk\n")
    assert load_covering(cache, 3000).limit == 3000
    with pytest.raises(InvalidArgumentError):
        load_covering(cache, 3001)


@given(st.integers(min_value=2, max_value=20000))
@settings(max_examples=100, deadline=None)
def test_mu_squarefull_vanishes_and_step_consistency(n):
    tb = test_mu_squarefull_vanishes_and_step_consistency.tables
    mu = int(tb.mu.mu[n])
    assert mu in (-1, 0, 1)
    # mu vanishes on any multiple of a square
    for p in (2, 3, 5, 7):
        if n % (p * p) == 0:
            assert mu == 0
    assert int(tb.mu.mertens[n] - tb.mu.mertens[n - 1]) == mu


@pytest.fixture(autouse=True, scope="module")
def _attach_tables(tables_small):
    test_mu_squarefull_vanishes_and_step_consistency.tables = tables_small
