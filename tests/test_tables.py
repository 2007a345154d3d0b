import ast
import gc
import hashlib
import importlib
import inspect
import math
import os
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    abs_mertens_prefix_integral, exact_prefix_fraction, table_array, whole_array_prefix,
)
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

DATA = Path(__file__).parent / "data"

# mu(1..20), hand-checked
MU_20 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]


def test_mu_first_twenty(tables_small):
    assert tables_small.mu.mu[1:21].tolist() == MU_20


def test_mertens_is_prefix_sum_of_mu(tables_small):
    mu = tables_small.mu.mu
    mert = table_array(tables_small, "M")
    assert np.array_equal(np.cumsum(mu[1:]), mert[1:])


def test_global_divisor_identity(tables_small):
    # sum_{d<=N} mu(d) floor(N/d) == 1; any single wrong mu value breaks it
    for N in (1, 2, 97, 1000, 20000):
        mu = tables_small.mu.mu
        d = np.arange(1, N + 1, dtype=np.int64)
        assert int(np.sum(mu[d].astype(np.int64) * (N // d))) == 1


def test_mertens_known_values(tables_small):
    mert = table_array(tables_small, "M")
    assert mert[1] == 1
    assert mert[2] == 0
    assert mert[1637] == -16
    assert int(np.abs(mert[1:201]).sum()) == 461
    assert int(np.abs(mert[1:33]).sum()) == 59


@pytest.mark.parametrize("block", [1, 7, tables._BLOCK])
def test_block_carried_prefix_matches_whole_array(monkeypatch, block):
    # limits on and next to the block edges, with one short last block; a
    # block is built and re-derived in spans, and no span size changes a
    # value, radius or record
    monkeypatch.setattr(tables, "_BLOCK", block)
    spans = (tables._SPAN, block // 2 + 1)
    for limit in sorted({1, block - 1, block, block + 1, 3 * block + 5} - {0}):
        table = sieve_mu(limit)
        ends = np.minimum(np.arange(-(-limit // block) + 1) * block, limit)
        assert table.mertens.dtype == np.int32
        assert np.array_equal(table.mertens, np.cumsum(table.mu, dtype=np.int64)[ends])
        whole = {kind: whole_array_prefix(table.mu, kind) for kind in ("m", "ell")}
        for span in spans:
            monkeypatch.setattr(tables, "_SPAN", span)
            # the ell build's values and radii are the same with the mcheck
            # record, and the m and ell of one both-series run are those of
            # their own runs; each ell series is read back with an m
            both = tables.with_series(table).series
            m = m_series(table)
            for series, kind, pair in ((m, "m", {}), (ell_series(table), "ell", {"m": m}),
                                       (ell_series(table, m), "ell", {"m": m}),
                                       (both.m, "m", {}), (both.ell, "ell", {"m": both.m})):
                values, radius = whole[kind]
                # each carry (s, e) sums to the value at its block end, and
                # every value re-derived from the carries is the one-pass value
                assert series.values.sum(axis=1).tobytes() == values[ends].tobytes()
                got = tables.Tables(table, tables.SeriesPair(**pair, **{kind: series}))
                assert got.read(kind, 1, limit + 1).tobytes() == values[1:].tobytes()
                assert np.array_equal(got.read("M", 1, limit + 1), np.cumsum(table.mu[1:]))
                # the block-end radii are the per-index radii at the block ends
                assert series.error_radius.tobytes() == radius[ends].tobytes()
                assert all(series.radius(n) >= radius[n] for n in range(limit + 1))
                blocks = [values[a + 1:b + 1] for a, b in zip(ends[:-1], ends[1:])]
                assert series.block_absmax[1:].tolist() == [np.abs(v).max() for v in blocks]
            # the m1 and mcheck records of the both-series run are the
            # reductions of the one-pass m, ell and M, and its ell series is
            # that of an ell build handed an m series, byte for byte
            m, ell, M = whole["m"][0], whole["ell"][0], np.cumsum(table.mu)
            m1, mcheck = [0.0], [0.0]
            for a, b in zip(ends[:-1] + 1, ends[1:] + 1):
                n = np.arange(a, b, dtype=np.float64)
                m1.append(tables._m1_absmax(m[a:b], M[a:b], n, np.empty(b - a)))
                mcheck.append(tables._mcheck_absmax(m[a:b], ell[a:b], np.log(n), n))
            assert both.ell.m1_absmax.tolist() == m1
            assert both.ell.mcheck_absmax.tolist() == mcheck
            replay = ell_series(table, m_series(table))
            for f in ("values", "error_radius", "block_absmax", "m1_absmax", "mcheck_absmax"):
                assert getattr(both.ell, f).tobytes() == getattr(replay, f).tobytes(), f


def _log_free_digests(limit):
    """Lines "limit, name, sha256" of what a build to ``limit`` keeps or
    reads back without taking a log: mu, Mertens at the block ends and its
    records, the m series' carries, radii and records, the m1 record, and
    M and m read over the whole table."""
    t = build_tables(limit)
    m = t.series.m
    arrays = {"mu": t.mu.mu, "mertens": t.mu.mertens, "M.block_absmax": t.mu.block_absmax,
              "m.values": m.values, "m.error_radius": m.error_radius,
              "m.block_absmax": m.block_absmax, "m1_absmax": t.series.ell.m1_absmax,
              "read.M": t.read("M", 1, limit + 1), "read.m": t.read("m", 1, limit + 1)}
    return [f"{limit}\t{name}\t{hashlib.sha256(a.tobytes()).hexdigest()}"
            for name, a in arrays.items()]


def test_log_free_table_bytes_match_the_digests():
    # tests/data/table-digests.txt pins, at 1e5 and 2^20 + 1, every byte a
    # build keeps or reads back that takes no log.  ell and the mcheck
    # record take np.log, whose last bits depend on the host's libm, so
    # they are left out; the one-pass oracle checks them
    want = (DATA / "table-digests.txt").read_text(encoding="utf-8").splitlines()
    assert [line for limit in (10**5, 2**20 + 1) for line in _log_free_digests(limit)] == want


def test_both_series_compute_the_m_terms_once(monkeypatch):
    # one run builds m and ell: the build's runs take the terms of each
    # index once
    limit = 3 * 65536 + 5
    seen = []
    span = tables._Prefix.span

    def counting(run, b):
        seen.append(np.arange(run.next, b))
        return span(run, b)

    monkeypatch.setattr(tables._Prefix, "span", counting)
    tables.with_series(sieve_mu(limit))
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(1, limit + 1))


def test_ell_never_runs_without_m(monkeypatch):
    # every prefix run, told apart by the values it returns and keeps, is m
    # alone or ell with m beside it: in a build and the reads of each of its
    # M, m and ell blocks, in the reads of an m-only table and in those of
    # the tables the benchmark's cache replay builds; and tables with ell
    # but no m are refused
    limit = 10**5
    mu = sieve_mu(limit)
    want = {kind: whole_array_prefix(mu.mu, kind)[0] for kind in ("m", "ell")}
    runs = set()
    span = tables._Prefix.span

    def recording(run, b):
        a = run.next
        v = span(run, b)
        kind = next(k for k in want if v.tobytes() == want[k][a:b].tobytes())
        beside = run.m is not None
        assert not beside or run.m[:b - a].tobytes() == want["m"][a:b].tobytes()
        runs.add((kind, beside))
        return v

    monkeypatch.setattr(tables._Prefix, "span", recording)
    built = build_tables(limit)
    m_only = tables.with_series(mu, ("m",))
    replay = tables.Tables(mu, tables.SeriesPair(m=m_series(mu), ell=ell_series(mu)))
    for t, names in ((built, ("M", "m", "ell")), (m_only, ("M", "m")),
                     (replay, ("M", "m", "ell"))):
        for name in names:
            t.read(name, 1, limit + 1)
    assert runs == {("m", False), ("ell", True)}
    for bad in (lambda: tables.Tables(mu, tables.SeriesPair(ell=built.series.ell)),
                lambda: tables.with_series(mu, ("ell",))):
        with pytest.raises(InvalidArgumentError, match="need the m series"):
            bad()


def test_build_scratch_is_the_charged_spans():
    # the charge of a prefix build is the buffers of its largest run, ell
    # with m beside it and log k, plus the span of scratch its records take
    size = tables._SPAN
    run = tables._Prefix(sieve_mu(size).mu, 1, size, fused=True)
    buffers = sum(a.nbytes for name, a in vars(run).items()
                  if isinstance(a, np.ndarray) and name != "mu")
    charged = 8 * tables._BUILD_SPANS * size
    # the five running sums hold one more slot each, for the carry
    assert charged == buffers + 8 * size - 16 * 5


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
    M, m, ell = (table_array(built, name) for name in ("M", "m", "ell"))
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
            return built.chunk(a, b).top(name)

        assert [top(a, min(a + 97, 20001)) for a in starts] == want[1:]
        # a span off the grid, short of its block's end or across blocks
        # reads the largest record of the blocks it meets
        assert top(2, 98) == want[1]
        assert top(98, 194) == want[2]
        assert top(2, 99) == max(want[1:3])

    def maxima(t):
        return [a.tobytes() for a in (t.mu.block_absmax, t.series.m.block_absmax,
                                      t.series.ell.block_absmax, t.series.ell.m1_absmax,
                                      t.series.ell.mcheck_absmax)]

    save_table(sieve_mu(25000), cache_path(str(tmp_path), 25000))
    others = [tables.with_series(load_covering(str(tmp_path), 20000))]
    for segment in (7, 1 << 10):
        monkeypatch.setattr(tables, "_SIEVE_BLOCK", segment)
        others.append(build_tables(20000))
    monkeypatch.setattr(tables, "_SPAN", 10)  # each block built in spans of 10
    others.append(build_tables(20000))
    assert all(maxima(other) == maxima(built) for other in others)
    # an ell series built without m (as the benchmark's cache replay builds
    # it) records the same maxima, so its chunks read the same maxima and
    # envelopes
    replay = tables.Tables(built.mu, tables.SeriesPair(m=m_series(built.mu),
                                                       ell=ell_series(built.mu)))
    assert maxima(replay) == maxima(built)
    assert table_array(replay, "ell").tobytes() == ell.tobytes()
    for a in starts:
        b = min(a + 97, 20001)
        c, r = (t.chunk(a, b) for t in (built, replay))
        assert r.top("mcheck") == c.top("mcheck") == tables._absmax(mcheck[a:b])
        for target in ("m1", "mcheck-minus-1"):
            assert (verify._chunk_envelope(target, "log2x", a, b - 0.5, r)
                    == verify._chunk_envelope(target, "log2x", a, b - 0.5, c))


def test_sieve_block_peak_per_entry():
    # sieve_mu reserves 2 B per entry of the segment it sieves, mu (int8)
    # and the log sums (uint8), and 10 _SPAN bytes: the per-entry
    # thresholds of the first 9 spans (1 B each, built here) and the
    # comparison of the sign pass; the array headers and the wheel's rolled
    # patterns add a few KB per call
    for lo, size in ((1, 1 << 20), (2**31 - 2**16, 2**16)):
        primes = tables._small_primes(math.isqrt(lo + size - 1))
        tables._entry_bounds.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tables._sieve_block(lo, lo + size, primes)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * size + 10 * tables._SPAN + 4096, (lo, peak - 2 * size)


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
    assert [int(tables_big.read("M", 10**k, 10**k + 1)[0]) for k in range(8)] == \
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
    # 16 MB of physical memory: 1e5 (2.1 MB retained, the LRU bound
    # included, plus 1.4 MB of scratch) fits, 1e7 (26 MB retained: 10 MB of
    # mu and the 16 MB LRU bound) must fail before the mu array or the
    # primes exist
    sysconf = {"SC_PHYS_PAGES": 1 << 12, "SC_PAGE_SIZE": 1 << 12}
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
    # 16 MB of physical memory: a cached 1e6 table needs 21 MB of tables,
    # so loading it must fail before the file is read; the build fallback
    # must not run either
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


def test_load_table_rejects_tables_past_physical_memory_before_reading(
        tmp_path, monkeypatch):
    # 4 MB of physical memory: a 1e5 table and the tables of M on it (0.5 MB)
    # load; a 1e6 one (5.0 MB: 1 MB of mu and the LRU bound at M's 4 B/n)
    # must fail from its header, before any mu is read
    small, big = (cache_path(str(tmp_path), n) for n in (10**5, 10**6))
    save_table(sieve_mu(10**5), small)
    save_table(sieve_mu(10**6), big)
    sysconf = {"SC_PHYS_PAGES": 1 << 10, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(tables.os, "sysconf", sysconf.__getitem__)
    assert load_table(small).limit == 10**5
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="physical memory"):
            load_table(big)
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
    # the largest n a table holds: the uint8 log sums must not wrap and the
    # large-prime rule (log sum < 8 log2 n - 14, taken once per span) must
    # hold where n is largest
    lo, hi = 2**31 - 4096, 2**31
    got = tables._sieve_block(lo, hi, tables._small_primes(math.isqrt(hi - 1)))
    assert np.array_equal(got, _trial_division_mu(lo, hi))
    # the sign pass flips the primes of the window, 2^31 - 1 among them:
    # their one prime factor is the large one, just below 2^31
    assert got[-1] == -1


def test_sieve_block_matches_trial_division_at_every_small_limit():
    # isqrt(limit) passes 7, 11 and 13 below 200, so the sieving primes and
    # the smallest large prime change; every n takes its own threshold here
    for limit in range(1, 201):
        primes = tables._small_primes(math.isqrt(limit))
        want = _trial_division_mu(1, limit + 1)
        assert np.array_equal(tables._sieve_block(1, limit + 1, primes), want), limit
        assert np.array_equal(sieve_mu(limit).mu[1:], want), limit


@pytest.mark.parametrize("n", [223092870, 1589363490, 2040138870])
def test_sieve_block_at_the_most_rounding_terms(n):
    # omega = 9, the most terms a log sum below 2^31 has: 2 3 5 ... 23, and
    # the two such n whose roundings add most (+2.47, from 2 3 5 11 13 17
    # 19 31 37) and least (-0.41, from 2 3 5 7 11 19 23 43 47)
    lo, hi = n - 3000, n + 3000
    got = tables._sieve_block(lo, hi, tables._small_primes(math.isqrt(hi - 1)))
    assert np.array_equal(got, _trial_division_mu(lo, hi))


@pytest.mark.parametrize("span", [1, 7, 16, tables._SPAN])
def test_sieve_block_across_the_threshold_switch(monkeypatch, span):
    # per entry below 8 spans, once per span from there: with small spans
    # the per-span threshold holds at the smallest n it may, where 8 log2 n
    # moves most across a span; windows start on either side of the switch
    monkeypatch.setattr(tables, "_SPAN", span)
    switch = 8 * span
    for lo in sorted({1, max(1, switch - span - 1), max(1, switch - 1), switch, switch + 1}):
        hi = max(lo + 3 * span, 3000)
        primes = tables._small_primes(math.isqrt(hi - 1))
        assert np.array_equal(tables._sieve_block(lo, hi, primes),
                              _trial_division_mu(lo, hi)), (span, lo)


def _one_pass_arrays(mu):
    """M, m and ell at every n <= limit from one pass over the whole table
    (`whole_array_prefix`), index 0 the empty sum."""
    return {"M": np.cumsum(mu, dtype=np.int64), "m": whole_array_prefix(mu, "m")[0],
            "ell": whole_array_prefix(mu, "ell")[0]}


def _read_spans(limit, rng):
    """Spans of a table to ``limit`` (1 <= a < b <= limit + 1): single
    indices, pieces of a block, whole blocks and spans across blocks."""
    spans = [(1, 2), (limit, limit + 1), (1, limit + 1)]
    for _ in range(40):
        a = int(rng.integers(1, limit + 1))
        spans.append((a, min(a + int(rng.integers(1, 200)), limit + 1)))
    return spans


@pytest.mark.parametrize("block, span", [(64, tables._SPAN), (64, 10),
                                         (tables._BLOCK, tables._SPAN)])
def test_rederived_chunks_match_the_one_pass_oracle(monkeypatch, block, span):
    # limits off the block grid; slices read in ascending, descending and
    # shuffled order, from an LRU of three blocks, so that blocks are
    # evicted and re-derived between reads
    monkeypatch.setattr(tables, "_BLOCK", block)
    monkeypatch.setattr(tables, "_SPAN", span)
    monkeypatch.setattr(tables, "_LRU_BYTES", 3 * 8 * block)
    rng = np.random.default_rng(block + span)
    for limit in (5 * block + 13, 2 * block - 1):
        table = sieve_mu(limit)
        want = _one_pass_arrays(table.mu)
        spans = _read_spans(limit, rng)
        for order in (sorted(spans), sorted(spans)[::-1], rng.permutation(spans).tolist()):
            t = tables.with_series(table)
            for a, b in order:
                c = t.chunk(a, b)
                for name in ("M", "m", "ell"):
                    got = c.read(name)
                    assert got.tobytes() == want[name][a:b].astype(got.dtype).tobytes(), \
                        (name, a, b)
                assert t._blocks.nbytes <= tables._LRU_BYTES


def test_a_dropped_table_is_freed_by_refcount():
    # its block LRU holds no reference back to it, so no collection is needed
    gc.disable()
    try:
        t = build_tables(1000)
        t.read("m", 1, 500)
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_lru_never_holds_more_than_its_bound(monkeypatch):
    # 64-index blocks, an LRU of 2.5 float64 blocks: it keeps the most
    # recent blocks that fit, and counts exactly the bytes it holds
    monkeypatch.setattr(tables, "_BLOCK", 64)
    monkeypatch.setattr(tables, "_LRU_BYTES", 5 * 8 * 64 // 2)
    t = build_tables(1000)
    held = t._blocks.held
    for name, j in [("m", 1), ("M", 2), ("ell", 3), ("m", 1), ("m", 4), ("M", 16), ("ell", 16)]:
        t.read(name, (j - 1) * 64 + 1, min(j * 64, 1000) + 1)
        assert t._blocks.nbytes == sum(buf.nbytes for buf in held.values())
        assert t._blocks.nbytes <= tables._LRU_BYTES
        assert list(held)[-1] == (name, j)
    # 512 + 4 * 40 + 8 * 40 bytes; m block 1 would pass the bound
    assert list(held) == [("m", 4), ("M", 16), ("ell", 16)]


def test_six_threads_read_the_same_chunks(monkeypatch):
    # six threads read one table's chunks at once, in orders of their own,
    # switching every microsecond, through an LRU of four blocks: each gets
    # the one-pass values
    monkeypatch.setattr(tables, "_BLOCK", 64)
    monkeypatch.setattr(tables, "_LRU_BYTES", 4 * 8 * 64)
    t = build_tables(2000)
    want = _one_pass_arrays(t.mu.mu)
    spans = _read_spans(2000, np.random.default_rng(6))
    got = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for a, b in rng.permutation(spans).tolist():
            c = t.chunk(a, b)
            got.append(all(np.array_equal(c.read(name), want[name][a:b])
                           for name in ("M", "m", "ell")))

    threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 6 * len(spans) and all(got)
    assert t._blocks.nbytes <= tables._LRU_BYTES


@pytest.mark.parametrize("block", [64, tables._BLOCK])
def test_m1_record_is_the_slice_reduction(monkeypatch, block):
    # each block's largest |m(n) - M(n)/n|, which the ell build records
    # while m runs beside it, is, bit for bit, the reduction of its
    # block's m and M slices, and a whole-block chunk reads it
    monkeypatch.setattr(tables, "_BLOCK", block)
    t = build_tables(20000)
    record = t.series.ell.m1_absmax
    assert record.shape == (-(-20000 // block) + 1,) and record[0] == 0.0
    for j, a in enumerate(range(1, 20001, block), 1):
        b = min(a + block, 20001)
        v = np.arange(a, b, dtype=np.float64)
        np.subtract(t.read("m", a, b), np.divide(t.read("M", a, b), v, out=v), out=v)
        assert record[j] == max(float(v.max()), -float(v.min())), j
        assert t.chunk(a, b).top("m1") == record[j]
    # an m series keeps neither record, and an ell series built without m
    # keeps the same ones; tables without ell have no m1 record, so an m1
    # scan on them names the series they lack
    assert t.series.m.m1_absmax is None and t.series.m.mcheck_absmax is None
    bare = ell_series(t.mu)
    assert bare.m1_absmax.tobytes() == record.tobytes()
    assert bare.mcheck_absmax.tobytes() == t.series.ell.mcheck_absmax.tobytes()
    m_only = tables.with_series(t.mu, ("m",))
    with pytest.raises(InvalidArgumentError, match="without the ell prefix"):
        verify.sup_scan(m_only, "m1", "log2x", 1, 20000)


def test_tables_retain_mu_and_per_block_arrays_only(monkeypatch):
    # apart from mu, every array a table keeps has one entry per block (and
    # the carries two), and nbytes counts them and the LRU's bound
    monkeypatch.setattr(tables, "_BLOCK", 64)
    t = build_tables(20000)
    blocks = -(-20000 // 64) + 1
    arrays = [t.mu.mertens, t.mu.block_absmax]
    for s in (t.series.m, t.series.ell):
        arrays += [a for a in (s.values, s.error_radius, s.block_absmax, s.m1_absmax,
                               s.mcheck_absmax) if a is not None]
    assert all(a.shape[0] == blocks and a.size <= 2 * blocks for a in arrays)
    assert t.mu.mu.shape == (20001,)
    lru = min(tables._LRU_BYTES, (4 + 8 + 8) * 20000)
    assert t.nbytes() == t.mu.mu.nbytes + sum(a.nbytes for a in arrays) + lru
    assert t._exact.resident == t.nbytes()
    assert tables.with_series(t.mu, ()).nbytes() == \
        t.mu.mu.nbytes + 8 * blocks + min(tables._LRU_BYTES, 4 * 20000)


def test_only_tables_indexes_table_arrays():
    # every other module reads M, m and ell through Tables.read or chunk
    src = os.path.join(os.path.dirname(tables.__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "tables.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert "mertens[" not in text and ".values[" not in text, name
            assert "absmax[" not in text, name


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


@pytest.fixture
def perfbench(monkeypatch):
    # perfbench's worker and workloads modules, imported fresh from the repo
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(tables.__file__))))
    monkeypatch.setattr(sys, "path", [os.path.join(root, "perfbench"), *sys.path])
    for name in ("worker", "workloads", "spans", "reference", "proc"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    worker = importlib.import_module("worker")
    return worker, sys.modules["workloads"]


def test_benchmarked_entry_points_take_jobs(tmp_path, perfbench, tables_small):
    # the benchmark contract: what perfbench (workloads.py and worker.py,
    # traced or not) calls of the program resolves, so that a change that
    # drops a name fails here and not as a failed benchmark run: the names
    # they import from mobsum (importing them fails otherwise), every
    # T.<name> they read, the jobs= and tol= they pass and the argv of every
    # CLI step they run; test_traced_bench_reads_resolve checks the rest
    reads = []
    for module in perfbench:
        tree = ast.parse(inspect.getsource(module))
        aliases = {a.asname: importlib.import_module(a.name) for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names
                   if a.asname and a.name.startswith("mobsum")}
        reads += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases]
    assert (tables, "build_tables") in reads
    assert all(hasattr(mod, attr) for mod, attr in reads), reads
    for fn in (build_tables, verify_range):
        assert "jobs" in inspect.signature(fn).parameters, fn.__name__
    workloads = perfbench[1]
    for _, fn in workloads.Quadrature.RESIDUALS:  # tol is taken and not read
        assert fn(tables_small, 31.7, tol=1e-30) == fn(tables_small, 31.7, tol=1.0), fn
    parser = cli._build_parser()
    for _, argv, _, _ in workloads.CliCache.STEPS:
        cache = ["--cache-dir", str(tmp_path)] if argv[0] in workloads.CliCache.CACHED else []
        assert parser.parse_args([*argv, *cache]).command == argv[0]


def test_traced_bench_reads_resolve(tmp_path, perfbench):
    # the rest of the benchmark contract, what `perfbench/run.py --trace 1`
    # reads of the tables: the retained bytes per n (mu, and per block
    # Mertens, the carries and the radii), the Tables its cache replay
    # builds, and the hooks it wraps
    worker, workloads = perfbench
    built = build_tables(20000)
    per_n = workloads.retained_bytes_per_n(built)
    assert per_n == (20001 + 2 * 4 + 2 * (2 * 16 + 2 * 8)) / 20000 < 1.01
    path = cache_path(str(tmp_path), 20000)
    save_table(built.mu, path)
    mu = load_table(path)
    replay = tables.Tables(mu=mu, series=tables.SeriesPair(m=m_series(mu), ell=ell_series(mu)))
    for name in ("M", "m", "ell"):
        assert replay.read(name, 1, 20001).tobytes() == built.read(name, 1, 20001).tobytes()
    assert [(mod.__name__, attr) for mod, attr, _ in worker.HOOKS] == [
        ("mobsum.tables", "sieve_mu"), ("mobsum.tables", "m_series"),
        ("mobsum.tables", "ell_series"), ("mobsum.identities", "identity_kernel_integral")]
    assert all(callable(getattr(mod, attr)) for mod, attr, _ in worker.HOOKS)


def test_abs_mertens_prefix_integral_past_int32(tables_big):
    # the sum passes 2^31, so an int32 accumulator would wrap
    mert = tables_big.read("M", 1, 10**7)
    want = int(np.abs(mert.astype(np.int64)).sum())
    assert want >= 2**31
    assert abs_mertens_prefix_integral(tables_big.mu, 10**7) == want


def test_m_series_matches_exact_rationals(tables_small):
    ser = tables_small.series.m
    for n in (1, 2, 3, 10, 137, 300):
        exact = exact_prefix_fraction(tables_small.mu, n)
        value = tables_small.read("m", n, n + 1)[0]
        assert abs(value - float(exact)) <= ser.radius(n) + 1e-15


def test_error_radius_monotone(tables_small):
    for ser in (tables_small.series.m, tables_small.series.ell):
        r = ser.error_radius
        assert r.shape == (-(-tables_small.limit // tables._BLOCK) + 1,) and r[0] == 0.0
        assert np.all(np.diff(r) >= 0.0)
        assert r[-1] < 1e-10  # compensated summation keeps the radius tiny


def test_ell_series_small_values(tables_small):
    # ell(n) = sum_{k<=n} mu(k) log(k)/k
    ell = table_array(tables_small, "ell")
    assert ell[1] == 0.0
    expect3 = -math.log(2) / 2 - math.log(3) / 3
    assert ell[3] == pytest.approx(expect3, abs=1e-15)


def test_evaluate_points(tables_small):
    pt = evaluate(tables_small, 8510.0)
    assert 8510 * pt.m > 36.0
    assert pt.M_over_x == pytest.approx(tables_small.read("M", 8510, 8511)[0] / 8510.0)
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


@pytest.fixture
def covering_file(tmp_path):
    """A cache dir holding one 5000 table: (dir, path, the file's bytes)."""
    path = cache_path(str(tmp_path), 5000)
    save_table(sieve_mu(5000), path)
    return str(tmp_path), path, open(path, "rb").read()


@pytest.mark.parametrize("stream", [7, 1000, tables._STREAM])
def test_cut_load_reads_to_the_cut_and_streams_the_rest(monkeypatch, covering_file, stream):
    # pieces of 7 leave a short last one; 1000 and the default size take
    # the rest of every cut in one piece or several
    monkeypatch.setattr(tables, "_STREAM", stream)
    cache, _, _ = covering_file
    for limit in (1, 2, 999, 1000, 3000, 4993, 4999, 5000):
        got, fresh = load_covering(cache, limit), sieve_mu(limit)
        assert got.mu.tobytes() == fresh.mu.tobytes(), limit
        assert got.mertens.tobytes() == fresh.mertens.tobytes(), limit


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:-20] + bytes([raw[-20] ^ 1]) + raw[-19:],  # mu(4997), past the cut
    lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]),                 # the digest
    lambda raw: raw[:-1],                                        # truncated
    lambda raw: raw + b"\0"])                                    # trailing bytes
@pytest.mark.parametrize("stream", [7, tables._STREAM])
def test_cut_load_checks_the_whole_file(monkeypatch, covering_file, edit, stream):
    monkeypatch.setattr(tables, "_STREAM", stream)
    cache, path, raw = covering_file
    open(path, "wb").write(edit(raw))
    with pytest.raises(InvalidArgumentError):
        load_covering(cache, 3000)


@pytest.mark.parametrize("limit", [3000, 4999, 5000])
def test_a_short_read_raises_and_never_loops(monkeypatch, covering_file, limit):
    # the file loses its last 20 bytes after its length was checked: the
    # read of mu or of a piece past the cut comes back short and must raise
    monkeypatch.setattr(tables, "_STREAM", 7)
    cache, path, raw = covering_file
    open(path, "wb").write(raw[:-20])
    real = os.fstat
    monkeypatch.setattr(tables.os, "fstat", lambda fd: type(
        "Stat", (), {"st_size": real(fd).st_size + 20})())
    done = []

    def load():
        with pytest.raises(InvalidArgumentError, match="truncated"):
            load_covering(cache, limit)
        done.append(limit)

    worker = threading.Thread(target=load, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert done == [limit]


def test_header_below_the_asked_limit_is_refused_before_reading(tmp_path):
    # a 1e6 table under the name of a 2e6 one covers 1.5e6 by its name
    # only: the header is refused before the 1.5 MB mu array exists
    cache = str(tmp_path)
    save_table(sieve_mu(10**6), cache_path(cache, 2 * 10**6))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError, match="name and header disagree"):
            load_covering(cache, 15 * 10**5)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def test_cut_load_holds_one_mu_and_one_stream_buffer(tmp_path):
    # a 3e6 file cut to 1e6 allocates the 1e6 mu and one 1 MB stream
    # buffer, never the file's 3 MB of mu
    cache, limit = str(tmp_path), 10**6
    save_table(sieve_mu(3 * limit), cache_path(cache, 3 * limit))
    tracemalloc.start()
    try:
        got = load_covering(cache, limit, series=())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.limit == limit
    assert peak <= limit + 1 + tables._STREAM + (1 << 16), peak


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
    M = tb.read("M", n - 1, n + 1)
    assert int(M[1] - M[0]) == mu


@pytest.fixture(autouse=True, scope="module")
def _attach_tables(tables_small):
    test_mu_squarefull_vanishes_and_step_consistency.tables = tables_small
