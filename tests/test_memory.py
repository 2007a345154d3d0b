"""Memory bounds of the table build, the full-range scans and the panel
kernels, measured with tracemalloc (process-local; numpy reports its
buffers to it)."""

import tracemalloc

import pytest

from mobsum import verify
from mobsum.quad import identity_kernel_integral, mellin_finite_part
from mobsum.tables import build_tables
from mobsum.verify import PREDICATES, ratio_theorem_C, sup_scan, verify_range
from mobsum.weights import H1_SPEC

MB = 1 << 20


def _traced_peak(fn):
    """Peak bytes allocated while fn runs, beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_build_tables_peak_per_n():
    # retained: mu 1 B/n and a few arrays per block; the build adds the
    # sieve segment's 1 MB of log sums (0.5 B/n at this limit), then the
    # series' span buffers (measured: 1.73 B/n in all, against 21.6 B/n
    # when the tables kept Mertens, m and ell per index)
    limit = 2 * 10**6
    assert _traced_peak(lambda: build_tables(limit, jobs=2)) <= 7 * limit


def test_retained_bytes_per_n(tables_big):
    # mu and the per-block Mertens, carries and radii (measured: 1.0008 B/n
    # at 1e7, against 21 B/n for per-index Mertens, m and ell); the LRU of
    # re-derived blocks adds at most its 16 MB bound (1.68 B/n here)
    ser = tables_big.series
    arrays = (tables_big.mu.mu, tables_big.mu.mertens, ser.m.values,
              ser.m.error_radius, ser.ell.values, ser.ell.error_radius)
    assert sum(a.nbytes for a in arrays) <= 1.001 * tables_big.limit


@pytest.mark.parametrize("limit", [5 * 10**5, 2 * 10**6])
def test_full_range_scans_add_bounded_memory(limit):
    # scratch is one chunk per worker, whatever the range, plus the LRU of
    # re-derived blocks, which the walks fill to its 16 MB bound (measured:
    # 10.9 and 19.1 MB peak, 6.3 and 15.5 MB of it in the LRU)
    tables = build_tables(limit, jobs=2)

    def scans():
        for name, lo in (("mchecklog2-0.162", 3), ("m1log2-0.138", 671)):
            verify_range(PREDICATES[name], lo, limit, tables, jobs=2)
        for target, weight, lo in (("m", "sqrtx", 3), ("M", "sqrtx", 201),
                                   ("m1", "log2x", 671), ("mcheck-minus-1", "log2x", 3)):
            sup_scan(tables, target, weight, lo, limit)
        ratio_theorem_C(tables, limit)

    assert _traced_peak(scans) <= 32 * MB


def test_exact_recheck_adds_bounded_memory():
    # the cold escalation grows the tables' exact memo to n: 48 B per prime
    # of the chain (7.1 MB for the 148 933 primes here) and two integers
    # per block, on O(sqrt(n) + _EXACT_BLOCK) scratch (11.9 MB peak
    # measured with mpmath's import); an n-sized int64 array (16 MB here)
    # on top would not fit
    n = 2 * 10**6
    tables = build_tables(n, jobs=2)
    pred = PREDICATES["mchecklog2-0.162"]
    assert _traced_peak(
        lambda: verify._exact_recheck(pred, n, tables, n, n + 1)) <= 16 * MB


def test_panel_kernels_add_bounded_memory():
    # a kernel call holds its term matrix, 8 B per panel and term (3.2 and
    # 3.1 MB here), and slice-sized scratch (measured: 3.7 and 4.9 MB
    # peak, the second with the first re-derived blocks of M and m, against
    # 11.4 and 12.7 MB when every term had its own panel-sized temporaries)
    tables = build_tables(10**5)
    assert _traced_peak(lambda: mellin_finite_part(H1_SPEC, 0.5, 1e5)) <= 6 * MB
    assert _traced_peak(
        lambda: identity_kernel_integral(tables, 32000.5, "m1-kernel")) <= 6 * MB
