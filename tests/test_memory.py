"""Memory bounds of the table build and the full-range scans, measured with
tracemalloc (process-local; numpy reports its buffers to it)."""

import tracemalloc

import pytest

from mobsum import verify
from mobsum.tables import build_tables
from mobsum.verify import PREDICATES, ratio_theorem_C, sup_scan, verify_range

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
    # retained: mu 1 B/n, Mertens (int32) 4 B/n, values of m and ell 16 B/n
    # and their block-end radii; the build may add only block-sized scratch
    # to those 21 B/n (measured: 23.4 B/n at this limit)
    limit = 2 * 10**6
    assert _traced_peak(lambda: build_tables(limit, jobs=2)) <= 25 * limit


def test_retained_bytes_per_n(tables_big):
    ser = tables_big.series
    arrays = (tables_big.mu.mu, tables_big.mu.mertens, ser.m.values,
              ser.m.error_radius, ser.ell.values, ser.ell.error_radius)
    assert sum(a.nbytes for a in arrays) <= 21.01 * tables_big.limit


@pytest.mark.parametrize("limit", [5 * 10**5, 2 * 10**6])
def test_full_range_scans_add_bounded_memory(limit):
    # scratch is one chunk per worker, whatever the range
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
    # the exact m and ell hold O(sqrt(n) + _BLOCK) scratch: an n-sized int64
    # array (16 MB here) on top of the block scratch would not fit
    n = 2 * 10**6
    tables = build_tables(n, jobs=2)
    pred = PREDICATES["mchecklog2-0.162"]
    assert _traced_peak(
        lambda: verify._exact_recheck(pred, n, tables, n, n + 1)) <= 16 * MB
