import math

import mpmath as mp
import pytest

from mobsum.tables import build_tables

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_points(count, lo, hi, log_mapped=True, seed_index=1):
    """Deterministic low-discrepancy points in [lo, hi] (Kronecker sequence,
    optionally log-mapped)."""
    pts = []
    for i in range(seed_index, seed_index + count):
        u = (i * GOLDEN) % 1.0
        if log_mapped:
            pts.append(lo * (hi / lo) ** u)
        else:
            pts.append(lo + (hi - lo) * u)
    return pts


def mp_lattice(name, t):
    """G1(t) or H1(t) at an mpf t, from the integer power sums of floor(t)."""
    N = int(mp.floor(t))
    S1 = N * (N + 1) // 2
    S2 = N * (N + 1) * (2 * N + 1) // 6
    S3 = S1 * S1
    if name == "g1":
        return 1 - 4 * S1 / t**2 + 4 * S3 / t**4
    return 1 - mp.mpf(2) / 3 * (8 * S1 / t - 3 * N - 8 * S3 / t**3 + 3 * S2 / t**2)


def mp_panel_quad(f, edges, dps=30):
    """Independent reference: the sum of mpmath.quad(f, [a, b]) over
    consecutive edges, at dps digits (f must be smooth on each panel)."""
    with mp.workdps(dps):
        return mp.fsum(mp.quad(f, [a, b], method="gauss-legendre")
                       for a, b in zip(edges, edges[1:]))


@pytest.fixture(scope="session")
def tables_small():
    """Sieve to 2e4: enough for the unit-level oracles."""
    return build_tables(20000)


@pytest.fixture(scope="session")
def tables_big():
    """Sieve to 1e7: the desk-scale verification range."""
    return build_tables(10**7, jobs=4)
