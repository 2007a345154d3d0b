import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mobsum import verify
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


def whole_array_prefix(mu, kind):
    """(values, error_radius) of the compensated m or ell series in one
    pass over the whole table: the block-free form of
    mobsum.tables._carried_prefix, kept as its bit-for-bit oracle."""
    ulp = 2.0 ** -53
    n = mu.shape[0] - 1
    k = np.arange(1, n + 1, dtype=np.float64)
    if kind == "m":
        terms = mu[1:].astype(np.float64) / k
        rep = ulp * np.abs(terms)
    else:
        terms = mu[1:].astype(np.float64) * np.log(k) / k
        rep = 3.0 * ulp * np.abs(terms)
    s = np.cumsum(terms)
    prev = np.concatenate(([0.0], s[:-1]))
    bb = s - prev
    err = (prev - (s - bb)) + (terms - bb)
    values = s + np.cumsum(err)
    radius = (
        np.cumsum(rep)
        + ulp * np.cumsum(np.abs(err))
        + k * ulp * ulp * np.cumsum(np.abs(terms))
        + 2.0 * ulp * np.maximum.accumulate(np.abs(values))
    )
    radius = np.maximum.accumulate(radius)
    return np.concatenate(([0.0], values)), np.concatenate(([0.0], radius))


def exact_prefix_fraction(table, n):
    """Exact rational prefix sum m(n) = sum_{k<=n} mu(k)/k."""
    acc = Fraction(0)
    for k in range(1, n + 1):
        v = int(table.mu[k])
        if v:
            acc += Fraction(v, k)
    return acc


def per_term_m_fixed(mu, n):
    """sum_{k<=n} mu(k) floor(2^256 / k), one term at a time: the integer
    the vectorized fixed-point m(n) must equal."""
    one = 1 << 256
    acc = 0
    for k in range(1, n + 1):
        v = int(mu[k])
        if v:
            acc += v * (one // k)
    return acc


def per_term_ell(mu, n, dps=100):
    """ell(n) = sum_{k<=n} mu(k) log(k)/k with one mpmath log per k, at dps
    digits (each term and the sum are off by a few units of 10^-dps)."""
    with mp.workdps(dps):
        return mp.fsum(int(mu[k]) * mp.log(k) / k for k in range(2, n + 1) if mu[k])


@pytest.fixture(scope="session")
def tables_small():
    """Sieve to 2e4: enough for the unit-level oracles."""
    return build_tables(20000)


@pytest.fixture(scope="session")
def tables_big():
    """Sieve to 1e7: the desk-scale verification range."""
    return build_tables(10**7, jobs=2)


@pytest.fixture
def exhaustive(monkeypatch):
    """Chunk envelopes of +inf: verify_range and sup_scan run the
    per-interval kernel on every chunk, as without envelopes."""
    monkeypatch.setattr(verify, "_chunk_envelope", lambda *args: math.inf)
