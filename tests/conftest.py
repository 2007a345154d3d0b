import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mobsum import quad, verify
from mobsum.identities import h1_head_integral
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


def g1(y):
    """Density 4 y (1 - y^2) on [0, 1]; unit integral."""
    return 4.0 * y * (1.0 - y * y)


def h1(y):
    """Density (2/3)(1 - y^2)(8y - 3) on [0, 1]; zero integral."""
    return (2.0 / 3.0) * (1.0 - y * y) * (8.0 * y - 3.0)


def lattice_direct(name, t):
    """G1(t) or H1(t) by the direct lattice sum, in long double."""
    density = g1 if name == "g1" else h1
    s = np.sum(np.asarray([density(n / t) for n in range(1, math.floor(t) + 1)],
                          dtype=np.longdouble))
    if name == "g1":
        s = s / np.longdouble(t)
    return float(np.longdouble(1.0) - s)


def lattice_closed(name, t):
    """G1(t) or H1(t), t >= 1, in extended precision, written in f = t - N
    (exact in binary64) and g = f (1 - f) so that no terms cancel:

        G1(t) = ((1 - 2f)/t - g/t^2)^2,
        H1(t) = (1 - (10/3) g)/t + (7/3) g (2f - 1)/t^2 + (4/3) g^2/t^3.

    These are the power-sum forms of `weights.lattice_power_coeffs` with
    N = t - f; the leading term of H1 is the Euler-Maclaurin approximation.
    """
    tl = np.longdouble(t)
    f = tl - np.floor(tl)
    g = f * (1 - f)
    u = 1 / tl
    if name == "g1":
        r = ((1 - 2 * f) - g * u) * u
        return float(r * r)
    third = 1 / np.longdouble(3)
    return float(u * ((1 - 10 * third * g)
                      + u * (7 * third * g * (2 * f - 1) + u * (4 * third * g * g))))


def epsilon1(t):
    """Closed form of the antiderivative of G1 from 1, t >= 1:

    1/3 - 1/(3t) + (4/3)({t}^3 - (3/2){t}^2 + {t}/2)/t^2
               - (1/3)({t}^4 - 2{t}^3 + {t}^2)/t^3.
    """
    f = t - math.floor(t)
    a = f * f * f - 1.5 * f * f + 0.5 * f
    b = f * f * f * f - 2.0 * f * f * f + f * f
    return 1.0 / 3.0 - 1.0 / (3.0 * t) + (4.0 / 3.0) * a / (t * t) - b / (3.0 * t**3)


def em_H1_envelope(t):
    """Euler-Maclaurin approximation of H1(t), t >= 1, and the error bound
    that `quad`'s tail uses: [(10/3)({t}^2 - {t}) + 1]/t, 1.56/(6 t^2)."""
    f = t - math.floor(t)
    approx = ((10.0 / 3.0) * (f * f - f) + 1.0) / t
    return approx, quad._EM_H1_ERROR / (6.0 * t * t)


def h1_remainder(x):
    """F(x) = -x * integral_0^{1/x} h1 = 2 - 8/(3x) - 2/(3x^2) + 4/(3x^3)."""
    return -x * h1_head_integral(x)


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
