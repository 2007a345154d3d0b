"""Independent high-precision reference for the escalation workload.

Nothing here calls mobsum.  mu comes from a separate numpy sieve, m(n) and
ell(n) from fixed-point integer sums with 192 fractional bits, and the
interval suprema from mpmath at 50 digits.  These values decide on which
side of each planted predicate constant the exact answer lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

FRAC_BITS = 192
ONE = 1 << FRAC_BITS

# Gap between a planted constant and the exact supremum, in units of the
# unweighted function (m, m1 or mcheck - 1).  It is far inside
# every guard band the float scan uses (those are at least a few ulps of the
# weighted value, and ~1e-15 absolute for the prefix series), yet far above
# the rounding of a double near |m| <= 1e-2, so the planted verdict is a
# property of the mathematics and escalation is required to decide it.
DELTA = 2.0 ** -56

# A planted constant must differ from the 50-digit supremum by more than
# this relative amount, so that no reference rounding can flip the verdict.
_MIN_REL_MARGIN = mp.mpf(10) ** -35


def sieve(limit: int):
    """(mu, spf): Moebius values and smallest prime factors for 0..limit."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in np.nonzero(spf[2:] == np.arange(2, limit + 1))[0] + 2:
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu, spf


@dataclass(frozen=True)
class Prefix:
    """Exact M(n), and m(n), ell(n) as fixed-point integers over ONE."""

    n: int
    M: int
    m_fp: int
    ell_fp: int | None


def prefixes(mu, spf, want_m, want_ell):
    """Prefix values at every n in want_m; ell(n) also for n in want_ell.

    Each term mu(k)/k and mu(k)log(k)/k is floored to the fixed-point grid,
    so after n terms the error is below 4n units of 2^-192.
    """
    want_m = set(want_m)
    want_ell = set(want_ell)
    top = max(want_m | want_ell)
    ell_top = max(want_ell, default=0)
    mu_l = mu[: top + 1].tolist()
    spf_l = spf[: top + 1].tolist()
    logp = {}
    out = {}
    M = m_fp = ell_fp = 0
    with mp.workdps(80):
        for k in range(1, top + 1):
            v = mu_l[k]
            if v:
                M += v
                q = ONE // k
                m_fp += q if v > 0 else -q
                if 1 < k <= ell_top:
                    L, j = 0, k
                    while j > 1:
                        p = spf_l[j]
                        if p not in logp:
                            logp[p] = int(mp.floor(mp.log(p) * ONE))
                        L += logp[p]
                        j //= p
                    t = L // k
                    ell_fp += t if v > 0 else -t
            if k in want_m:
                out[k] = Prefix(k, M, m_fp, ell_fp if k in want_ell else None)
    return out


@dataclass(frozen=True)
class Plant:
    """A predicate constant c planted next to the exact supremum c* at n."""

    target: str
    kind: str
    n: int
    c: float
    holds: bool


def _bisect_root(u, lo, hi):
    ulo = u(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        um = u(mid)
        if um == 0:
            return mid
        if (um < 0) == (ulo < 0):
            lo, ulo = mid, um
        else:
            hi = mid
    return (lo + hi) / 2


def _critical(target: str, pre: Prefix):
    """(c*, |f| at the argmax, holds_below) for m, m1 or mcheck at pre.n.

    holds_below: the predicate holds iff c <= c* (const-bound on m);
    otherwise it holds iff c >= c*.
    """
    n = pre.n
    a = mp.mpf(pre.m_fp) / ONE
    if target == "m":
        return 1 / abs(a), abs(a), True
    if target == "m1":
        b = mp.mpf(pre.M)

        def f(x):
            return abs(a - b / x) * mp.log(x) ** 2

        def u(x):
            return b * mp.log(x) + 2 * a * x - 2 * b

        edges = [mp.mpf(n), mp.mpf(n + 1)]
        if a != 0 and n < -b / (2 * a) < n + 1:
            edges.insert(1, -b / (2 * a))
        cands = list(edges)
        for lo, hi in zip(edges[:-1], edges[1:]):
            if u(lo) * u(hi) < 0:
                cands.append(_bisect_root(u, lo, hi))
        x = max(cands, key=f)
        return f(x), abs(a - b / x), False
    # mcheck-minus-1 under the log^2 weight
    d = mp.mpf(pre.ell_fp) / ONE + 1
    L1, L2 = mp.log(n), mp.log(n + 1)
    cands = [L1, L2]
    if a != 0 and L1 < 2 * d / (3 * a) < L2:
        cands.append(2 * d / (3 * a))

    def g(L):
        return abs(a * L - d) * L * L

    L = max(cands, key=g)
    return g(L), abs(a * L - d), False


_KINDS = {"m": "const-bound", "m1": "log2-bound",
          "mcheck-minus-1": "log2-bound", "M": "sqrt-bound"}


def _plant_M(pre: Prefix, holds: bool):
    """|M(n)|/sqrt(n) <= c is decided exactly (c^2 n >= M^2), and its guard
    band is only a few units of roundoff wide around the double q that a
    float scan computes.  So c is the float nearest q on the planted side,
    and points where that is more than 3 roundoffs from q are skipped."""
    if pre.M == 0:
        return None
    q = abs(pre.M) / math.sqrt(pre.n)

    def ok(c):
        return (Fraction(c) ** 2 * pre.n >= pre.M ** 2) == holds

    c = q
    while not ok(c):
        c = math.nextafter(c, math.inf if holds else -math.inf)
    if abs(c - q) > 3 * 2.0 ** -53 * q:
        return None
    return Plant("M", "sqrt-bound", pre.n, c, holds)


def plant(target: str, pre: Prefix, holds: bool):
    """The float constant nearest c* on the planted side, DELTA away in f.

    Returns None when no constant can be planted at pre.n.
    """
    if target == "M":
        return _plant_M(pre, holds)
    with mp.workdps(50):
        cstar, f_abs, holds_below = _critical(target, pre)
        up = holds != holds_below  # move c above c* to get the planted verdict
        rho = DELTA / f_abs
        c = float(cstar * (1 + rho if up else 1 - rho))
        while True:
            gap = (mp.mpf(c) - cstar) if up else (cstar - mp.mpf(c))
            if gap > cstar * _MIN_REL_MARGIN:
                break
            c = math.nextafter(c, math.inf if up else -math.inf)
    return Plant(target, _KINDS[target], pre.n, c, holds)
