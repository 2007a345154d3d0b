"""Sieved Möbius tables, compensated prefix series and exact prefix sums.

Provides the integer layer (mu values and their exact prefix sums), the
floating-point layer (prefix sums of mu(k)/k and mu(k)*log(k)/k with a
certified error radius), the exact m(n) and ell(n) as 256-bit fixed-point
integers, and point evaluation of the four summatory functions

    M(x)      = sum_{n<=x} mu(n)                    (exact integer)
    m(x)      = sum_{n<=x} mu(n)/n
    m1(x)     = m(x) - M(x)/x
    mcheck(x) = sum_{n<=x} (mu(n)/n) log(x/n) = m(|x|) log x - ell(|x|)

where ell(n) = sum_{k<=n} mu(k) log(k)/k.

Every prefix sum is built _BLOCK indices at a time: the Mertens sums carry
the last exact sum of a block into the next, and the compensated series
carry their running state (prefix, correction sum, sums of |t|, of the
term errors and of |err|, and max |value|).  Every value and
radius is bit-identical to one pass over the whole table.  Block j holds
the indices (j - 1) _BLOCK < n <= min(j _BLOCK, limit), and the build
records the largest |M(n)|, |m(n)| and |ell(n)| of each block.  A scan
reads a table only through `Tables.chunk` (a `Chunk` record of one span:
its slices, their largest |value| and its end radii) and
`Tables.exact_prefix`.

The retained tables take 5 bytes per n for mu (int8) and Mertens (int32,
exact since |M(n)| <= n < 2^31), plus 8 per prefix series built (float64
values): 5, 13 or 21 B/n for none, m alone, or m and ell, plus a few
numbers per block.  A `Tables` bundle carries only the series its caller
reads (``with_series``); a kernel that needs a missing one raises
InvalidArgumentError.  The radius is nondecreasing, so each series keeps
it only at block ends, where it bounds the radius of every index in the
block; peak memory is the retained tables plus O(_BLOCK) scratch.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, RangeError, ResourceError

_ULP = 2.0 ** -53  # unit roundoff for IEEE-754 binary64
_BLOCK = 1 << 16  # indices per block of the carried prefix sums
_SIEVE_BLOCK = 1 << 20  # integers per sieve segment
_EXACT_BLOCK = 1 << 14  # k per block of the exact prefix sums (1 MB of digits)
_FIXED_BITS = 256
_LIMBS = _FIXED_BITS // 32  # base-2^32 digits of a fixed-point reciprocal
_LOG_BITS = _FIXED_BITS + 64  # working precision of the log p chain

_CACHE_VERSION = "v2"
_CACHE_HEADER = re.compile(rb"MOEBIUS-TABLE (v\d+) limit=([1-9]\d*)\n")
_CACHE_NAME = re.compile(r"moebius-([1-9]\d*)\.tbl")
_DIGEST_SIZE = 16

SERIES = ("m", "ell")  # the prefix series a Tables bundle can carry


# ---------------------------------------------------------------------------
# integer layer


@dataclass(frozen=True)
class MuTable:
    """Möbius values mu(1..limit) and their exact prefix sums.

    ``mu[n]`` and ``mertens[n]`` are 1-indexed: index 0 is unused (zero).
    ``mertens[n] = sum_{k<=n} mu[k]`` held exactly in int32, and
    ``block_absmax[j]`` is max |mertens[n]| over block j (entry 0 is 0).
    """

    limit: int
    mu: np.ndarray            # int8, length limit+1
    mertens: np.ndarray       # int32, length limit+1
    block_absmax: np.ndarray  # int32, length ceil(limit/_BLOCK)+1

    def __post_init__(self):
        self.mu.setflags(write=False)
        self.mertens.setflags(write=False)
        self.block_absmax.setflags(write=False)


def _check_limit(limit: int) -> None:
    # Mertens is int32, exact because |M(n)| <= n
    if limit >= 1 << 31:
        raise RangeError(f"limit {limit} too large: Mertens sums are int32, "
                         f"so tables stop at 2^31 - 1")


def _check_memory(limit: int, scratch: int, series) -> None:
    """Raise ResourceError if tables to ``limit`` with the prefix series
    named in ``series`` (5 B/n for mu and int32 Mertens, 8 B/n per series),
    the 8 float64 block buffers a prefix build holds (when there is one;
    the series are built one after another) and ``scratch`` bytes would
    exceed physical memory."""
    need = ((5 + 8 * len(series)) * limit + (8 * 8 * min(_BLOCK, limit) if series else 0)
            + scratch)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ResourceError(f"tables to limit {limit} need about {need / 2**30:.2f} GiB, "
                            f"more than the {have / 2**30:.2f} GiB of physical memory")


def _small_primes(bound: int) -> np.ndarray:
    """Primes up to ``bound`` by a plain boolean sieve."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    comp = np.zeros(bound + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, int(math.isqrt(bound)) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    return np.nonzero(~comp)[0].astype(np.int64)


def _sieve_block(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """mu values for n in [lo, hi) (1 <= lo < hi <= 2^31), as int8.

    ``prod`` is the product of the sieving primes dividing n; it divides n,
    so int32 holds it.  A squarefree n has at most one prime factor above
    sqrt(limit), and has one exactly where prod < n.
    """
    mu = np.ones(hi - lo, dtype=np.int8)
    prod = np.ones(hi - lo, dtype=np.int32)
    for p in primes:
        p = int(p)
        start = (-lo) % p
        mu[start::p] *= -1
        prod[start::p] *= p
        sq = p * p
        if sq < hi:
            mu[(-lo) % sq :: sq] = 0
    # one arithmetic pass, not a boolean-indexed write: sign = 1 - 2 [prod < n]
    sign = (prod < np.arange(lo, hi, dtype=np.int32)).view(np.int8)
    sign <<= 1
    np.subtract(1, sign, out=sign)
    mu *= sign
    return mu


def sieve_mu(limit: int, series=SERIES) -> MuTable:
    """Sieve mu(n) for 1 <= n <= limit and accumulate exact Mertens sums.

    The _SIEVE_BLOCK segments are sieved one after another in the calling
    thread and copied into place, and Mertens is block-carried over the
    whole array by ``_mu_table``, so the table is the same for any segment
    size.  Raises ResourceError before allocating if the table and the
    prefix series named in ``series``, which the caller goes on to build,
    would exceed RAM.
    """
    if limit < 1:
        raise InvalidArgumentError("limit must be a positive integer")
    _check_limit(limit)
    # the segment being sieved holds 10 B per entry
    _check_memory(limit, 10 * min(_SIEVE_BLOCK, limit), series)
    primes = _small_primes(int(math.isqrt(limit)))
    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        mu[lo:hi] = _sieve_block(lo, hi, primes)
    return _mu_table(mu)


def _mu_table(mu: np.ndarray) -> MuTable:
    """MuTable over ``mu`` (int8, index 0 zero); Mertens is its prefix sum,
    accumulated block by block into one int32 array with the last sum of
    each block carried into the next (integer sums are exact, so the carry
    may be added after the block's own prefix sum), and the largest |M| of
    each block is taken while the block is in cache."""
    limit = mu.shape[0] - 1
    _check_limit(limit)
    mertens = np.empty(limit + 1, dtype=np.int32)
    absmax = np.empty(-(-limit // _BLOCK) + 1, dtype=np.int32)
    mertens[0] = absmax[0] = carry = 0
    for j, a in enumerate(range(1, limit + 1, _BLOCK), 1):
        block = mertens[a:a + _BLOCK]
        np.cumsum(mu[a:a + _BLOCK], dtype=np.int32, out=block)
        block += carry
        carry = block[-1]
        absmax[j] = max(block.max(), -block.min())
    return MuTable(limit=limit, mu=mu, mertens=mertens, block_absmax=absmax)


# ---------------------------------------------------------------------------
# floating-point layer


@dataclass(frozen=True)
class PrefixSeries:
    """Compensated prefix sums with a certified absolute error radius.

    ``values[n]`` approximates the exact rational prefix sum of the first n
    terms; index 0 is the empty sum (exactly 0).  The per-index radius is
    nondecreasing, so it is kept at block ends only: ``error_radius[j]`` is
    the radius at index min(j _BLOCK, limit) (entry 0 is 0), and
    ``|values[n] - exact| <= radius(n)`` for every n.  ``block_absmax[j]``
    is max |values[n]| over block j (entry 0 is 0).
    """

    limit: int
    values: np.ndarray        # float64, length limit+1
    error_radius: np.ndarray  # float64, length ceil(limit/_BLOCK)+1
    block_absmax: np.ndarray  # float64, length ceil(limit/_BLOCK)+1

    def __post_init__(self):
        self.values.setflags(write=False)
        self.error_radius.setflags(write=False)
        self.block_absmax.setflags(write=False)

    def radius(self, n: int) -> float:
        """Certified error radius of ``values[n]``: the radius at the end of
        n's block, which bounds the nondecreasing radius at n."""
        return float(self.error_radius[(n + _BLOCK - 1) // _BLOCK])


def _carried_prefix(table: MuTable, block_terms, rep_ulps: int) -> PrefixSeries:
    """Prefix sums of per-index terms with one round of error-free correction,
    built _BLOCK indices at a time.

    ``block_terms(mu, k, out)`` writes the terms t_k for the indices k (a
    float64 block) with Möbius values mu into ``out``; each term's own
    representation error is at most rep = rep_ulps * ulp * |t_k|.  Within a
    block, with s_k the naive prefix and s_{k-1} its predecessor,

        bb  = s_k - s_{k-1}            (Neumaier branch-free TwoSum split)
        err = (s_{k-1} - (s_k - bb)) + (t_k - bb)

    recover each step's exact rounding error; adding their running sum back
    gives values accurate to ~1 ulp.  The certified radius at index k combines:
      * representation error of the terms themselves (running sum of rep),
      * second-order error of the correction sum: ulp * running sum |err|
        plus k * ulp^2 * running sum |t|,
      * the final uncompensated rounding: 2 ulp * running max |values|.
    Each part is nondecreasing in k and rounding is monotone, so a block's
    largest radius is at its last index, the one place it is evaluated.
    The largest |value| of each block, which the running max reads anyway,
    is kept as ``block_absmax``.

    Sums that read the same inputs run as one complex128 accumulate: s with
    sum |t|, and sum err with sum |err|.  Complex addition adds the real
    parts and the imaginary parts separately, each rounded once, so every
    component is bit for bit the real running sum it stands for.  For
    rep_ulps = 1 the running sum of rep needs no pass of its own: rep =
    ulp |t_k| is a power-of-two scaling, each nonzero |t_k| >= 2^-31 keeps
    it and every partial sum far from the subnormals, and rounding commutes
    with such a scaling, so the sum of rep is exactly ulp * sum |t|.  Other rep_ulps (3 for ell) keep a real
    running sum of rep.

    Six values carry between blocks (the prefix s, the sums of err, |t|, rep
    and |err|, and max |values|) into slot 0 of each block's left-to-right
    sums (``np.sum`` is pairwise and would round differently), so every
    float operation runs in the order of one pass over the whole table, no
    value or radius depends on _BLOCK, and the scratch is a fixed set of
    at most 8 block-sized float64 buffers (the complex sums count twice),
    allocated once per series.
    """
    limit = table.limit
    values = np.empty(limit + 1)
    blocks = -(-limit // _BLOCK)
    radius, absmax = np.empty(blocks + 1), np.empty(blocks + 1)
    values[0] = radius[0] = absmax[0] = 0.0
    size = min(_BLOCK, limit)
    k = np.arange(1, size + 1, dtype=np.float64)  # the block's indices
    terms, scratch = np.empty(size), np.empty(size)
    # slot 0 holds the carry, slot i + 1 the running sums through k[i]
    run = np.empty(size + 1, dtype=np.complex128)    # (s, sum |t|)
    e_run = np.empty(size + 1, dtype=np.complex128)  # (sum err, sum |err|)
    rep = np.empty(size + 1) if rep_ulps != 1 else None
    carry = e_carry = 0j
    rep_sum = v_max = 0.0
    for j, a in enumerate(range(1, limit + 1, _BLOCK), 1):
        b = min(a + _BLOCK, limit + 1)
        n = b - a
        t, w, z, ze = terms[:n], scratch[:n], run[:n + 1], e_run[:n + 1]
        block_terms(table.mu[a:b], k[:n], t)
        z[0] = carry
        z.real[1:] = t
        np.abs(t, out=z.imag[1:])
        if rep is not None:
            r = rep[:n + 1]
            r[0] = rep_sum
            np.multiply(z.imag[1:], rep_ulps * _ULP, out=r[1:])
            rep_sum = np.add.accumulate(r, out=r)[-1]
        np.add.accumulate(z, out=z)
        prev, cur = z.real[:-1], z.real[1:]
        np.subtract(cur, prev, out=w)              # bb
        np.subtract(t, w, out=t)                   # t - bb
        np.subtract(cur, w, out=w)                 # s - bb
        np.subtract(prev, w, out=w)                # prev - (s - bb)
        ze[0] = e_carry
        np.add(w, t, out=ze.real[1:])              # err
        np.abs(ze.real[1:], out=ze.imag[1:])
        np.add.accumulate(ze, out=ze)
        v = np.add(cur, ze.real[1:], out=values[a:b])
        absmax[j] = np.abs(v, out=w).max()
        v_max = max(v_max, absmax[j])
        carry, e_carry = z[-1], ze[-1]
        abs_sum, abs_err_sum = carry.imag, e_carry.imag
        if rep is None:
            rep_sum = _ULP * abs_sum
        radius[j] = (rep_sum + _ULP * abs_err_sum + (b - 1) * _ULP * _ULP * abs_sum
                     + 2.0 * _ULP * v_max)
        k += _BLOCK
    return PrefixSeries(limit=limit, values=values, error_radius=radius,
                        block_absmax=absmax)


def _m_terms(mu, k, out):
    np.divide(mu, k, out=out)


def _ell_terms(mu, k, out):
    np.log(k, out=out)
    np.multiply(mu, out, out=out)
    np.divide(out, k, out=out)


def m_series(table: MuTable) -> PrefixSeries:
    """Prefix sums of mu(k)/k, certified to ~1e-14 absolute up to 1e8."""
    # each quotient mu/k carries at most half an ulp of relative error
    return _carried_prefix(table, _m_terms, 1)


def ell_series(table: MuTable) -> PrefixSeries:
    """Prefix sums of mu(k)*log(k)/k (the auxiliary series behind mcheck)."""
    # log() is faithfully rounded (<=1 ulp) and the quotient adds one more
    return _carried_prefix(table, _ell_terms, 3)


# ---------------------------------------------------------------------------
# exact prefix sums


def _recip_limbs(k: np.ndarray) -> np.ndarray:
    """floor(2^_FIXED_BITS / k) for each k of a uint64 array (1 <= k < 2^31),
    as _LIMBS rows of base-2^32 digits, most significant first, in int64.

    Long division of 1 followed by _LIMBS zero digits: every partial
    remainder is below k, so each step divides a number below 2^63 and each
    digit is below 2^32 (for k = 1 the leading digit is 2^32 itself).
    """
    rows = np.empty((_LIMBS, k.shape[0]), dtype=np.int64)
    rem = np.ones_like(k)
    for row in rows:
        row[:], rem = np.divmod(rem << np.uint64(32), k)
    return rows


def _join(limb_sums) -> int:
    """sum_i limb_sums[i] 2^(32 (_LIMBS - 1 - i)): signed digit sums to one integer."""
    acc = 0
    for s in limb_sums.tolist():
        acc = (acc << 32) + s
    return acc


def _log_step(p: int, prev: int) -> int:
    """log p - log prev = 2 atanh(x), x = (p - prev)/(p + prev) <= 1/3, as an
    integer over 2^_LOG_BITS, from below and short by less than 340 units.

    With u = 2^-_LOG_BITS, X = floor(x/u) and X2 = floor(X^2 u) make every
    power P_j (P_1 = X, P_{j+2} = floor(P_j X2 u)) satisfy
    0 <= x^j - P_j u < 2u, so each term floor(P_j/j) is short of x^j/j by
    less than 2u/j + u; the loop stops at the first P_j = 0, where
    x^j < 2u bounds the tail by u/10, and P_j u <= x^j <= 3^-j < u by
    j = 203.  So atanh(x) is short by less than 1.1u + 101 (5/3)u < 170u.
    """
    x = ((p - prev) << _LOG_BITS) // (p + prev)
    x2 = x * x >> _LOG_BITS
    acc = term = x
    j = 1
    while term:
        term = term * x2 >> _LOG_BITS
        j += 2
        acc += term // j
    return 2 * acc


def _exact_prefix(mu: np.ndarray, n: int, with_ell: bool):
    """(m(n), ell(n)) as integers over 2^_FIXED_BITS; ell is None unless
    with_ell.  Scratch memory is O(sqrt(n) + _EXACT_BLOCK); every sum is over
    numpy blocks of _EXACT_BLOCK k at a time.

    m(n) = sum_{k<=n} mu(k) floor(2^_FIXED_BITS / k): each block sums
    mu(k) times the base-2^32 digits of the truncated reciprocals in int64
    (each digit sum stays below n 2^32 < 2^63), and the digits are joined
    once, so the integer is exactly that of a per-term loop and lies within
    n units of 2^-_FIXED_BITS of m(n).

    ell(n): log k = sum_{p|k} log p for squarefree k, so
    ell(n) = sum_{p<=n} log p T_p with T_p = sum_{k<=n, p|k} mu(k)/k.  For
    p <= r = isqrt(n), T_p is the digit sum of the block reciprocals over
    k = 0 mod p.  For p > r, k = pj forces j <= n/p < p, so
    T_p = -m(n // p)/p, read from the exact m table on [0, r].  log p comes
    from the chain log p = log p' + 2 atanh((p - p')/(p + p')) over
    consecutive primes (p < 2p', so the argument is at most 1/3), from
    log 1 = 0, at _LOG_BITS bits (_log_step); primes above r come from a
    segmented sieve of each block by the primes up to r.  The products are
    summed exactly and floored once.

    Error of ell, in units of 2^-_FIXED_BITS (the chain is short of log p
    by less than 340 pi(n) 2^-_LOG_BITS, i.e. < 340 pi(n) 2^-64 units):
      * truncated reciprocals in T_p, p <= r: each squarefree k adds less
        than sum_{p|k} log p = log k, in all < n log n (log is natural);
      * the chain's error times |T_p| <= (1 + log n)/p: < 1;
      * m(q) to within q units, q = n // p < n/p, times log p/p over
        p > r: < n log n / r <= 2 sqrt(n) log n;
      * floor(L_p / p) and the chain's error over p, times |m(q)| <= 1:
        < 341 pi(n) 2^-64 < 1;
      * the final floor: < 1.
    In all |ell - ell(n)| < ((n + 2 sqrt(n)) log n + 4) 2^-_FIXED_BITS,
    below 2^-221 at n = 1e9 (the digit sums need n < 2^31).
    """
    if n >= 1 << 31:
        raise RangeError(f"exact prefix sums need n < 2^31, not {n}")
    r = math.isqrt(n)
    small = _small_primes(r).tolist() if with_ell else []
    small_logs, log_p, prev = [], 0, 1
    for p in small:
        log_p, prev = log_p + _log_step(p, prev), p
        small_logs.append(log_p)
    m_digits = np.zeros(_LIMBS, dtype=np.int64)
    t_digits = np.zeros((len(small), _LIMBS), dtype=np.int64)
    by_q = [0] * (r + 1)  # by_q[q] = sum of floor(L_p / p) over p > r, n // p = q
    for a in range(1, n + 1, _EXACT_BLOCK):
        b = min(a + _EXACT_BLOCK, n + 1)
        w = mu[a:b].astype(np.int64)
        limbs = _recip_limbs(np.arange(a, b, dtype=np.uint64))
        m_digits += limbs @ w
        if not with_ell:
            continue
        composite = np.zeros(b - a, dtype=bool)
        for i, p in enumerate(small):
            off = -a % p
            t_digits[i] += limbs[:, off::p] @ w[off::p]
            composite[off::p] = True
        first = max(a, r + 1)
        for p in (np.nonzero(~composite[first - a:])[0] + first).tolist():
            log_p, prev = log_p + _log_step(p, prev), p
            by_q[n // p] += log_p // p
    m_fp = _join(m_digits)
    if not with_ell:
        return m_fp, None
    w = mu[1:r + 1].astype(np.int64)
    m_small = np.cumsum(_recip_limbs(np.arange(1, r + 1, dtype=np.uint64)) * w, axis=1)
    total = sum(L * _join(t) for L, t in zip(small_logs, t_digits))
    total -= sum(_join(m_q) * s for m_q, s in zip(m_small.T, by_q[1:]))
    return m_fp, total >> _LOG_BITS


def _absmax(v) -> float:
    """max |v| over a nonempty array, without an |v| temporary."""
    return max(float(v.max()), -float(v.min()))


@dataclass(frozen=True)
class SeriesPair:
    """The prefix series behind m and m1 (m) and mcheck (m and ell); a
    series that was not built is None."""

    m: PrefixSeries | None = None
    ell: PrefixSeries | None = None


@dataclass(frozen=True)
class EvaluationPoint:
    x: float
    m: float
    m1: float
    M_over_x: float
    m_check: float
    error_radius: float


class Chunk(NamedTuple):
    """The indices a <= n < b of a table, as a scan reads them: the M, m
    and ell slices (None for one not asked for), the largest |value| of
    each slice, and the m and ell radii at b - 1, which bound the radius
    of every index of the chunk.  Views and scalars only."""

    a: int
    b: int
    M: np.ndarray | None
    m: np.ndarray | None
    ell: np.ndarray | None
    M_max: float | None
    m_max: float | None
    ell_max: float | None
    m_radius: float | None
    ell_radius: float | None


@dataclass(frozen=True)
class Tables:
    """Bundle of a sieve and its derived prefix series."""

    FIXED_BITS = _FIXED_BITS  # the binary point of exact_prefix's m and ell

    mu: MuTable
    series: SeriesPair = field(repr=False)

    @property
    def limit(self) -> int:
        return self.mu.limit

    def prefix(self, name: str) -> PrefixSeries:
        """The prefix series ``name`` ("m" or "ell"); InvalidArgumentError
        if these tables were built without it."""
        series = getattr(self.series, name)
        if series is None:
            raise InvalidArgumentError(
                f"these tables were built without the {name} prefix series")
        return series

    def chunk(self, a: int, b: int, series) -> Chunk:
        """The `Chunk` of the indices a <= n < b (1 <= a < b <= limit + 1)
        for the arrays named in ``series`` ("M", "m", "ell"); a prefix
        series it names but these tables lack raises InvalidArgumentError.
        The largest |value| of a slice is the build's record when [a, b)
        is one whole block, else a reduction of the slice."""
        j, off = divmod(a - 1, _BLOCK)
        whole = not off and b == min(a + _BLOCK, self.limit + 1)
        M = M_max = m = m_max = m_rad = ell = ell_max = ell_rad = None
        if "M" in series:
            M = self.mu.mertens[a:b]
            M_max = float(self.mu.block_absmax[j + 1]) if whole else _absmax(M)
        if "m" in series:
            s = self.prefix("m")
            m, m_rad = s.values[a:b], s.radius(b - 1)
            m_max = float(s.block_absmax[j + 1]) if whole else _absmax(m)
        if "ell" in series:
            s = self.prefix("ell")
            ell, ell_rad = s.values[a:b], s.radius(b - 1)
            ell_max = float(s.block_absmax[j + 1]) if whole else _absmax(ell)
        return Chunk(a, b, M, m, ell, M_max, m_max, ell_max, m_rad, ell_rad)

    def exact_prefix(self, n: int, with_ell: bool):
        """(M(n), m(n), ell(n)): M exactly, m and ell as integers over
        2^FIXED_BITS (`_exact_prefix`); ell is None unless with_ell."""
        return (int(self.mu.mertens[n]), *_exact_prefix(self.mu.mu, n, with_ell))


def build_tables(limit: int, jobs: int = 1) -> Tables:
    """Tables to ``limit`` with every prefix series; ``jobs`` is accepted
    and not read (the sieve runs in the calling thread)."""
    return with_series(sieve_mu(limit))


def with_series(table: MuTable, series=SERIES) -> Tables:
    """``table`` bundled with the prefix series named in ``series`` (a
    subset of SERIES); the others are None."""
    return Tables(mu=table, series=SeriesPair(
        m=m_series(table) if "m" in series else None,
        ell=ell_series(table) if "ell" in series else None))


def evaluate(tables: Tables, x: float) -> EvaluationPoint:
    """Evaluate M/x, m, m1 and mcheck at a real point x >= 1."""
    if not math.isfinite(x):
        raise InvalidArgumentError(f"x must be finite, not {x}")
    if x < 1:
        raise InvalidArgumentError("x must be >= 1")
    if x >= tables.limit + 1:
        raise RangeError(
            f"x={x} outside table range; sieve at least to limit={int(x)}"
        )
    m, ell = tables.prefix("m"), tables.prefix("ell")
    n = int(math.floor(x))
    mv = float(m.values[n])
    Mv = float(tables.mu.mertens[n])
    lx = math.log(x)
    ellv = float(ell.values[n])
    m1 = mv - Mv / x
    m_check = mv * lx - ellv
    rad = m.radius(n)
    rad_check = rad * abs(lx) + ell.radius(n) + 4.0 * _ULP * (
        abs(mv * lx) + abs(ellv)
    )
    return EvaluationPoint(
        x=float(x),
        m=mv,
        m1=m1,
        M_over_x=Mv / x,
        m_check=m_check,
        error_radius=max(rad, rad_check),
    )


# ---------------------------------------------------------------------------
# on-disk cache
#
# File format v2: the ASCII line "MOEBIUS-TABLE v2 limit=N\n", the N bytes
# mu(1..N) as int8, then the 16-byte BLAKE2b digest of those N bytes.
# Mertens is not stored: it is rebuilt exactly as cumsum(mu).


def table_digest(table: MuTable) -> bytes:
    """BLAKE2b-128 digest of mu(1..limit): with the limit, the table identity."""
    return _blake2b(_mu_bytes(table))


def _blake2b(data) -> bytes:
    import hashlib  # loads OpenSSL (~4 MB RSS): only commands that hash pay for it
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE).digest()


def _mu_bytes(table: MuTable) -> np.ndarray:
    return np.ascontiguousarray(table.mu[1:], dtype="<i1")  # no copy for int8


def cache_path(cache_dir: str, limit: int) -> str:
    return os.path.join(cache_dir, f"moebius-{limit}.tbl")


def save_table(table: MuTable, path: str) -> None:
    """Persist mu(1..limit) in cache format v2.

    Writes a unique temporary file next to ``path`` and renames it into
    place, so concurrent writers of one table never see a partial file.
    """
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"MOEBIUS-TABLE {_CACHE_VERSION} limit={table.limit}\n".encode("ascii"))
            fh.write(_mu_bytes(table).data)
            fh.write(table_digest(table))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _read_mu(path: str) -> np.ndarray:
    """Checked mu array (index 0 zero) of a v2 cache file."""
    with open(path, "rb") as fh:
        header = fh.readline(64)
        match = _CACHE_HEADER.fullmatch(header)
        if not match:
            raise InvalidArgumentError(f"not a moebius table cache: {path}")
        version = match.group(1).decode("ascii")
        if version != _CACHE_VERSION:
            raise InvalidArgumentError(
                f"cache format {version} is no longer read; delete {path}")
        limit = int(match.group(2))
        expected = len(header) + limit + _DIGEST_SIZE
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise InvalidArgumentError(f"truncated cache file: {path}")
        if size > expected:
            raise InvalidArgumentError(f"trailing bytes after cache digest: {path}")
        mu = np.zeros(limit + 1, dtype=np.int8)
        fh.readinto(mu[1:])
        digest = fh.read(_DIGEST_SIZE)
    if _blake2b(mu[1:]) != digest:
        raise InvalidArgumentError(f"cache checksum mismatch: {path}")
    return mu


def load_table(path: str) -> MuTable:
    """Read a v2 cache file; raises InvalidArgumentError on any mismatch."""
    return _mu_table(_read_mu(path))


def load_covering(cache_dir: str, limit: int, series=SERIES) -> MuTable | None:
    """The smallest cached table with limit >= ``limit``, cut to ``limit``.

    Returns None when no cache file covers ``limit``.  Cutting is exact: mu is
    an integer table and Mertens is rebuilt as the prefix sum of the cut copy,
    so the result equals ``sieve_mu(limit)`` bit for bit.  Raises
    ResourceError before reading if the file and the tables with the prefix
    series named in ``series``, built on the result, would exceed RAM.
    """
    try:
        names = os.listdir(cache_dir)
    except FileNotFoundError:
        return None
    limits = [int(m.group(1)) for m in map(_CACHE_NAME.fullmatch, names) if m]
    covering = min((L for L in limits if L >= limit), default=None)
    if covering is None:
        return None
    # the covering file's mu, then the tables to limit
    _check_memory(limit, covering + 1, series)
    path = cache_path(cache_dir, covering)
    mu = _read_mu(path)
    if mu.shape[0] - 1 != covering:
        raise InvalidArgumentError(f"cache file name and header disagree: {path}")
    return _mu_table(mu[: limit + 1].copy())
