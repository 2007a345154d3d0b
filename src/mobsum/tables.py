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
the indices (j - 1) _BLOCK < n <= min(j _BLOCK, limit).

A table keeps mu (int8, 1 B/n) and, per block, only what a block needs
to be re-derived and what the scans read without it: Mertens at the
block end, each series' carry (the naive prefix and its correction sum at
the block end, from which `_Prefix` runs the next block in the order of
one pass), its radius at the block end, which bounds the nondecreasing
radius of every index in the block, and the records: the largest |M(n)|,
|m(n)| and |ell(n)| of the block and, kept with ell, the largest
|m(n) - M(n)/n| = |m1(n)| and |m(n) log n - ell(n) - 1| = |mcheck(n) - 1|.
The build streams block by block and keeps no per-index M, m or ell: ell
is always built in one pass with m and Mertens beside it (a fused
`_Prefix`), which takes each series' carries, radii and records and
those two records.  So a table never holds ell without m, and a block of
ell is re-derived by the same fused run from the block's ell and m
carries.

A scan reads a table only through `Tables.chunk` (a `Chunk` of one span,
which computes only what it is asked for: the largest of a record over the
blocks the span meets, a radius at its end or a slice), `Tables.read` and
`Tables.exact_prefix`.  `Tables.read` re-derives the blocks it covers
from their carries into a small LRU of block buffers (`_Blocks`, at most
_LRU_BYTES), so an envelope, which reads only records, touches no array.
`Tables.nbytes` counts what a table retains: about 1 B/n plus under
100 B per block, plus the LRU's bound.  A `Tables` bundle carries only
the series its caller reads (``with_series``); a kernel that needs a
missing one raises InvalidArgumentError.  Peak memory is the retained
tables plus O(_SPAN) scratch for a series (build or re-derivation),
O(_BLOCK) for a block being built or re-derived, 1 B per entry of a
_SIEVE_BLOCK segment for the sieve, and, for a cache load cut to a smaller
limit, one buffer of at most _STREAM bytes.

The exact m(n) and ell(n) come from a memo each `Tables` keeps
(`_ExactMemo`), empty until the first escalation and grown only as far as
the largest n asked: per block of _BLOCK indices, one integer for m and,
once ell is asked, one for ell (about 100 B each); per prime up to the
largest n asked with ell, 48 B (the prime and a cumulative sum of its
chain); and up to three integers per index up to sqrt(limit).  A repeat
below the memo's top costs one checkpoint and a tail of fewer than _BLOCK
indices; each growth is first charged, with the tables, against physical
memory.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

try:  # hashlib.blake2b itself, without the OpenSSL (~3.6 MB RSS) hashlib loads
    from _blake2 import blake2b as _blake2b
except ImportError:
    from hashlib import blake2b as _blake2b

from .errors import InvalidArgumentError, RangeError, ResourceError

_ULP = 2.0 ** -53  # unit roundoff for IEEE-754 binary64
_BLOCK = 1 << 16  # indices per block of the carried prefix sums
_SIEVE_BLOCK = 1 << 20  # integers per sieve segment
_SPAN = 1 << 13  # indices per pass of a prefix build over its scratch buffers
_LRU_BYTES = 16 << 20  # re-derived block buffers a Tables keeps (32 float64 blocks)
_BUILD_SPANS = 20  # span-sized float64 buffers of the largest series build (ell with m)
_EXACT_BLOCK = 1 << 13  # k per block of the exact prefix sums (512 KB of digits)
_FIXED_BITS = 256
_LIMBS = _FIXED_BITS // 32  # base-2^32 digits of a fixed-point reciprocal
_LOG_BITS = _FIXED_BITS + 64  # working precision of the log p chain
_S_BYTES = 44  # a cumulative sum of floor(L_p / p): below 2^325 for p < 2^31, since
               # sum_{p<=x} log p / p < log x + 1 and L_p <= 2^_LOG_BITS log p
_PRIME_BYTES = 4 + _S_BYTES  # retained per prime of the chain: p (int32) and its S
_INT_BYTES = 112  # a retained integer below 2^600 and its list slot

_CACHE_VERSION = "v2"
_CACHE_HEADER = re.compile(rb"MOEBIUS-TABLE (v\d+) limit=([1-9]\d*)\n")
_CACHE_NAME = re.compile(r"moebius-([1-9]\d*)\.tbl")
_DIGEST_SIZE = 16
_STREAM = 1 << 20  # bytes per read of a covering file's mu past the cut

SERIES = ("m", "ell")  # the prefix series a Tables bundle can carry
# each record a chunk can take (`Chunk.top`): (the prefix series that keeps
# it, None for the MuTable, and its per-block array)
_RECORDS = {"M": (None, "block_absmax"), "m": ("m", "block_absmax"),
            "m1": ("ell", "m1_absmax"), "mcheck": ("ell", "mcheck_absmax")}


# ---------------------------------------------------------------------------
# integer layer


@dataclass(frozen=True)
class MuTable:
    """Möbius values mu(1..limit) and their exact prefix sums at block ends.

    ``mu[n]`` is 1-indexed: index 0 is unused (zero).  ``mertens[j] =
    sum_{k<=c} mu[k]`` at c = min(j _BLOCK, limit), held exactly in int32,
    and ``block_absmax[j]`` is max |M(n)| over block j (entry 0 of both is
    0).  M(n) inside a block is `_mertens_block` from the entry before it.
    """

    limit: int
    mu: np.ndarray            # int8, length limit+1
    mertens: np.ndarray       # int32, length ceil(limit/_BLOCK)+1
    block_absmax: np.ndarray  # int32, length ceil(limit/_BLOCK)+1

    def __post_init__(self):
        self.mu.setflags(write=False)
        self.mertens.setflags(write=False)
        self.block_absmax.setflags(write=False)

    @property
    def mertens_at_limit(self) -> int:
        """M(limit), the Mertens sum at the last block end."""
        return int(self.mertens[-1])


def _check_limit(limit: int) -> None:
    # Mertens is int32, exact because |M(n)| <= n
    if limit >= 1 << 31:
        raise RangeError(f"limit {limit} too large: Mertens sums are int32, "
                         f"so tables stop at 2^31 - 1")


def _retained_bytes(limit: int, series) -> int:
    """Bytes that tables to ``limit`` with the prefix series named in
    ``series`` retain (`Tables.nbytes`): mu (1 B/n); per block the Mertens
    entry and its record (8 B), each series' carry, radius and record
    (32 B), and with ell the m1 and mcheck records (16 B); and the bound
    of the LRU of re-derived blocks, which never holds more than the whole
    table's M (4 B/n) and series (8 B/n each)."""
    blocks = -(-limit // _BLOCK) + 1
    records = 16 if "ell" in series else 0
    return (limit + 1 + (8 + 32 * len(series) + records) * blocks
            + min(_LRU_BYTES, (4 + 8 * len(series)) * limit))


def _check_memory(limit: int, scratch: int, series) -> None:
    """Raise ResourceError if tables to ``limit`` with the prefix series
    named in ``series`` (`_retained_bytes`), the scratch of a prefix build
    (when there is one: at most _BUILD_SPANS span-sized float64 buffers,
    those of m and ell run together) and ``scratch`` bytes would exceed
    physical memory."""
    build = 8 * _BUILD_SPANS * min(_SPAN, _BLOCK, limit) if series else 0
    _charge(_retained_bytes(limit, series) + build + scratch, f"tables to limit {limit}")


def _charge(need: int, what: str) -> None:
    """Raise ResourceError if ``need`` bytes for ``what`` would exceed
    physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ResourceError(f"{what} need about {need / 2**30:.2f} GiB, "
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


def _log_weight(p: int) -> int:
    """round(8 log2 p): a prime's term of the sieve's log sums."""
    return round(8 * math.log2(p))


def _wheel():
    """The signs and log sums (`_sieve_block`) of the primes up to 7 over
    one period, 210."""
    r = np.arange(210)
    sign, logs = np.ones(210, dtype=np.int8), np.zeros(210, dtype=np.uint8)
    for p in (2, 3, 5, 7):
        sign[r % p == 0] *= -1
        logs[r % p == 0] += _log_weight(p)
    return sign, logs


_WHEEL = _wheel()


def _tiled(pattern: np.ndarray, lo: int, n: int, out=None) -> np.ndarray:
    """pattern[(lo + i) % len(pattern)] for 0 <= i < n, written into
    ``out`` (n entries of the pattern's dtype) or a new array."""
    period = pattern.shape[0]
    first = np.roll(pattern, -(lo % period))
    out = np.empty(n, dtype=pattern.dtype) if out is None else out
    full = n // period * period
    out[:full].reshape(-1, period)[...] = first
    out[full:] = first[:n - full]
    return out


@functools.cache
def _entry_bounds(size: int) -> np.ndarray:
    """ceil(8 log2 n) - 14 for 0 <= n < size, floored at 0, as uint8: the
    log-sum threshold where `_sieve_block` takes it per entry.  Filled run
    by run, ceil(8 log2 n) = k for 2^((k - 1)/8) < n <= 2^(k/8), with no
    per-entry float temporaries."""
    bounds = np.zeros(size, dtype=np.uint8)
    k = 15
    while (a := math.floor(2 ** ((k - 1) / 8)) + 1) < size:
        bounds[a:math.floor(2 ** (k / 8)) + 1] = k - 14
        k += 1
    bounds.setflags(write=False)  # one array serves every call
    return bounds


def _sieve_block(lo: int, hi: int, primes: np.ndarray, out=None) -> np.ndarray:
    """mu values for n in [lo, hi) (1 <= lo < hi <= 2^31), as int8, written
    into ``out`` when given; ``primes`` holds every prime up to
    isqrt(hi - 1).

    A squarefree n has at most one prime factor above max(7, sqrt(hi - 1)),
    the large one.  ``logs`` (uint8) sums round(8 log2 p) (`_log_weight`)
    over the sieving primes p dividing n, and over 2, 3, 5 and 7 whatever
    the sieving primes; a squarefree n has a large prime factor exactly
    where logs < 8 log2 n - 14.  Proof: below 2^31 a number has at most 9
    distinct prime factors (2 3 5 ... 29 > 2^31), so the roundings move
    logs by at most 4.5 from 8 log2 of the product of the primes it sums.
    Without a large factor that product is n, and logs >= 8 log2 n - 4.5.
    With one, q >= 11, the product is n / q, and logs <= 8 log2 n - 8 log2 11
    + 4.5 < 8 log2 n - 23.1.  The product divides n < 2^31, so logs <= 248
    + 4.5 and uint8 never wraps.  A span [c, d) with c >= 8 (d - c) takes
    the threshold at c, ceil(8 log2 c) - 14, for all its n: 8 log2 n grows
    by less than 8 log2(9/8) < 1.4 across it, well inside either margin.
    Below that each n takes its own.

    The signs and log sums of 2, 3, 5 and 7 start as one repeating pattern
    (`_WHEEL`); each larger sieving prime flips its multiples and adds its
    weight to their log sums, and every sieving prime zeroes the multiples
    of its square.  Scratch: logs (1 B per entry), then the comparison of
    one _SPAN of the sign pass at a time; the per-entry thresholds below
    9 _SPAN (9 _SPAN bytes) are built once and kept.
    """
    mu = _tiled(_WHEEL[0], lo, hi - lo, out)
    logs = _tiled(_WHEEL[1], lo, hi - lo)
    for p in primes:
        p = int(p)
        if p > 7:
            start = (-lo) % p
            flip = mu[start::p]
            np.negative(flip, out=flip)
            logs[start::p] += _log_weight(p)
        sq = p * p
        if sq < hi:
            mu[(-lo) % sq :: sq] = 0
    # one arithmetic pass, not a boolean-indexed write: sign = 1 - 2 [large factor]
    large = np.empty(min(_SPAN, hi - lo), dtype=bool)
    for a in range(0, hi - lo, _SPAN):
        b = min(a + _SPAN, hi - lo)
        if lo + a >= 8 * _SPAN:
            bound = math.ceil(8 * math.log2(lo + a)) - 14
        else:
            bound = _entry_bounds(9 * _SPAN)[lo + a:lo + b]
        sign = np.less(logs[a:b], bound, out=large[:b - a]).view(np.int8)
        sign <<= 1
        np.subtract(1, sign, out=sign)
        mu[a:b] *= sign
    return mu


def sieve_mu(limit: int, series=SERIES) -> MuTable:
    """Sieve mu(n) for 1 <= n <= limit and accumulate exact Mertens sums.

    The _SIEVE_BLOCK segments are sieved one after another in the calling
    thread, each into its place, and Mertens is block-carried over the
    whole array by ``_mu_table``, so the table is the same for any segment
    size.  Raises ResourceError before allocating if the table and the
    prefix series named in ``series``, which the caller goes on to build,
    would exceed RAM.
    """
    if limit < 1:
        raise InvalidArgumentError("limit must be a positive integer")
    _check_limit(limit)
    # the segment's log sums (1 B per entry), the per-entry thresholds
    # (`_entry_bounds`, 9 _SPAN bytes) and one span of the sign pass
    _check_memory(limit, min(_SIEVE_BLOCK, limit) + 10 * _SPAN, series)
    primes = _small_primes(int(math.isqrt(limit)))
    mu = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        _sieve_block(lo, hi, primes, mu[lo:hi])
    return _mu_table(mu)


def _mertens_block(mu: np.ndarray, a: int, b: int, carry, out=None) -> np.ndarray:
    """M(n) for a <= n < b, given carry = M(a - 1): the block's own prefix
    sum of mu plus the carry (integer sums are exact, so the carry may be
    added after), in int32, written into ``out`` when given."""
    block = np.cumsum(mu[a:b], dtype=np.int32, out=out)
    block += carry
    return block


def _mu_table(mu: np.ndarray) -> MuTable:
    """MuTable over ``mu`` (int8, index 0 zero): Mertens accumulated block
    by block in one block-sized buffer, keeping each block's last sum and
    its largest |M| while the block is in cache."""
    limit = mu.shape[0] - 1
    _check_limit(limit)
    blocks = -(-limit // _BLOCK)
    mertens = np.zeros(blocks + 1, dtype=np.int32)
    absmax = np.zeros(blocks + 1, dtype=np.int32)
    buf = np.empty(min(_BLOCK, limit), dtype=np.int32)
    for j, a in enumerate(range(1, limit + 1, _BLOCK), 1):
        b = min(a + _BLOCK, limit + 1)
        block = _mertens_block(mu, a, b, mertens[j - 1], buf[:b - a])
        mertens[j] = block[-1]
        absmax[j] = max(block.max(), -block.min())
    return MuTable(limit=limit, mu=mu, mertens=mertens, block_absmax=absmax)


# ---------------------------------------------------------------------------
# floating-point layer


@dataclass(frozen=True)
class PrefixSeries:
    """Compensated prefix sums, kept at block ends, with a certified
    absolute error radius.

    With c_j = min(j _BLOCK, limit): ``values[j]`` is the carry at c_j,
    the pair (s, e) of the naive prefix and the running sum of its rounding
    errors, whose rounded sum s + e is the value there and from which
    `_Prefix` re-derives block j + 1 (`Tables.read`); row 0 is the empty
    sum (0, 0).
    Every value approximates the exact rational prefix sum of its terms.
    The per-index radius is nondecreasing, so it is kept at block ends
    only: ``error_radius[j]`` is the radius at c_j (entry 0 is 0), and
    |value(n) - exact| <= radius(n) for every n.  ``block_absmax[j]`` is
    max |value(n)| over block j (entry 0 is 0).  An ell series, always
    built with m beside it, also records, over block j, ``m1_absmax[j]``,
    max |m(n) - M(n)/n| as `_m1_absmax` rounds it, and
    ``mcheck_absmax[j]``, max |m(n) log n - ell(n) - 1| as
    `_mcheck_absmax` rounds it (entry 0 is 0); an m series keeps None for
    both.  An m series built ``with_ell`` (`m_series`) keeps that ell
    series as ``beside``.
    """

    values: np.ndarray        # float64, shape (ceil(limit/_BLOCK)+1, 2)
    error_radius: np.ndarray  # float64, length ceil(limit/_BLOCK)+1
    block_absmax: np.ndarray  # float64, length ceil(limit/_BLOCK)+1
    m1_absmax: np.ndarray | None = None     # float64, as block_absmax
    mcheck_absmax: np.ndarray | None = None  # float64, as block_absmax
    beside: PrefixSeries | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.values, self.error_radius, self.block_absmax, self.m1_absmax,
                  self.mcheck_absmax):
            if a is not None:
                a.setflags(write=False)

    def radius(self, n: int) -> float:
        """Certified error radius of the value at n: the radius at the end
        of n's block, which bounds the nondecreasing radius at n."""
        return float(self.error_radius[(n + _BLOCK - 1) // _BLOCK])


# a quotient's rounding costs at most u = _ULP of relative error and mu(k)
# log k is exact but for the log, within 1 ulp (2u) by the libm premise of
# the `mobsum` package docstring: an ell term is within 3u of exact
_ELL_REP = 3.0 * _ULP


class _Prefix:
    """A compensated prefix series run over consecutive spans of at most
    ``size`` indices from index ``start`` on, from the carry (s, e) at
    start - 1 (`PrefixSeries.values`).  A run is m alone or, ``fused``,
    ell with m beside it, and Mertens summed from ``start`` (M(n) itself
    in a run from index 1); a fused carry holds ell's (s, e) in the real
    parts and m's in the imaginary ones.

    The terms t_k are mu(k)/k for m and mu(k) log(k)/k for ell, whose log k
    a fused run keeps in ``logs``.  Each term's own representation error is
    at most rep = u |t_k| for m and _ELL_REP |t_k| for ell.  With s_k the
    naive prefix and s_{k-1} its predecessor,

        bb  = s_k - s_{k-1}            (Neumaier branch-free TwoSum split)
        err = (s_{k-1} - (s_k - bb)) + (t_k - bb)

    recover each step's exact rounding error; adding their running sum e
    back gives values accurate to ~1 ulp.  The run also keeps, for each
    series, the sums the certified radius needs (`_carried_prefix`): of
    |t|, of rep and of |err|.

    Each running sum is a left-to-right accumulate whose slot 0 holds the
    sum carried from the span before (``np.sum`` is pairwise and would
    round differently), so every float operation runs in the order of one
    pass over the whole table: no value or sum depends on where a run
    starts or on the span size, and m is the same alone and fused.  An
    accumulate costs several elementwise passes, so they run two sums at
    once, as the real and imaginary parts of one complex128 accumulate:
    complex addition adds the parts separately, each rounded once, so each
    part is bit for bit the real running sum it stands for.  Alone, m pairs
    s with the sum of |t| and e with the sum of |err|: two accumulates.
    Fused, the pairs are the two series' s and their e, and the split runs
    on both as interleaved floats; ell's sums of |t| and rep share a third
    accumulate, its sum of |err| a fourth with the running sum of mu,
    Mertens (exact in float64), for the records that need it, and m's sums
    of |t| and |err| a fifth.  m's sum of rep needs no pass of its own:
    rep = u |t_k| is a power-of-two scaling, each nonzero |t_k| >= 2^-31
    keeps it and every partial sum far from the subnormals, and rounding
    commutes with such a scaling, so the sum of rep is exactly u sum |t|.
    The scratch is a fixed set of span-sized buffers, in float64 units (a
    complex128 counts twice): 9 alone, 19 fused (with log k).
    """

    def __init__(self, mu: np.ndarray, start: int, size: int, carry=(0.0, 0.0),
                 fused: bool = False):
        self.mu = mu
        self.fused = fused
        self.next = start
        # the naive prefix and correction sums, with the sums of the imaginary part
        self.carry, self.e_carry = complex(carry[0]), complex(carry[1])
        # fused: ell's (sum |t|, sum rep), (sum |err|, M) and m's (sum |t|, sum |err|)
        self.abs_carry, self.err_carry, self.m_carry = 0j, 0j, 0j
        self.base = np.arange(size, dtype=np.float64)
        self.k = np.empty(size)
        pair = np.complex128 if fused else np.float64  # the parts that are series
        self.t, self.w = np.empty(size, dtype=pair), np.empty(size, dtype=pair)
        self.v = np.empty(size)
        self.logs, self.m = (np.empty(size) if fused else None for _ in range(2))
        self.M = None  # fused, a view of the span's Mertens sums
        # slot 0 holds the carry, slot i + 1 the running sums through k[i]
        self.run, self.e_run = (np.empty(size + 1, dtype=np.complex128) for _ in range(2))
        self.abs_run, self.err_run, self.m_run = (
            np.empty(size + 1, dtype=np.complex128) if fused else None for _ in range(3))

    def states(self) -> list:
        """(s, e, sum |t|, sum rep, sum |err|) through the last span of each
        series of the run: m alone, or ell and then m."""
        s, e = self.carry, self.e_carry
        if not self.fused:  # the imaginary parts carry the sums of |t| and |err|
            return [(s.real, e.real, s.imag, _ULP * s.imag, e.imag)]
        m_abs = self.m_carry.real
        return [(s.real, e.real, self.abs_carry.real, self.abs_carry.imag, self.err_carry.real),
                (s.imag, e.imag, m_abs, _ULP * m_abs, self.m_carry.imag)]

    def span(self, b: int):
        """The values at next <= n < b, m's alone and ell's fused, in a
        buffer the next span reuses.  ``k`` and, fused, ``logs``, ``m`` and
        ``M`` keep the span's indices, log k, m values and Mertens sums
        until the next span."""
        a, n = self.next, b - self.next
        t, w, v, z, ze = self.t[:n], self.w[:n], self.v[:n], self.run[:n + 1], self.e_run[:n + 1]
        k = np.add(self.base[:n], a, out=self.k[:n])
        mu = self.mu[a:b]
        z[0] = self.carry
        if self.fused:  # ell's terms in the real parts, m's in the imaginary ones
            log_k = np.log(k, out=self.logs[:n])
            np.divide(np.multiply(mu, log_k, out=t.real), k, out=t.real)
            np.divide(mu, k, out=t.imag)
            z[1:] = t
            acc = self.abs_run[:n + 1]  # ell's (sum |t|, sum rep)
            acc[0] = self.abs_carry
            np.abs(t.real, out=acc.real[1:])
            np.multiply(acc.real[1:], _ELL_REP, out=acc.imag[1:])
            self.abs_carry = complex(np.add.accumulate(acc, out=acc)[-1])
            m_acc = self.m_run[:n + 1]  # m's (sum |t|, sum |err|)
            m_acc[0] = self.m_carry
            np.abs(t.imag, out=m_acc.real[1:])
        else:  # the imaginary parts carry |t|
            np.divide(mu, k, out=t)
            z.real[1:] = t
            np.abs(t, out=z.imag[1:])
        np.add.accumulate(z, out=z)
        if self.fused:  # the split runs on both parts, as interleaved floats
            s, t, w, err = (x.view(np.float64) for x in (z, t, w, ze[1:]))
            prev, cur = s[:-2], s[2:]
        else:  # on the real parts
            s, err = z.real, ze.real[1:]
            prev, cur = s[:-1], s[1:]
        np.subtract(cur, prev, out=w)              # bb
        np.subtract(t, w, out=t)                   # t - bb
        np.subtract(cur, w, out=w)                 # s - bb
        np.subtract(prev, w, out=w)                # prev - (s - bb)
        np.add(w, t, out=err)                      # err
        if self.fused:
            acc = self.err_run[:n + 1]  # ell's (sum |err|, M)
            acc[0] = self.err_carry
            np.abs(ze.real[1:], out=acc.real[1:])
            acc.imag[1:] = mu
            self.err_carry = complex(np.add.accumulate(acc, out=acc)[-1])
            self.M = acc.imag[1:]
            np.abs(ze.imag[1:], out=m_acc.imag[1:])
            self.m_carry = complex(np.add.accumulate(m_acc, out=m_acc)[-1])
        else:
            np.abs(err, out=ze.imag[1:])
        ze[0] = self.e_carry
        np.add.accumulate(ze, out=ze)
        np.add(z.real[1:], ze.real[1:], out=v)
        if self.fused:
            np.add(z.imag[1:], ze.imag[1:], out=self.m[:n])
        self.carry, self.e_carry, self.next = complex(z[-1]), complex(ze[-1]), b
        return v


def _carried_prefix(table: MuTable, fused: bool) -> PrefixSeries:
    """The m series of ``table`` or, ``fused``, that m series keeping as
    ``beside`` the ell series run with it, from one run streamed block by
    block in spans of at most _SPAN (`_Prefix`), keeping per block only
    each series' carry, radius and records.

    The certified radius at index k combines:
      * representation error of the terms themselves (running sum of rep),
      * second-order error of the correction sum: ulp * running sum |err|
        plus k * ulp^2 * running sum |t|,
      * the final uncompensated rounding: 2 ulp * running max |values|.
    Each part is nondecreasing in k and rounding is monotone, so a block's
    largest radius is at its last index, the one place it is evaluated.
    The largest |value| of each block, which the running max reads anyway,
    is kept as ``block_absmax``.  A fused run also takes, while each span
    is in cache, its block's `_m1_absmax` from m and Mertens and its
    `_mcheck_absmax` from m, ell and ell's own log k, and keeps them with
    the ell series: m's values exist per index only there, since no table
    keeps them.  The m series is bit for bit the same either way.
    """
    limit = table.limit
    blocks = -(-limit // _BLOCK)
    parts = 2 if fused else 1  # ell and then m, or m
    carry = np.zeros((parts, blocks + 1, 2))
    radius, absmax = np.zeros((parts, blocks + 1)), np.zeros((parts, blocks + 1))
    m1, mcheck = np.zeros((2, blocks + 1)) if fused else (None, None)
    size = min(_SPAN, _BLOCK, limit)
    run = _Prefix(table.mu, 1, size, fused=fused)
    w = np.empty(size) if fused else None  # the records' scratch
    v_max = [0.0] * parts
    for j, a_j in enumerate(range(1, limit + 1, _BLOCK), 1):
        b_j = min(a_j + _BLOCK, limit + 1)
        block_max = [0.0] * parts
        for a in range(a_j, b_j, _SPAN):
            b = min(a + _SPAN, b_j)
            v = run.span(b)
            block_max[0] = max(block_max[0], _absmax(v))
            if fused:
                m_v, d = run.m[:b - a], w[:b - a]
                block_max[1] = max(block_max[1], _absmax(m_v))
                m1[j] = max(m1[j], _m1_absmax(m_v, run.M, run.k[:b - a], d))
                mcheck[j] = max(mcheck[j], _mcheck_absmax(m_v, v, run.logs[:b - a], d))
        for i, (s, e, abs_sum, rep_sum, abs_err_sum) in enumerate(run.states()):
            carry[i, j] = s, e
            absmax[i, j] = block_max[i]
            v_max[i] = max(v_max[i], block_max[i])
            radius[i, j] = (rep_sum + _ULP * abs_err_sum + (b_j - 1) * _ULP * _ULP * abs_sum
                            + 2.0 * _ULP * v_max[i])

    def series(i, **records):
        return PrefixSeries(values=carry[i], error_radius=radius[i], block_absmax=absmax[i],
                            **records)

    main = series(0, m1_absmax=m1, mcheck_absmax=mcheck)
    return series(1, beside=main) if fused else main


def m_series(table: MuTable, with_ell: bool = False) -> PrefixSeries:
    """Prefix sums of mu(k)/k, certified to ~1e-14 absolute up to 1e8.
    With ``with_ell``, one run builds the ell series beside m and records
    the m1 and mcheck block maxima; the result keeps that series as
    ``beside`` for `ell_series` to hand back."""
    return _carried_prefix(table, with_ell)


def ell_series(table: MuTable, m: PrefixSeries | None = None) -> PrefixSeries:
    """Prefix sums of mu(k)*log(k)/k (the auxiliary series behind mcheck),
    with the block maxima of |m(n) - M(n)/n| (``m1_absmax``) and of
    |mcheck(n) - 1| (``mcheck_absmax``): the ell series that ``m``, an m
    series of ``table`` built ``with_ell``, keeps beside it, else that of
    a run of ell with m beside it."""
    if m is None or m.beside is None:
        m = _carried_prefix(table, True)
    return m.beside


def _m1_absmax(m, M, n, out) -> float:
    """max |m(n) - M(n)/n| over a span, rounded as the m1 envelope rounds
    it: ``n`` holds the float n, ``out`` is scratch of the same size (it
    may be ``n``)."""
    np.divide(M, n, out=out)
    return _absmax(np.subtract(m, out, out=out))


def _mcheck_absmax(m, ell, log_n, d) -> float:
    """max |m(n) log n - (ell(n) + 1)| over a span, rounded as the mcheck
    kernel rounds it at x = n: ``log_n`` holds the float log n and is
    overwritten, ``d`` is scratch of the same size."""
    np.multiply(m, log_n, out=log_n)
    np.subtract(log_n, np.add(ell, 1.0, out=d), out=log_n)
    return _absmax(log_n)


# ---------------------------------------------------------------------------
# exact prefix sums


def _recip_limbs(k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """floor(2^_FIXED_BITS / k) for each k of a uint64 array (1 <= k < 2^31),
    as _LIMBS rows of base-2^32 digits, most significant first, in int64,
    written into ``out`` when given (an int64 array of that shape).

    Long division of 1 followed by _LIMBS zero digits: every partial
    remainder is below k, so each step divides a number below 2^63 and each
    digit is below 2^32 (for k = 1 the leading digit is 2^32 itself).
    """
    rows = np.empty((_LIMBS, k.shape[0]), dtype=np.int64) if out is None else out
    rem = np.ones_like(k)
    for row in rows:
        np.left_shift(rem, np.uint64(32), out=rem)
        np.divmod(rem, k, out=(row, rem))
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


def _digit_sums(mu: np.ndarray, a: int, b: int, primes):
    """Signed base-2^32 digit sums, in int64, of mu(k) floor(2^_FIXED_BITS / k)
    over a <= k < b: over every k (m, _LIMBS digits) and over the k = 0 mod p
    for each p of the list ``primes`` (T_p, one row each), _EXACT_BLOCK k at
    a time in one reused 512 KB digit buffer.  Each digit sum over k <= n
    stays below n 2^32 < 2^63."""
    m = np.zeros(_LIMBS, dtype=np.int64)
    t = np.zeros((len(primes), _LIMBS), dtype=np.int64)
    buf = np.empty((_LIMBS, min(_EXACT_BLOCK, max(b - a, 0))), dtype=np.int64)
    for lo in range(a, b, _EXACT_BLOCK):
        hi = min(lo + _EXACT_BLOCK, b)
        w = mu[lo:hi].astype(np.int64)
        limbs = _recip_limbs(np.arange(lo, hi, dtype=np.uint64), buf[:, :hi - lo])
        m += limbs @ w
        for i, p in enumerate(primes):
            off = -lo % p
            t[i] += limbs[:, off::p] @ w[off::p]
    return m, t


def _multiple_sums(mu: np.ndarray, primes, c: int) -> list:
    """T_p(c) = sum of mu(k) floor(2^_FIXED_BITS / k) over the k <= c with
    p | k, as an integer, for each p of the list ``primes``: c // p terms
    each."""
    return [_join(_recip_limbs(np.arange(p, c + 1, p, dtype=np.uint64))
                  @ mu[p:c + 1:p].astype(np.int64)) for p in primes]


def _primes_in(a: int, b: int, small) -> np.ndarray:
    """The primes in [a, b), 2 <= a < b, by the primes of the ascending list
    ``small``, which holds every prime up to isqrt(b - 1)."""
    composite = np.zeros(b - a, dtype=bool)
    for p in small:
        if p * p >= b:
            break
        composite[max(p * p, -(-a // p) * p) - a::p] = True
    return np.flatnonzero(~composite) + a


def _pi_above(x: int) -> int:
    """An upper bound on the number of primes up to x (Rosser and
    Schoenfeld 1962: pi(x) < 1.25506 x / log x for x > 1)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


class _ExactMemo:
    """Exact m(n) and ell(n), 0 <= n <= limit, as integers over
    2^_FIXED_BITS, from block checkpoints and a prime-log chain over a mu
    array, both grown on demand; ``resident`` is the bytes of the tables the
    memo sits beside, which every growth charges with the memo's own.

    m(n) = sum_{k<=n} mu(k) floor(2^_FIXED_BITS / k): blocks of
    _EXACT_BLOCK k sum mu(k) times the base-2^32 digits of the truncated
    reciprocals in int64 (`_digit_sums`), and the digits are joined once,
    so the integer is exactly that of a per-term loop and lies within n
    units of 2^-_FIXED_BITS of m(n).

    ell(n): log k = sum_{p|k} log p for squarefree k, so
    ell(n) = sum_{p<=n} log p T_p with T_p = sum_{k<=n, p|k} mu(k)/k.  For
    p <= r = isqrt(n), T_p is the digit sum of the reciprocals over
    k = 0 mod p.  For p > r, k = pj forces j <= n/p < p, so
    T_p = -m(n // p)/p, read from the exact m(q), q <= r, and the primes of
    one quotient q = n // p share it: their floor(L_p / p) are summed as a
    difference of two cumulative sums.  log p comes from the chain
    log p = log p' + 2 atanh((p - p')/(p + p')) over consecutive primes
    (p < 2p', so the argument is at most 1/3), from log 1 = 0, at
    _LOG_BITS bits (_log_step); primes above sqrt(limit) come from a
    segmented sieve by the primes up to it.  The products are summed
    exactly and floored once.

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
    below 2^-221 at n = 1e9 (the digit sums need n < 2^31, which every
    table limit is).

    The memo.  With c_j = j _BLOCK and r_j = isqrt(c_j), checkpoint j holds
    m(c_j) and, once ell is asked at block j or past it, the integer
    E_j = sum_{p <= r_j} L_p T_p(c_j) and T_p(c_j) itself for the primes
    r_j < p <= isqrt(c_{j+1}) (and <= sqrt(limit)): a query at
    c_j <= n < c_{j+1} has r_j <= isqrt(n) <= isqrt(c_{j+1}).  Checkpoint
    j + 1 adds to E_j the block's digit sums times L_p for p <= r_{j+1}
    and L_p T_p(c_j) for the primes kept beside E_j, and sums its own kept
    T_p from their c_{j+1} / p multiples (`_multiple_sums`).  The chain
    holds every prime up to the largest n asked with ell, and for each the
    cumulative S = sum of floor(L_p / p) over the primes up to it; it keeps
    L_p itself for p <= sqrt(limit) only.  A query at n reads checkpoint
    n // _BLOCK, adds the digit sums of a tail of fewer than _BLOCK k, and
    takes each quotient class of large primes as a difference of two S.
    Every sum is an exact integer sum, so the integers are those of one
    pass from k = 1, whatever was asked before.

    Retained: per checkpoint, m(c_j), and E_j once ell is asked (each an
    integer below 2^600, counted at _INT_BYTES: 34 KB per 1e7 of n); in
    all, for the checkpoints to c, pi(isqrt(c + _BLOCK)) integers T_p; per
    prime of the chain, _PRIME_BYTES (7.1 MB to n = 2e6); L_p for the
    chain's primes up to sqrt(limit) and m(q) for q up to the largest
    isqrt(n) asked with ell.
    Scratch is O(_EXACT_BLOCK + sqrt(n)).  Each growth is first charged,
    with ``resident``, against physical memory (ResourceError).  Queries
    hold a lock, so threads may share a memo.
    """

    def __init__(self, mu: np.ndarray, resident: int = 0):
        self.mu = mu
        self.limit = mu.shape[0] - 1
        self.resident = resident
        self.small = _small_primes(math.isqrt(max(self.limit, 0))).tolist()
        self.m_cp = [0]               # m(c_j)
        self.e_cp = []                # E_j
        self.t_kept = []              # T_p(c_j) for r_j < p <= isqrt(c_{j+1}), by prime
        self.top = 1                  # the chain holds every prime <= top
        self.primes = bytearray()     # int32, ascending
        self.sums = bytearray(_S_BYTES)  # S over the first i primes, from i = 0
        self.logs = []                # L_p for the chain's primes p <= sqrt(limit)
        self.last = (1, 0)            # the chain's last prime and its L
        self.m_small = [0]            # m(q) for 0 <= q <= the largest isqrt(n) asked
        self.lock = threading.Lock()

    def nbytes(self) -> int:
        """Bytes the memo retains."""
        ints = (len(self.m_cp) + len(self.e_cp) + len(self.t_kept) + len(self.logs)
                + len(self.m_small))
        return _INT_BYTES * ints + len(self.primes) + len(self.sums)

    def _charge(self, more: int, what: str) -> None:
        _charge(self.resident + self.nbytes() + more, what)

    def query(self, n: int, with_ell: bool):
        """(m(n), ell(n)); ell is None unless with_ell.  RangeError for n
        outside [0, limit]."""
        if not 0 <= n <= self.limit:
            raise RangeError(f"exact prefix sums at n = {n} need 0 <= n <= {self.limit}, "
                             f"the table limit")
        with self.lock:
            return self._query(n, with_ell)

    def _pi(self, x: int) -> int:
        """The number of primes up to x <= sqrt(limit)."""
        return bisect.bisect_right(self.small, x)

    def _query(self, n: int, with_ell: bool):
        j, r = n // _BLOCK, math.isqrt(n)
        if with_ell:
            self._grow_chain(n)
        self._grow(j, with_ell)
        m, total = self._advance(j, n + 1, self._pi(r) if with_ell else 0, with_ell)
        if not with_ell:
            return m, None
        return m, (total - self._large_prime_sum(n, r)) >> _LOG_BITS

    def _advance(self, j: int, b: int, count: int, with_ell: bool):
        """(m(b - 1), and with ell the sum E_j + sum L_p T_p over the first
        ``count`` primes of the chain, for T_p over k < b, else None): from
        checkpoint j, the digit sums of c_j < k < b joined to its m(c_j),
        times L_p added to its E_j with L_p T_p(c_j) for the primes it
        keeps beside E_j."""
        c = j * _BLOCK
        dm, dt = _digit_sums(self.mu, c + 1, b, self.small[:count])
        m = self.m_cp[j] + _join(dm)
        if not with_ell:
            return m, None
        kept = self._pi(math.isqrt(c))  # the primes E_j covers
        return m, (self.e_cp[j] + sum(L * _join(row) for L, row in zip(self.logs, dt))
                   + sum(L * T for L, T in zip(self.logs[kept:count], self.t_kept[kept:count])))

    def _s(self, i: int) -> int:
        return int.from_bytes(self.sums[i * _S_BYTES:(i + 1) * _S_BYTES], "little")

    def _large_prime_sum(self, n: int, r: int) -> int:
        """sum over q <= r of m(q) times the sum of floor(L_p / p) over the
        primes r < p <= n with n // p = q, i.e. n // (q + 1) < p <= n // q:
        two S per q, found by bisecting the chain's primes."""
        q = np.arange(1, r + 1, dtype=np.int64)
        hi = n // q
        lo = np.minimum(np.maximum(n // (q + 1), r), hi)
        at = np.searchsorted(np.frombuffer(self.primes, dtype=np.int32),
                             np.concatenate((hi, lo)), side="right").tolist()
        return sum(m_q * (self._s(i) - self._s(k))
                   for m_q, i, k in zip(self.m_small[1:], at[:r], at[r:]) if i != k)

    def _grow_chain(self, n: int) -> None:
        """Extend the chain to every prime up to n, a _BLOCK segment at a
        time, and m(q) to q = isqrt(n)."""
        r, have = math.isqrt(n), len(self.m_small) - 1
        count = len(self.primes) // 4
        if n <= self.top and r <= have:
            return
        self._charge(_PRIME_BYTES * max(_pi_above(n) - count, 0)
                     + _INT_BYTES * max(r - have, 0), f"the exact prefix sums to n = {n}")
        if r > have:
            w = self.mu[have + 1:r + 1].astype(np.int64)
            digits = np.cumsum(_recip_limbs(np.arange(have + 1, r + 1, dtype=np.uint64)) * w,
                               axis=1)
            self.m_small += [self.m_small[-1] + _join(d) for d in digits.T]
        R = math.isqrt(self.limit)
        (prev, log_p), s = self.last, self._s(count)
        for a in range(self.top + 1, n + 1, _BLOCK):
            b = min(a + _BLOCK, n + 1)
            found = _primes_in(a, b, self.small)
            sums, logs = bytearray(), []
            for p in found.tolist():
                log_p, prev = log_p + _log_step(p, prev), p
                s += log_p // p
                sums += s.to_bytes(_S_BYTES, "little")
                if p <= R:
                    logs.append(log_p)
            self.primes += found.astype(np.int32).tobytes()
            self.sums += sums
            self.logs += logs
            self.last, self.top = (prev, log_p), b - 1

    def _grow(self, j: int, with_ell: bool) -> None:
        """Build the m checkpoints or, with ell, the ell ones (and the m
        ones they pass) through j from the last one built; with ell, the
        chain must reach isqrt(j _BLOCK)."""
        built = self.e_cp if with_ell else self.m_cp
        done = len(built) - 1
        if j <= done:
            return
        more = j - done
        if with_ell:
            kept = self._pi(math.isqrt((j + 1) * _BLOCK)) - len(self.t_kept)
            more += max(j + 1 - len(self.m_cp), 0) + kept
        self._charge(_INT_BYTES * more, f"exact prefix checkpoints to n = {j * _BLOCK}")
        if with_ell and done < 0:  # T_p(0) = 0
            self.e_cp.append(0)
            self.t_kept += [0] * self._pi(math.isqrt(_BLOCK))
        for i in range(len(built), j + 1):
            c, mid = i * _BLOCK, len(self.t_kept)
            m, e = self._advance(i - 1, c + 1, mid if with_ell else 0, with_ell)
            if i == len(self.m_cp):
                self.m_cp.append(m)
            if with_ell:
                self.e_cp.append(e)
                hi = self._pi(math.isqrt(c + _BLOCK))
                self.t_kept += _multiple_sums(self.mu, self.small[mid:hi], c)


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
    """The indices a <= n < b of a table, as a scan reads them, each part
    computed only when asked for: ``top(record)``, the largest of the
    build's records "M", "m", "m1" or "mcheck" (`_RECORDS`) over the blocks
    the chunk meets, which bounds every index of the chunk and is the
    chunk's own maximum when the chunk is one whole block;
    ``radius(series)``, the m or ell radius at b - 1, which bounds the
    radius of every index of the chunk; and ``read(name)``, the M, m or ell
    slice.  The chunk holds no array, so reading a slice re-derives its
    block if the tables' LRU no longer holds it."""

    a: int
    b: int
    top: Callable[[str], float]
    radius: Callable[[str], float]
    read: Callable[[str], np.ndarray]


class _Blocks:
    """Re-derived block buffers, keyed by (name, j), least recently used
    first, evicted beyond _LRU_BYTES in all; one lock covers each lookup
    and derivation, so threads may share them and no block is derived
    twice at once."""

    def __init__(self, derive: Callable[[str, int], np.ndarray]):
        self.derive = derive
        self.held = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def get(self, name: str, j: int) -> np.ndarray:
        key = name, j
        with self.lock:
            buf = self.held.get(key)
            if buf is not None:
                self.held.move_to_end(key)
                return buf
            buf = self.held[key] = self.derive(name, j)
            self.nbytes += buf.nbytes
            while self.nbytes > _LRU_BYTES:
                self.nbytes -= self.held.popitem(last=False)[1].nbytes
            return buf


def _derive(mu: MuTable, series: SeriesPair, name: str, j: int) -> np.ndarray:
    """Block j of M, m or ell, read-only, from the carries at its start
    (m by a run of m alone, ell by a fused run from ell's and m's): bit for
    bit the values of one pass over the table.  A module function, so the
    `_Blocks` of a `Tables` hold no reference back to it and a dropped
    table is freed by refcount."""
    a, b = (j - 1) * _BLOCK + 1, min(j * _BLOCK, mu.limit) + 1
    if name == "M":
        out = _mertens_block(mu.mu, a, b, mu.mertens[j - 1])
    else:
        carry = series.m.values[j - 1]
        if name == "ell":  # ell's (s, e) in the real parts, m's in the imaginary ones
            carry = [complex(x, y) for x, y in zip(series.ell.values[j - 1], carry)]
        run = _Prefix(mu.mu, a, min(_SPAN, b - a), carry, fused=name == "ell")
        out = np.empty(b - a)
        for c in range(a, b, _SPAN):
            d = min(c + _SPAN, b)
            out[c - a:d - a] = run.span(d)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Tables:
    """Bundle of a sieve, its derived prefix series, the LRU of blocks
    re-derived from them and the memo behind its exact prefix sums.  A
    block of ell is re-derived with m beside it (`_derive`), so an ell
    series without the m series raises InvalidArgumentError."""

    FIXED_BITS = _FIXED_BITS  # the binary point of exact_prefix's m and ell

    mu: MuTable
    series: SeriesPair = field(repr=False)
    _blocks: _Blocks = field(init=False, repr=False, compare=False)
    _exact: _ExactMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.series.ell is not None and self.series.m is None:
            raise InvalidArgumentError("tables with the ell prefix series need the m series")
        object.__setattr__(self, "_blocks",
                           _Blocks(functools.partial(_derive, self.mu, self.series)))
        object.__setattr__(self, "_exact", _ExactMemo(self.mu.mu, self.nbytes()))

    @property
    def limit(self) -> int:
        return self.mu.limit

    def nbytes(self) -> int:
        """Bytes these tables retain (`_retained_bytes`), the LRU at its
        bound; the memo behind exact_prefix counts its own."""
        return _retained_bytes(self.limit, [s for s in SERIES if getattr(self.series, s)])

    def prefix(self, name: str) -> PrefixSeries:
        """The prefix series ``name`` ("m" or "ell"); InvalidArgumentError
        if these tables were built without it."""
        series = getattr(self.series, name)
        if series is None:
            raise InvalidArgumentError(
                f"these tables were built without the {name} prefix series")
        return series

    def read(self, name: str, a: int, b: int) -> np.ndarray:
        """M, m or ell (``name``) at a <= n < b (1 <= a < b <= limit + 1),
        from the blocks it covers (`_Blocks`): a read-only view within one
        block, a copy across blocks.  A prefix series these tables lack
        raises InvalidArgumentError."""
        if name != "M":
            self.prefix(name)
        first, last = (a - 1) // _BLOCK + 1, (b - 2) // _BLOCK + 1
        parts = [self._blocks.get(name, j) for j in range(first, last + 1)]
        off = (first - 1) * _BLOCK + 1
        return (parts[0] if len(parts) == 1 else np.concatenate(parts))[a - off:b - off]

    def chunk(self, a: int, b: int) -> Chunk:
        """The `Chunk` of the indices a <= n < b (1 <= a < b <= limit + 1).
        A record, radius or slice of a prefix series these tables lack
        raises InvalidArgumentError when it is asked for."""
        blocks = slice((a - 1) // _BLOCK + 1, (b - 2) // _BLOCK + 2)

        def top(record):  # a list's max: numpy's costs ~1 us more per call
            series, attr = _RECORDS[record]
            owner = self.mu if series is None else self.prefix(series)
            return float(max(getattr(owner, attr)[blocks].tolist()))

        return Chunk(a, b, top, lambda series: self.prefix(series).radius(b - 1),
                     lambda name: self.read(name, a, b))

    def exact_prefix(self, n: int, with_ell: bool):
        """(M(n), m(n), ell(n)) for 0 <= n <= limit: M exactly, m and ell as
        integers over 2^FIXED_BITS, read from the memo these tables keep
        (`_ExactMemo`, which derives them and bounds their error), so a
        repeat below its top costs one checkpoint and a tail of under
        _BLOCK k; ell is None unless with_ell.  RangeError for any other n,
        before the memo grows."""
        m, ell = self._exact.query(n, with_ell)
        return int(self.read("M", n, n + 1)[0]) if n else 0, m, ell


def build_tables(limit: int, jobs: int = 1) -> Tables:
    """Tables to ``limit`` with every prefix series; ``jobs`` is accepted
    and not read (the sieve runs in the calling thread)."""
    return with_series(sieve_mu(limit))


def with_series(table: MuTable, series=SERIES) -> Tables:
    """``table`` bundled with the prefix series named in ``series`` (a
    subset of SERIES that names m wherever it names ell); the others are
    None.  The ell series is built in one run with m, which also records
    the m1 and mcheck block maxima."""
    m = m_series(table, "ell" in series) if "m" in series else None
    return Tables(mu=table, series=SeriesPair(
        m=m, ell=ell_series(table, m) if "ell" in series else None))


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
    mv, Mv, ellv = (float(tables.read(name, n, n + 1)[0]) for name in ("m", "M", "ell"))
    lx = math.log(x)
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
    return _blake2b(_mu_bytes(table), digest_size=_DIGEST_SIZE).digest()


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


def _read_header(fh, path: str) -> int:
    """The limit in the header of the v2 cache file open as ``fh``, once the
    file's length is checked against it; ``fh`` is left at the first mu
    byte."""
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
    return limit


def _read_exactly(fh, buf, path: str) -> None:
    """Fill ``buf`` from ``fh`` in one read; a short one (the file shrank
    after its length was checked) raises InvalidArgumentError."""
    if fh.readinto(buf) != len(buf):
        raise InvalidArgumentError(f"truncated cache file: {path}")


def _read_mu(fh, path: str, have: int, limit: int) -> np.ndarray:
    """Checked mu array to ``limit`` (index 0 zero) of the v2 cache file
    open as ``fh`` past its header, which holds mu(1..have), have >= limit.
    The first ``limit`` bytes are read into the array itself and the rest
    stream through the digest in pieces of at most _STREAM bytes, so the
    digest of the whole file is checked with no second mu in memory."""
    mu = np.zeros(limit + 1, dtype=np.int8)
    _read_exactly(fh, mu[1:], path)
    digest = _blake2b(mu[1:], digest_size=_DIGEST_SIZE)
    rest = have - limit
    buf = memoryview(bytearray(min(rest, _STREAM)))
    while rest:
        piece = buf[:min(rest, len(buf))]
        _read_exactly(fh, piece, path)
        digest.update(piece)
        rest -= len(piece)
    if digest.digest() != fh.read(_DIGEST_SIZE):
        raise InvalidArgumentError(f"cache checksum mismatch: {path}")
    return mu


def load_table(path: str) -> MuTable:
    """Read a v2 cache file; raises InvalidArgumentError on any mismatch,
    and ResourceError, from the header and before any mu is read, if the
    table and the tables of M on it would exceed RAM."""
    with open(path, "rb") as fh:
        limit = _read_header(fh, path)
        _check_memory(limit, 0, ())
        return _mu_table(_read_mu(fh, path, limit, limit))


def load_covering(cache_dir: str, limit: int, series=SERIES) -> MuTable | None:
    """The smallest cached table with limit >= ``limit``, cut to ``limit``.

    Returns None when no cache file covers ``limit``.  Cutting is exact: mu is
    an integer table, read to ``limit`` only, and Mertens is rebuilt as its
    prefix sum, so the result equals ``sieve_mu(limit)`` bit for bit.  The
    digest still covers the whole file (`_read_mu`).  Raises ResourceError
    before reading if the tables with the prefix series named in ``series``,
    built on the result, and the buffer that streams the file's mu past the
    cut would exceed RAM, and InvalidArgumentError before reading any mu if
    the file's header does not hold its name's limit.
    """
    try:
        names = os.listdir(cache_dir)
    except FileNotFoundError:
        return None
    limits = [int(m.group(1)) for m in map(_CACHE_NAME.fullmatch, names) if m]
    covering = min((L for L in limits if L >= limit), default=None)
    if covering is None:
        return None
    _check_memory(limit, min(_STREAM, covering - limit), series)
    path = cache_path(cache_dir, covering)
    with open(path, "rb") as fh:
        if _read_header(fh, path) != covering:
            raise InvalidArgumentError(f"cache file name and header disagree: {path}")
        return _mu_table(_read_mu(fh, path, covering, limit))
