"""Sieved Möbius tables and compensated prefix series.

Provides the integer layer (mu values and their exact prefix sums) and the
floating-point layer (prefix sums of mu(k)/k and mu(k)*log(k)/k with a
certified error radius), plus point evaluation of the four summatory
functions

    M(x)      = sum_{n<=x} mu(n)                    (exact integer)
    m(x)      = sum_{n<=x} mu(n)/n
    m1(x)     = m(x) - M(x)/x
    mcheck(x) = sum_{n<=x} (mu(n)/n) log(x/n) = m(|x|) log x - ell(|x|)

where ell(n) = sum_{k<=n} mu(k) log(k)/k.

Every prefix sum is built _BLOCK indices at a time: the Mertens sums carry
the last exact sum of a block into the next, and the compensated series
carry their running state (prefix, correction sum, sums of |t|, of the
term errors and of |err|, and max |value|).  Every value and
radius is bit-identical to one pass over the whole table.

The retained tables take 5 bytes per n for mu (int8) and Mertens (int32,
exact since |M(n)| <= n < 2^31), plus 8 per prefix series built (float64
values): 5, 13 or 21 B/n for none, m alone, or m and ell.  A `Tables`
bundle carries only the series its caller reads (``with_series``); a
kernel that needs a missing one raises InvalidArgumentError.  The radius
is nondecreasing, so each series keeps it only at block ends, where it
bounds the radius of every index in the block; peak memory is the
retained tables plus O(_BLOCK) scratch.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, RangeError, ResourceError

_ULP = 2.0 ** -53  # unit roundoff for IEEE-754 binary64
_BLOCK = 1 << 16  # indices per block of the carried prefix sums
_SIEVE_BLOCK = 1 << 20  # integers per sieve segment, the unit of parallel work

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
    ``mertens[n] = sum_{k<=n} mu[k]`` held exactly in int32.
    """

    limit: int
    mu: np.ndarray        # int8, length limit+1
    mertens: np.ndarray   # int32, length limit+1

    def __post_init__(self):
        self.mu.setflags(write=False)
        self.mertens.setflags(write=False)


def _check_limit(limit: int) -> None:
    # Mertens is int32, exact because |M(n)| <= n
    if limit >= 1 << 31:
        raise RangeError(f"limit {limit} too large: Mertens sums are int32, "
                         f"so tables stop at 2^31 - 1")


def _check_memory(limit: int, scratch: int, series) -> None:
    """Raise ResourceError if tables to ``limit`` with the prefix series
    named in ``series`` (5 B/n for mu and int32 Mertens, 8 B/n per series),
    the 16 float64 blocks of a prefix build (when there is one) and
    ``scratch`` bytes would exceed physical memory."""
    need = (5 + 8 * len(series)) * limit + (16 * 8 * _BLOCK if series else 0) + scratch
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
    mu[prod < np.arange(lo, hi, dtype=np.int32)] *= -1
    return mu


def sieve_mu(limit: int, jobs: int = 1, series=SERIES) -> MuTable:
    """Sieve mu(n) for 1 <= n <= limit and accumulate exact Mertens sums.

    Deterministic for any segment size and worker count: each _SIEVE_BLOCK
    segment is copied into place as it is produced, in index order, and
    Mertens is block-carried over the merged array by ``_mu_table``.  Raises
    ResourceError before allocating if the table and the prefix series
    named in ``series``, which the caller goes on to build, would exceed RAM.
    """
    if limit < 1:
        raise InvalidArgumentError("limit must be a positive integer")
    _check_limit(limit)
    # each sieve worker holds 10 B per segment entry
    workers = min(max(jobs, 1), -(-limit // _SIEVE_BLOCK))
    _check_memory(limit, 10 * _SIEVE_BLOCK * workers, series)
    primes = _small_primes(int(math.isqrt(limit)))
    spans = [(lo, min(lo + _SIEVE_BLOCK, limit + 1))
             for lo in range(1, limit + 1, _SIEVE_BLOCK)]
    mu = np.zeros(limit + 1, dtype=np.int8)
    # threads start only when the pool is given work
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = (pool.map if workers > 1 else map)(lambda s: _sieve_block(*s, primes), spans)
        for (lo, hi), part in zip(spans, parts):
            mu[lo:hi] = part
    return _mu_table(mu)


def _mu_table(mu: np.ndarray) -> MuTable:
    """MuTable over ``mu`` (int8, index 0 zero); Mertens is its prefix sum,
    accumulated _BLOCK entries at a time into one int32 array with the last
    sum of each block carried into the next (integer sums are exact, so
    the carry may be added after the block's own prefix sum)."""
    _check_limit(mu.shape[0] - 1)
    mertens = np.empty(mu.shape[0], dtype=np.int32)
    carry = 0
    for a in range(0, mu.shape[0], _BLOCK):
        block = mertens[a:a + _BLOCK]
        np.cumsum(mu[a:a + _BLOCK], dtype=np.int32, out=block)
        block += carry
        carry = block[-1]
    return MuTable(limit=mu.shape[0] - 1, mu=mu, mertens=mertens)


def abs_mertens_prefix_integral(table: MuTable, T: int) -> int:
    """Exact integer sum_{n=1}^{T-1} |M(n)| = integral of |M| over [1, T].

    Valid because M is constant on each [n, n+1).
    """
    if not 2 <= T <= table.limit:
        raise InvalidArgumentError("need 2 <= T <= table.limit")
    # summed in int64: the total passes 2^31 well before T = 1e7
    return int(np.abs(table.mertens[1:T]).sum(dtype=np.int64))


# ---------------------------------------------------------------------------
# floating-point layer


@dataclass(frozen=True)
class PrefixSeries:
    """Compensated prefix sums with a certified absolute error radius.

    ``values[n]`` approximates the exact rational prefix sum of the first n
    terms; index 0 is the empty sum (exactly 0).  The per-index radius is
    nondecreasing, so it is kept at block ends only: ``error_radius[j]`` is
    the radius at index min(j _BLOCK, limit) (entry 0 is 0), and
    ``|values[n] - exact| <= radius(n)`` for every n.
    """

    limit: int
    values: np.ndarray        # float64, length limit+1
    error_radius: np.ndarray  # float64, length ceil(limit/_BLOCK)+1

    def __post_init__(self):
        self.values.setflags(write=False)
        self.error_radius.setflags(write=False)

    def radius(self, n: int) -> float:
        """Certified error radius of ``values[n]``: the radius at the end of
        n's block, which bounds the nondecreasing radius at n."""
        return float(self.error_radius[(n + _BLOCK - 1) // _BLOCK])


def _carried(ufunc, carry: float, x: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` of x continued from ``carry``: the result has
    len(x) + 1 slots, slot 0 is the carried value and slot i accumulates
    x[i-1] onto slot i-1, the same left-to-right order a single pass over
    the whole sequence would take."""
    buf = np.empty(x.shape[0] + 1)
    buf[0] = carry
    buf[1:] = x
    return ufunc.accumulate(buf, out=buf)


def _carried_prefix(limit: int, block_terms) -> PrefixSeries:
    """Prefix sums of per-index terms with one round of error-free correction,
    built _BLOCK indices at a time.

    ``block_terms(a, b)`` gives the terms t_k for k in [a, b) and the bound
    on each term's own representation error.  Within a block, with s_k the
    naive prefix and s_{k-1} its predecessor,

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

    Six values carry between blocks (the prefix s, the sums of err, |t|, rep
    and |err|, and max |values|) into slot 0 of each block's left-to-right
    sums (``np.sum`` is pairwise and would round differently), so every
    float operation runs in the order of one pass over the whole table, no
    value or radius depends on _BLOCK and the scratch is O(_BLOCK).
    """
    values = np.empty(limit + 1)
    radius = np.empty(-(-limit // _BLOCK) + 1)
    values[0] = radius[0] = 0.0
    s = e_sum = abs_sum = rep_sum = abs_err_sum = v_max = 0.0
    for j, a in enumerate(range(1, limit + 1, _BLOCK), 1):
        b = min(a + _BLOCK, limit + 1)
        terms, rep = block_terms(a, b)
        run = _carried(np.add, s, terms)
        prev, cur = run[:-1], run[1:]
        bb = cur - prev
        err = (prev - (cur - bb)) + (terms - bb)
        e_run = _carried(np.add, e_sum, err)[1:]
        v = np.add(cur, e_run, out=values[a:b])
        s, e_sum = cur[-1], e_run[-1]
        abs_sum = _carried(np.add, abs_sum, np.abs(terms))[-1]
        rep_sum = _carried(np.add, rep_sum, rep)[-1]
        abs_err_sum = _carried(np.add, abs_err_sum, np.abs(err))[-1]
        v_max = max(v_max, np.abs(v).max())
        radius[j] = (rep_sum + _ULP * abs_err_sum + (b - 1) * _ULP * _ULP * abs_sum
                     + 2.0 * _ULP * v_max)
    return PrefixSeries(limit=limit, values=values, error_radius=radius)


def m_series(table: MuTable) -> PrefixSeries:
    """Prefix sums of mu(k)/k, certified to ~1e-14 absolute up to 1e8."""

    def block_terms(a, b):
        terms = table.mu[a:b].astype(np.float64) / np.arange(a, b, dtype=np.float64)
        # each quotient mu/k carries at most half an ulp of relative error
        return terms, _ULP * np.abs(terms)

    return _carried_prefix(table.limit, block_terms)


def ell_series(table: MuTable) -> PrefixSeries:
    """Prefix sums of mu(k)*log(k)/k (the auxiliary series behind mcheck)."""

    def block_terms(a, b):
        k = np.arange(a, b, dtype=np.float64)
        terms = table.mu[a:b].astype(np.float64) * np.log(k) / k
        # log() is faithfully rounded (<=1 ulp) and the quotient adds one more
        return terms, 3.0 * _ULP * np.abs(terms)

    return _carried_prefix(table.limit, block_terms)


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


@dataclass(frozen=True)
class Tables:
    """Bundle of a sieve and its derived prefix series."""

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


def build_tables(limit: int, jobs: int = 1) -> Tables:
    return with_series(sieve_mu(limit, jobs=jobs))


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
