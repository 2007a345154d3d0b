"""Exhaustive interval verification of inequalities on the summatory
step functions, with exact per-interval supremum logic.

One kernel, `_interval_sup`, maximises each weighted function in closed
form on [n, n+1): m and M are constant there, so the supremum sits at the
endpoint where the weight is worst; m1(x) = m(n) - M(n)/x is smooth, and
log^2 x * m1(x) peaks at an endpoint or at a root of a unimodal bracket,
found by bisection; mcheck(x) - 1 = m(n) log x - (ell(n) + 1) under the
log^2 weight has a single closed-form critical point in log x.

`verify_range` evaluates the kernel on float64 arrays and compares each
supremum with the bound, allowing for the certified error radius of the
prefix series; `sup_scan` evaluates it on float64 arrays and takes the
argmax.  Both walk the range in chunks of _CHUNK intervals in one thread,
so scratch memory is O(_CHUNK) whatever the range.  Each chunk first gets
an envelope E, `_chunk_envelope`: the kernel's bound taken over the whole
chunk at once from the largest |m|, |M| and ends of the chunk, inflated by
the kernel's own rounding, so E is at least every float supremum the
kernel would compute there, and G, the guard band at E, is at least every
interval's guard.  A chunk with E + G below the bound (with rounding
slack) holds no violation and no interval inside the guard band, and a
chunk with E below the largest value found holds neither the maximum nor a
tie with it: the kernel runs on the chunks that reach the bound, in chunk
order, and then on the rest by decreasing E while E reaches the largest
value so far.  A `verify_range` chunk is reduced where it is scanned to its
largest value and first argmax, its hard violations and its suspect
intervals, and the scan merges these in chunk order; both operations
keep the first chunk maximum that no later chunk exceeds, so the reports
and scans are those of running the kernel on every chunk.  Intervals whose
margin falls inside the guard band are escalated:
the same kernel re-runs at 50 digits on exact M(n) and on m(n) and ell(n)
from one exact prefix routine, `_exact_prefix`, and the intervals are
reported as indeterminate.  It sums 256-bit fixed-point integers in numpy
blocks: m(n) from the base-2^32 digits of floor(2^256/k) (within n 2^-256,
equal to the per-term sum), ell(n) from sum_p log p T_p with the logs of
the primes from an atanh chain (within ((n + 2 sqrt(n)) log n + 4) 2^-256).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import List, Tuple

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .tables import Tables, _carried, _small_primes

_ULP = 2.0 ** -53
_CHUNK = 1 << 16
_BLOCK = 1 << 14  # k per block of the exact prefix sums (1 MB of digits)
_FIXED_BITS = 256
_LIMBS = _FIXED_BITS // 32  # base-2^32 digits of a fixed-point reciprocal
_LOG_BITS = _FIXED_BITS + 64  # working precision of the log p chain
_BISECT_STEPS = 80
_MAX_VIOLATIONS = 10000  # verify_range stops at the violation after this many
_ENV_SLACK = 1.0 + 64.0 * _ULP  # rounding slack of a chunk envelope (_chunk_envelope)
_RATIO_RANK = 94  # Theorem C: the ratio stays in _RATIO_BAND for x >= 94
_RATIO_BAND = (2.0 / 3.0, 1.5)

# the weights each target supports, the prefix series each target reads
# (M(n) is exact in every table), and the weight each predicate kind uses
_WEIGHTS = {"m": ("1", "logx", "log2x", "sqrtx"), "m1": ("log2x",),
            "mcheck-minus-1": ("log2x",), "M": ("sqrtx",)}
_SERIES = {"m": ("m",), "m1": ("m",), "mcheck-minus-1": ("m", "ell"), "M": ()}
_KIND_WEIGHT = {"const-bound": "1", "log-bound": "logx",
                "log2-bound": "log2x", "sqrt-bound": "sqrtx"}


@lru_cache(maxsize=None)
def _mp_fns() -> SimpleNamespace:
    """Elementwise log/sqrt/exp for dtype=object arrays of mpf, built on
    first use: only the exact re-check imports mpmath."""
    import mpmath as mp
    return SimpleNamespace(log=np.frompyfunc(mp.log, 1, 1),
                           sqrt=np.frompyfunc(mp.sqrt, 1, 1),
                           exp=np.frompyfunc(mp.exp, 1, 1))


def _scan_range(lo: float, hi: float, limit: float = math.inf,
                closed: bool = False) -> Tuple[int, int]:
    """(n_lo, n_hi): the intervals [n, n+1), n_lo <= n < n_hi, that a scan
    of [lo, hi) meets (of [lo, hi] if closed, from x = 1), each of which
    reads its table at n only, so n_hi - 1 may reach the table limit.  The
    range rules of `verify_range` and `sup_scan`: a command checks them,
    without a limit, before it builds a table."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidArgumentError(f"range bounds must be finite, not {lo}, {hi}")
    if closed:
        n_lo, n_hi = max(1, int(math.floor(lo))), int(math.floor(hi)) + 1
    else:
        n_lo, n_hi = int(math.floor(lo)), int(math.ceil(hi))
        if n_lo < 1:
            raise InvalidArgumentError("range must start at x >= 1")
    if (hi < lo if closed else hi <= lo) or n_hi <= n_lo:
        raise InvalidArgumentError(f"empty range [{lo}, {hi}{']' if closed else ')'}")
    if n_hi - 1 > limit:
        raise RangeError(f"range end {hi} exceeds sieve limit {limit}")
    return n_lo, n_hi


def _check_weight(target: str, weight: str) -> None:
    if target not in _WEIGHTS:
        raise InvalidArgumentError(f"unknown target {target!r}")
    if weight not in _WEIGHTS[target]:
        raise InvalidArgumentError(
            f"{target} supports the weights {', '.join(_WEIGHTS[target])}, "
            f"not {weight!r}")


@dataclass(frozen=True)
class Predicate:
    """An inequality on a summatory function, checkable from tables alone.

    kinds (bound constant c):
        const-bound : c * |f(x)| <= 1
        log-bound   : log x * |f(x)| <= c
        log2-bound  : log^2 x * |f(x)| <= c
        sqrt-bound  : sqrt(x) * |f(x)| <= c   (for M: |M(x)| <= c sqrt(x))
    """

    name: str
    kind: str
    target: str  # "m" | "m1" | "M" | "mcheck-minus-1"
    c: float

    def __post_init__(self):
        if self.kind not in _KIND_WEIGHT:
            raise InvalidArgumentError(f"unknown predicate kind {self.kind!r}")
        _check_weight(self.target, _KIND_WEIGHT[self.kind])
        if not 0 < self.c < math.inf:
            raise InvalidArgumentError(f"predicate constant must be finite and positive, "
                                       f"not {self.c}")


PREDICATES = {
    "m4343": Predicate("m4343", "const-bound", "m", 4343.0),
    "m4345": Predicate("m4345", "const-bound", "m", 4345.0),
    "mlog0.0130073": Predicate("mlog0.0130073", "log-bound", "m", 0.0130073),
    "m1log2-0.138": Predicate("m1log2-0.138", "log2-bound", "m1", 0.138),
    "mchecklog2-0.162": Predicate("mchecklog2-0.162", "log2-bound",
                                  "mcheck-minus-1", 0.162),
    "Msqrt0.5": Predicate("Msqrt0.5", "sqrt-bound", "M", 0.5),
    "Msqrt0.571": Predicate("Msqrt0.571", "sqrt-bound", "M", 0.571),
    "msqrt0.5": Predicate("msqrt0.5", "sqrt-bound", "m", 0.5),
    "msqrt0.701": Predicate("msqrt0.701", "sqrt-bound", "m", 0.701),
}


@dataclass
class VerificationReport:
    predicate: str
    lo: int
    hi: int
    violations: List[Tuple[int, float, float]] = field(default_factory=list)
    indeterminate: List[int] = field(default_factory=list)
    max_ratio: float = 0.0
    argmax: int = 0
    checked: int = 0
    truncated: bool = False  # stopped at violation _MAX_VIOLATIONS + 1
    # of the checked intervals, those the per-interval kernel ran on: a
    # measure of the work, not of the result, so reports compare without it
    scanned: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# the per-interval supremum kernel

def _weight(weight, x, fn):
    if weight == "1":
        return 1.0
    if weight == "sqrtx":
        return fn.sqrt(x)
    lx = fn.log(x)
    return lx if weight == "logx" else lx ** 2


def _best(vals, cands):
    """Elementwise (max, argmax) over candidate arrays; the first max wins."""
    sup, arg = vals[0], cands[0]
    for v, x in zip(vals[1:], cands[1:]):
        better = v > sup
        sup, arg = np.where(better, v, sup), np.where(better, x, arg)
    return sup, arg


def _bisect(u, lo, hi, ulo, uhi, fn):
    """Elementwise root of u(x, log x, k) in [lo, hi] where u changes sign,
    else lo.  A midpoint where u is exactly 0 is kept."""
    root = lo.copy()
    k = np.nonzero(ulo * uhi < 0)[0]
    if not k.size:
        return root
    a, b, ua = lo[k], hi[k], ulo[k]
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (a + b)
        um = u(mid, fn.log(mid), k)
        left = ua * um < 0
        hit = um == 0
        a = np.where(hit | ~left, mid, a)
        b = np.where(hit | left, mid, b)
        ua = np.where(left, ua, um)
    root[k] = 0.5 * (a + b)
    return root


def _interval_sup(target, weight, x1, x2, m, M, ell, fn=np):
    """Elementwise (sup, argmax) of w(x)|f(x)| over x in [x1, x2].

    f is the target on [n, n+1) built from m = m(n), M = M(n) and
    ell = ell(n), of which only those the target reads are used (the others
    may be None); w is the weight.  fn supplies log, sqrt and exp: numpy
    for float64 arrays, _mp_fns() for dtype=object arrays of mpf.
    """
    if target == "M":
        # |M(n)| / sqrt(x) decreases in x
        return np.abs(M) / fn.sqrt(x1), x1
    if target == "m":
        # |m(n)| is constant and the weight increases
        return _weight(weight, x2, fn) * np.abs(m), (x1 if weight == "1" else x2)
    lx1, lx2 = fn.log(x1), fn.log(x2)
    nonzero = m != 0
    m_safe = np.where(nonzero, m, 1.0)
    if target == "m1":
        # d/dx (m - M/x) log^2 x = (log x / x^2) u(x), u = M log x + 2 m x - 2 M;
        # u' = M/x + 2m changes sign only at xs = -M/(2m), so u has at most
        # one root on each side of xs
        def f(x, lx):
            return np.abs(m - M / x) * lx * lx

        def u(x, lx, k=slice(None)):
            return M[k] * lx + 2.0 * m[k] * x - 2.0 * M[k]

        xs = -M / (2.0 * m_safe)
        s = np.where(nonzero & (x1 < xs) & (xs < x2), xs, x2)
        u1, us, u2 = u(x1, lx1), u(s, fn.log(s)), u(x2, lx2)
        ra = _bisect(u, x1, s, u1, us, fn)
        rb = _bisect(u, s, x2, us, u2, fn)
        return _best([f(x1, lx1), f(x2, lx2), f(ra, fn.log(ra)), f(rb, fn.log(rb))],
                     [x1, x2, ra, rb])
    # mcheck - 1: g(L) = |m L - d| L^2 over L = log x, critical at L = 2d/(3m)
    d = ell + 1.0

    def g(L):
        return np.abs(m * L - d) * L * L

    Lc = np.clip(np.where(nonzero, 2.0 * d / (3.0 * m_safe), lx1), lx1, lx2)
    return _best([g(lx1), g(lx2), g(Lc)], [x1, x2, fn.exp(Lc)])


def _scale_bound(pred: Predicate):
    """(scale, bound): the predicate holds on [n, n+1) iff scale * sup <= bound."""
    return (pred.c, 1.0) if pred.kind == "const-bound" else (1.0, pred.c)


def _clipped(a: int, b: int, lo: float, hi: float):
    """Ends x1, x2 of the intervals [n, n+1) for n in [a, b), cut to
    [lo, hi].  A scan has floor(lo) <= a and b - 1 <= hi, so n > lo for
    every n but the first and n + 1 <= hi for every n but the last: only
    x1[0] and x2[-1] can move."""
    x1 = np.arange(a, b, dtype=np.float64)
    x2 = x1 + 1.0
    x1[0] = max(x1[0], lo)
    x2[-1] = min(x2[-1], hi)
    return x1, x2


def _kernel_inputs(tables: Tables, target: str, a: int, b: int):
    """m(n), M(n) and ell(n) for n in [a, b); a series ``target`` does not
    read is None, and one it reads but ``tables`` lacks raises
    InvalidArgumentError."""
    m, ell = (tables.prefix(name).values[a:b] if name in _SERIES[target] else None
              for name in ("m", "ell"))
    return m, tables.mu.mertens[a:b], ell


def _chunk_scan(pred: Predicate, lo: float, hi: float, a: int, b: int,
                tables: Tables):
    """Quantities q(n) and interval ends x2(n) for integers n in [a, b).

    q(n) is the supremum of the weighted function over [n, n+1) cut to
    [lo, hi]; the predicate holds there iff q(n) <= the bound.
    """
    x1, x2 = _clipped(a, b, lo, hi)
    sup, _ = _interval_sup(pred.target, _KIND_WEIGHT[pred.kind], x1, x2,
                           *_kernel_inputs(tables, pred.target, a, b))
    return _scale_bound(pred)[0] * sup, x2


def _guard(pred: Predicate, q, x2, b: int, tables: Tables):
    """Guard band of quantities q on intervals ending at x2 in a chunk
    ending at b: the series radius under the weight plus the kernel's
    rounding.  The series radii are nondecreasing, so their values at b - 1
    cover the whole chunk; the guard is nondecreasing in q and x2."""
    if pred.target == "M":
        return 4.0 * _ULP * q
    err = tables.prefix("m").radius(b - 1)
    if pred.target == "mcheck-minus-1":
        L2 = np.log(x2)
        radius = (err * L2 + tables.prefix("ell").radius(b - 1)) * L2 * L2
    else:
        radius = _scale_bound(pred)[0] * _weight(_KIND_WEIGHT[pred.kind], x2, np) * err
    if pred.target == "m":
        return radius + 4.0 * _ULP * q
    return radius + 8.0 * _ULP * (np.abs(q) + 1.0)


def _chunk_envelope(target: str, weight: str, lo: float, hi: float, a: int,
                    b: int, tables: Tables) -> float:
    """E >= the float supremum `_interval_sup` computes on every interval
    [n, n+1) for n in [a, b), cut to [lo, hi]: the kernel's own bound taken
    over the whole span [xa, xb].

      M : |M(n)|/sqrt(x) falls in x: max|M| / sqrt(xa);
      m : |m(n)| w(x) grows in x: max|m| w(xb);
      m1: m(n) - M(n)/x is monotone in x, so |m1| peaks at xa or xb, and
          log^2 x <= Lb^2 = log^2 xb: max_n max(|m1(xa)|, |m1(xb)|) Lb^2;
      mcheck - 1: |m(n) L - d(n)| is convex in L = log x, d = ell + 1, so it
          peaks at La or Lb: max_n max(|m La - d|, |m Lb - d|) Lb^2.

    Rounding.  E = (top + k u S) w (1 + k u), top the float maximum above,
    w its weight factor, u = 2^-53, k = 64, and S the operand size of the
    two forms that cancel: max|m| + max|M|/xa for m1, max|m| Lb + max|d| for
    mcheck, 0 for M and m.  With numpy's log within 1 ulp (2u; measured at
    most 0.52 ulp over 2e4 points of [1, 2e9] against mpmath), every float
    log the kernel takes of an x in [xa, xb] lies in [La (1 - 4u),
    Lb (1 + 4u)] for the float La, Lb the envelope takes; widening the
    monotone or convex form to those ends costs 4u |m| Lb absolutely, the
    rounded operand fl(M/x) or fl(m L) u S, the kernel's three remaining
    roundings 3u and the squared log 8u relatively; the ends as the
    envelope computes them carry u S and u, and its own five roundings 5u.
    To first order the kernel's value is within (1 + 17u) top w + 6u S w;
    M and m, whose forms are monotone and do not cancel, need at most 13u.
    k = 64 covers the higher-order terms and a log up to 4 ulp.
    """
    xa, xb = max(float(a), lo), min(float(b), hi)
    m, M, ell = _kernel_inputs(tables, target, a, b)
    if target == "M":
        return _absmax(M) / math.sqrt(xa) * _ENV_SLACK
    if target == "m":
        return _absmax(m) * _weight(weight, xb, math) * _ENV_SLACK
    # the two ends share one buffer: every fresh chunk-sized array costs
    # page faults once the heap has no freed slack
    Lb, top = math.log(xb), 0.0
    if target == "m1":
        v = np.empty(m.shape[0])
        for x in (xa, xb):
            np.subtract(m, np.divide(M, x, out=v), out=v)
            top = max(top, _absmax(v))
        size = _absmax(m) + _absmax(M) / xa
    else:
        d = ell + 1.0
        v = np.empty(m.shape[0])
        for L in (math.log(xa), Lb):
            np.subtract(np.multiply(m, L, out=v), d, out=v)
            top = max(top, _absmax(v))
        size = _absmax(m) * Lb + _absmax(d)
    return (top + (_ENV_SLACK - 1.0) * size) * Lb * Lb * _ENV_SLACK


def _absmax(v) -> float:
    """max |v| over a nonempty array, without an |v| temporary."""
    return max(float(v.max()), -float(v.min()))


def _first_max(env, peaks, peak):
    """The first (value, point) of largest value over the spans env covers,
    in span order.  peaks maps the spans already evaluated to their
    (value, point); peak(i) evaluates span i, whose values are at most
    env[i].  The other spans are evaluated by decreasing env while env
    reaches the best value so far: a span below it cannot hold the maximum
    or tie it.  peaks ends up holding every span evaluated."""
    best = max((v for v, _ in peaks.values()), default=-math.inf)
    for i in sorted(set(range(len(env))) - peaks.keys(), key=lambda i: -env[i]):
        if env[i] < best:
            break
        peaks[i] = peak(i)
        best = max(best, peaks[i][0])
    return max((peaks[i] for i in sorted(peaks)), key=lambda p: p[0])


# ---------------------------------------------------------------------------
# exact escalation

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
    with_ell.  Scratch memory is O(sqrt(n) + _BLOCK); every sum is over
    numpy blocks of _BLOCK k at a time.

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
    for a in range(1, n + 1, _BLOCK):
        b = min(a + _BLOCK, n + 1)
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


def _exact_recheck(pred: Predicate, n: int, tables: Tables, lo: float,
                   hi: float) -> Tuple[float, bool]:
    """Re-decide a marginal interval, [n, n+1) cut to [lo, hi]: the scan's
    kernel at 50 digits."""
    import mpmath as mp  # the escalation path alone needs it
    with mp.workdps(50):
        m = ell = 0
        if pred.target != "M":
            m_fp, ell_fp = _exact_prefix(tables.mu.mu, n, pred.target == "mcheck-minus-1")
            m = mp.ldexp(m_fp, -_FIXED_BITS)
            if ell_fp is not None:
                ell = mp.ldexp(ell_fp, -_FIXED_BITS)
        M = int(tables.mu.mertens[n])
        x1, x2, m, M, ell = (np.array([mp.mpf(v)], dtype=object)
                             for v in (max(n, lo), min(n + 1, hi), m, M, ell))
        sup, _ = _interval_sup(pred.target, _KIND_WEIGHT[pred.kind],
                               x1, x2, m, M, ell, fn=_mp_fns())
        scale, bound = _scale_bound(pred)
        q = scale * sup[0]
        return float(q), bool(q <= bound)


# ---------------------------------------------------------------------------
# public operations

def verify_range(pred: Predicate, lo: float, hi: float, tables: Tables,
                 jobs: int = 1) -> VerificationReport:
    """Verify a predicate for every real x in [lo, hi).

    Exact per-interval supremum logic covers the continuum: each [n, n+1)
    is cut to [lo, hi), so a fractional end checks no x outside the range
    (the report's lo and hi are floor(lo) and ceil(hi)).  The report's
    max_ratio is the largest weighted value divided by the bound.  At the
    (_MAX_VIOLATIONS + 1)-th violation, at n, the scan stops: the report is
    marked truncated and covers [lo, n] only (checked, max_ratio, argmax,
    violations and escalations alike), whatever the chunking.

    The kernel runs only on the chunks that can matter.  A chunk's
    envelope E (`_chunk_envelope` times the predicate's scale) bounds each
    of its q, and G = `_guard` at (E, xb) each guard to within 8u (the log
    in the guard's weight is monotone only to the last ulp).  Chunks with
    (E + G)(1 + 64u) >= bound are scanned in chunk order, with escalation
    and truncation as above.  Below it every interval has bound - q >=
    G (1 + 62u), so its float margin exceeds its guard: no violation, no
    suspect.  Those chunks are scanned only while E reaches the largest q
    found (`_first_max`), so checked counts every interval and scanned
    those the kernel ran on.

    The scan runs in the calling thread and does not read `jobs`: with the
    envelopes the kernel runs on 1-3 chunks of a desk scan, and threading
    them measured slower than not.  The keyword stays for the callers
    that pass their sieve's worker count (perfbench/workloads.py).
    """
    n_lo, n_hi = _scan_range(lo, hi, tables.limit)
    spans = [(a, min(a + _CHUNK, n_hi)) for a in range(n_lo, n_hi, _CHUNK)]
    scale, bound = _scale_bound(pred)

    def peak(i):
        a, b = spans[i]
        q = _chunk_scan(pred, lo, hi, a, b, tables)[0]
        k = int(np.argmax(q))
        return float(q[k]), a + k

    report = VerificationReport(predicate=pred.name, lo=n_lo, hi=n_hi)
    env = []  # the envelope of each span reached
    peaks = {}  # span index -> (largest q, its first n), for the spans scanned
    for i, (a, b) in enumerate(spans):
        e = scale * _chunk_envelope(pred.target, _KIND_WEIGHT[pred.kind], lo, hi,
                                    a, b, tables)
        env.append(e)
        if (e + _guard(pred, e, min(float(b), hi), b, tables)) * _ENV_SLACK < bound:
            continue
        # hard violations, and suspects for exact re-decision
        q, x2 = _chunk_scan(pred, lo, hi, a, b, tables)
        guard = _guard(pred, q, x2, b, tables)
        margin = bound - q
        found = [(a + j, float(q[j]), float(margin[j]))
                 for j in np.nonzero(margin < -guard)[0].tolist()]
        suspect = (a + np.nonzero((margin <= guard) & (margin >= -guard))[0]).tolist()
        for n in suspect:
            value, ok = _exact_recheck(pred, n, tables, lo, hi)
            if not ok:
                found.append((n, value, float(bound - value)))
        found.sort(key=lambda t: t[0])
        room = _MAX_VIOLATIONS + 1 - len(report.violations)
        if len(found) >= room:
            # cut the chunk just after the violation that passes the cap
            b = found[room - 1][0] + 1
            spans[i] = a, b
            found, suspect, q = found[:room], [n for n in suspect if n < b], q[:b - a]
            report.truncated = True
        k = int(np.argmax(q))
        peaks[i] = float(q[k]), a + k
        report.violations.extend(found)
        report.indeterminate.extend(suspect)
        if report.truncated:
            break
    q_max, at = _first_max(env, peaks, peak)
    if q_max > 0.0:
        report.max_ratio, report.argmax = q_max / bound, at
    report.checked = spans[len(env) - 1][1] - n_lo
    report.scanned = sum(spans[i][1] - spans[i][0] for i in peaks)
    return report


def sup_scan(tables: Tables, target: str, weight: str, lo: float,
             hi: float) -> Tuple[float, float]:
    """(sup, argmax_x) of the weighted summatory function on [lo, hi].

    Per-interval maxima are computed in closed form on [n, n+1) clipped to
    [lo, hi], so the argmax is exact even though x ranges over the continuum.
    The kernel runs on a chunk only while its envelope (`_chunk_envelope`)
    reaches the largest value found (`_first_max`).
    """
    _check_weight(target, weight)
    n_lo, n_hi = _scan_range(lo, hi, tables.limit, closed=True)
    spans = [(a, min(a + _CHUNK, n_hi)) for a in range(n_lo, n_hi, _CHUNK)]

    def peak(i):
        a, b = spans[i]
        sup, arg = _interval_sup(target, weight, *_clipped(a, b, lo, hi),
                                 *_kernel_inputs(tables, target, a, b))
        k = int(np.argmax(sup))
        return float(sup[k]), float(arg[k])

    env = [_chunk_envelope(target, weight, lo, hi, a, b, tables) for a, b in spans]
    return _first_max(env, {}, peak)


@dataclass
class RatioReport:
    lo: int
    hi: int
    min_ratio: float
    max_ratio: float
    argmin: int
    argmax: int
    violations: List[Tuple[int, float]] = field(default_factory=list)
    # (x, ratio) within the ratio's error bound of a band edge: undecided
    indeterminate: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.indeterminate


def _running_ratio(tables: Tables, lo: int, x_max: int):
    """Yield (x0, r, sup_M, rad) with r[i] = sup_{t<=x} t|m(t)| / sup_M[i],
    sup_M[i] = sup_{t<=x} |M(t)|, at x = x0 + i, covering x in [lo, x_max]
    one _CHUNK span at a time; rad bounds the m radius over the span.

    The numerator supremum over the interval (n-1, n] closes at t = n with
    candidates n|m(n)| and n|m(n-1)|; both running suprema are cumulative
    maxima over table values, carried from span to span (max is exact, so
    the spans do not change any value).  M is exact and the m values lie
    within their radius, nondecreasing in n, so the numerator is within
    x rad plus one rounding of the exact one, and the quotient adds another:
    |r[i] - the exact ratio| <= x rad / sup_M[i] + 4u r[i], which also
    covers the rounding of the bound itself.
    """
    series, mertens = tables.prefix("m"), tables.mu.mertens
    mv = series.values
    run_m = run_M = 0.0
    for a in range(1, x_max + 1, _CHUNK):
        b = min(a + _CHUNK, x_max + 1)
        nf = np.arange(a, b, dtype=np.float64)
        cand = np.maximum(nf * np.abs(mv[a:b]), nf * np.abs(mv[a - 1:b - 1]))
        sup_m = _carried(np.maximum, run_m, cand)[1:]
        sup_M = _carried(np.maximum, run_M, np.abs(mertens[a:b]).astype(np.float64))[1:]
        run_m, run_M = sup_m[-1], sup_M[-1]
        if b > lo:
            i = max(lo - a, 0)
            yield a + i, sup_m[i:] / sup_M[i:], sup_M[i:], series.radius(b - 1)


def _ratio_report(tables: Tables, lo: int, hi: int) -> RatioReport:
    """The running-supremum ratio on [lo, hi] checked against _RATIO_BAND;
    a ratio within its error bound of a band edge is indeterminate."""
    low, high = _RATIO_BAND
    if hi > tables.limit:
        raise RangeError(f"ratio range end {hi} exceeds sieve limit {tables.limit}")
    if hi < lo:
        raise InvalidArgumentError(f"empty ratio range [{lo}, {hi}]")
    rep = RatioReport(lo=lo, hi=hi, min_ratio=math.inf, max_ratio=-math.inf,
                      argmin=lo, argmax=lo)
    for x0, r, sup_M, rad in _running_ratio(tables, lo, hi):
        # strict comparisons: the first extremum wins, as over one array
        i, k = int(np.argmin(r)), int(np.argmax(r))
        if r[i] < rep.min_ratio:
            rep.min_ratio, rep.argmin = float(r[i]), x0 + i
        if r[k] > rep.max_ratio:
            rep.max_ratio, rep.argmax = float(r[k]), x0 + k
        # the largest error bound of the span, from its largest x and r and
        # smallest sup_M: extremes that clear the band by it decide every ratio
        err = (x0 + r.size) * rad / sup_M[0] + 4.0 * _ULP * r[k]
        if r[i] - low > err and high - r[k] > err:
            continue
        err = np.arange(x0, x0 + r.size) * rad / sup_M + 4.0 * _ULP * r
        near = (np.abs(r - low) <= err) | (np.abs(r - high) <= err)
        for found, where in ((rep.violations, ~near & ((r < low) | (r > high))),
                             (rep.indeterminate, near)):
            found.extend((x0 + j, float(r[j])) for j in np.nonzero(where)[0].tolist())
    return rep


def ratio_theorem_C(tables: Tables, x_max: int) -> RatioReport:
    """Running-supremum ratio sup_{t<=x} t|m(t)| / sup_{t<=x} |M(t)| on
    [_RATIO_RANK, x_max], checked against _RATIO_BAND."""
    return _ratio_report(tables, _RATIO_RANK, x_max)


def ratio_violation_below(tables: Tables):
    """First x in [2, _RATIO_RANK) where the running-supremum ratio leaves
    _RATIO_BAND (witness that the rank is minimal), or None."""
    violations = _ratio_report(tables, 2, _RATIO_RANK - 1).violations
    return violations[0] if violations else None
