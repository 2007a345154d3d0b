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
argmax.  Both walk the range in one thread, in chunks cut at the grid
1 + j _CHUNK (`_spans`), so scratch memory is O(_CHUNK) whatever the
range; _CHUNK is the table build's block, so every chunk lies in one
block (all of it but at the two ends of a scan) and is read through one
`Tables.chunk`, which computes a record, a radius or a slice only when it
is asked for.  Each chunk first gets an envelope E,
`_chunk_envelope`: the kernel's bound taken over the whole chunk at once,
from its largest |M| or |m| for M and m, and for m1 and mcheck - 1 from
their largest value at the integers plus the variation within [n, n+1).
Those largest |M|, |m|, |m(n) - M(n)/n| and |mcheck(n) - 1| are the
build's records of the chunk's block, so an envelope reads no slice
(a chunk re-derives a slice only when the kernel reads it); the m1 and
mcheck records are kept with the ell series, so an m1 scan needs ell too.
`TARGETS` names, for each target, its weights, the prefix series its
tables are built with and the slices its kernel reads.  E is inflated by
the kernel's own rounding, so it is at least every float supremum the
kernel would compute there, and G, the guard band at E, is at least every
interval's guard.  A chunk with E + G below
the bound (with rounding slack) holds no violation and no interval inside
the guard band, and a chunk with E below the largest value found holds
neither the maximum nor a tie with it: the kernel runs on the chunks that
reach the bound, in chunk order, and then on the rest by decreasing E
while E reaches the largest value so far.  A `verify_range` chunk is reduced
where it is scanned to its largest value and first argmax, its hard
violations and its suspect intervals, and the scan merges these in chunk
order; both operations keep the first chunk maximum that no later chunk
exceeds, so the reports and scans are those of running the kernel on
every chunk.  Intervals whose margin falls inside the guard band are
escalated: the same kernel re-runs at 50 digits on exact M(n) and on m(n)
and ell(n) as 256-bit fixed-point integers from `Tables.exact_prefix`
(a memo of block checkpoints and prime sums that the tables keep, so an
escalation below its top costs one block), and the intervals are reported
as indeterminate.  The Theorem C ratio
walk carries its running suprema from chunk to chunk and accumulates a
chunk only from its first new running record (`_running_max`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .tables import _BLOCK as _CHUNK, Chunk, Tables

_ULP = 2.0 ** -53
_BISECT_STEPS = 80
_MAX_VIOLATIONS = 10000  # verify_range stops at the violation after this many
# rounding slack of a chunk envelope (_chunk_envelope), on the libm premise
# of the `mobsum` package docstring
_ENV_SLACK = 1.0 + 64.0 * _ULP
_RATIO_RANK = 94  # Theorem C: the ratio stays in _RATIO_BAND for x >= 94
_RATIO_BAND = (2.0 / 3.0, 1.5)

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
    of [lo, hi) meets (of [lo, hi] if closed), each of which reads its
    table at n only, so n_hi - 1 may reach the table limit.  The range rule
    of `verify_range` and `sup_scan`, which both start at x >= 1: a command
    checks it, without a limit, before it builds a table."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidArgumentError(f"range bounds must be finite, not {lo}, {hi}")
    n_lo = int(math.floor(lo))
    n_hi = int(math.floor(hi)) + 1 if closed else int(math.ceil(hi))
    if n_lo < 1:
        raise InvalidArgumentError("range must start at x >= 1")
    if (hi < lo if closed else hi <= lo) or n_hi <= n_lo:
        raise InvalidArgumentError(f"empty range [{lo}, {hi}{']' if closed else ')'}")
    if n_hi - 1 > limit:
        raise RangeError(f"range end {hi} exceeds sieve limit {limit}")
    return n_lo, n_hi


class Target(NamedTuple):
    weights: Tuple[str, ...]  # the weights the target supports
    series: Tuple[str, ...]  # the prefix series its tables are built with
    slices: Tuple[str, ...]  # the arrays of a chunk its kernel reads


# each scan target; its envelope reads the chunk records named in
# `_chunk_envelope` and its guard the radii named in `_guard`
TARGETS = {
    "m": Target(("1", "logx", "log2x", "sqrtx"), ("m",), ("m",)),
    "m1": Target(("log2x",), ("m", "ell"), ("M", "m")),  # ell keeps the m1 record
    "mcheck-minus-1": Target(("log2x",), ("m", "ell"), ("m", "ell")),
    "M": Target(("sqrtx",), (), ("M",)),
}


def _check_weight(target: str, weight: str) -> None:
    if target not in TARGETS:
        raise InvalidArgumentError(f"unknown target {target!r}")
    weights = TARGETS[target].weights
    if weight not in weights:
        raise InvalidArgumentError(
            f"{target} supports the weights {', '.join(weights)}, not {weight!r}")


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


def _bisect(u, lo, hi, ulo, uhi, fn, root, scratch):
    """Elementwise root of u(x, log x, k) in [lo, hi] where u changes sign,
    else lo, written to ``root``, which may be ulo's buffer (ulo is read
    first); ``scratch`` is overwritten.  A midpoint where u is exactly 0 is
    kept."""
    k = np.flatnonzero(np.multiply(ulo, uhi, out=scratch) < 0)
    a, b, ua = lo[k], hi[k], ulo[k]
    np.copyto(root, lo)
    if not k.size:
        return root
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
        # one root on each side of xs.  Every fresh chunk-sized array costs
        # page faults once the heap has no freed slack, so the branch works
        # in four rows of w and in m_safe, lx2 and nonzero once they are dead.
        w = np.empty((4,) + x1.shape, dtype=x1.dtype)

        def f(x, lx, out):
            np.divide(M, x, out=out)
            np.subtract(m, out, out=out)
            np.abs(out, out=out)
            out *= lx
            out *= lx
            return out

        def u(x, lx, k=slice(None), out=None, tmp=None):
            out = np.multiply(M[k], lx, out=out)
            tmp = np.multiply(2.0, m[k], out=tmp)
            tmp *= x
            out += tmp
            out -= np.multiply(2.0, M[k], out=tmp)
            return out

        # s = xs = M / (-2m): -M / (2m) but for the sign of a zero xs, which
        # x1 < xs never admits; then s = x2 where xs is not inside (x1, x2)
        s = m_safe
        s *= -2.0
        np.divide(M, s, out=s)
        inside = np.less(x1, s)
        nonzero &= inside
        nonzero &= np.less(s, x2, out=inside)
        np.copyto(s, x2, where=np.logical_not(nonzero, out=nonzero))
        us = u(s, fn.log(s, out=w[0]), out=w[1], tmp=w[3])
        u1, u2 = u(x1, lx1, out=w[0], tmp=w[3]), u(x2, lx2, out=w[2], tmp=w[3])
        ra = _bisect(u, x1, s, u1, us, fn, u1, w[3])
        rb = _bisect(u, s, x2, us, u2, fn, us, w[3])
        # the first of x1, x2, ra, rb with the largest f wins
        sup, arg, better = f(x1, lx1, w[2]), s, nonzero
        arg[...] = x1
        for x in (x2, ra, rb):
            v = f(x, lx2 if x is x2 else fn.log(x, out=lx2), w[3])
            np.greater(v, sup, out=better)
            np.copyto(sup, v, where=better)
            np.copyto(arg, x, where=better)
        return sup, arg
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


def _chunk_sup(target: str, weight: str, lo: float, hi: float, c: Chunk):
    """(sup, argmax, x2): `_interval_sup` on the intervals [n, n+1) of
    chunk c cut to [lo, hi], and the right ends x2 of those intervals; the
    kernel gets the slices the target reads (`TARGETS`), None for others."""
    x1, x2 = _clipped(c.a, c.b, lo, hi)
    slices = TARGETS[target].slices
    m, M, ell = (c.read(name) if name in slices else None for name in ("m", "M", "ell"))
    return (*_interval_sup(target, weight, x1, x2, m, M, ell), x2)


def _guard(pred: Predicate, q, x2, c: Chunk):
    """Guard band of quantities q on intervals of chunk c ending at x2: the
    series radius under the weight plus the kernel's rounding.  The series
    radii are nondecreasing, so the chunk's radii at b - 1 cover the whole
    chunk; the guard is nondecreasing in q and x2."""
    if pred.target == "M":
        return 4.0 * _ULP * q
    err = c.radius("m")
    if pred.target == "mcheck-minus-1":
        L2 = np.log(x2)
        radius = (err * L2 + c.radius("ell")) * L2 * L2
    else:
        radius = _scale_bound(pred)[0] * _weight(_KIND_WEIGHT[pred.kind], x2, np) * err
    if pred.target == "m":
        return radius + 4.0 * _ULP * q
    return radius + 8.0 * _ULP * (np.abs(q) + 1.0)


def _spans(n_lo: int, n_hi: int) -> List[Tuple[int, int]]:
    """The chunks [a, b) that cover [n_lo, n_hi), cut at the grid
    1 + j _CHUNK: with _CHUNK the table's _BLOCK, every chunk but the two
    ends is one whole block of the build."""
    cuts = range(1 + ((n_lo - 1) // _CHUNK + 1) * _CHUNK, n_hi, _CHUNK)
    ends = [n_lo, *cuts, n_hi]
    return list(zip(ends, ends[1:]))


def _chunk_envelope(target: str, weight: str, lo: float, hi: float,
                    c: Chunk) -> float:
    """E >= the float supremum `_interval_sup` computes on every interval
    [n, n+1) of chunk c, a <= n < b, cut to [lo, hi]: the kernel's own
    bound taken over the whole span [xa, xb].

      M : |M(n)|/sqrt(x) falls in x: max|M| / sqrt(xa);
      m : |m(n)| w(x) grows in x: max|m| w(xb);
      m1: the value at the integers plus the variation within [n, n+1):
          |m(n) - M(n)/x| <= |m(n) - M(n)/n| + |M(n)| (1/n - 1/x), and
          1/n - 1/x < 1/n^2 <= 1/a^2, so with log^2 x <= Lb^2 = log^2 xb,
          (max_n |m(n) - M(n)/n| + max|M| / a^2) Lb^2;
      mcheck - 1: likewise |m(n) L - ell(n) - 1| <= |m(n) log n - ell(n)
          - 1| + |m(n)| (L - log n), and L - log n <= log(1 + 1/n) <= 1/a
          for L = log x: (max_n |m(n) log n - ell(n) - 1| + max|m| / a) Lb^2.

    Every max in the parentheses is a record of the chunk, ``c.top("M")``,
    ``"m"``, ``"m1"`` or ``"mcheck"`` in the order above (`Tables.chunk`):
    the largest of the build's records over the blocks the chunk meets, one
    block for every chunk of `_spans`, which bounds each of its indices
    however little of the block the chunk covers.  Each target asks for the
    records its line names and no other.  They depend on the chunk's
    indices only, not on lo or hi.

    Rounding.  E = (top + k u S) w (1 + k u), top the float value in the
    parentheses, w its weight factor, u = 2^-53, k = 64, and S the operand
    size of the form that cancels: max|M|/a for m1, max|m| Lb for mcheck,
    0 for M and m.  The values at the integers are taken with the kernel's
    own operations at x = n (fl(m - fl(M/n)); fl(fl(m log n) - fl(ell +
    1))), so the kernel's float value at an x of [n, n+1] differs from them
    only by the variation and by roundings.  Numpy's log and math.log are
    taken to be within 1 ulp (2u), the libm premise of the `mobsum` package
    docstring.  Then the kernel's float L and the float log n lie
    within 2u of the true logs relatively, so L - log n <= 1/n + 4u Lb, and
    L <= Lb (1 + 4u) for the float Lb the envelope takes.  Absolutely, the
    operands cost at most 7u S: for m1, fl(M/x) and fl(M/n) u S each; for
    mcheck, fl(m L) and fl(m log n) u S each and the logs 4u S (d = fl(ell
    + 1) is the same float on both sides).  Relatively, the rounding of the value at
    the integers costs u, the kernel's own three roundings 3u, the squared
    log 8u, the envelope's own six roundings 6u.  So to first order E
    need only reach (top + 7u S) w (1 + 18u); M and m, whose forms are
    monotone and do not cancel, need at most 13u.  k = 64 covers the
    higher-order terms and a log up to 4 ulp (18u S and 1 + 42u).
    """
    xa, xb = max(float(c.a), lo), min(float(c.b), hi)
    if target == "M":
        return c.top("M") / math.sqrt(xa) * _ENV_SLACK
    if target == "m":
        return c.top("m") * _weight(weight, xb, math) * _ENV_SLACK
    Lb = math.log(xb)
    if target == "m1":
        size = c.top("M") / c.a
        top = c.top("m1") + size / c.a
    else:
        m_max = c.top("m")
        top = c.top("mcheck") + m_max / c.a
        size = m_max * Lb
    return (top + (_ENV_SLACK - 1.0) * size) * Lb * Lb * _ENV_SLACK


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

def _exact_recheck(pred: Predicate, n: int, tables: Tables, lo: float,
                   hi: float) -> Tuple[float, bool]:
    """Re-decide a marginal interval, [n, n+1) cut to [lo, hi]: the scan's
    kernel at 50 digits."""
    import mpmath as mp  # the escalation path alone needs it
    slices = TARGETS[pred.target].slices
    with mp.workdps(50):
        if "m" not in slices:  # M(n) alone, without the O(n) exact sums
            M, m, ell = int(tables.read("M", n, n + 1)[0]), 0, 0
        else:
            M, m_fp, ell_fp = tables.exact_prefix(n, "ell" in slices)
            m = mp.ldexp(m_fp, -Tables.FIXED_BITS)
            ell = 0 if ell_fp is None else mp.ldexp(ell_fp, -Tables.FIXED_BITS)
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
    that still pass it (perfbench/workloads.py).
    """
    n_lo, n_hi = _scan_range(lo, hi, tables.limit)
    target, weight = pred.target, _KIND_WEIGHT[pred.kind]
    for name in TARGETS[target].series:  # a series the tables lack fails first
        tables.prefix(name)
    spans = _spans(n_lo, n_hi)
    scale, bound = _scale_bound(pred)
    chunks = []  # the chunk of each span reached

    def peak(i):
        q = scale * _chunk_sup(target, weight, lo, hi, chunks[i])[0]
        k = int(np.argmax(q))
        return float(q[k]), chunks[i].a + k

    report = VerificationReport(predicate=pred.name, lo=n_lo, hi=n_hi)
    env = []  # the envelope of each span reached
    peaks = {}  # span index -> (largest q, its first n), for the spans scanned
    for i, (a, b) in enumerate(spans):
        c = tables.chunk(a, b)
        chunks.append(c)
        e = scale * _chunk_envelope(target, weight, lo, hi, c)
        env.append(e)
        if (e + _guard(pred, e, min(float(b), hi), c)) * _ENV_SLACK < bound:
            continue
        # hard violations, and suspects for exact re-decision
        sup, _, x2 = _chunk_sup(target, weight, lo, hi, c)
        q = scale * sup
        guard = _guard(pred, q, x2, c)
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
    """(sup, argmax_x): the largest float value of the per-interval kernel
    for the weighted summatory function on [lo, hi], and where it falls.

    Per-interval maxima are computed in closed form on [n, n+1) clipped to
    [lo, hi], so x ranges over the continuum.  The value is a float with no
    error bound, not an enclosure of the supremum, and the argmax may be
    the open right end of an interval: where the weight grows and the
    function steps down there, the value is a limit from the left that is
    not attained (m under sqrtx on [1, 1e6]: sqrt 2 at x = 2, where
    |m(2)| sqrt 2 = 0.707).  The kernel runs on a chunk only while its
    envelope (`_chunk_envelope`) reaches the largest value found
    (`_first_max`).
    """
    _check_weight(target, weight)
    n_lo, n_hi = _scan_range(lo, hi, tables.limit, closed=True)
    for name in TARGETS[target].series:  # a series the tables lack fails first
        tables.prefix(name)
    chunks = [tables.chunk(a, b) for a, b in _spans(n_lo, n_hi)]

    def peak(i):
        sup, arg, _ = _chunk_sup(target, weight, lo, hi, chunks[i])
        k = int(np.argmax(sup))
        return float(sup[k]), float(arg[k])

    env = [_chunk_envelope(target, weight, lo, hi, c) for c in chunks]
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


def _running_max(sup, run: float) -> None:
    """sup, in place, as its running maximum from the carried maximum run:
    the accumulate starts at the first value above run, and sup is filled
    with run if it has none (max is exact, so either way sup is bit for
    bit the accumulate of the whole chunk)."""
    i = int(np.argmax(sup > run))
    if sup[i] <= run:
        sup.fill(run)
    else:
        sup[:i] = run
        np.maximum.accumulate(sup[i:], out=sup[i:])


def _running_ratio(tables: Tables, lo: int, x_max: int):
    """Yield (x0, r, sup_M, rad) with r[i] = sup_{t<=x} t|m(t)| / sup_M[i],
    sup_M[i] = sup_{t<=x} |M(t)|, at x = x0 + i, covering x in [lo, x_max]
    one chunk of `_spans` at a time; rad bounds the m radius over the span.

    The numerator supremum over the interval (n-1, n] closes at t = n with
    candidates n|m(n)| and n|m(n-1)|, taken as n max(|m(n)|, |m(n-1)|)
    (the product rounds monotonically, so this is the larger candidate);
    the walk starts at 1, where m(0) = 0, and carries |m(a - 1)| and both
    running suprema from chunk to chunk (max is exact, so the chunks do
    not change any value).  M is exact and the m values lie within their
    radius, nondecreasing in n, so the numerator is within x rad plus one
    rounding of the exact one, and the quotient adds another:
    |r[i] - the exact ratio| <= x rad / sup_M[i] + 4u r[i], which also
    covers the rounding of the bound itself.  A chunk whose largest |M|
    (`Tables.chunk`) does not pass the running sup_M leaves it constant,
    without reading M.
    """
    run_m = run_M = prev = 0.0
    for a, b in _spans(1, x_max + 1):
        c = tables.chunk(a, b)
        abs_m = np.abs(c.read("m"))
        sup_m = np.empty_like(abs_m)
        sup_m[0], sup_m[1:], prev = prev, abs_m[:-1], abs_m[-1]
        np.maximum(sup_m, abs_m, out=sup_m)
        sup_m *= np.arange(a, b, dtype=np.float64)
        _running_max(sup_m, run_m)
        if c.top("M") <= run_M:
            sup_M = np.full(b - a, run_M)
        else:
            sup_M = np.abs(c.read("M")).astype(np.float64)
            _running_max(sup_M, run_M)
        run_m, run_M = sup_m[-1], sup_M[-1]
        if b > lo:
            i = max(lo - a, 0)
            yield a + i, sup_m[i:] / sup_M[i:], sup_M[i:], c.radius("m")


def _ratio_report(tables: Tables, lo: int, hi: int) -> RatioReport:
    """The running-supremum ratio on [lo, hi] checked against _RATIO_BAND;
    a ratio within its error bound of a band edge is indeterminate."""
    low, high = _RATIO_BAND
    _scan_range(lo, hi, tables.limit, closed=True)
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
