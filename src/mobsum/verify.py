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
range; _CHUNK is the table build's block, so every chunk but the two ends
of a scan is one block, and is read as one `Tables.chunk` record.  Each
chunk first gets an envelope E, `_chunk_envelope`: the kernel's bound
taken over the whole chunk at once from its ends and its largest |m|, |M|
and |ell|, which on a whole block are the maxima the build recorded,
inflated by the kernel's own rounding, so E is at least every float
supremum the kernel would compute there, and G, the guard band at E, is
at least every interval's guard.  A chunk with E + G below the bound
(with rounding slack) holds no violation and no interval inside the guard
band, and a chunk with E below the largest value found holds neither the
maximum nor a tie with it: the kernel runs on the chunks that reach the
bound, in chunk order, and then on the rest by decreasing E while E
reaches the largest value so far.  A `verify_range` chunk is reduced
where it is scanned to its largest value and first argmax, its hard
violations and its suspect intervals, and the scan merges these in chunk
order; both operations keep the first chunk maximum that no later chunk
exceeds, so the reports and scans are those of running the kernel on
every chunk.  Intervals whose margin falls inside the guard band are
escalated: the same kernel re-runs at 50 digits on exact M(n) and on m(n)
and ell(n) as 256-bit fixed-point integers from `Tables.exact_prefix`,
and the intervals are reported as indeterminate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
from typing import List, Tuple

import numpy as np

from .errors import InvalidArgumentError, RangeError
from .tables import _BLOCK as _CHUNK, Chunk, Tables

_ULP = 2.0 ** -53
_BISECT_STEPS = 80
_MAX_VIOLATIONS = 10000  # verify_range stops at the violation after this many
_ENV_SLACK = 1.0 + 64.0 * _ULP  # rounding slack of a chunk envelope (_chunk_envelope)
_RATIO_RANK = 94  # Theorem C: the ratio stays in _RATIO_BAND for x >= 94
_RATIO_BAND = (2.0 / 3.0, 1.5)

# the weights each target supports, the arrays of a chunk each target reads
# (of which m and ell are prefix series), and the weight each kind uses
_WEIGHTS = {"m": ("1", "logx", "log2x", "sqrtx"), "m1": ("log2x",),
            "mcheck-minus-1": ("log2x",), "M": ("sqrtx",)}
_SERIES = {"m": ("m",), "m1": ("M", "m"), "mcheck-minus-1": ("m", "ell"), "M": ("M",)}
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
    chunk c cut to [lo, hi], and the right ends x2 of those intervals."""
    x1, x2 = _clipped(c.a, c.b, lo, hi)
    return (*_interval_sup(target, weight, x1, x2, c.m, c.M, c.ell), x2)


def _guard(pred: Predicate, q, x2, c: Chunk):
    """Guard band of quantities q on intervals of chunk c ending at x2: the
    series radius under the weight plus the kernel's rounding.  The series
    radii are nondecreasing, so the chunk's radii at b - 1 cover the whole
    chunk; the guard is nondecreasing in q and x2."""
    if pred.target == "M":
        return 4.0 * _ULP * q
    err = c.m_radius
    if pred.target == "mcheck-minus-1":
        L2 = np.log(x2)
        radius = (err * L2 + c.ell_radius) * L2 * L2
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
      m1: m(n) - M(n)/x is monotone in x, so |m1| peaks at xa or xb, and
          log^2 x <= Lb^2 = log^2 xb: max_n max(|m1(xa)|, |m1(xb)|) Lb^2;
      mcheck - 1: |m(n) L - ell(n) - 1| is convex in L = log x, so it peaks
          at La or Lb; over v = m L - ell at both ends its largest value
          is max(max v - 1, 1 - min v), times Lb^2.

    max|M|, max|m| and max|ell| are the chunk's (`Tables.chunk`): the
    build's block maxima on a whole block, as every chunk of `_spans` but
    the two ends is.

    Rounding.  E = (top + k u S) w (1 + k u), top the float maximum above,
    w its weight factor, u = 2^-53, k = 64, and S the operand size of the
    two forms that cancel: max|m| + max|M|/xa for m1, max|m| Lb + max|ell|
    + 1 for mcheck, 0 for M and m.  With numpy's log within 1 ulp (2u;
    measured at most 0.52 ulp over 2e4 points of [1, 2e9] against mpmath),
    every float log the kernel takes of an x in [xa, xb] lies in
    [La (1 - 4u), Lb (1 + 4u)] for the float La, Lb the envelope takes;
    widening the monotone or convex form to those ends costs 4u |m| Lb
    absolutely, the kernel's rounded operands (fl(M/x) for m1; fl(m L) and
    d = fl(ell + 1) for mcheck) u S, its three remaining roundings 3u and
    the squared log 8u relatively.  The ends as the envelope computes them
    carry u S for m1 (fl(M/x)) and 2u S for mcheck (fl(m L), then
    fl(m L - ell)), and u relatively (the subtraction of fl(M/x), or the
    shift by 1); its own five roundings add 5u.  To first order the
    kernel's value is within (1 + 17u) top w + 7u S w; M and m, whose forms
    are monotone and do not cancel, need at most 13u.  k = 64 covers the
    higher-order terms and a log up to 4 ulp.
    """
    xa, xb = max(float(c.a), lo), min(float(c.b), hi)
    if target == "M":
        return c.M_max / math.sqrt(xa) * _ENV_SLACK
    if target == "m":
        return c.m_max * _weight(weight, xb, math) * _ENV_SLACK
    # the two ends share one buffer: every fresh chunk-sized array costs
    # page faults once the heap has no freed slack
    Lb, v = math.log(xb), np.empty(c.m.shape[0])
    if target == "m1":
        top = 0.0
        for x in (xa, xb):
            np.subtract(c.m, np.divide(c.M, x, out=v), out=v)
            top = max(top, float(v.max()), -float(v.min()))
        size = c.m_max + c.M_max / xa
    else:
        v_hi, v_lo = -math.inf, math.inf
        for L in (math.log(xa), Lb):
            np.subtract(np.multiply(c.m, L, out=v), c.ell, out=v)
            v_hi, v_lo = max(v_hi, float(v.max())), min(v_lo, float(v.min()))
        top = max(v_hi - 1.0, 1.0 - v_lo)
        size = c.m_max * Lb + c.ell_max + 1.0
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
    with mp.workdps(50):
        if pred.target == "M":  # M(n) alone, without the O(n) exact sums
            M, m, ell = int(tables.chunk(n, n + 1, ("M",)).M[0]), 0, 0
        else:
            M, m_fp, ell_fp = tables.exact_prefix(n, pred.target == "mcheck-minus-1")
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
        c = tables.chunk(a, b, _SERIES[target])
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
    """(sup, argmax_x) of the weighted summatory function on [lo, hi].

    Per-interval maxima are computed in closed form on [n, n+1) clipped to
    [lo, hi], so the argmax is exact even though x ranges over the continuum.
    The kernel runs on a chunk only while its envelope (`_chunk_envelope`)
    reaches the largest value found (`_first_max`).
    """
    _check_weight(target, weight)
    n_lo, n_hi = _scan_range(lo, hi, tables.limit, closed=True)
    chunks = [tables.chunk(a, b, _SERIES[target]) for a, b in _spans(n_lo, n_hi)]

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
    covers the rounding of the bound itself.
    """
    run_m = run_M = prev = 0.0
    for a, b in _spans(1, x_max + 1):
        c = tables.chunk(a, b, ("M", "m"))
        abs_m = np.abs(c.m)
        sup_m = np.empty_like(abs_m)
        sup_m[0], sup_m[1:], prev = prev, abs_m[:-1], abs_m[-1]
        np.maximum(sup_m, abs_m, out=sup_m)
        sup_m *= np.arange(a, b, dtype=np.float64)
        sup_M = np.abs(c.M).astype(np.float64)
        for run, sup in ((run_m, sup_m), (run_M, sup_M)):
            sup[0] = max(sup[0], run)
            np.maximum.accumulate(sup, out=sup)
        run_m, run_M = sup_m[-1], sup_M[-1]
        if b > lo:
            i = max(lo - a, 0)
            yield a + i, sup_m[i:] / sup_M[i:], sup_M[i:], c.m_radius


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
