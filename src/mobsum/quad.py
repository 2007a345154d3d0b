"""Exact panel integrals and certified Mellin enclosures.

Every integrand here is elementary on each panel.  The lattice sums G1 and
H1 are polynomials in 1/t on [N, N+1) (`weights.lattice_power_coeffs`),
and the step functions M, m and m1 are constant (m1 affine in t) between
the jumps x/k.  So each integral is a finite sum of coefficient times
integral of t^-a over a panel, evaluated from the antiderivative, added
exactly and rounded once (`_exact_sum`, the value `fsum` returns),
with an a-priori bound on the rounding error.  Improper
Mellin integrals are returned as enclosures: that finite part on [1, X]
plus a theorem-backed envelope bound for the tail, which X alone picks:
sharp and two-sided at an integer X, one-sided at any other X.  The
envelope facts behind the tail bounds are named once, the G1 and H1
envelopes in `weights` and the rest below; the tests check each against a
reference evaluation of G1, H1 or eps1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, RangeError, ResourceError
from .weights import G1_ENVELOPE, H1_ENVELOPE, WeightSpec, lattice_power_coeffs

_MAX_PANELS = 10**7
_SLICE = 1 << 12  # panels per slice of `_panel_sum`; no result depends on it
_U = 2.0 ** -53
_K_ROUND = 32  # `_panel_sum`'s rounding budget, on the libm premise (`mobsum` docstring)
# `_exact_sum` adds base-2^_DIGIT digits a chunk at a time: a chunk of
# digits below 2^_DIGIT sums below 2^52, so any order of float adds is exact.
_SUM_CHUNK = 1 << 14
_DIGIT = 52 - _SUM_CHUNK.bit_length()

# The envelopes of the tail, with {t} = t - floor(t):
#   0 <= G1(t) <= G1_ENVELOPE/t^2 and 0 <= H1(t) <= H1_ENVELOPE/t (weights);
#   eps1(t) = integral_1^t G1 = 1/3 - 1/(3t) + (4/3) a({t})/t^2 - b({t})/(3t^3)
#   with a(f) = f (f - 1/2)(f - 1), b(f) = f^2 (1 - f)^2 and |a| <= _EPS1_PEAK;
#   |H1(t) - (1 + (10/3)({t}^2 - {t}))/t| <= _EM_H1_ERROR/(6 t^2) (Euler-Maclaurin).
_EPS1_PEAK = 1.0 / (12.0 * math.sqrt(3.0))
_EM_H1_ERROR = 1.56


@dataclass(frozen=True)
class MellinBracket:
    """Enclosure [lo, hi] of an improper Mellin integral."""

    lo: float
    hi: float
    tail_bound_used: str

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi


def _check_panels(count: int) -> None:
    if count > _MAX_PANELS:
        raise ResourceError(f"panel count {count} exceeds {_MAX_PANELS}; reduce the range")


def check_kernel_panels(x: float) -> None:
    """Refuse an x whose `identity_kernel_integral` could need more than
    _MAX_PANELS panels, from x alone: the edges are the integers to x and
    the jumps x/k, at most 2 floor(x) of them, so at most 2 floor(x) - 1
    panels."""
    _check_panels(2 * math.floor(x) - 1)


def _exact_sum(x) -> float:
    """The sum of a contiguous float64 array rounded once: fsum(x), bit
    for bit, at the cost of a few numpy passes.

    Each chunk c with |c| < 2^e <= 2^_DIGIT is scaled up by 2^(_DIGIT - e)
    and peeled into base-2^_DIGIT digit rows by truncation (np.trunc and a
    subtraction, about five times faster than np.modf); scaling, peeling and
    each row's np.sum are exact.  A row is peeled only while a bit of at
    least 2^-1074 is left below the row before, so every row's unit is a
    multiple of 2^(-1074 - _DIGIT); the rows join in one Python int in that
    unit, and int true division rounds the exact sum once, subnormals
    included.  All-zero (for fsum's zero sign), non-finite or
    |x| >= 2^_DIGIT input goes to fsum.
    """
    total = 0
    frac = np.empty(min(x.size, _SUM_CHUNK))
    digit = np.empty_like(frac)
    for i in range(0, x.size, _SUM_CHUNK):
        c = x[i:i + _SUM_CHUNK]
        top = max(c.max(), -c.min())
        if not top < 2.0 ** _DIGIT:
            break
        e = math.frexp(top)[1]  # |c| < 2^e; the first row's unit is 2^(e - _DIGIT)
        f, d = frac[:c.size], digit[:c.size]
        np.ldexp(c, _DIGIT - e, out=f)
        shift = e + 1074
        while True:
            np.trunc(f, out=d)
            f -= d  # exact: the bits of f below its units
            total += int(d.sum()) << shift
            if not f.any():
                break
            f *= 2.0 ** _DIGIT
            shift -= _DIGIT
    else:
        if total or x.any():
            return total / (1 << 1074 + _DIGIT)
    return math.fsum(memoryview(x))  # all zero, non-finite or |x| >= 2^_DIGIT


def _panel_sum(count: int, panels, s: float = 0.0):
    """Sum over panels i < count and pairs (j, c) of c * integral t^-(j+s) dt
    over [lo_i, hi_i], where panels(a, b) gives (lo, hi, terms) for the
    panels a <= i < b.

    Returns (value, half_width).  j is an integer power and c a coefficient
    per panel (or a scalar).  Each integral is the stable difference
    lo^e expm1(e log1p((hi - lo)/lo))/e with e = 1 - j - s, or
    log1p((hi - lo)/lo) at e = 0; lo^e = lo^q lo^-f with q = 1 - j - floor(s)
    and f = s - floor(s), so the rounding of j + s never enters a power.
    The terms are added exactly and rounded once (`_exact_sum`, the value
    fsum returns).

    The panels go by in slices of _SLICE: `panels` makes each slice's lo,
    hi and coefficients, and L, lo^-f, the powers and expm1(e L) live in one
    set of slice-sized buffers that every slice reuses.  Only the
    panel-major term matrix T (8 B per panel and term) is whole: the exact
    sum is order-free, but the half-width's np.abs(T).sum() is numpy's
    pairwise sum, whose rounding follows the whole array, so T is filled
    slice by slice and summed as one, and no bit depends on _SLICE.

    Preconditions: 1 <= lo < hi <= 2 lo and j + s > -1 for every pair.
    Half-width k u sum|terms| with u = 2^-53 and k = 32.  With numpy's
    log1p, expm1 and power within 1 ulp (2u), the libm premise of the
    `mobsum` package docstring: log1p carries <= 4u (the
    subtraction, the division and its own error; its condition number is
    <= 1), e*L <= 6u, expm1 <= 2*6u + 2u = 14u (its condition number
    y e^y/(e^y - 1) stays below 2 since y <= (1 - j - s) log 2 < 2 log 2),
    the two powers and their product 5u, so the integral, after the product
    and the division by the rounded e, is within 22u.  Callers' coefficients
    are within 4 roundings (e.g. M(n)/x times a two-rounding c_j), the term
    product adds u and the once-rounded sum one final u: 28u to first order.
    k = 32 covers the higher-order terms and the relative error of the
    float sum sum|terms| itself.
    """
    if count <= 0:
        return 0.0, 0.0
    s_int = math.floor(s)
    f = s - s_int
    L_buf, lo_f_buf, work_buf, eL_buf = np.empty((4, min(count, _SLICE)))
    T = None
    for a in range(0, count, _SLICE):
        b = min(a + _SLICE, count)
        lo, hi, terms = panels(a, b)
        if T is None:
            T = np.empty((count, len(terms)))
        L, work, eL = L_buf[:b - a], work_buf[:b - a], eL_buf[:b - a]
        np.subtract(hi, lo, out=L)
        L /= lo
        np.log1p(L, out=L)
        lo_f = np.power(lo, -f, out=lo_f_buf[:b - a]) if f else 1.0
        for col, (j, c) in enumerate(terms):
            q = 1 - j - s_int
            e = q - f
            if e == 0:
                integral = L
            else:
                integral = np.power(lo, float(q), out=work)
                integral *= lo_f
                integral *= np.expm1(np.multiply(e, L, out=eL), out=eL)
                integral /= e
            np.multiply(c, integral, out=T[a:b, col])
    return _exact_sum(T.ravel()), _K_ROUND * _U * float(np.abs(T, out=T).sum())


# ---------------------------------------------------------------------------
# Mellin enclosures

def _tail_bracket(name: str, s: float, X: float):
    """Enclosure of the integral tail over [X, inf), s > -1: (lo, hi, tag).
    Sharp at an integer X (eps1 integrated by parts, or H1's Euler-Maclaurin
    approximation), else the one-sided G1 or H1 envelope."""
    if X != math.floor(X):
        c, tag = ((G1_ENVELOPE, f"simple:G1<={G1_ENVELOPE:g}/t^2") if name == "g1"
                  else (H1_ENVELOPE, f"simple:H1<={H1_ENVELOPE:g}/t"))
        return 0.0, c * X ** (-s - 1.0) / (s + 1.0), tag
    if name == "g1":
        center = X ** (-s - 1.0) / (3.0 * (s + 1.0))
        hw = abs(s) * (
            (4.0 / 3.0) * _EPS1_PEAK / (s + 2.0) * X ** (-s - 2.0)
            + X ** (-s - 3.0) / (48.0 * (s + 3.0))
        )
        return center - hw, center + hw, "sharp:parts-of-eps1"
    center = (4.0 / 9.0) * X ** (-s - 1.0) / (s + 1.0)
    hw = (0.06 + _EM_H1_ERROR / (6.0 * (s + 2.0))) * X ** (-s - 2.0)
    return center - hw, center + hw, "sharp:euler-maclaurin"


def mellin_finite_part(weight: WeightSpec, s: float, X: float):
    """Finite part of the Mellin integral on [1, X]: (value, half_width).

    Panels [N, min(N+1, X)]; a non-integer X gives a partial last panel.
    half_width is the rounding bound of `_panel_sum`, which needs s > -1.
    """
    if s <= -1.0:
        raise DomainError("the rounding bound needs s > -1")
    count = math.ceil(X) - 1
    _check_panels(count)
    p = 0 if weight.name == "g1" else 1  # integrand G t^-s or H t^-(s+1)

    def panels(a, b):
        N = np.arange(a + 1, b + 1, dtype=np.float64)
        terms = [(j + p, c) for j, c in lattice_power_coeffs(weight.name, N)]
        return N, np.minimum(N + 1.0, X), terms

    return _panel_sum(count, panels, s)


def mellin_numeric(weight: WeightSpec, s: float, X: float) -> MellinBracket:
    """Enclosure of the improper Mellin integral of a lattice-sum weight.

    g-weights: integral over [1, inf) of G(t) t^{-s} dt.
    h-weights: integral over [1, inf) of H(t) t^{-s-1} dt.
    Finite part on [1, X] exactly per panel (`mellin_finite_part`), tail
    over [X, inf) bounded by a proven envelope (never extrapolation): the
    sharp one at an integer X, the one-sided one otherwise.
    """
    if not (math.isfinite(s) and math.isfinite(X)):
        raise InvalidArgumentError(f"s and X must be finite, not {s}, {X}")
    if X < 2:
        raise InvalidArgumentError("need X >= 2")
    value, half = mellin_finite_part(weight, s, X)  # raises for s <= -1
    t_lo, t_hi, tag = _tail_bracket(weight.name, s, float(X))
    return MellinBracket(
        lo=value - half + t_lo,
        hi=value + half + t_hi,
        tail_bound_used=tag,
    )


# ---------------------------------------------------------------------------
# step-function kernels against weight lattice sums

def identity_kernel_integral(tables, x: float, form: str) -> float:
    """Integral over [1, x] of a summatory step function against a weight.

    form "M-kernel":  (M(x/t)/(x/t)) G1(t) dt/t  = M(x/t) G1(t)/x dt
    form "m-kernel":  m(x/t) H1(t) dt/t^2
    form "m1-kernel": m1(x/t) G1(t) dt/t, with m1(x/t) = m(n) - M(n) t/x

    Panels are the merged integers and jumps x/k; on each, n = floor(x/t)
    and N = floor(t) are fixed, so the integrand is a polynomial in 1/t
    with coefficients M(n)/x, m(n), or both m(n) and -M(n)/x.  M and m are
    read at n <= floor(x), so, as for `tables.evaluate`, x >= limit + 1
    raises RangeError.
    """
    if not math.isfinite(x):
        raise InvalidArgumentError(f"x must be finite, not {x}")
    if x >= tables.limit + 1:
        raise RangeError(f"x={x} outside table range; sieve at least to limit={int(x)}")
    if x <= 1.0:
        return 0.0
    if form not in ("M-kernel", "m-kernel", "m1-kernel"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    check_kernel_panels(x)  # before any panel array exists
    k = np.arange(1, math.floor(x) + 1, dtype=np.float64)
    edges = np.unique(np.concatenate([k, x / k, [x]]))
    del k

    def floors(a, b):  # n = floor(x/t) and N = floor(t) on the panels a <= i < b
        mid = 0.5 * (edges[a:b] + edges[a + 1:b + 1])
        return np.clip(np.floor(x / mid).astype(np.int64), 1, tables.limit), np.floor(mid)

    top = int(floors(0, 1)[0][0]) + 1  # n falls as t grows: the first panel's is the largest
    M = None if form == "m-kernel" else tables.read("M", 1, top)
    m = None if form == "M-kernel" else tables.read("m", 1, top)

    def panels(a, b):
        n, N = floors(a, b)
        n -= 1
        if form == "M-kernel":
            Mx = M[n] / x
            terms = [(j, Mx * c) for j, c in lattice_power_coeffs("g1", N)]
        elif form == "m-kernel":
            mn = m[n]
            terms = [(j + 2, mn * c) for j, c in lattice_power_coeffs("h1", N)]
        else:
            mn, Mx, g = m[n], M[n] / x, lattice_power_coeffs("g1", N)
            terms = [(j + 1, mn * c) for j, c in g] + [(j, -Mx * c) for j, c in g]
        return edges[a:b], edges[a + 1:b + 1], terms

    value, _ = _panel_sum(len(edges) - 1, panels)
    return value
