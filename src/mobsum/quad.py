"""Exact panel integrals and certified Mellin enclosures.

Every integrand here is elementary on each panel.  The lattice sums G1 and
H1 are polynomials in 1/t on [N, N+1) (`weights.lattice_power_coeffs`),
and the step functions M, m and m1 are constant (m1 affine in t) between
the jumps x/k.  So each integral is a finite sum of coefficient times
integral of t^-a over a panel, evaluated from the antiderivative and added
with `math.fsum`, with an a-priori bound on the rounding error.  Improper
Mellin integrals are returned as enclosures: that finite part on [1, X]
plus a theorem-backed envelope bound for the tail, which X alone picks:
sharp and two-sided at an integer X, one-sided at any other X.  The
envelope facts behind the tail bounds are named once below; the tests
check each against a reference evaluation of G1, H1 or eps1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError, ResourceError
from .weights import WeightSpec, lattice_power_coeffs

_MAX_PANELS = 10**7
_U = 2.0 ** -53
_K_ROUND = 32

# The envelopes of the tail, with {t} = t - floor(t):
#   0 <= G1(t) <= _G1_ENVELOPE/t^2 and 0 <= H1(t) <= _H1_ENVELOPE/t;
#   eps1(t) = integral_1^t G1 = 1/3 - 1/(3t) + (4/3) a({t})/t^2 - b({t})/(3t^3)
#   with a(f) = f (f - 1/2)(f - 1), b(f) = f^2 (1 - f)^2 and |a| <= _EPS1_PEAK;
#   |H1(t) - (1 + (10/3)({t}^2 - {t}))/t| <= _EM_H1_ERROR/(6 t^2) (Euler-Maclaurin).
_G1_ENVELOPE = 1.0
_H1_ENVELOPE = 2.1
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


def _panel_sum(lo, hi, terms, s: float = 0.0):
    """Sum over panels [lo, hi] and pairs (j, c) of c * integral t^-(j+s) dt.

    Returns (value, half_width).  j is an integer power and c a coefficient
    per panel (or a scalar).  Each integral is the stable difference
    lo^e expm1(e log1p((hi - lo)/lo))/e with e = 1 - j - s, or
    log1p((hi - lo)/lo) at e = 0; lo^e = lo^q lo^-f with q = 1 - j - floor(s)
    and f = s - floor(s), so the rounding of j + s never enters a power.
    The terms are added with math.fsum in panel order.

    Preconditions: 1 <= lo < hi <= 2 lo and j + s > -1 for every pair.
    Half-width k u sum|terms| with u = 2^-53 and k = 32.  With numpy's
    log1p, expm1 and power within 1 ulp (2u): log1p carries <= 4u (the
    subtraction, the division and its own error; its condition number is
    <= 1), e*L <= 6u, expm1 <= 2*6u + 2u = 14u (its condition number
    y e^y/(e^y - 1) stays below 2 since y <= (1 - j - s) log 2 < 2 log 2),
    the two powers and their product 5u, so the integral, after the product
    and the division by the rounded e, is within 22u.  Callers' coefficients
    are within 4 roundings (e.g. M(n)/x times a two-rounding c_j), the term
    product adds u and fsum one final u: 28u to first order.  k = 32 covers
    the higher-order terms and the relative error of the float sum
    sum|terms| itself.
    """
    L = hi - lo
    L /= lo
    np.log1p(L, out=L)
    s_int = math.floor(s)
    f = s - s_int
    lo_f = np.power(lo, -f) if f else 1.0
    # one panel-major array filled in place: every fresh panel-sized
    # temporary costs page faults once the process heap has no slack
    T = np.empty((lo.shape[0], len(terms)))
    work = np.empty_like(L)
    for col, (j, c) in enumerate(terms):
        q = 1 - j - s_int
        e = q - f
        if e == 0:
            integral = L
        else:
            integral = np.power(lo, float(q), out=work)
            integral *= lo_f
            integral *= np.expm1(e * L)
            integral /= e
        np.multiply(c, integral, out=T[:, col])
    value = math.fsum(memoryview(T.ravel()))  # yields Python floats, no list
    return value, _K_ROUND * _U * float(np.abs(T, out=T).sum())


# ---------------------------------------------------------------------------
# Mellin enclosures

def _tail_bracket(name: str, s: float, X: float):
    """Enclosure of the integral tail over [X, inf), s > -1: (lo, hi, tag).
    Sharp at an integer X (eps1 integrated by parts, or H1's Euler-Maclaurin
    approximation), else the one-sided G1 or H1 envelope."""
    if X != math.floor(X):
        c, tag = ((_G1_ENVELOPE, "simple:G1<=1/t^2") if name == "g1"
                  else (_H1_ENVELOPE, "simple:H1<=2.1/t"))
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
    _check_panels(math.ceil(X) - 1)
    N = np.arange(1, math.ceil(X), dtype=np.float64)
    p = 0 if weight.name == "g1" else 1  # integrand G t^-s or H t^-(s+1)
    terms = [(j + p, c) for j, c in lattice_power_coeffs(weight.name, N)]
    return _panel_sum(N, np.minimum(N + 1.0, X), terms, s)


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
    with coefficients M(n)/x, m(n), or both m(n) and -M(n)/x.
    """
    if x > tables.limit:
        raise InvalidArgumentError(f"x={x} exceeds table limit {tables.limit}")
    if x <= 1.0:
        return 0.0
    if form not in ("M-kernel", "m-kernel", "m1-kernel"):
        raise InvalidArgumentError(f"unknown form {form!r}")
    k = np.arange(1, math.floor(x) + 1, dtype=np.float64)
    edges = np.unique(np.concatenate([k, x / k, [x]]))
    _check_panels(edges.size - 1)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    n = np.clip(np.floor(x / mid).astype(np.int64), 1, tables.limit)
    N = np.floor(mid)
    Mx = tables.mu.mertens[n] / x
    if form == "M-kernel":
        terms = [(j, Mx * c) for j, c in lattice_power_coeffs("g1", N)]
    elif form == "m-kernel":
        m = tables.prefix("m").values[n]
        terms = [(j + 2, m * c) for j, c in lattice_power_coeffs("h1", N)]
    else:
        m = tables.prefix("m").values[n]
        g = lattice_power_coeffs("g1", N)
        terms = [(j + 1, m * c) for j, c in g] + [(j, -Mx * c) for j, c in g]
    value, _ = _panel_sum(lo, hi, terms)
    return value
