"""Real-axis zeta values, zeta'(0), Mellin closed forms and the
published H2 envelope constants (`H2_ENVELOPE`, read by `h2_integral_bound`).

zeta is computed by the accelerated alternating (Dirichlet eta) series with
integer Chebyshev-style coefficients — an explicit finite recipe with a
proven truncation bound — evaluated at 40 significant digits internally and
rounded once to double.  The three Mellin closed forms used by the bound
conversions are rational-zeta expressions with removable singularities; near
a singular point they switch to the exact limit plus an analytically derived
first-order term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .errors import DomainError, InvalidArgumentError

_ULP = 2.0 ** -53

# well-known constants, 30+ digit literals
_EULER_GAMMA = 0.577215664901532860606512090082
_STIELTJES_1 = -0.0728158454836767248605863758749
_ZETA_PP_0 = -2.00635645590858485121010002673   # zeta''(0)
_LOG_2PI = 1.83787706640934548356065947281


@dataclass(frozen=True)
class SpecialValue:
    """A double value with a certified absolute error bound."""

    value: float
    abs_error: float


@lru_cache(maxsize=8)
def _eta_coeffs(n: int):
    """Integer acceleration coefficients d_k for the alternating series:
    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!)."""
    d = []
    s = 0
    for i in range(n + 1):
        s += math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * s)
    return tuple(d)


_ETA_TERMS = 55  # (3+sqrt(8))^-55 ~ 2e-42 relative truncation


def zeta_real(s: float) -> SpecialValue:
    """zeta(s) for real s in [-0.99, 30], s != 1 (|s-1| >= 1e-9).

    Truncation bound of the accelerated eta series: |error| <=
    3 (3+sqrt 8)^{-n} / |1 - 2^{1-s}|, evaluated at 40 digits so the float
    rounding dominates everywhere except within ~1e-3 of the pole.
    """
    if not (-0.99 <= s <= 30.0) or abs(s - 1.0) < 1e-9:
        raise DomainError(f"zeta_real requires -0.99 <= s <= 30, |s-1| >= 1e-9; got {s}")
    n = _ETA_TERMS
    d = _eta_coeffs(n)
    with mp.workdps(40):
        sm = mp.mpf(s)
        eta = mp.mpf(0)
        for k in range(n):
            eta += (-1) ** k * (d[k] - d[n]) / mp.mpf(k + 1) ** sm
        eta = -eta / d[n]
        denom = 1 - 2 ** (1 - sm)
        z = eta / denom
        trunc = 3.0 * float((3 + mp.sqrt(8)) ** (-n) / abs(denom))
    value = float(z)
    rep = 0.5 * _ULP * abs(value) if value != 0 else _ULP
    return SpecialValue(value=value, abs_error=trunc + rep)


def zeta_prime_zero() -> SpecialValue:
    """zeta'(0) = -log(2 pi)/2."""
    return SpecialValue(value=-0.5 * _LOG_2PI, abs_error=1e-16)


def _near(a: float, b: float) -> bool:
    """Within 1e-6: where the closed forms switch to their series."""
    return abs(a - b) < 1e-6


def mellin_G1_closed(s: float) -> SpecialValue:
    """integral_1^inf G1(t) t^-s dt = 1/(s-1) - 8 zeta(s)/((s+1)(s+3)).

    Removable singularity at s=1 with limit 3/4 - gamma; within 1e-6 of it
    the first-order series  f(1+e) = (3/4 - gamma) + c1 e + O(e^2)  with
    c1 = gamma_1 + (3/4) gamma - 7/16 is used.
    """
    if s <= -1:
        raise DomainError("mellin_G1_closed requires s > -1")
    if _near(s, 1.0):
        e = s - 1.0
        c1 = _STIELTJES_1 + 0.75 * _EULER_GAMMA - 7.0 / 16.0
        val = (0.75 - _EULER_GAMMA) + c1 * e
        return SpecialValue(value=val, abs_error=abs(e) ** 2 + 1e-13)
    sv = zeta_real(s)
    val = 1.0 / (s - 1.0) - 8.0 * sv.value / ((s + 1.0) * (s + 3.0))
    err = 8.0 * sv.abs_error / abs((s + 1.0) * (s + 3.0)) + 8.0 * _ULP * (
        abs(val) + abs(1.0 / (s - 1.0))
    )
    return SpecialValue(value=val, abs_error=err)


def mellin_G1check_closed(s: float) -> SpecialValue:
    """1 + integral_1^inf G1 t^-s dt = s/(s-1) - 8 zeta(s)/((s+1)(s+3)).

    Limit 7/4 - gamma at s=1 (same series slope as the G1 form).
    """
    base = mellin_G1_closed(s)
    return SpecialValue(value=1.0 + base.value, abs_error=base.abs_error + _ULP * 2)


def mellin_H1_closed(s: float) -> SpecialValue:
    """integral_1^inf H1(t) t^{-s-1} dt
        = 1/s - 4 (s-1)(5s+9) zeta(s) / (3 s (s+1)(s+2)(s+3)).

    Removable singularities: limit 2 zeta'(0) + 41/18 at s=0 with slope
    c1 = zeta''(0) - (41/9) zeta'(0) - 283/108, and limit 2/9 at s=1 with
    slope c1 = 37/108 - 7 gamma / 9.
    """
    if s <= -1:
        raise DomainError("mellin_H1_closed requires s > -1")
    if _near(s, 0.0):
        zp = zeta_prime_zero().value
        c1 = _ZETA_PP_0 - (41.0 / 9.0) * zp - 283.0 / 108.0
        val = 2.0 * zp + 41.0 / 18.0 + c1 * s
        return SpecialValue(value=val, abs_error=4.0 * s * s + 1e-13)
    if _near(s, 1.0):
        e = s - 1.0
        c1 = 37.0 / 108.0 - 7.0 * _EULER_GAMMA / 9.0
        val = 2.0 / 9.0 + c1 * e
        return SpecialValue(value=val, abs_error=4.0 * e * e + 1e-13)
    sv = zeta_real(s)
    rational = 4.0 * (s - 1.0) * (5.0 * s + 9.0) / (
        3.0 * s * (s + 1.0) * (s + 2.0) * (s + 3.0)
    )
    val = 1.0 / s - rational * sv.value
    err = abs(rational) * sv.abs_error + 8.0 * _ULP * (abs(val) + abs(1.0 / s))
    return SpecialValue(value=val, abs_error=err)


@dataclass(frozen=True)
class EnvelopeParams:
    """Certified envelope constants of an external (unpublished) weight."""

    sup_norm: float
    l1_mellin2: float
    K: float
    sum_c: float
    max_r: float

    def __post_init__(self):
        for f in (self.sup_norm, self.l1_mellin2, self.K, self.sum_c, self.max_r):
            if f < 0:
                raise InvalidArgumentError("envelope parameters must be nonnegative")


# Published envelope of the Cohen–Dress–El Marraki coefficient weight.
# K is printed inconsistently in the sources (100822 vs 100882); the larger
# value is used.
H2_ENVELOPE = EnvelopeParams(
    sup_norm=22527.5,
    l1_mellin2=(math.pi**2 / 6.0) / 4345.0,
    K=100882.0,
    sum_c=6.0,
    max_r=5.0e13,
)


def h2_integral_bound(delta: float) -> float:
    """Certified bound on integral_1^inf |H2(t)| t^{-2+delta} dt.

    Value (1/(1-delta)) * ((6/pi^2 * 4345 * 22527.5)/delta)^delta * (pi^2/6)/4345,
    tending to (pi^2/6)/4345 ~ 3.7858e-4 as delta -> 0+.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("h2_integral_bound requires 0 < delta < 1")
    sup, l1 = H2_ENVELOPE.sup_norm, H2_ENVELOPE.l1_mellin2
    b = (sup / (l1 * delta)) ** delta
    return l1 * b / (1.0 - delta)
