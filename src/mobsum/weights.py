"""Weight densities and their lattice sums.

The two shipped analytic densities are
    g1(y) = 4 y (1 - y^2)        with  integral over [0,1] equal to 1,
    h1(y) = (2/3)(1 - y^2)(8y - 3) with integral 0.

For a density g the lattice sum is G(t) = 1 - (1/t) sum_{n<=t} g(n/t);
for a density h it is H(t) = 1 - sum_{n<=t} h(n/t).  For the polynomial
densities these sums reduce exactly to power sums of N = floor(t), i.e.
to polynomials in 1/t on [N, N+1) (`lattice_power_coeffs`, the one source
of the coefficients that the exact panel integrals of `mobsum.quad` read).
The two weights are G1_SPEC and H1_SPEC, and a spec's name fixes its
kind.  `eval_G`/`eval_H` evaluate G1/H1 only, by the same polynomials
rewritten in the fractional part of t, where no terms cancel, in extended
precision; the direct sum `_lattice_direct` is the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, InvalidArgumentError, ResourceError

_SUM_GUARD = 10**7  # max number of lattice terms per call


def g1(y: float) -> float:
    """Density 4 y (1 - y^2) on [0, 1]; unit integral."""
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"g1 requires y in [0,1]; got {y}")
    return 4.0 * y * (1.0 - y * y)


def h1(y: float) -> float:
    """Density (2/3)(1 - y^2)(8y - 3) on [0, 1]; zero integral."""
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"h1 requires y in [0,1]; got {y}")
    return (2.0 / 3.0) * (1.0 - y * y) * (8.0 * y - 3.0)


@dataclass(frozen=True)
class WeightSpec:
    """A named analytic weight density; the name fixes its lattice sum."""

    name: str  # "g1" | "h1"
    density: Callable[[float], float]


G1_SPEC = WeightSpec("g1", g1)
H1_SPEC = WeightSpec("h1", h1)


def lattice_power_coeffs(name: str, N):
    """Pairs (j, c_j) with lattice sum = sum_j c_j t^-j on [N, N+1).

    With S_k = sum_{n<=N} n^k and S3 = S1^2,
        G1(t) = 1 - 4 S1/t^2 + 4 S3/t^4,
        H1(t) = (1 + 2N) - (16/3) S1/t - 2 S2/t^2 + (16/3) S3/t^3.
    N may be a scalar or an array and the arithmetic runs in its type: in
    float64, S1 is exact for N < 9.4e7 and every c_j is within two
    roundings of exact.
    """
    S1 = N * (N + 1) / 2
    S3 = S1 * S1
    if name == "g1":
        return [(0, 1), (2, -4 * S1), (4, 4 * S3)]
    if name == "h1":
        S2 = N * (N + 1) * (2 * N + 1) / 6
        return [(0, 1 + 2 * N), (1, -16 * S1 / 3), (2, -2 * S2), (3, 16 * S3 / 3)]
    raise InvalidArgumentError(f"no power-sum form for weight {name!r}")


def _lattice_closed(spec: WeightSpec, name: str, t: float) -> float:
    """G1 or H1 at t in extended precision, written in f = t - N (exact in
    binary64) and g = f (1 - f) so that no terms cancel:

        G1(t) = ((1 - 2f)/t - g/t^2)^2,
        H1(t) = (1 - (10/3) g)/t + (7/3) g (2f - 1)/t^2 + (4/3) g^2/t^3.

    These are the power-sum forms of `lattice_power_coeffs` with N = t - f;
    the leading term of H1 is the Euler-Maclaurin approximation.  spec
    must be the weight called ``name``, and t >= 1.
    """
    if spec.name != name:
        raise InvalidArgumentError(f"the {name} lattice sum needs {name}, not {spec.name!r}")
    if t < 1.0:
        raise DomainError(f"the {name} lattice sum requires t >= 1")
    tl = np.longdouble(t)
    f = tl - np.floor(tl)
    g = f * (1 - f)
    u = 1 / tl
    if name == "g1":
        r = ((1 - 2 * f) - g * u) * u
        return float(r * r)
    third = 1 / np.longdouble(3)
    return float(u * ((1 - 10 * third * g)
                      + u * (7 * third * g * (2 * f - 1) + u * (4 * third * g * g))))


def _lattice_direct(spec: WeightSpec, t: float) -> float:
    """G(t) or H(t) of spec by the direct lattice sum, in long double."""
    N = math.floor(t)
    if N > _SUM_GUARD:
        raise ResourceError(f"lattice sum over {N} terms exceeds guard {_SUM_GUARD}")
    s = np.sum(np.asarray([spec.density(n / t) for n in range(1, N + 1)],
                          dtype=np.longdouble))
    if spec.name == "g1":
        s = s / np.longdouble(t)
    return float(np.longdouble(1.0) - s)


def eval_G(spec: WeightSpec, t: float) -> float:
    """G1(t) = 1 - (1/t) sum_{n<=t} g1(n/t); spec must be G1_SPEC."""
    return _lattice_closed(spec, "g1", t)


def eval_H(spec: WeightSpec, t: float) -> float:
    """H1(t) = 1 - sum_{n<=t} h1(n/t); spec must be H1_SPEC."""
    return _lattice_closed(spec, "h1", t)


def epsilon1(t: float) -> float:
    """Closed form of the antiderivative of G1 from 1:

    1/3 - 1/(3t) + (4/3)({t}^3 - (3/2){t}^2 + {t}/2)/t^2
               - (1/3)({t}^4 - 2{t}^3 + {t}^2)/t^3.
    """
    if t < 1.0:
        raise DomainError("epsilon1 requires t >= 1")
    f = t - math.floor(t)
    a = f * f * f - 1.5 * f * f + 0.5 * f
    b = f * f * f * f - 2.0 * f * f * f + f * f
    return 1.0 / 3.0 - 1.0 / (3.0 * t) + (4.0 / 3.0) * a / (t * t) - b / (3.0 * t**3)


def em_H1_envelope(t: float) -> Tuple[float, float]:
    """Euler–Maclaurin approximation of H1(t) with certified error.

    approx = [(10/3)({t}^2 - {t}) + 1]/t,  err = 1.56/(6 t^2).
    """
    if t < 1.0:
        raise DomainError("em_H1_envelope requires t >= 1")
    f = t - math.floor(t)
    approx = ((10.0 / 3.0) * (f * f - f) + 1.0) / t
    return approx, 1.56 / (6.0 * t * t)
