"""The two weights and the power-sum form of their lattice sums.

The two shipped analytic densities are
    g1(y) = 4 y (1 - y^2)        with  integral over [0,1] equal to 1,
    h1(y) = (2/3)(1 - y^2)(8y - 3) with integral 0.

For a density g the lattice sum is G(t) = 1 - (1/t) sum_{n<=t} g(n/t);
for a density h it is H(t) = 1 - sum_{n<=t} h(n/t).  For the polynomial
densities these sums reduce exactly to power sums of N = floor(t), i.e.
to polynomials in 1/t on [N, N+1) (`lattice_power_coeffs`, the one source
of the coefficients that the exact panel integrals of `mobsum.quad` read).
The two weights are G1_SPEC and H1_SPEC, and a spec's name fixes its
lattice sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class WeightSpec:
    """A named analytic weight density; the name fixes its lattice sum."""

    name: str  # "g1" | "h1"


G1_SPEC = WeightSpec("g1")
H1_SPEC = WeightSpec("h1")


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
