"""Residual evaluation of the integral identities tying the summatory
step functions to the weight lattice sums G1 and H1, with the closed-form
boundary integrals of the densities g1 and h1 that they read.

Each identity is exact, so its residual lhs - rhs is numeric error alone,
and `_residual` decides it against a rigorous budget: PASS iff |residual|
<= budget.  With u = 2^-53, k and hw the kernel integral and half-width of
`quad.identity_kernel_integral`, r the radius `tables.evaluate` returns at
x, rad_m m's certified radius at floor(x) (nondecreasing, so it bounds
every m(n) the kernel reads) and E the row's weight envelope
(`weights.H1_ENVELOPE` for the m-kernel, `G1_ENVELOPE` otherwise), the
budget is the float sum, rounded up one ulp, of:

- hw, the rounding of the kernel's panel sum for the float coefficients
  it read (`quad._panel_sum`).
- E rad_m for the m- and m1-kernel rows: each float m(n) is within rad_m,
  and integral_1^x |H1(t)| t^-2 dt <= E integral_1^inf t^-3 dt = E/2
  (G1(t)/t alike).  M is exact, so the M-kernel rows add nothing here.
- 16u E for the rounded jumps: a jump x/k enters at fl(x/k), and a panel
  reads n at its rounded midpoint, so n is wrong only within 6u x/k of
  x/k, where the integrand is off by its jump times the weight: (1/x) E
  k^2/x^2 for the M-kernel and (1/k) E k^3/x^3 for the m-kernel, so at
  most 12u E k/x^2 per k and 6u E (x + 1)/x <= 12u E in all.  m1(y) is
  continuous at the jumps, and G1 and H1 at the integers (g1(1) = h1(1) =
  0), so a sliver that reads its neighbour's n (m1-kernel) or N adds
  O(u^2).
- rad_m for m(floor(x)) in the left side's m1, and r more for mchliss's
  mcheck, within r; no other row reads ell.
- 16u S with S = |lhs| + |rhs| + |k| + |M/x| + |m1| + |mcheck - 1| + 11/x,
  for the roundings, each within u of its result (x**3 and x**4, the C
  library's pow, within 2u on the libm premise of the `mobsum`
  docstring): M/x and the one or two subtractions of the left side (u
  each on |M/x|, |m1|, |mcheck - 1| and |lhs|); the closed-form boundary
  terms, each term of which is at most its value at x = 1 over x, so the
  sums of |terms| of g1_boundary_over_y, g1_head_integral and
  h1_head_integral are at most 8/x, 3/x^2 and 7/x, and at most 7
  roundings reach a term (7u 11/x); the one or two additions of the right
  side (2u(|k| + |rhs| + 8/x)); and the final subtraction (u(|lhs| +
  |rhs|)).  No part of S takes more than 9u.

Each count is rounded up from its first-order value, and the slack (16
against at most 9 and 12, E against E/2, hw's 32 against 28) covers the
higher-order terms and the float evaluation of each term; fsum then
rounds the sum once to nearest, and one ulp up makes it an upper bound.
The residual functions' ``tol`` is accepted and not read: the verdict has
no free tolerance, and the keyword stays for the callers that still pass
it (perfbench/workloads.py).

The four identities share one body, `_residual` over `_IDENTITIES`, so the
kernel is called (and can be timed) in one place; bal2, the balanced form
of thm1-G, takes its row and reports its numbers under its own name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quad import _U
from .quad import identity_kernel_integral  # called as a module global: wrappable
from .tables import Tables, evaluate
from .weights import G1_ENVELOPE, H1_ENVELOPE


@dataclass(frozen=True)
class IdentityReport:
    name: str
    x: float
    lhs: float
    rhs: float
    residual: float
    budget: float
    passed: bool


def g1_boundary_over_y(x: float) -> float:
    """(1/x) * integral_{1/x}^1 g1(y)/y dy = (8/3 - 4/x + 4/(3x^3))/x."""
    return (8.0 / 3.0 - 4.0 / x + 4.0 / (3.0 * x**3)) / x


def g1_head_integral(x: float) -> float:
    """integral_0^{1/x} g1 = 2/x^2 - 1/x^4."""
    return 2.0 / (x * x) - 1.0 / x**4


def h1_head_integral(x: float) -> float:
    """integral_0^{1/x} h1 = (2/3)(4/x^2 - 3/x - 2/x^4 + 1/x^3)."""
    return (2.0 / 3.0) * (4.0 / (x * x) - 3.0 / x - 2.0 / x**4 + 1.0 / x**3)


# name -> (kernel form of `identity_kernel_integral`, the left side from the
# point values at x, whether it reads mcheck, the right side from the kernel
# integral k).  bal2's boundary 8/(3x) - (4/x^2)(1 - 1/(3x^2)) is
# g1_boundary_over_y(x), so it shares the row of thm1-G.
_THM1_G = ("M-kernel", lambda pt: pt.m1, False, lambda k, x: k + g1_boundary_over_y(x))
_IDENTITIES = {
    "thm1-G": _THM1_G,
    "thm1-H": ("m-kernel", lambda pt: pt.m1, False, lambda k, x: k - h1_head_integral(x)),
    "bal2": _THM1_G,
    "mchliss": ("m1-kernel", lambda pt: (pt.m_check - 1.0) - pt.m1, True,
                lambda k, x: k - g1_boundary_over_y(x) - g1_head_integral(x)),
}


def _residual(name: str, tables: Tables, x: float) -> IdentityReport:
    form, lhs_of, reads_mcheck, rhs_of = _IDENTITIES[name]
    pt = evaluate(tables, x)  # raises for x < 1
    lhs = lhs_of(pt)
    k, hw = identity_kernel_integral(tables, x, form)  # (0, 0) at x = 1
    rhs = rhs_of(k, x)
    res = lhs - rhs
    env = H1_ENVELOPE if form == "m-kernel" else G1_ENVELOPE
    rad_m = tables.prefix("m").radius(math.floor(x))
    S = (abs(lhs) + abs(rhs) + abs(k) + abs(pt.M_over_x) + abs(pt.m1)
         + abs(pt.m_check - 1.0) + 11.0 / x)
    budget = math.nextafter(math.fsum((
        hw, env * ((0.0 if form == "M-kernel" else rad_m) + 16 * _U),
        rad_m + (pt.error_radius if reads_mcheck else 0.0), 16 * _U * S)), math.inf)
    return IdentityReport(name=name, x=x, lhs=lhs, rhs=rhs, residual=res,
                          budget=budget, passed=abs(res) <= budget)


def residual_thm1_G(tables: Tables, x: float, tol=None) -> IdentityReport:
    """m1(x) = integral_1^x (M(x/t)/(x/t)) G1(t) dt/t + (1/x) integral_{1/x}^1 g1(y)/y dy."""
    return _residual("thm1-G", tables, x)


def residual_thm1_H(tables: Tables, x: float, tol=None) -> IdentityReport:
    """m1(x) = integral_1^x m(x/t) H1(t) dt/t^2 - integral_0^{1/x} h1(y) dy."""
    return _residual("thm1-H", tables, x)


def residual_bal2(tables: Tables, x: float, tol=None) -> IdentityReport:
    """m1(x) = (1/x) integral_1^x M(x/t) G1(t) dt + 8/(3x) - (4/x^2)(1 - 1/(3x^2)),
    the balanced second form of thm1-G: the same kernel and boundary."""
    return _residual("bal2", tables, x)


def residual_mchliss(tables: Tables, x: float, tol=None) -> IdentityReport:
    """(mcheck(x) - 1) - m1(x)
       = integral_1^x m1(x/t) G1(t) dt/t - (1/x) integral_{1/x}^1 g1/y
         - integral_0^{1/x} g1."""
    return _residual("mchliss", tables, x)
