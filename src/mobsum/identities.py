"""Residual evaluation of the integral identities tying the summatory
step functions to the weight lattice sums G1 and H1, with the closed-form
boundary integrals of the densities g1 and h1 that they read.

Each identity is exact; the residual measures only numeric error (sieve
prefix sums are exact or radius-certified, the kernel integrals of
`quad.identity_kernel_integral` are exact per-panel antiderivatives added
exactly and rounded once (`quad._exact_sum`, the value `fsum`
returns), and the boundary integrals are closed forms), so small
residuals are a strong cross-module consistency oracle.

The four identities share one body, `_residual` over `_IDENTITIES`, so the
kernel is called (and can be timed) in one place; bal2, the balanced form
of thm1-G, takes its row and reports its numbers under its own name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quad import identity_kernel_integral  # called as a module global: wrappable
from .tables import Tables, evaluate

_DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class IdentityReport:
    name: str
    x: float
    lhs: float
    rhs: float
    residual: float
    tolerance: float
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
# point values at x, the right side from the kernel integral k).  bal2's
# boundary 8/(3x) - (4/x^2)(1 - 1/(3x^2)) is g1_boundary_over_y(x), so it
# shares the row of thm1-G.
_THM1_G = ("M-kernel", lambda pt: pt.m1, lambda k, x: k + g1_boundary_over_y(x))
_IDENTITIES = {
    "thm1-G": _THM1_G,
    "thm1-H": ("m-kernel", lambda pt: pt.m1, lambda k, x: k - h1_head_integral(x)),
    "bal2": _THM1_G,
    "mchliss": ("m1-kernel", lambda pt: (pt.m_check - 1.0) - pt.m1,
                lambda k, x: k - g1_boundary_over_y(x) - g1_head_integral(x)),
}


def _residual(name: str, tables: Tables, x: float, tol: float) -> IdentityReport:
    form, lhs_of, rhs_of = _IDENTITIES[name]
    lhs = lhs_of(evaluate(tables, x))  # raises for x < 1
    rhs = rhs_of(identity_kernel_integral(tables, x, form), x)  # kernel 0 at x = 1
    res = lhs - rhs
    return IdentityReport(name=name, x=x, lhs=lhs, rhs=rhs, residual=res,
                          tolerance=tol, passed=abs(res) <= tol)


def residual_thm1_G(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = integral_1^x (M(x/t)/(x/t)) G1(t) dt/t + (1/x) integral_{1/x}^1 g1(y)/y dy."""
    return _residual("thm1-G", tables, x, tol)


def residual_thm1_H(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = integral_1^x m(x/t) H1(t) dt/t^2 - integral_0^{1/x} h1(y) dy."""
    return _residual("thm1-H", tables, x, tol)


def residual_bal2(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = (1/x) integral_1^x M(x/t) G1(t) dt + 8/(3x) - (4/x^2)(1 - 1/(3x^2)),
    the balanced second form of thm1-G: the same kernel and boundary."""
    return _residual("bal2", tables, x, tol)


def residual_mchliss(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """(mcheck(x) - 1) - m1(x)
       = integral_1^x m1(x/t) G1(t) dt/t - (1/x) integral_{1/x}^1 g1/y
         - integral_0^{1/x} g1."""
    return _residual("mchliss", tables, x, tol)
