"""Residual evaluation of the integral identities tying the summatory
step functions to the weight lattice sums g1 and h1.

Each identity is exact; the residual measures only numeric error (sieve
prefix sums are exact or radius-certified, the kernel integrals of
`quad.identity_kernel_integral` are exact per-panel antiderivatives added
with math.fsum, and the boundary integrals are closed forms), so small
residuals are a strong cross-module consistency oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError
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


def _report(name, x, lhs, rhs, tol) -> IdentityReport:
    res = lhs - rhs
    return IdentityReport(
        name=name, x=x, lhs=lhs, rhs=rhs, residual=res,
        tolerance=tol, passed=abs(res) <= tol,
    )


def g1_boundary_over_y(x: float) -> float:
    """(1/x) * integral_{1/x}^1 g1(y)/y dy = (8/3 - 4/x + 4/(3x^3))/x."""
    return (8.0 / 3.0 - 4.0 / x + 4.0 / (3.0 * x**3)) / x


def g1_head_integral(x: float) -> float:
    """integral_0^{1/x} g1 = 2/x^2 - 1/x^4."""
    return 2.0 / (x * x) - 1.0 / x**4


def h1_head_integral(x: float) -> float:
    """integral_0^{1/x} h1 = (2/3)(4/x^2 - 3/x - 2/x^4 + 1/x^3)."""
    return (2.0 / 3.0) * (4.0 / (x * x) - 3.0 / x - 2.0 / x**4 + 1.0 / x**3)


def residual_thm1_G(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = integral_1^x (M(x/t)/(x/t)) G1(t) dt/t + (1/x) integral_{1/x}^1 g1(y)/y dy."""
    if x < 1.0:
        raise InvalidArgumentError("x must be >= 1")
    lhs = evaluate(tables, x).m1
    if x == 1.0:
        return _report("thm1-G", x, lhs, 0.0, tol)
    kern = identity_kernel_integral(tables, x, "M-kernel")
    return _report("thm1-G", x, lhs, kern + g1_boundary_over_y(x), tol)


def residual_thm1_H(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = integral_1^x m(x/t) H1(t) dt/t^2 - integral_0^{1/x} h1(y) dy."""
    if x < 1.0:
        raise InvalidArgumentError("x must be >= 1")
    lhs = evaluate(tables, x).m1
    if x == 1.0:
        return _report("thm1-H", x, lhs, 0.0, tol)
    kern = identity_kernel_integral(tables, x, "m-kernel")
    return _report("thm1-H", x, lhs, kern - h1_head_integral(x), tol)


def residual_bal2(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """m1(x) = (1/x) integral_1^x M(x/t) G1(t) dt + 8/(3x) - (4/x^2)(1 - 1/(3x^2)).

    The integral is the M kernel of `residual_thm1_G`; the boundary terms
    are the closed form of the balanced second form.
    """
    if x < 1.0:
        raise InvalidArgumentError("x must be >= 1")
    lhs = evaluate(tables, x).m1
    if x == 1.0:
        rhs = 8.0 / 3.0 - 4.0 * (1.0 - 1.0 / 3.0)
        return _report("bal2", x, lhs, rhs, tol)
    integral = identity_kernel_integral(tables, x, "M-kernel")
    rhs = integral + 8.0 / (3.0 * x) - (4.0 / (x * x)) * (1.0 - 1.0 / (3.0 * x * x))
    return _report("bal2", x, lhs, rhs, tol)


def residual_mchliss(tables: Tables, x: float, tol: float = _DEFAULT_TOL) -> IdentityReport:
    """(mcheck(x) - 1) - m1(x)
       = integral_1^x m1(x/t) G1(t) dt/t - (1/x) integral_{1/x}^1 g1/y
         - integral_0^{1/x} g1."""
    if x < 1.0:
        raise InvalidArgumentError("x must be >= 1")
    pt = evaluate(tables, x)
    lhs = (pt.m_check - 1.0) - pt.m1
    if x == 1.0:
        return _report("mchliss", x, lhs, -1.0, tol)  # the head is g1's unit mass
    kern = identity_kernel_integral(tables, x, "m1-kernel")
    rhs = kern - g1_boundary_over_y(x) - g1_head_integral(x)
    return _report("mchliss", x, lhs, rhs, tol)


def residual_h1_remainder(x: float) -> float:
    """F(x) = -x * integral_0^{1/x} h1 = 2 - 8/(3x) - 2/(3x^2) + 4/(3x^3).

    F is nonnegative, increasing, and tends to 2; also
    |integral_0^{1/x} h1| = F(x)/x <= 2/x.
    """
    if x < 1.0:
        raise InvalidArgumentError("x must be >= 1")
    return 2.0 - 8.0 / (3.0 * x) - 2.0 / (3.0 * x * x) + 4.0 / (3.0 * x**3)
