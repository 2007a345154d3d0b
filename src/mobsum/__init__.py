"""Certified numerics for the Möbius summatory functions M, m, m1 and
mcheck: sieving with exact prefix tables, closed-form Mellin constants,
exhaustive inequality verification, and bound-conversion chains.

Every public name resolves on first access (PEP 562), so importing one
module, e.g. ``mobsum.cli``, does not import numpy, mpmath or the rest.

The libm premise.  Three rounding budgets take numpy's log, log1p, expm1
and power and Python's math.log to be within 1 ulp of the exact value,
which this code does not check: the 3u representation error of an ell
term (`tables._ELL_REP`, u = 2^-53), the k = 64 of a chunk envelope's
slack (`verify._ENV_SLACK`) and the k = 32 of a quadrature panel sum
(`quad._K_ROUND`).  Against mpmath at 40 digits, on 2e5 random points
each, the largest errors were: log 0.53 ulp and math.log 0.51 ulp on
[1, 2^31] (log-uniform, half of the points integers), log1p 0.60 ulp on
[2^-30, 1], expm1 0.51 ulp on [-30, 2 log 2], and power 0.68 ulp for
bases in [1, 2^31] and exponents in (-1, 0) or integers in [-8, 2].  That
is one host, a 2-core AVX-512 Intel Xeon (x86-64) with numpy 2.4 on
Python 3.11; numpy picks its SIMD log at run time by CPU feature, so
another host may differ.
"""

import importlib

_EXPORTS = {
    "bounds": (
        "BoundForm", "Ledger", "SqrtModel", "bootstrap", "convert_via_G1",
        "convert_via_G1check", "convert_via_H1", "convert_via_H_envelope",
        "descend_to", "load_ledger", "log_comparison_lowering", "majorant_descent",
        "parse_plan", "serialize_ledger", "sqrt_model_from_form",
        "sqrt_range_lowering", "triangle_m",
    ),
    "chains": ("ChainResult", "ChainStep", "base_ledger", "run_chain"),
    "errors": (
        "DomainError", "InvalidArgumentError", "MobsumError", "NoDescentError",
        "PlanError", "RangeError", "ResourceError",
    ),
    "identities": (
        "IdentityReport", "residual_bal2", "residual_mchliss", "residual_thm1_G",
        "residual_thm1_H",
    ),
    "quad": ("MellinBracket", "mellin_numeric"),
    "special": (
        "EnvelopeParams", "H2_ENVELOPE", "SpecialValue", "h2_integral_bound",
        "mellin_G1_closed", "mellin_G1check_closed", "mellin_H1_closed",
        "zeta_prime_zero", "zeta_real",
    ),
    "tables": (
        "MuTable", "PrefixSeries", "SeriesPair", "Tables", "build_tables",
        "evaluate", "load_table", "save_table", "sieve_mu",
    ),
    "verify": (
        "PREDICATES", "Predicate", "RatioReport", "VerificationReport",
        "ratio_theorem_C", "ratio_violation_below", "sup_scan", "verify_range",
    ),
    "weights": ("G1_SPEC", "H1_SPEC", "WeightSpec"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
