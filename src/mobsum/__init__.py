"""Certified numerics for the Möbius summatory functions M, m, m1 and
mcheck: sieving with exact prefix tables, closed-form Mellin constants,
exhaustive inequality verification, and bound-conversion chains.

Every public name resolves on first access (PEP 562), so importing one
module, e.g. ``mobsum.cli``, does not import numpy, mpmath or the rest.
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
