"""Certified numerics for the Möbius summatory functions M, m, m1 and
mcheck: sieving with exact prefix tables, closed-form Mellin constants,
exhaustive inequality verification, and bound-conversion chains."""

from .bounds import (
    BoundForm,
    Ledger,
    SqrtModel,
    bootstrap,
    convert_via_G1,
    convert_via_G1check,
    convert_via_H1,
    convert_via_H_envelope,
    descend_to,
    load_ledger,
    log_comparison_lowering,
    majorant_descent,
    parse_plan,
    serialize_ledger,
    sqrt_model_from_form,
    sqrt_range_lowering,
    theorem_d_arithmetic,
    triangle_m,
)
from .chains import ChainResult, ChainStep, base_ledger, run_chain
from .errors import (
    DomainError,
    InvalidArgumentError,
    MobsumError,
    NoDescentError,
    PlanError,
    RangeError,
    ResourceError,
)
from .identities import (
    IdentityReport,
    residual_bal2,
    residual_mchliss,
    residual_thm1_G,
    residual_thm1_H,
)
from .quad import MellinBracket, mellin_numeric
from .special import (
    SpecialValue,
    euler_gamma,
    h2_integral_bound,
    mellin_G1_closed,
    mellin_G1check_closed,
    mellin_H1_closed,
    zeta_prime_zero,
    zeta_real,
)
from .tables import (
    MuTable,
    PrefixSeries,
    SeriesPair,
    Tables,
    build_tables,
    evaluate,
    load_table,
    save_table,
    sieve_mu,
)
from .verify import (
    PREDICATES,
    Predicate,
    RatioReport,
    VerificationReport,
    ratio_theorem_C,
    ratio_violation_below,
    sup_scan,
    verify_range,
)
from .weights import (
    G1_SPEC,
    H1_SPEC,
    H2_ENVELOPE,
    EnvelopeParams,
    WeightSpec,
    epsilon1,
    eval_G,
    eval_H,
    g1,
    h1,
)

__version__ = "0.1.0"
