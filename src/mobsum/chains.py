"""Replay of the published bootstrap chains.

Five chains, listed in CHAINS in dependency order, derive the record bounds
from the axiom ledger:

    models : the sqrt-scale models the others use for range lowering
    const  : |m(x)| <= 1/4343                 (x >= 2 160 605)
    log    : log x |m(x)| <= 0.0130073        (x >= 97 063)
    log2   : log^2 x |m1(x)| <= 0.138 (x >= 671) and log^2 x |m(x)| <= 362.84
    mcheck : |mcheck(x)-1| <= 1/9780919 (x >= 2.5e12), 8.55e-6/log x,
             0.162/log^2 x (x >= 3)

A chain's prerequisites are the chains before it.  Every step records two
floats, the honestly computed value and the bound it must not exceed (a
printed constant, a rank cap, or the reach of a comparison), and holds
exactly when computed <= printed (`ChainStep.ok`), with no slack.  Steps
whose published constants contain known misprints compute the honest value
and note the discrepancy; the final constants are unaffected.  Every
capped descent goes through `ChainResult._descend`, whose step is the
log-rank the descent finds against its cap.  Every rank move goes through
`ChainResult.set_rank`, which compares ranks by the one exact rank rule,
`bounds.rank_at_most`; a low rank that the arithmetic cannot reach rests on
direct verification, and set_rank records it as an obligation for the
exhaustive scanner.  Every sqrt model is read from its ledger entry, and
every model frozen from a theta = 1/2 form goes through
`ChainResult._freeze`, which records its value and adds the entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from .bounds import (
    BoundForm,
    Ledger,
    SqrtModel,
    abs_M_prefix_integral_bound,
    abs_m_prefix_integral_bound,
    comparison_reach,
    convert_via_G1,
    convert_via_G1check,
    convert_via_H1,
    convert_via_H_envelope,
    descend_to,
    join_sqrt_models,
    log_abs_m_prefix_integral_bound,
    log_comparison_lowering,
    majorant_descent,
    rank_at_most,
    sqrt_form,
    sqrt_model_from_form,
    sqrt_range_lowering,
    triangle_m,
)
from .errors import PlanError
from .special import H2_ENVELOPE

# limsup |M(x)|/sqrt(x) > 1.837625 (Hurst), the input of the limsup transfer;
# only tests read it until the transfer is replayed (ROADMAP item 8)
LIMSUP_M_OVER_SQRT = 1.837625


@dataclass(frozen=True)
class ChainStep:
    name: str
    computed: float
    printed: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.computed <= self.printed


@dataclass
class ChainResult:
    name: str
    steps: List[ChainStep] = field(default_factory=list)
    obligations: List[Tuple[str, str, float, float]] = field(default_factory=list)
    finals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)

    def step(self, name: str) -> ChainStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def _rec(self, name, computed, printed, note=""):
        self.steps.append(ChainStep(name, computed, printed, note))

    def _oblige(self, description, pred, lo, hi):
        self.obligations.append((description, pred, float(lo), float(hi)))

    def set_rank(self, form: BoundForm, T: float, note: str, lower: bool = False,
                 verified: Optional[Tuple[str, str, float]] = None) -> BoundForm:
        """``form`` valid for x >= T, the move noted in its provenance.

        By default the rank is rounded outward (raised) to a printed value,
        which needs no evidence.  With ``lower`` it drops, and ``note`` names
        the evidence: a comparison, or direct verification, whose obligation
        ``verified`` = (description, predicate, hi) on [T, hi) is recorded
        here, so such a rank cannot be set without it.
        """
        if lower == rank_at_most(form.log_T, math.log(T)):
            raise PlanError(f"rank {T:g} does not {'lower' if lower else 'raise'} "
                            f"the rank log x = {form.log_T:.6g}")
        if not lower:
            note = f"rank rounded outward to {T:g} ({note})"
        if verified is not None:
            self._oblige(verified[0], verified[1], T, verified[2])
        return replace(form, log_T=math.log(T), provenance=form.provenance + (note,))

    def _freeze(self, led: Ledger, name: str, form: BoundForm, c: float, x_lo: float,
                x_hi: float, note: str = "") -> SqrtModel:
        """Freeze the theta = 1/2 ``form`` into the sqrt model ``name``, c on
        [x_lo, x_hi]; record its value at x_lo as step "<chain>:<c>", then
        add the model to the ledger."""
        model = sqrt_model_from_form(form, c, x_lo, x_hi)
        self._rec(f"{self.name}:{c:g}", form.evaluate(x_lo) * math.sqrt(x_lo), c, note=note)
        led.add_derived(name, model)
        return model

    def _triangle(self, name: str, m1: BoundForm, M: BoundForm, A: float) -> BoundForm:
        """|m| <= |m1| + |M/x| descended to A; record step ``name``: the sum
        of the two leading constants against A."""
        tri = triangle_m(m1, M)
        self._rec(name, tri.A, A)
        return descend_to(tri, A)

    def _descend(self, name: str, form: BoundForm, A: float, log_cap: float,
                 note: str = "") -> BoundForm:
        """Descend ``form`` to A with its rank rounded outward to the cap
        exp(log_cap); record step ``name``: the log-rank the descent finds
        against log_cap.  A failing step keeps the entry at the found rank,
        never below it."""
        found = majorant_descent(form, A)
        self._rec(name, found, log_cap, note=note)
        return descend_to(form, A, log_rank_cap=max(found, log_cap))

    def _compare(self, name: str, form: BoundForm, other: BoundForm, note: str) -> BoundForm:
        """Lower ``form`` by comparison with ``other``; record step ``name``:
        the form's log-rank against the log x the comparison reaches."""
        self._rec(name, form.log_T, comparison_reach(form, other), note=note)
        return log_comparison_lowering(form, other)


# the pieces of integral |m| past 1e16: the sqrt models of m, then |m| <= 1/4343
_M_PIECES = ("m-sqrt-0.5", "m-sqrt-0.701", "m-4343")


def base_ledger() -> Ledger:
    """Axioms: published results used as inputs, never recomputed."""
    led = Ledger()
    led.add_axiom("M-4345",
                  BoundForm("M-over-x", 1.0 / 4345.0, log_T=math.log(2160535.0)),
                  source="|M(x)| <= x/4345 for x >= 2 160 535 (Cohen-Dress-El Marraki)")
    led.add_axiom("M-log-0.013",
                  BoundForm("M-over-x", 0.013, j=1.0, log_T=math.log(97067.0)),
                  source="|M(x)| <= 0.013 x/log x for x >= 97 067 (Ramare)")
    led.add_axiom("M-log2-362.7",
                  BoundForm("M-over-x", 362.7, j=2.0, log_T=0.0),
                  source="|M(x)| <= 362.7 x/log^2 x for x > 1 (El Marraki)")
    led.add_axiom("M-sqrt-0.5", SqrtModel("M-over-x", 0.5, 201.0, 7.7e9),
                  source="|M(x)| <= 0.5 sqrt(x) on [201, 7.7e9] (Hurst)")
    led.add_axiom("M-sqrt-0.571", SqrtModel("M-over-x", 0.571, 33.0, 1e16),
                  source="|M(x)| <= 0.571 sqrt(x) on [33, 1e16] (Hurst)")
    led.add_axiom("M-sqrt-1", SqrtModel("M-over-x", 1.0, 1.0, 1e16),
                  source="|M(x)| <= sqrt(x) on [1, 1e16] (Hurst)")
    led.add_axiom("m-sqrt-0.5", SqrtModel("m", 0.5, 3.0, 7.7e9),
                  source="x|m(x)| <= 0.5 sqrt(x) on [3, 7.7e9] (Helfgott)")
    led.add_axiom("m-meissel", BoundForm("m", 1.0, log_T=0.0),
                  source="|m(x)| <= 1 for all x >= 1 (Meissel)")
    return led


# ---------------------------------------------------------------------------
# sqrt-scale models (recycled throughout the other chains)

def run_models_chain(led: Ledger) -> ChainResult:
    res = ChainResult("models")

    # |m1| <= 0.114/sqrt(x) on [5e6, 7.7e9]: 0.5-sqrt M model through the
    # g-weight conversion at theta = 1/2, T = 201, integral_1^201 |M| = 461.
    M05 = led["M-sqrt-0.5"]
    pauvre = convert_via_G1(sqrt_form(led, "M-sqrt-0.5"), M05.x_lo,
                            abs_M_prefix_integral_bound(M05.x_lo, M05))
    res._rec("models:0.114-head", pauvre.A, 0.112652)
    led.add_derived("m1-three-term", pauvre)  # 0.1127/sqrt(x)+(8/3)/x+461/x^2 on [201, 7.7e9]
    m114 = res._freeze(led, "m1-sqrt-0.114", pauvre, 0.114, 5e6, M05.x_hi)

    # |m1| <= 0.129/sqrt(x) on [7.7e9, 1e16]: same with 0.571 model, T = 33.
    M0571 = led["M-sqrt-0.571"]
    f129 = convert_via_G1(sqrt_form(led, "M-sqrt-0.571"), M0571.x_lo,
                          abs_M_prefix_integral_bound(M0571.x_lo, M0571))
    res._rec("models:0.129-head", f129.A, 0.12865)
    m129 = res._freeze(led, "m1-sqrt-0.129", f129, 0.129, M05.x_hi, M0571.x_hi)
    # merged m1 model 0.129 on [5e6, 1e16] (0.114 <= 0.129 below 7.7e9)
    led.add_derived("m1-sqrt-0.129-wide",
                    join_sqrt_models(led, "m1-sqrt-0.114", "m1-sqrt-0.129"))

    # x|m(x)| <= 0.701 sqrt(x) on [7.7e9, 1e16]: triangle 0.571 + 0.129.
    tri = triangle_m(sqrt_form(led, "m1-sqrt-0.129"), sqrt_form(led, "M-sqrt-0.571"))
    res._rec("models:0.701", tri.A, 0.701)
    led.add_derived("m-sqrt-0.701", SqrtModel("m", 0.701, m129.x_lo, m129.x_hi,
                                              provenance=tri.provenance))
    # and 0.701 covers [3, 1e16] since 0.5 <= 0.701 on [3, 7.7e9]
    led.add_derived("m-sqrt-0.701-wide",
                    join_sqrt_models(led, "m-sqrt-0.5", "m-sqrt-0.701"))

    # |m1| <= 5.792/sqrt(x) on [1e16, 1e21]: envelope conversion at
    # theta = 1/2, T = 3, delta = 1 - theta = 1/2; remainder (22527.5*1.5+6)/x.
    hyp701 = sqrt_form(led, "m-sqrt-0.701-wide")
    f5792 = convert_via_H_envelope(hyp701, hyp701.log_T,
                                   math.log(abs_m_prefix_integral_bound(3.0, ())))
    res._rec("models:5.792-head", f5792.A, 5.791)
    # the hypothesis reaches only u <= 1e16; sup runs over u < x/K, so the
    # model is sound up to x = 1e21 because 1e21/K <= 1e16
    res._rec("models:5.792-K-coverage", 1e21 / H2_ENVELOPE.K, 1e16)
    m5792 = res._freeze(led, "m1-sqrt-5.792", f5792, 5.792, 1e16, 1e21)

    res.finals = {"m1-sqrt-0.114": m114, "m1-sqrt-0.129": m129,
                  "m1-sqrt-5.792": m5792}
    return res


# ---------------------------------------------------------------------------
# constant chain: |m| <= 1/4343

def run_const_chain(led: Ledger) -> ChainResult:
    res = ChainResult("const")
    M4345 = led["M-4345"]

    # step 1: g-weight conversion at T = 2 160 535 with the trivial
    # |M(t)| <= t integral bound; A' = (3/4 - gamma)/4345
    f1 = convert_via_G1(M4345, 2160535.0, abs_M_prefix_integral_bound(2160535.0))
    res._rec("const:A-(3/4-gamma)/4345", f1.A, 0.1727844 / 4345.0)
    m1_25146 = res._descend("const:descent-1/25146", f1, 1.0 / 25146.0, math.log(1e16))
    led.add_derived("m1-25146", m1_25146)

    # step 2: triangle and sqrt-model lowering to 3.5e6
    m3704 = res._triangle("const:triangle-3704", m1_25146, M4345, 1.0 / 3704.0)
    m3704 = sqrt_range_lowering(m3704, led["m-sqrt-0.701"])
    m3704 = sqrt_range_lowering(m3704, led["m-sqrt-0.5"])
    res._rec("const:threshold-(0.5*3704)^2", (0.5 * 3704.0) ** 2, 3.5e6,
             note="printed with a 3074 transposition; honest value asserted")
    led.add_derived("m-3704", m3704)

    # step 3: envelope conversion at T = 4.8e6, delta = 0
    m_int = abs_m_prefix_integral_bound(4.8e6, [led["m-sqrt-0.5"]])
    R = H2_ENVELOPE.sup_norm * m_int + H2_ENVELOPE.sum_c
    res._rec("const:envelope-remainder", R, 4.94e7)
    f2 = convert_via_H_envelope(m3704, math.log(4.8e6), math.log(m_int))
    res._rec("const:A-envelope-1", f2.A, 1.231557948e-7,
             note="printed constant carries a 3704->3074 transposition; the "
                  "honest (pi^2/6)/4345/3704 is smaller, so the descent holds")
    m1_8119793 = res._descend("const:descent-1/8119793", f2, 1.0 / 8119793.0, math.log(1e21))
    m1_8119793 = sqrt_range_lowering(m1_8119793, led["m1-sqrt-5.792"])
    m1_8119793 = sqrt_range_lowering(m1_8119793, led["m1-sqrt-0.129"])
    res._rec("const:threshold-(0.129*8119793)^2", (0.129 * 8119793.0) ** 2, 1.1e12)
    m1_8119793 = res.set_rank(m1_8119793, 1.1e12, "printed rank")
    led.add_derived("m1-8119793", m1_8119793)

    # step 4: triangle to 1/4342.67, lower to 4.8e6
    wide = ("the paper's threshold for the 0.701 model from x = 3 (m-sqrt-0.701-wide); "
            "m-sqrt-0.701 stops at 7.7e9")
    m434267 = res._triangle("const:triangle-4342.67", m1_8119793, M4345, 1.0 / 4342.67)
    m434267 = sqrt_range_lowering(m434267, led["m-sqrt-0.701"])
    res._rec("const:threshold-(0.701*4342.67)^2", (0.701 * 4342.67) ** 2, 1e7, note=wide)
    m434267 = sqrt_range_lowering(m434267, led["m-sqrt-0.5"])
    res._rec("const:threshold-(0.5*4342.67)^2", (0.5 * 4342.67) ** 2, 4.8e6)
    led.add_derived("m-4342.67", m434267)

    # step 5: iterate the envelope conversion
    f3 = convert_via_H_envelope(m434267, math.log(4.8e6), math.log(m_int))
    res._rec("const:A-envelope-2", f3.A, 1.0 / 11470909.0)
    m1_11470909 = res._descend("const:descent-1/11470909", f3, 1.0 / 11470909.0, math.log(1e21))
    m1_11470909 = sqrt_range_lowering(m1_11470909, led["m1-sqrt-5.792"])
    m1_11470909 = sqrt_range_lowering(m1_11470909, led["m1-sqrt-0.129"])
    res._rec("const:threshold-(0.129*11470909)^2", (0.129 * 11470909.0) ** 2, 2.2e12)
    m1_11470909 = res.set_rank(m1_11470909, 2.2e12, "printed rank")
    led.add_derived("m1-11470909", m1_11470909)

    # step 6: final triangle to 1/4343, lower to 5e6
    m4343 = res._triangle("const:triangle-4343", m1_11470909, M4345, 1.0 / 4343.0)
    m4343 = sqrt_range_lowering(m4343, led["m-sqrt-0.701"])
    res._rec("const:threshold-(0.701*4343)^2", (0.701 * 4343.0) ** 2, 1e7, note=wide)
    m4343 = sqrt_range_lowering(m4343, led["m-sqrt-0.5"])
    res._rec("const:threshold-(0.5*4343)^2", (0.5 * 4343.0) ** 2, 4.72e6)
    m4343 = res.set_rank(m4343, 5e6, "printed rank before direct verification")
    m4343 = res.set_rank(
        m4343, 2160605.0, "rank 2 160 605 subject to direct verification on [2 160 605, 5e6)",
        lower=True, verified=("4343|m(x)| <= 1 on [2 160 605, 5e6)", "m4343", 5e6))
    led.add_derived("m-4343", m4343)
    res.finals = {"m-4343": m4343}
    return res


# ---------------------------------------------------------------------------
# 1/log chain: log x |m(x)| <= 0.0130073

def run_log_chain(led: Ledger) -> ChainResult:
    res = ChainResult("log")
    M013 = led["M-log-0.013"]

    # step 1: g-weight conversion at T = 1e13 (|M| <= sqrt t integral)
    f1 = convert_via_G1(M013, 1e13, abs_M_prefix_integral_bound(1e13, led["M-sqrt-1"]))
    res._rec("log:factor-0.17537", f1.A / M013.A, 0.17542,
             note="printed as 0.1755x and 0.1725x in two places; honest "
                  "factor at s = 1 - 1/log 1e13 used")
    res._rec("log:A-0.0023", f1.A, 0.0023)
    m1_0023 = res._descend("log:descent-0.0023", f1, 0.0023, math.log(1e16))
    m1_0023 = sqrt_range_lowering(m1_0023, led["m1-sqrt-0.129"])
    m1_0023 = sqrt_range_lowering(m1_0023, led["m1-sqrt-0.114"])
    m1_0023 = res.set_rank(m1_0023, 5e6, "printed rank")
    led.add_derived("m1-log-0.0023", m1_0023)

    # step 2: triangle |m| <= (0.013 + 0.0023)/log u
    mlog1 = res._triangle("log:m-0.0153", m1_0023, M013, 0.0153)
    led.add_derived("m-log-0.0153", mlog1)

    # step 3: envelope conversion at T = 8.2e25, delta = 1/log T;
    # integral of |m| uses sqrt models to 1e16 then 1/4343
    T3 = 8.2e25
    m_int = abs_m_prefix_integral_bound(T3, [led[n] for n in _M_PIECES])
    R = H2_ENVELOPE.sup_norm * m_int + H2_ENVELOPE.sum_c
    res._rec("log:envelope-remainder", R, 4.254e26,
             note="remainder line printed with 22727.5; the envelope "
                  "sup-norm is 22527.5, which matches 4.254e26")
    f2 = convert_via_H_envelope(mlog1, math.log(T3), math.log(m_int))
    res._rec("log:factor-1/1796.57", f2.A / mlog1.A, 1.0 / 1796.57,
             note="delta = 1/log 8.2e25")
    res._rec("log:A-8.517e-6", f2.A, 8.517e-6)
    m1_l1 = res._descend("log:descent-8.517e-6", f2, 8.517e-6, math.log(2.5e42))
    m1_l1 = res._compare("log:compare-2.6e42", m1_l1, led["m1-11470909"],
                         "printed reach 2.6e42 = exp(97.66)")
    led.add_derived("m1-log-8.517e-6", m1_l1)

    # step 4: iterate with |m| <= (0.013 + 8.517e-6)/log u
    mlog2 = descend_to(triangle_m(m1_l1, M013), 0.013 + 8.517e-6)
    f3 = convert_via_H_envelope(mlog2, math.log(T3), math.log(m_int))
    res._rec("log:A-7.265e-6", f3.A, 7.265e-6)
    m1_l2 = res._descend("log:descent-7.265e-6", f3, 7.265e-6, math.log(1.5e36))
    m1_l2 = res._compare("log:compare-1.55e36", m1_l2, led["m1-11470909"],
                         "printed reach 1.55e36 = exp(83.33)")
    m1_l2 = sqrt_range_lowering(m1_l2, led["m1-sqrt-0.129"])
    m1_l2 = res.set_rank(m1_l2, 2.15e11, "printed rank")
    led.add_derived("m1-log-7.265e-6", m1_l2)

    # step 5: final triangle 0.013 + 7.265e-6 <= 0.0130073, lower to 230000
    final = res._triangle("log:triangle-0.0130073", m1_l2, M013, 0.0130073)
    final = sqrt_range_lowering(final, led["m-sqrt-0.701"])
    final = sqrt_range_lowering(final, led["m-sqrt-0.5"])
    res._rec("log:threshold-230000", math.exp(final.log_T), 230000.0)
    final = res.set_rank(final, 230000.0, "printed rank before direct verification")
    final = res.set_rank(
        final, 97063.0, "rank 97 063 subject to direct verification on [97 063, 230 000)",
        lower=True, verified=("log x |m(x)| <= 0.0130073 on [97 063, 230 000)",
                              "mlog0.0130073", 230000))
    led.add_derived("m-log-0.0130073", final)
    res.finals = {"m-log-0.0130073": final}
    return res


# ---------------------------------------------------------------------------
# 1/log^2 chain: log^2 x |m1(x)| <= 0.138 (x >= 671), log^2 x |m(x)| <= 362.84

def run_log2_chain(led: Ledger) -> ChainResult:
    res = ChainResult("log2")
    M3627 = led["M-log2-362.7"]

    # step 1: g-weight conversion at T = 1e16
    f1 = convert_via_G1(M3627, 1e16, abs_M_prefix_integral_bound(1e16, led["M-sqrt-1"]))
    res._rec("log2:factor-0.177112", f1.A / M3627.A, 0.177112)
    res._rec("log2:A-64.24", f1.A, 64.24)
    m1_6424 = res._descend("log2:descent-64.24", f1, 64.24, math.log(1e16))
    led.add_derived("m1-log2-64.24", m1_6424)

    # step 2: triangle to 426.94/log^2
    mlog2a = res._triangle("log2:m-426.94", m1_6424, M3627, 426.94)
    led.add_derived("m-log2-426.94", mlog2a)

    # step 3: envelope conversion at T = exp(18900), delta = 2/18900
    logT = 18900.0
    m_int_log = log_abs_m_prefix_integral_bound(logT, [led[n] for n in _M_PIECES])
    R_log = float(math.log(H2_ENVELOPE.sup_norm) + m_int_log)
    res._rec("log2:envelope-remainder-log", R_log, math.log(3000.0) + logT,
             note="printed remainder 3000 exp(18900); log-scale comparison")
    f2 = convert_via_H_envelope(mlog2a, logT, m_int_log)
    res._rec("log2:factor-1/2633.6", f2.A / mlog2a.A, 1.0 / 2633.6)
    res._rec("log2:A-0.1622", f2.A, 0.1622)
    m1_1622 = res._descend("log2:descent-0.1622", f2, 0.1622, 22000.0)
    m1_1622 = res._compare("log2:compare-e22335", m1_1622, led["m1-log-7.265e-6"],
                           "printed reach exp(22335)")
    led.add_derived("m1-log2-0.1622", m1_1622)

    # step 4: iterate with |m| <= (362.7 + 0.1622)/log^2 u
    mlog2b = descend_to(triangle_m(m1_1622, M3627), 362.7 + 0.1622)
    f3 = convert_via_H_envelope(mlog2b, logT, m_int_log)
    res._rec("log2:A-0.1378", f3.A, 0.1378)
    m1_1378 = res._descend("log2:descent-0.1378", f3, 0.1378, 18960.0)
    m1_1378 = res._compare("log2:compare-e18967", m1_1378, led["m1-log-7.265e-6"],
                           "printed reach exp(18967)")
    m1_1378 = sqrt_range_lowering(m1_1378, led["m1-sqrt-0.129"])

    # step 5: lower to 7000 against the raw three-term sqrt majorant
    pauvre = led["m1-three-term"]
    rank = majorant_descent(pauvre, 0.1378, target_j=2.0, target_theta=1.0)
    res._rec("log2:three-term-rank", math.exp(rank), 7000.0)
    m1_1378 = res.set_rank(m1_1378, 7000.0, "three-term sqrt majorant comparison to 7000",
                           lower=True)
    led.add_derived("m1-log2-0.1378", m1_1378)

    # step 6: direct verification closes [671, 7000); printed bound 0.138
    final_m1 = res.set_rank(
        replace(m1_1378, A=0.138), 671.0,
        "outward rounding 0.1378 -> 0.138; rank 671 subject to direct verification "
        "on [671, 7000)", lower=True,
        verified=("log^2 x |m1(x)| <= 0.138 on [671, 7000)", "m1log2-0.138", 7000))
    res._rec("log2:final-m1-0.138", m1_1378.A, final_m1.A)
    led.add_derived("m1-log2-0.138", final_m1)
    res._oblige("sup of log^2 x m1(x) on [1, 671] equals (29/105) log^2 7 "
                "= 1.0458 <= 1.046 at x = 7", "m1log2-sup671", 1, 671)

    # step 7: |m| via triangle; below 671 the Meissel bound gives
    # |m| log^2 x <= log^2 671 = 42.4 <= 362.84, so the bound holds for x > 1
    tri = res._triangle("log2:m-362.84", final_m1, M3627, 362.84)
    res._rec("log2:m-low-range", math.log(671.0) ** 2, 362.84,
             note="|m| <= 1 below 671 makes the bound trivial there")
    final_m = res.set_rank(tri, 1.0, "extended to x > 1 via |m| <= 1 and log^2 671 < 362.84",
                           lower=True)
    led.add_derived("m-log2-362.84", final_m)
    res.finals = {"m1-log2-0.138": final_m1, "m-log2-362.84": final_m}
    return res


# ---------------------------------------------------------------------------
# mcheck chain: bounds on |mcheck(x) - 1|

def run_mcheck_chain(led: Ledger) -> ChainResult:
    res = ChainResult("mcheck")

    # 0.16/sqrt(x) model: G1check conversion of the 0.129 m1 model at
    # T = 5e6 with integral_1^T |M| <= 4.26e9 (0.571 sqrt model)
    i_M = abs_M_prefix_integral_bound(5e6, led["M-sqrt-0.571"])
    res._rec("mcheck:intM-5e6", i_M, 4.26e9)
    f016 = convert_via_G1check(sqrt_form(led, "m1-sqrt-0.129-wide"), 5e6, M_integral=i_M)
    res._rec("mcheck:0.16-head", f016.A, 0.129 * 1.2254)
    led.add_derived("mcheck-three-term", f016)
    # honest certification from 3.1e8 (printed 1e9); hypothesis reaches 1e16
    res._freeze(led, "mcheck-sqrt-0.16", f016, 0.16, 3.1e8, 1e16,
               note="printed rank 1e9; honestly certified from 3.1e8")

    # 7.1/sqrt(x) model on [1e16, 1e21]: global sup sqrt(u)|m1(u)| <= 5.792
    # (below 5e6 via the analytic h-weight at theta = 1/2, T = 1:
    #  sqrt(x)|m1| <= 0.294 * sup sqrt(t)|m(t)| + 2/sqrt(x) <= 2.42 <= 3)
    sup_sqrt_m = math.sqrt(2.0)  # sup sqrt(t)|m(t)| on [1, 3) at t -> 2-
    res._rec("mcheck:sup-sqrt-m-low", sup_sqrt_m, 1.415)
    hyp_m_sqrt = BoundForm("m", 1.415, theta=0.5, log_T=0.0,
                           provenance=("max(sqrt 2 on [1,3), 0.5, 0.701)",))
    f3 = convert_via_H1(hyp_m_sqrt)
    res._rec("mcheck:3-model", f3.evaluate(1.0 + 1e-12) * 1.0, 3.0,
             note="sqrt(x)|m1(x)| <= 0.416 + 2/sqrt(x) <= 2.42 <= 3 everywhere")
    hyp5792 = BoundForm("m1", 5.792, theta=0.5, log_T=0.0,
                        provenance=("max(3-model to 1e16, m1-sqrt-5.792)",))
    f71 = convert_via_G1check(hyp5792, 1.0, abs_M_prefix_integral_bound(1.0, led["M-sqrt-1"]))
    res._rec("mcheck:7.1-head", f71.A, 7.098)
    res._freeze(led, "mcheck-sqrt-7.1", f71, 7.1, 1e16, 1e21)

    # constant bound 1/9780919: G1check at T = 2.2e12, factor 7/4 - gamma
    i_M2 = abs_M_prefix_integral_bound(2.2e12, led["M-sqrt-0.571"])
    res._rec("mcheck:intM-2.2e12", i_M2, 1.25e18)
    fc = convert_via_G1check(led["m1-11470909"], 2.2e12, M_integral=i_M2)
    res._rec("mcheck:A-const", fc.A, 1.0 / 9780919.0)
    # printed descent rank 1e16; the honest margin needs ~1.9e16, bridged by
    # the 7.1 model (threshold (7.1*9780919)^2 = 4.8e15 < 1e16)
    c9780919 = res._descend("mcheck:const-honest-rank", fc, 1.0 / 9780919.0, math.log(1e17),
                            note="printed rank 1e16; honest margin 3.7e-15 needs ~1.9e16, "
                                 "bridged by the 7.1 sqrt model")
    c9780919 = sqrt_range_lowering(c9780919, led["mcheck-sqrt-7.1"])
    res._rec("mcheck:threshold-(7.1*9780919)^2", (7.1 * 9780919.0) ** 2, 1e16)
    c9780919 = sqrt_range_lowering(c9780919, led["mcheck-sqrt-0.16"])
    res._rec("mcheck:threshold-(0.16*9780919)^2", (0.16 * 9780919.0) ** 2, 2.5e12)
    c9780919 = res.set_rank(c9780919, 2.5e12, "printed rank")
    led.add_derived("mcheck-9780919", c9780919)

    # 1/log bound 8.55e-6: G1check at T = 2.15e11 on the 7.265e-6 m1 bound
    i_M3 = abs_M_prefix_integral_bound(2.15e11, led["M-sqrt-0.571"])
    res._rec("mcheck:intM-2.15e11", i_M3, 3.8e16)
    fl = convert_via_G1check(led["m1-log-7.265e-6"], 2.15e11, M_integral=i_M3)
    res._rec("mcheck:factor-1.17582", fl.A / 7.265e-6, 1.17582)
    res._rec("mcheck:A-log", fl.A, 8.55e-6)
    clog = res._descend("mcheck:descent-8.55e-6", fl, 8.55e-6, math.log(1e16))
    clog = sqrt_range_lowering(clog, led["mcheck-sqrt-0.16"])
    res._rec("mcheck:log-rank", math.exp(clog.log_T), 2.5e11)
    clog = res.set_rank(clog, 2.5e11, "printed rank")
    led.add_derived("mcheck-log-8.55e-6", clog)

    # 1/log^2 bound 0.162: G1check at T = 1e100 (trivial integral 0.5e200)
    fq = convert_via_G1check(led["m1-log2-0.138"], 1e100, abs_M_prefix_integral_bound(1e100))
    res._rec("mcheck:factor-1.1735", fq.A / 0.138, 1.1735)
    res._rec("mcheck:A-log2", fq.A, 0.162)
    cl2 = res._descend("mcheck:log2-honest-rank", fq, 0.162, math.log(10.0) * 106,
                       note="printed descent rank exp(100) is inconsistent with the "
                            "0.5e200 remainder; honest rank ~2e104, covered below")
    cl2 = res._compare("mcheck:compare-e18947", cl2, led["mcheck-log-8.55e-6"],
                       "printed reach exp(18947)")
    cl2 = sqrt_range_lowering(cl2, led["mcheck-sqrt-0.16"])
    # final lowering against the mcheck three-term majorant (valid x >= 5e6),
    # then direct verification on [3, 1e7)
    rank = majorant_descent(led["mcheck-three-term"], 0.162, target_j=2.0,
                            target_theta=1.0)
    res._rec("mcheck:three-term-rank", math.exp(rank), 1e7)
    cl2 = res.set_rank(
        cl2, 3.0, "three-term majorant comparison to 1e7; rank 3 subject to direct "
        "verification on [3, 1e7)", lower=True,
        verified=("log^2 x |mcheck(x)-1| <= 0.162 on [3, 1e7)", "mchecklog2-0.162", 1e7))
    led.add_derived("mcheck-log2-0.162", cl2)

    res.finals = {"mcheck-9780919": c9780919, "mcheck-log-8.55e-6": clog,
                  "mcheck-log2-0.162": cl2}
    return res


# name -> (replay, headline entry), in dependency order: a chain's
# prerequisites are exactly the chains before it, and the presence of its
# headline entry in a ledger means it already ran there
CHAINS = {
    "models": (run_models_chain, "m1-sqrt-0.129"),
    "const": (run_const_chain, "m-4343"),
    "log": (run_log_chain, "m-log-0.0130073"),
    "log2": (run_log2_chain, "m1-log2-0.138"),
    "mcheck": (run_mcheck_chain, "mcheck-log2-0.162"),
}


def run_chain(name: str, ledger: Optional[Ledger] = None) -> ChainResult:
    """Run a named chain, deriving its prerequisites first."""
    if name not in CHAINS:
        raise PlanError(f"unknown chain {name!r}")
    led = ledger if ledger is not None else base_ledger()
    for pre, (replay, headline) in CHAINS.items():
        if pre == name:
            return replay(led)
        if headline not in led:
            replay(led)
