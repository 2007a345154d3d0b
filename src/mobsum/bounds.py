"""Bound ledger and conversion machinery.

A BoundForm is a certified majorant  A x^(theta-1)/log^j x + sum coef x^-power
of |target(x)| for x >= T.  Each operation has one body.  The conversions
M/x -> m1 and m1 -> mcheck - 1 (`convert_via_G1`, `convert_via_G1check`,
sharing `_convert_G1`) and m -> m1 multiply the leading constant by a Mellin
closed-form factor and add explicit remainder terms; `triangle_m` adds the
bounds on |M/x| and |m1|; majorant descent finds the rank from which the
majorant falls below a simpler target shape; range lowerings shrink validity
ranks against sqrt-models or previously derived bounds.  Descent and sqrt
lowering share one bisection; `run_plan_step` runs the same operations from
text plans.  Each sqrt model lives only in its ledger entry: the prefix
integrals, `sqrt_form` and `join_sqrt_models` read entries and refuse a T or
range outside them, for chains and plans alike (a plan never states a value).

Ranks and remainder coefficients can be astronomically large (exp(18900) and
beyond), so ranks are stored as log T and remainder coefficients as
log(coef); all comparisons run in L = log x space, and every sum of such
terms goes through the one scalar `_logsumexp` (plain `math`, no arrays).
"""

from __future__ import annotations

import math
import urllib.parse
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from .errors import DomainError, InvalidArgumentError, NoDescentError, PlanError
from .special import (
    H2_ENVELOPE,
    h2_integral_bound,
    mellin_G1_closed,
    mellin_G1check_closed,
    mellin_H1_closed,
)

TARGETS = ("M-over-x", "m", "m1", "mcheck-minus-1")

_L_CAP = 1e8  # majorant_descent gives up past log x = _L_CAP


def _logsumexp(terms) -> float:
    """log(sum exp(t) for t in terms), folded left from -inf: each step takes
    the larger term plus log1p(exp(smaller - larger)), or -inf when both are
    -inf.  These are the operations, in the same order, of the array routine
    logaddexp.reduce, which it reproduces bit for bit (-0.0 included)."""
    acc = -math.inf
    for t in terms:
        hi, lo = (acc, t) if acc >= t else (t, acc)
        acc = hi if hi == -math.inf else hi + math.log1p(math.exp(lo - hi))
    return acc


@dataclass(frozen=True)
class BoundForm:
    """Certified majorant of |target(x)| for x >= exp(log_T):

        A x^(theta-1)/log^j x + sum exp(log_coef) x^(-power).
    """

    target: str
    A: float
    theta: float = 1.0
    j: float = 0.0
    log_T: float = 0.0
    remainders: Tuple[Tuple[float, float], ...] = ()  # (log_coef, power)
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InvalidArgumentError(f"unknown target {self.target!r}")
        # a NaN fails every comparison, so no field can be NaN
        if not (self.A >= 0 and self.j >= 0 and self.log_T >= 0 and abs(self.theta) < math.inf):
            raise InvalidArgumentError("BoundForm requires A >= 0, j >= 0, T >= 1, finite theta")
        for lc, p in self.remainders:
            if not (p > 0 and lc < math.inf):
                raise InvalidArgumentError("remainders need finite coefficients, positive powers")

    @property
    def T(self) -> float:
        try:
            return math.exp(self.log_T)
        except OverflowError:
            return math.inf

    def evaluate_log(self, L: float) -> float:
        """log of the majorant at L = log x."""
        terms = ([math.log(self.A) + (self.theta - 1.0) * L - self.j * math.log(L)]
                 if self.A > 0 else [])
        return _logsumexp(terms + [lc - p * L for lc, p in self.remainders])

    def evaluate(self, x: float) -> float:
        if x <= 1.0:
            raise DomainError("evaluate requires x > 1")
        return math.exp(self.evaluate_log(math.log(x)))


@dataclass(frozen=True)
class SqrtModel:
    """|target(x)| <= c/sqrt(x) for m-like targets, or |M(x)| <= c sqrt(x),
    certified on [x_lo, x_hi]."""

    target: str
    c: float
    x_lo: float
    x_hi: float
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.c > 0 and self.x_lo <= self.x_hi):
            raise InvalidArgumentError("SqrtModel requires c > 0 and x_lo <= x_hi")


def remainder(coef: float, power: float) -> Tuple[float, float]:
    """Encode a remainder term coef * x^-power in log-coefficient form."""
    if coef < 0:
        raise InvalidArgumentError("remainder coefficients must be nonnegative")
    return (math.log(coef) if coef > 0 else -math.inf, float(power))


# ---------------------------------------------------------------------------
# certified prefix-integral bounds used as conversion remainders

# x_lo -> exact integral_1^x_lo |M| = sum_{n < x_lo} |M(n)| for each |M| model;
# the models themselves are ledger entries
_ABS_M_HEADS = {1.0: 0.0, 33.0: 59.0, 201.0: 461.0}


def abs_M_prefix_integral_bound(T: float, model: Optional[SqrtModel] = None) -> float:
    """Certified upper bound on integral_1^T |M(t)| dt: T^2/2 (|M| <= t) with
    no model, else from a ledger model |M| <= c sqrt(t) on [x_lo, x_hi] that
    covers T: head + c (2/3)(T^1.5 - x_lo^1.5), the head exact up to x_lo."""
    if model is None:
        if not T >= 1.0:
            raise InvalidArgumentError(f"integral_1^T needs T >= 1, not {T:g}")
        return 0.5 * T * T
    if not (isinstance(model, SqrtModel) and model.target == "M-over-x"
            and model.x_lo in _ABS_M_HEADS):
        raise PlanError("integral |M| needs a model |M| <= c sqrt(x) with an exact head")
    if not model.x_lo <= T <= model.x_hi:
        raise InvalidArgumentError(f"|M| <= {model.c:g} sqrt(t) is certified only on "
                                   f"[{model.x_lo:g}, {model.x_hi:g}]")
    return _ABS_M_HEADS[model.x_lo] + model.c * (2.0 / 3.0) * (T**1.5 - model.x_lo**1.5)


def _abs_m_integral_parts(T: float, pieces):
    """(head, A, x): integral_1^T |m| <= head + A (T - x) if T > x, else head.
    pieces: models x|m| <= c sqrt(x) contiguous from 3 (integral_1^3 |m| =
    1.5), then optionally |m| <= A valid from x <= the last x_hi (A is None
    without one).  T = inf takes every model whole."""
    if not T >= 1.0:
        raise InvalidArgumentError(f"integral_1^T needs T >= 1, not {T:g}")
    head, A, x = min(T - 1.0, 1.5), None, 3.0
    for piece in pieces:
        if A is not None:
            raise PlanError("nothing may follow the closing bound |m| <= A")
        if isinstance(piece, SqrtModel) and piece.target == "m" and piece.x_lo == x:
            if T > x:
                head += 2.0 * piece.c * (math.sqrt(min(T, piece.x_hi)) - math.sqrt(x))
            x = piece.x_hi
        elif (isinstance(piece, BoundForm) and piece.target == "m" and piece.A > 0
              and piece.theta == 1.0 and piece.j == 0.0 and not piece.remainders
              and piece.log_T <= math.log(x)):
            A = piece.A
        else:
            raise PlanError(f"integral |m| needs a model x|m| <= c sqrt(x) from {x:g} "
                            f"or a bound |m| <= A from x <= {x:g} next")
    if T > x and A is None:
        raise InvalidArgumentError(f"the |m| models are certified only to {x:g}")
    return head, A, x


def abs_m_prefix_integral_bound(T: float, pieces) -> float:
    """Certified upper bound on integral_1^T |m(t)| dt from ledger pieces."""
    head, A, x = _abs_m_integral_parts(T, pieces)
    return head + A * (T - x) if T > x else head


def log_abs_m_prefix_integral_bound(log_T: float, pieces) -> float:
    """Its log at T = exp(log_T); past the float range (exp(18900)) the term
    A (T - x) is bounded by A T, taken as log A + log T."""
    try:
        T = math.exp(log_T)
    except OverflowError:
        head, A, _ = _abs_m_integral_parts(math.inf, pieces)
        return _logsumexp((math.log(head), math.log(A) + log_T))
    bound = abs_m_prefix_integral_bound(T, pieces)
    return math.log(bound) if bound > 0 else -math.inf


# ---------------------------------------------------------------------------
# conversions

def _check_hyp(name, hyp, target, log_T_cut):
    """A converter reads its hypothesis on [T_cut, inf): it must bound target there."""
    if hyp.target != target:
        raise PlanError(f"{name} needs an {target} hypothesis")
    if hyp.log_T > log_T_cut + 1e-9:
        raise PlanError("hypothesis rank exceeds T_cut: sup range not covered")


def _convert_G1(name, hyp, T_cut, M_integral, closed, hyp_target, target,
                T_cut_one_ok):
    """The g-weight conversion behind convert_via_G1 and convert_via_G1check."""
    if T_cut < 1.0 or (T_cut == 1.0 and (hyp.j > 0 or not T_cut_one_ok)):
        raise InvalidArgumentError(
            "T_cut must exceed 1" + (" (or equal 1 with j = 0)" if T_cut_one_ok else ""))
    log_T_cut = math.log(T_cut)
    _check_hyp(name, hyp, hyp_target, log_T_cut)
    s = hyp.theta - (hyp.j / log_T_cut if hyp.j > 0 else 0.0)
    if s <= -1.0:
        raise DomainError("shifted exponent s <= -1")
    factor = closed(s)
    return BoundForm(
        target=target,
        A=hyp.A * (factor.value + factor.abs_error),
        theta=hyp.theta,
        j=hyp.j,
        log_T=max(hyp.log_T, log_T_cut),
        remainders=(remainder(8.0 / 3.0, 1.0), remainder(M_integral, 2.0)),
        provenance=hyp.provenance + (
            f"{name}(T_cut={T_cut:g}, s={s:.12g}, factor={factor.value:.12g})",
        ),
    )


def convert_via_G1(hyp: BoundForm, T_cut: float, M_integral: float) -> BoundForm:
    """Convert a bound on |M(x)|/x into a bound on |m1(x)|.

    Factor: closed-form Mellin integral of G1 at s = theta - j/log T_cut.
    Remainders: (8/3)/x and M_integral/x^2, where M_integral bounds
    integral_1^{T_cut} |M|.
    """
    return _convert_G1("convert_via_G1", hyp, T_cut, M_integral, mellin_G1_closed,
                       "M-over-x", "m1", T_cut_one_ok=False)


def convert_via_G1check(hyp: BoundForm, T_cut: float, M_integral: float) -> BoundForm:
    """Convert a bound on |m1(x)| into a bound on |mcheck(x) - 1|.

    Factor: 1 + Mellin integral of G1 at s = theta - j/log T_cut.
    Remainders as in convert_via_G1; T_cut = 1 is allowed when j = 0.
    """
    return _convert_G1("convert_via_G1check", hyp, T_cut, M_integral,
                       mellin_G1check_closed, "m1", "mcheck-minus-1", T_cut_one_ok=True)


def convert_via_H_envelope(hyp: BoundForm, T_cut_log: float,
                           m_integral_log: float) -> BoundForm:
    """Convert a bound on |m(x)| into a bound on |m1(x)| through the
    published envelope H2_ENVELOPE of the coefficient weight.

    Factor: the delta-integral bound (or the exact t^-2 integral bound when
    delta = 0) at delta = (1 - theta) + j/log T_cut.  Remainder:
    (sup_norm * integral_1^{T_cut} |m| + sum_c)/x.  T_cut and the integral
    are passed in log form because the chains use ranks like exp(18900).
    """
    if T_cut_log <= 0.0:
        raise InvalidArgumentError("T_cut must exceed 1")
    _check_hyp("convert_via_H_envelope", hyp, "m", T_cut_log)
    delta = (1.0 - hyp.theta) + (hyp.j / T_cut_log if hyp.j > 0 else 0.0)
    if delta >= 1.0:
        raise DomainError("delta >= 1: envelope integral diverges")
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    env = H2_ENVELOPE
    factor = env.l1_mellin2 if delta == 0.0 else h2_integral_bound(delta)
    rem_log = _logsumexp((math.log(env.sup_norm) + m_integral_log, math.log(env.sum_c)))
    return BoundForm(
        target="m1",
        A=hyp.A * factor,
        theta=hyp.theta,
        j=hyp.j,
        log_T=max(hyp.log_T, T_cut_log, math.log(env.max_r)),
        remainders=((rem_log, 1.0),),
        provenance=hyp.provenance + (
            f"convert_via_H_envelope(logT_cut={T_cut_log:g}, delta={delta:.6g}, "
            f"factor={factor:.12g})",
        ),
    )


def convert_via_H1(hyp: BoundForm, T_cut: float = 1.0) -> BoundForm:
    """Convert a bound on |m(x)| into a bound on |m1(x)| via the analytic
    h-weight: factor is the H1 Mellin closed form at theta (unshifted, so
    j = 0 only); remainder 2/x + 2.1 (integral_1^T u|m(u)| du)/x^2, with
    the integral at most (T_cut^2 - 1)/2 by Meissel's |m| <= 1."""
    if T_cut < 1.0:
        raise InvalidArgumentError("T_cut must be at least 1")
    _check_hyp("convert_via_H1", hyp, "m", math.log(T_cut))
    if hyp.j > 0:
        raise PlanError("convert_via_H1 takes j = 0 only: its factor has no j/log T_cut shift")
    factor = mellin_H1_closed(hyp.theta)
    um_integral = 0.5 * (T_cut * T_cut - 1.0)
    rems = [remainder(2.0, 1.0)]
    if um_integral > 0:
        rems.append(remainder(2.1 * um_integral, 2.0))
    return BoundForm(
        target="m1",
        A=hyp.A * (factor.value + factor.abs_error),
        theta=hyp.theta,
        j=hyp.j,
        log_T=max(hyp.log_T, math.log(T_cut)),
        remainders=tuple(rems),
        provenance=hyp.provenance + (
            f"convert_via_H1(T_cut={T_cut:g}, factor={factor.value:.12g})",
        ),
    )


def triangle_m(hyp_m1: BoundForm, hyp_M: BoundForm) -> BoundForm:
    """|m| <= |M/x| + |m1|: add leading constants and merge remainders."""
    if hyp_m1.target != "m1" or hyp_M.target != "M-over-x":
        raise PlanError("triangle_m needs an m1 and an M-over-x hypothesis")
    if (hyp_m1.theta, hyp_m1.j) != (hyp_M.theta, hyp_M.j):
        raise PlanError("triangle_m requires matching bound shapes")
    return BoundForm(
        target="m",
        A=hyp_m1.A + hyp_M.A,
        theta=hyp_m1.theta,
        j=hyp_m1.j,
        log_T=max(hyp_m1.log_T, hyp_M.log_T),
        remainders=hyp_m1.remainders + hyp_M.remainders,
        provenance=hyp_m1.provenance + hyp_M.provenance + ("triangle_m",),
    )


# ---------------------------------------------------------------------------
# descent and range lowering

def _ratio_pieces(form: BoundForm, target_A, target_j, target_theta):
    """(c_i, b_i, q_i) of each term ratio  exp(c_i + b_i L + q_i log L)
    against the target shape."""
    log_tA = math.log(target_A)
    a_t = target_theta - 1.0
    pieces = []
    if form.A > 0:
        pieces.append((math.log(form.A) - log_tA, form.theta - 1.0 - a_t,
                       target_j - form.j))
    for lc, p in form.remainders:
        if lc > -math.inf:
            pieces.append((lc - log_tA, -p - a_t, target_j))
    return pieces


def _bisect(holds, lo: float, hi: float) -> float:
    """200 halvings of [lo, hi], where holds(lo) is true and holds(hi)
    false; returns the upper end, at which holds is still false."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def majorant_descent(form: BoundForm, target_A: float, target_j: Optional[float] = None,
                     target_theta: Optional[float] = None) -> float:
    """Smallest log-rank L0 >= log form.T such that the majorant stays below
    target_A x^(target_theta-1)/log^target_j x for all x >= exp(L0).

    Certification: every term ratio is monotone nonincreasing past its
    closed-form critical point, so past the largest of them (L_start) the
    sum crosses 1 at most once; a bisection locates that crossing.  When the
    sum is already <= 1 at L_start, L_start is the certified rank.
    """
    if not target_A > 0:
        raise InvalidArgumentError(f"descent target A must be positive, not {target_A:g}")
    if target_j is None:
        target_j = form.j
    if target_theta is None:
        target_theta = form.theta
    pieces = _ratio_pieces(form, target_A, target_j, target_theta)
    crit = 0.0
    for c, b, q in pieces:
        if b > 0 or (b == 0 and q > 0):
            raise NoDescentError("a majorant term eventually dominates the target")
        if b < 0 and q > 0:
            crit = max(crit, q / (-b))
    if _logsumexp(c for c, b, q in pieces if b == 0 and q == 0) > 0.0:
        raise NoDescentError("constant part of the majorant already exceeds the target")
    L_start = max(form.log_T, 1.0 + 1e-9, crit)

    def above(L):
        return _logsumexp(c + b * L + q * math.log(L) for c, b, q in pieces) > 0.0

    if not above(L_start):
        return L_start
    hi = L_start
    while above(hi):
        hi *= 2.0
        if hi > _L_CAP:
            raise NoDescentError(f"no descent below the target up to log x = {_L_CAP:g}")
    return _bisect(above, L_start, hi)


def descend_to(form: BoundForm, target_A: float, target_j: Optional[float] = None,
               log_rank_cap: Optional[float] = None) -> BoundForm:
    """Descend a majorant below a clean target shape of the same theta;
    returns the clean BoundForm at the certified rank (or at the supplied
    outward-rounded cap exp(log_rank_cap), checked against the certified
    rank)."""
    if target_j is None:
        target_j = form.j
    L0 = majorant_descent(form, target_A, target_j)
    if log_rank_cap is not None:
        if L0 > log_rank_cap + 1e-12:
            raise PlanError(
                f"descent rank log x = {L0:.6g} exceeds the stated cap {log_rank_cap:.6g}"
            )
        L0 = log_rank_cap
    return BoundForm(
        target=form.target,
        A=target_A,
        theta=form.theta,
        j=target_j,
        log_T=L0,
        provenance=form.provenance + (f"majorant_descent(A={target_A:.12g}, "
                                      f"j={target_j:g}, log_rank={L0:.6g})",),
    )


def sqrt_range_lowering(form: BoundForm, model: SqrtModel) -> BoundForm:
    """Lower the validity rank of a clean bound by a sqrt-model comparison.

    Certifies c/sqrt(x) <= A x^(theta-1)/log^j x on [T', form.T], where the
    model covers [T', form.T]; the new rank is max(threshold, model.x_lo).
    """
    if model.target != form.target:
        raise PlanError("sqrt model targets a different function")
    if form.remainders:
        raise PlanError("sqrt_range_lowering expects a clean (descended) form")
    if form.theta != 1.0:
        raise PlanError("sqrt_range_lowering supports theta = 1 forms")
    ratio = model.c / form.A
    if form.j == 0:
        threshold = ratio ** 2
    else:
        # solve sqrt(x)/log^j x >= c/A; lhs increasing for x >= e^(2j)
        def short(x):
            return math.sqrt(x) / math.log(x) ** form.j <= ratio

        threshold = lo = max(math.exp(2.0 * form.j), 4.0)
        if short(lo):
            hi = lo
            while short(hi):
                hi *= 4.0
            threshold = _bisect(short, lo, hi)
    new_T = max(threshold, model.x_lo)
    if math.log(model.x_hi) < form.log_T - 1e-9:
        raise PlanError("sqrt model does not reach the form's current rank")
    if math.log(new_T) > form.log_T + 1e-9:
        raise PlanError("sqrt model cannot lower the rank (threshold above it)")
    return replace(
        form,
        log_T=math.log(new_T),
        provenance=form.provenance + (
            f"sqrt_range_lowering(c={model.c:g}, new_T={new_T:.6g})",
        ),
    )


def log_comparison_lowering(form: BoundForm, other: BoundForm) -> BoundForm:
    """Lower the validity rank of a clean log-power bound by comparison with
    an already certified bound of lower log-power (same target, theta = 1):
    other.A/log^jo x <= form.A/log^jf x  iff  log x <= (form.A/other.A)^(1/(jf-jo)).
    """
    if other.target != form.target:
        raise PlanError("comparison bound targets a different function")
    if form.remainders or other.remainders:
        raise PlanError("log_comparison_lowering expects clean forms")
    if form.theta != 1.0 or other.theta != 1.0 or other.j >= form.j:
        raise PlanError("need theta = 1 and other.j < form.j")
    L_max = (form.A / other.A) ** (1.0 / (form.j - other.j))
    if L_max < form.log_T - 1e-9:
        raise PlanError("comparison range does not reach the form's current rank")
    if other.log_T > form.log_T + 1e-9:
        raise PlanError("comparison bound starts above the form's rank")
    return replace(
        form,
        log_T=other.log_T,
        provenance=form.provenance + (
            f"log_comparison_lowering(vs A={other.A:.8g}/log^{other.j:g}, "
            f"valid to log x = {L_max:.6g})",
        ),
    )


def sqrt_model_from_form(form: BoundForm, c: float, x_lo: float, x_hi: float) -> SqrtModel:
    """Freeze a theta = 1/2 majorant into |target| <= c/sqrt(x) on
    [x_lo, x_hi]: sqrt(x) * majorant is decreasing (every term has
    x-exponent <= 0 after the shift), so the value at x_lo certifies c."""
    if form.theta != 0.5 or form.j != 0:
        raise PlanError("sqrt_model_from_form needs a theta = 1/2, j = 0 form")
    for _, p in form.remainders:
        if 0.5 - p > 0:
            raise PlanError("a remainder term grows after multiplication by sqrt(x)")
    if math.log(x_lo) < form.log_T - 1e-9:
        raise PlanError("x_lo below the form's validity rank")
    val = math.exp(form.evaluate_log(math.log(x_lo)) + 0.5 * math.log(x_lo))
    if val > c:
        raise PlanError(f"sqrt-model constant {c:g} not certified: value {val:.6g} at x_lo")
    return SqrtModel(target=form.target, c=c, x_lo=x_lo, x_hi=x_hi,
                     provenance=form.provenance + (f"sqrt_model(c={c:g})",))


# ---------------------------------------------------------------------------
# ledger

@dataclass
class Ledger:
    """Named bound entries; every derived entry's provenance chain
    terminates in axioms."""

    axioms: dict = field(default_factory=dict)
    derived: dict = field(default_factory=dict)

    def add_axiom(self, name: str, entry, source: str = ""):
        if name in self:
            raise PlanError(f"duplicate ledger entry {name!r}")
        if source:
            entry = replace(entry, provenance=entry.provenance + (f"axiom:{source}",))
        self.axioms[name] = entry

    def add_derived(self, name: str, entry):
        if name in self:
            raise PlanError(f"duplicate ledger entry {name!r}")
        self.derived[name] = entry

    def __getitem__(self, name: str):
        if name not in self:
            raise PlanError(f"unknown ledger entry {name!r}")
        return self.axioms[name] if name in self.axioms else self.derived[name]

    def __contains__(self, name: str):
        return name in self.axioms or name in self.derived


def sqrt_form(ledger: Ledger, name: str) -> BoundForm:
    """The sqrt model `name` as a theta = 1/2 hypothesis from its x_lo (the
    caller keeps to x_hi); provenance "axiom:<name>" or "<name>"."""
    model = ledger[name]
    if not isinstance(model, SqrtModel):
        raise PlanError(f"ledger entry {name!r} is not a sqrt model")
    return BoundForm(model.target, model.c, theta=0.5, log_T=math.log(model.x_lo),
                     provenance=(f"axiom:{name}" if name in ledger.axioms else name,))


def join_sqrt_models(ledger: Ledger, low: str, high: str) -> SqrtModel:
    """One model with the larger c over two adjacent models of one target."""
    a, b = ledger[low], ledger[high]
    if not (isinstance(a, SqrtModel) and isinstance(b, SqrtModel)
            and a.target == b.target and a.x_hi == b.x_lo):
        raise PlanError(f"{low} and {high} are not adjacent sqrt models of one target")
    return SqrtModel(a.target, max(a.c, b.c), a.x_lo, b.x_hi,
                     provenance=(f"max({low}, {high})",))


# A record is one line of space-separated key=value fields: kind, name, type,
# then the entry's dataclass fields in order (log_T written logT).  Provenance
# notes are free text, percent-encoded to keep the line whole.
_TYPES = {"bound": BoundForm, "sqrt": SqrtModel}
_CODECS = {  # field -> (format, parse); every other field is a float repr
    "target": (str, str),
    "remainders": (lambda rems: ",".join(f"{lc!r}:{p!r}" for lc, p in rems),
                   lambda text: tuple((float(a), float(b)) for a, b in
                                      (pair.split(":") for pair in text.split(",") if pair))),
    "provenance": (lambda prov: "|".join(urllib.parse.quote(p, safe="") for p in prov),
                   lambda text: tuple(urllib.parse.unquote(p) for p in text.split("|") if p)),
}


def _fields(cls):
    return [(f.name, f.name.replace("log_T", "logT"), *_CODECS.get(f.name, (repr, float)))
            for f in fields(cls)]


def serialize_ledger(ledger: Ledger) -> str:
    records = [("axiom", name, ledger.axioms[name]) for name in sorted(ledger.axioms)]
    records += [("derived", *item) for item in ledger.derived.items()]  # derivation order
    lines = []
    for kind, name, entry in records:
        typ = "bound" if isinstance(entry, BoundForm) else "sqrt"
        lines.append(" ".join([f"kind={kind} name={name} type={typ}"] + [
            f"{key}={fmt(getattr(entry, attr))}" for attr, key, fmt, _ in _fields(type(entry))]))
    return "\n".join(lines) + "\n"


def load_ledger(text: str) -> Ledger:
    """Parse serialize_ledger's text; a malformed line is a PlanError naming it."""
    ledger = Ledger()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        pairs = [chunk.split("=", 1) for chunk in line.split() if "=" in chunk]
        keys, f = [key for key, _ in pairs], dict(pairs)
        try:
            repeated = [key for key in keys if keys.count(key) > 1]
            if repeated:
                raise PlanError(f"field {repeated[0]!r} repeated")
            add = {"axiom": ledger.add_axiom, "derived": ledger.add_derived}.get(f["kind"])
            cls = _TYPES.get(f["type"])
            if add is None or cls is None:
                raise PlanError(f"unknown kind {f['kind']!r}" if add is None
                                else f"unknown type {f['type']!r}")
            known = {"kind", "name", "type", *(key for _, key, _, _ in _fields(cls))}
            extra = [key for key in keys if key not in known]
            if extra:
                raise PlanError(f"type {f['type']} has no field {extra[0]!r}")
            add(f["name"], cls(**{attr: parse(f[key])
                                  for attr, key, _, parse in _fields(cls)}))
        except KeyError as exc:
            raise PlanError(f"ledger line {number}: missing field {exc}") from None
        except ValueError as exc:
            raise PlanError(f"ledger line {number}: {exc}") from None
    return ledger


# ---------------------------------------------------------------------------
# plan execution

def parse_plan(text: str):
    """Plan file: blank-line-separated blocks of "key: value" lines; a key
    may appear once per block."""
    steps = []
    block = {}
    for raw in text.splitlines() + [""]:
        line = raw.split("#", 1)[0].strip()
        if not line:
            if block:
                steps.append(block)
                block = {}
            continue
        if ":" not in line:
            raise PlanError(f"bad plan line {raw!r}")
        k, v = (part.strip() for part in line.split(":", 1))
        if k in block:
            raise PlanError(f"plan key {k!r} repeated in one step")
        block[k] = v
    return steps


def _num(step, key, default=None):
    text = step.get(key, default)
    if text is None:
        raise PlanError(f"plan step missing {key!r}")
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise PlanError(f"plan value {key}: {text!r} is not a finite number")


# the keys each plan step kind reads, besides "step" and "id"
_STEP_KEYS = {
    "convert_via_G1": ("hyp", "T_cut", "M_integral"),
    "convert_via_G1check": ("hyp", "T_cut", "M_integral"),
    "convert_via_H_envelope": ("hyp", "log_T_cut", "m_integral"),
    "convert_via_H1": ("hyp", "T_cut"),
    "triangle_m": ("hyp", "hyp2"),
    "descend": ("hyp", "A", "j", "rank_cap"),
    "sqrt_lower": ("hyp", "model"),
    "log_lower": ("hyp", "hyp2"),
}


def run_plan_step(ledger: Ledger, step: dict):
    kind = step.get("step")
    out = step.get("id")
    if not out:
        raise PlanError("plan step missing result id")
    if kind not in _STEP_KEYS:
        raise PlanError(f"unknown plan step kind {kind!r}")
    unread = sorted(set(step) - {"step", "id", *_STEP_KEYS[kind]})
    if unread:
        raise PlanError(f"plan step {kind} does not read {', '.join(unread)}")

    def entry(key):
        if key not in step:
            raise PlanError(f"plan step missing {key!r}")
        return ledger[step[key]]

    # prefix integrals are named by ledger entries: a stated number could
    # drop the x^-2 (or 1/x) remainder
    if kind in ("convert_via_G1", "convert_via_G1check"):
        convert = convert_via_G1 if kind == "convert_via_G1" else convert_via_G1check
        T_cut, name = _num(step, "T_cut"), step.get("M_integral")
        if name is None:
            raise PlanError("M_integral required in plan form: name trivial or a "
                            "ledger model |M| <= c sqrt(x)")
        res = convert(entry("hyp"), T_cut, abs_M_prefix_integral_bound(
            T_cut, None if name == "trivial" else ledger[name]))
    elif kind == "convert_via_H_envelope":
        log_T_cut, names = _num(step, "log_T_cut"), step.get("m_integral", "").split()
        if not names:
            raise PlanError("m_integral required in plan form: name the ledger models "
                            "x|m| <= c sqrt(x) from 3 on, then optionally |m| <= A")
        res = convert_via_H_envelope(entry("hyp"), log_T_cut, log_abs_m_prefix_integral_bound(
            log_T_cut, [ledger[n] for n in names]))
    elif kind == "convert_via_H1":
        res = convert_via_H1(entry("hyp"), _num(step, "T_cut", 1.0))
    elif kind == "triangle_m":
        res = triangle_m(entry("hyp"), entry("hyp2"))
    elif kind == "descend":
        cap = _num(step, "rank_cap") if "rank_cap" in step else None
        if cap is not None and cap <= 0:
            raise PlanError(f"plan value rank_cap: {step['rank_cap']!r} is not positive")
        res = descend_to(entry("hyp"), _num(step, "A"),
                         target_j=_num(step, "j") if "j" in step else None,
                         log_rank_cap=None if cap is None else math.log(cap))
    elif kind == "sqrt_lower":
        res = sqrt_range_lowering(entry("hyp"), entry("model"))
    else:
        res = log_comparison_lowering(entry("hyp"), entry("hyp2"))
    ledger.add_derived(out, res)
    return res


def bootstrap(ledger: Ledger, plan) -> Ledger:
    """Execute an ordered list of conversion steps against the ledger."""
    for step in plan:
        run_plan_step(ledger, step)
    return ledger
