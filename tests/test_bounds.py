import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import abs_mertens_prefix_integral
from mobsum.bounds import (
    _ABS_M_HEADS,
    BoundForm,
    Ledger,
    SqrtModel,
    _logsumexp,
    abs_M_prefix_integral_bound,
    abs_m_prefix_integral_bound,
    bootstrap,
    convert_via_G1,
    convert_via_G1check,
    convert_via_H1,
    convert_via_H_envelope,
    descend_to,
    join_sqrt_models,
    load_ledger,
    log_abs_m_prefix_integral_bound,
    log_comparison_lowering,
    majorant_descent,
    parse_plan,
    remainder,
    run_plan_step,
    serialize_ledger,
    sqrt_form,
    sqrt_model_from_form,
    sqrt_range_lowering,
    triangle_m,
)
from mobsum.chains import LIMSUP_M_OVER_SQRT, base_ledger, run_chain
from mobsum.errors import InvalidArgumentError, NoDescentError, PlanError
from mobsum.special import (
    H2_ENVELOPE,
    h2_integral_bound,
    mellin_G1_closed,
    mellin_G1check_closed,
    mellin_H1_closed,
)

EULER_GAMMA = 0.5772156649015328606


def m4345():
    return BoundForm("M-over-x", 1.0 / 4345.0, log_T=math.log(2160535.0))


def test_boundform_evaluate():
    f = BoundForm("m", 2.0, remainders=(remainder(10.0, 1.0),), log_T=math.log(5.0))
    assert f.evaluate(100.0) == pytest.approx(2.0 + 0.1, rel=1e-13)
    g = BoundForm("m", 3.0, theta=0.5, j=2.0, log_T=math.log(5.0))
    x = 50.0
    assert g.evaluate(x) == pytest.approx(3.0 * x ** (-0.5) / math.log(x) ** 2, rel=1e-13)


def test_boundform_validation():
    with pytest.raises(InvalidArgumentError):
        BoundForm("nonsense", 1.0)
    with pytest.raises(InvalidArgumentError):
        BoundForm("m", -1.0)
    with pytest.raises(InvalidArgumentError):
        BoundForm("m", 1.0, remainders=((0.0, -1.0),))


def test_sqrt_model_validation():
    with pytest.raises(InvalidArgumentError):
        SqrtModel("m", 0.0, 1.0, 2.0)
    with pytest.raises(InvalidArgumentError):
        SqrtModel("m", 1.0, 5.0, 2.0)


def test_convert_via_G1_reproduces_frozen_oracle():
    # |M|/x <= 1/4345 (x >= 2160535) -> m1 bound at T_cut = 4.8e6
    res = convert_via_G1(m4345(), 4.8e6, M_integral=49350059.0)
    assert res.target == "m1"
    # A' = (3/4 - gamma)/4345 (s = 1, factor rounded outward)
    expected = (0.75 - EULER_GAMMA) / 4345.0
    assert res.A == pytest.approx(expected, rel=1e-9)
    assert res.A >= expected  # outward rounding by the certified factor error
    # remainders: (8/3) x^-1 and M-integral x^-2
    assert res.remainders[0] == pytest.approx((math.log(8.0 / 3.0), 1.0))
    assert res.remainders[1][0] == pytest.approx(math.log(49350059.0))
    assert math.exp(res.log_T) == pytest.approx(4.8e6, rel=1e-12)


def test_convert_via_G1_guards():
    with pytest.raises(PlanError):
        convert_via_G1(BoundForm("m", 1.0), 100.0, M_integral=1.0)
    with pytest.raises(InvalidArgumentError):
        convert_via_G1(m4345(), 0.5, M_integral=1.0)
    with pytest.raises(PlanError):
        # T_cut below the hypothesis rank: sup range not covered
        convert_via_G1(m4345(), 1000.0, M_integral=1.0)


def test_convert_via_G1check_factor():
    hyp = BoundForm("m1", 1e-3, log_T=math.log(100.0))
    res = convert_via_G1check(hyp, 200.0, M_integral=5.0)
    assert res.target == "mcheck-minus-1"
    factor = mellin_G1check_closed(1.0)
    assert res.A == pytest.approx(1e-3 * factor.value, rel=1e-9)
    # j = 0 allows T_cut = 1
    res1 = convert_via_G1check(BoundForm("m1", 1e-3), 1.0, M_integral=0.0)
    assert res1.A == pytest.approx(1e-3 * factor.value, rel=1e-9)


def test_convert_via_H_envelope_delta_zero_and_positive():
    hyp = BoundForm("m", 1.0 / 3704.0, log_T=math.log(3.5e6))
    res = convert_via_H_envelope(hyp, math.log(4.8e6), math.log(2243.0))
    l1 = (math.pi**2 / 6.0) / 4345.0
    assert res.target == "m1"
    assert res.A == pytest.approx(l1 / 3704.0, rel=1e-9)
    # positive delta comes from a j > 0 hypothesis and uses the C_delta bound
    hyp_j = BoundForm("m", 0.013, j=1.0, log_T=math.log(100.0))
    cut = 18900.0 / 2.0
    res_j = convert_via_H_envelope(hyp_j, cut, math.log(100.0))
    delta = 1.0 / cut
    assert res_j.A == pytest.approx(0.013 * h2_integral_bound(delta), rel=1e-9)
    with pytest.raises(PlanError):
        convert_via_H_envelope(m4345(), math.log(100.0), 0.0)


def test_convert_via_H1_factor():
    hyp = BoundForm("m", 1.415, theta=0.5)
    res = convert_via_H1(hyp, T_cut=1.0)
    assert res.target == "m1"
    factor = mellin_H1_closed(0.5)
    assert res.A == pytest.approx(1.415 * factor.value, rel=1e-9)


def test_convert_via_H1_guards_and_meissel_remainder():
    # the factor is taken at theta with no j/log T_cut shift: j > 0 is refused
    with pytest.raises(PlanError, match="j = 0"):
        convert_via_H1(BoundForm("m", 0.013, j=1.0), T_cut=10.0)
    # the hypothesis must hold on all of [T_cut, inf)
    with pytest.raises(PlanError, match="exceeds T_cut"):
        convert_via_H1(BoundForm("m", 1.415, theta=0.5, log_T=math.log(100.0)), T_cut=10.0)
    with pytest.raises(InvalidArgumentError):
        convert_via_H1(BoundForm("m", 1.415, theta=0.5), T_cut=0.5)
    # integral_1^T u|m(u)| du <= (T^2 - 1)/2 under |m| <= 1: no x^-2 term at T = 1
    assert convert_via_H1(BoundForm("m", 1.415, theta=0.5)).remainders == (
        (math.log(2.0), 1.0),)
    res = convert_via_H1(BoundForm("m", 1.415, theta=0.5), T_cut=10.0)
    assert res.remainders[1] == (math.log(2.1 * 49.5), 2.0)
    assert res.log_T == math.log(10.0)


def test_triangle_inequality_combination():
    m1 = BoundForm("m1", 2e-4, log_T=math.log(10.0), remainders=(remainder(3.0, 1.0),))
    M = BoundForm("M-over-x", 1e-4, log_T=math.log(20.0), remainders=(remainder(5.0, 2.0),))
    res = triangle_m(m1, M)
    assert res.target == "m"
    assert res.A == pytest.approx(3e-4)
    assert math.exp(res.log_T) == pytest.approx(20.0, rel=1e-12)
    assert len(res.remainders) == 2
    with pytest.raises(PlanError):
        triangle_m(m1, BoundForm("M-over-x", 1e-4, j=1.0))


def test_majorant_descent_analytic_rank():
    # 2 + 10/x <= 2.5 exactly from x = 20
    f = BoundForm("m", 2.0, remainders=(remainder(10.0, 1.0),), log_T=0.0)
    rank = majorant_descent(f, 2.5)
    assert rank == pytest.approx(math.log(20.0), abs=1e-9)


def test_majorant_descent_no_descent():
    f = BoundForm("m", 2.0, log_T=0.0)
    with pytest.raises(NoDescentError):
        majorant_descent(f, 1.0)  # constant part already too big
    g = BoundForm("m", 1.0, j=1.0, log_T=math.log(10.0))
    with pytest.raises(NoDescentError):
        majorant_descent(g, 0.5, target_j=2.0)  # target decays faster forever


def test_descend_to_produces_clean_form():
    f = BoundForm("m", 2.0, remainders=(remainder(10.0, 1.0),), log_T=0.0)
    res = descend_to(f, 2.5)
    assert res.A == 2.5
    assert res.remainders == ()
    assert math.exp(res.log_T) == pytest.approx(20.0, rel=1e-8)
    with pytest.raises(PlanError):
        descend_to(f, 2.5, log_rank_cap=math.log(10.0))
    capped = descend_to(f, 2.5, log_rank_cap=math.log(30.0))
    assert math.exp(capped.log_T) == pytest.approx(30.0, rel=1e-12)


def test_sqrt_range_lowering_threshold():
    # the rank of a clean 1/4343 bound drops to (0.701*4343)^2 via the
    # 0.701 sqrt-model
    form = BoundForm("m", 1.0 / 4343.0, log_T=math.log(1e16))
    model = SqrtModel("m", 0.701, 3.0, 1e16)
    res = sqrt_range_lowering(form, model)
    assert math.exp(res.log_T) == pytest.approx((0.701 * 4343.0) ** 2, rel=1e-9)
    with pytest.raises(PlanError):
        sqrt_range_lowering(form, SqrtModel("m", 0.701, 3.0, 1e6))  # too short


def test_log_comparison_lowering():
    # log^2 x |m| <= 64 lowered by |m| <= 1: valid wherever 64/log^2 x >= 1,
    # i.e. up to log x = 8, so the rank drops to the comparand's rank
    form = BoundForm("m", 64.0, j=2.0, log_T=math.log(100.0))
    other = BoundForm("m", 1.0, log_T=0.0)
    res = log_comparison_lowering(form, other)
    assert res.log_T == 0.0
    with pytest.raises(PlanError):
        log_comparison_lowering(BoundForm("m", 1e-9, j=2.0, log_T=math.log(100.0)),
                                other)  # comparison range stops below the rank


def test_sqrt_model_from_form():
    form = BoundForm("m1", 0.1, theta=0.5, remainders=(remainder(2.0, 1.0),),
                     log_T=math.log(100.0))
    model = sqrt_model_from_form(form, 0.5, 100.0, 1e6)
    assert model.c == 0.5
    with pytest.raises(PlanError):
        sqrt_model_from_form(form, 0.05, 100.0, 1e6)  # constant not certified


def test_theorem_d_arithmetic():
    # limsup |m| sqrt(x) >= limsup |M|/sqrt(x) / (1 + b), b = 2 + (368/315) zeta(1/2)
    b = mellin_H1_closed(0.5)
    v = LIMSUP_M_OVER_SQRT / (1.0 + b.value + b.abs_error)
    assert v == pytest.approx(1.4201833391587988, rel=1e-12)
    assert v > 1.42018 > math.sqrt(2.0)


def test_ledger_basics():
    led = Ledger()
    led.add_axiom("a", BoundForm("m", 1.0), source="test")
    led.add_derived("b", BoundForm("m", 0.5))
    assert "a" in led and "b" in led
    assert led["a"].A == 1.0
    with pytest.raises(PlanError):
        led["missing"]
    with pytest.raises(PlanError):
        led.add_axiom("a", BoundForm("m", 1.0), source="again")


def test_ledger_round_trip_bit_for_bit():
    led = base_ledger()
    led.add_derived("weird", BoundForm(
        "mcheck-minus-1", 0.1 + 0.2, theta=0.9999999, j=2.0,
        log_T=18900.123456789, remainders=(remainder(math.pi, 1.5), (-math.inf, 2.0)),
        provenance=("step one", "x <= y | z")))
    text = serialize_ledger(led)
    again = serialize_ledger(load_ledger(text))
    assert text == again
    led2 = load_ledger(text)
    assert led2["weird"].log_T == led["weird"].log_T
    assert led2["weird"].remainders == led["weird"].remainders
    assert led2["weird"].provenance == led["weird"].provenance


def test_parse_plan():
    steps = parse_plan("""
# a comment
step: descend
id: out
hyp: in
A: 0.5

step: triangle_m
id: out2
hyp: out
hyp2: ax
""")
    assert len(steps) == 2
    assert steps[0]["step"] == "descend"
    assert steps[1]["hyp2"] == "ax"
    with pytest.raises(PlanError):
        parse_plan("not a key value line")


def test_plan_execution_matches_direct_calls():
    led = base_ledger()
    direct = convert_via_G1(led["M-4345"], 4.8e6,
                            M_integral=abs_M_prefix_integral_bound(4.8e6, led["M-sqrt-0.571"]))
    plan = parse_plan("""
step: convert_via_G1
id: via-plan
hyp: M-4345
T_cut: 4800000
M_integral: M-sqrt-0.571
""")
    bootstrap(led, plan)
    assert led["via-plan"].A == direct.A
    assert led["via-plan"].log_T == direct.log_T
    assert led["via-plan"].remainders == direct.remainders


def test_plan_unknown_step_rejected():
    led = base_ledger()
    with pytest.raises(PlanError):
        run_plan_step(led, {"step": "frobnicate", "id": "x"})
    with pytest.raises(PlanError):
        run_plan_step(led, {"step": "descend"})
    # as is a key the step does not read: a misspelt rank_cap would give an
    # uncapped descent
    with pytest.raises(PlanError, match="does not read rankcap"):
        run_plan_step(led, {"step": "descend", "id": "d", "hyp": "m-meissel",
                            "A": "2", "rankcap": "1e21"})
    assert "d" not in led


def test_plan_step_missing_an_entry_key():
    # a step without hyp2 ended in a KeyError traceback
    led = base_ledger()
    for step, key in (({"step": "triangle_m", "id": "t", "hyp": "m-meissel"}, "hyp2"),
                      ({"step": "sqrt_lower", "id": "s", "hyp": "m-meissel"}, "model"),
                      ({"step": "descend", "id": "d", "A": "2"}, "hyp")):
        with pytest.raises(PlanError, match=f"plan step missing '{key}'"):
            run_plan_step(led, step)


UNDERCUT_PLAN = """
step: convert_via_G1
id: a
hyp: M-log-0.013
T_cut: 1e13
M_integral: M-sqrt-1

step: triangle_m
id: b
hyp: a
hyp2: M-log-0.013

step: convert_via_H_envelope
id: c
hyp: b
log_T_cut: 60
m_integral: m-meissel
"""


def test_envelope_delta_cannot_undercut_the_shift():
    # a stated delta of 0 recorded A = 5.78e-6 for this j = 1 hypothesis;
    # the envelope step now always takes delta = (1 - theta) + j/log T_cut
    with pytest.raises(PlanError, match="does not read delta"):
        bootstrap(base_ledger(), parse_plan(UNDERCUT_PLAN + "delta: 0\n"))
    led = bootstrap(base_ledger(), parse_plan(UNDERCUT_PLAN))
    assert led["c"].A == pytest.approx(8.488e-6, rel=1e-4)
    assert led["c"].A == led["b"].A * h2_integral_bound(1.0 / 60.0)


_LOG_TERMS = st.one_of(st.floats(min_value=-800.0, max_value=800.0),
                       st.sampled_from([-math.inf, 0.0, -0.0, 1.5, -2.25, 700.0]))


@given(st.lists(_LOG_TERMS, min_size=1, max_size=6))
@settings(max_examples=500, deadline=None)
def test_logsumexp_reproduces_numpy_bit_for_bit(terms):
    # the sampled values make ties, -inf and -0.0 entries frequent
    expected = float(np.logaddexp.reduce(np.asarray(terms, dtype=np.float64)))
    assert _logsumexp(terms).hex() == expected.hex()


def test_plan_convert_via_G1_requires_M_integral():
    # without it the integral-of-|M| remainder would silently drop out
    led = base_ledger()
    with pytest.raises(PlanError, match="M_integral required"):
        run_plan_step(led, {"step": "convert_via_G1", "id": "x", "hyp": "M-4345",
                            "T_cut": "4800000"})
    assert "x" not in led


def test_plan_descend_without_rank_cap():
    led = base_ledger()
    res = run_plan_step(led, {"step": "descend", "id": "d", "hyp": "M-log2-362.7",
                              "A": "1000", "j": "1"})
    direct = descend_to(led["M-log2-362.7"], 1000.0, target_j=1.0)
    assert math.isfinite(res.log_T)
    assert (res.A, res.j, res.log_T) == (direct.A, direct.j, direct.log_T)


def test_plan_rank_cap_and_m_integral_are_taken_as_logs():
    # plans state rank_cap as a plain number, and the step bounds
    # integral_1^T_cut |m| from the pieces it names; the functions take logs
    led = base_ledger()
    env = run_plan_step(led, {"step": "convert_via_H_envelope", "id": "e",
                              "hyp": "m-meissel", "log_T_cut": "15",
                              "m_integral": "m-sqrt-0.5"})
    direct = convert_via_H_envelope(
        led["m-meissel"], 15.0,
        math.log(abs_m_prefix_integral_bound(math.exp(15.0), [led["m-sqrt-0.5"]])))
    assert (env.A, env.log_T, env.remainders) == (direct.A, direct.log_T, direct.remainders)
    capped = run_plan_step(led, {"step": "descend", "id": "d", "hyp": "e",
                                 "A": "0.001", "rank_cap": "1e21"})
    assert capped.log_T == descend_to(direct, 0.001, log_rank_cap=math.log(1e21)).log_T


@given(
    A=st.floats(min_value=1e-12, max_value=1e6),
    theta=st.floats(min_value=0.1, max_value=1.0),
    j=st.floats(min_value=0.0, max_value=3.0),
    log_T=st.floats(min_value=0.0, max_value=20000.0),
    rem_c=st.floats(min_value=0.0, max_value=1e12),
)
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip_property(A, theta, j, log_T, rem_c):
    led = Ledger()
    led.add_axiom("f", BoundForm("m", A, theta=theta, j=j, log_T=log_T,
                                 remainders=(remainder(rem_c, 1.0),)), source="prop")
    text = serialize_ledger(led)
    back = load_ledger(text)["f"]
    assert back.A == A and back.theta == theta and back.j == j
    assert back.log_T == log_T
    assert back.remainders == led["f"].remainders


@given(st.floats(min_value=1.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_descent_rank_monotone_in_target(target):
    # lowering the target raises the rank
    f = BoundForm("m", 1.0, remainders=(remainder(100.0, 1.0),), log_T=0.0)
    r_loose = majorant_descent(f, target + 0.5)
    r_tight = majorant_descent(f, target)
    assert r_tight >= r_loose - 1e-9


def test_prefix_integral_bounds_refuse_T_outside_their_models():
    # the 0.571 model gave -12.09 at T = 2 and 20.88 at T = 20, where the exact
    # integral_1^T |M| is 1 and 31; the m bound gave -0.5 at T = 0.5
    led = base_ledger()
    hurst, sqrt1, m05 = led["M-sqrt-0.571"], led["M-sqrt-1"], [led["m-sqrt-0.5"]]
    for T in (2.0, 20.0, 32.9, 1.1e16):
        with pytest.raises(InvalidArgumentError, match="certified only on"):
            abs_M_prefix_integral_bound(T, hurst)
    for T in (0.5, 2e16):
        with pytest.raises(InvalidArgumentError, match="certified only on"):
            abs_M_prefix_integral_bound(T, sqrt1)
    for call in (lambda: abs_M_prefix_integral_bound(0.5),
                 lambda: abs_m_prefix_integral_bound(0.5, m05),
                 lambda: abs_m_prefix_integral_bound(math.nan, m05)):
        with pytest.raises(InvalidArgumentError, match="needs T >= 1"):
            call()
    # inside the models: at least the exact integrals, one formula for both
    assert abs_M_prefix_integral_bound(2.0, sqrt1) >= 1.0
    assert abs_M_prefix_integral_bound(20.0, sqrt1) >= 31.0
    assert abs_M_prefix_integral_bound(33.0, hurst) == 59.0
    assert abs_M_prefix_integral_bound(1e13, sqrt1) == (2.0 / 3.0) * 1e13**1.5
    assert abs_m_prefix_integral_bound(1.0, m05) == 0.0


def test_plan_names_its_prefix_integrals():
    led = base_ledger()
    step = {"step": "convert_via_G1", "id": "a", "hyp": "M-4345", "T_cut": "4.8e6"}
    for stated in ("0", "49350059", "exact"):
        with pytest.raises(PlanError, match="unknown ledger entry"):
            run_plan_step(led, {**step, "M_integral": stated})
    for entry in ("M-4345", "m-sqrt-0.5"):
        with pytest.raises(PlanError, match=re.escape("needs a model |M| <= c sqrt(x)")):
            run_plan_step(led, {**step, "M_integral": entry})
    assert "a" not in led
    for name in ("trivial", "M-sqrt-1", "M-sqrt-0.571", "M-sqrt-0.5"):
        got = run_plan_step(led, {**step, "id": f"via-{name}", "M_integral": name})
        want = convert_via_G1(led["M-4345"], 4.8e6, abs_M_prefix_integral_bound(
            4.8e6, None if name == "trivial" else led[name]))
        assert got.remainders == want.remainders
    # the envelope step names the pieces of integral |m|: sqrt models of m
    # from 3 on, then optionally a bound |m| <= A
    env = {"step": "convert_via_H_envelope", "id": "e", "hyp": "m-meissel"}
    for extra, error, why in (
            ({"log_T_cut": "15", "m_integral": "2243"}, PlanError, "unknown ledger entry"),
            ({"log_T_cut": "60"}, PlanError, "m_integral required"),
            ({"log_T_cut": "60", "m_integral": "1e9"}, PlanError, "unknown ledger entry"),
            ({"log_T_cut": "60", "m_integral": "M-4345"}, PlanError, "integral |m| needs"),
            ({"log_T_cut": "60", "m_integral": "m-sqrt-0.5"}, InvalidArgumentError,
             "certified only to 7.7e")):
        with pytest.raises(error, match=re.escape(why)):
            run_plan_step(led, {**env, **extra})
    for chain in ("models", "const"):
        run_chain(chain, led)
    pieces = "m-sqrt-0.5 m-sqrt-0.701 m-4343"
    got = run_plan_step(led, {**env, "log_T_cut": "18900", "m_integral": pieces})
    m_int_log = log_abs_m_prefix_integral_bound(18900.0, [led[n] for n in pieces.split()])
    want = convert_via_H_envelope(led["m-meissel"], 18900.0, m_int_log)
    assert (got.A, got.remainders) == (want.A, want.remainders)
    # past the float range the closing term A (T - 1e16) rounds to A T
    assert m_int_log == math.log(1.0 / 4343.0) + 18900.0


def test_log_chain_envelope_step_as_a_plan_matches_the_chain_bit_for_bit():
    # through a second integral formula (1e16 + T/4343) the plan recorded
    # 61.31493344032973 where the chain records 61.31493291057378
    led = base_ledger()
    for chain in ("models", "const", "log"):
        run_chain(chain, led)
    pieces = [led[n] for n in ("m-sqrt-0.5", "m-sqrt-0.701", "m-4343")]
    chain = convert_via_H_envelope(led["m-log-0.0153"], math.log(8.2e25),
                                   math.log(abs_m_prefix_integral_bound(8.2e25, pieces)))
    plan = run_plan_step(led, {"step": "convert_via_H_envelope", "id": "p",
                               "hyp": "m-log-0.0153", "log_T_cut": repr(math.log(8.2e25)),
                               "m_integral": "m-sqrt-0.5 m-sqrt-0.701 m-4343"})
    assert plan.remainders == chain.remainders == ((61.31493291057378, 1.0),)
    assert plan.A == chain.A


def test_a_base_ledger_plan_cannot_use_a_derived_model():
    # at T_cut = e^27 the plan used the 0.701 model, which only the models
    # chain derives
    led = base_ledger()
    step = {"step": "convert_via_H_envelope", "id": "e", "hyp": "m-meissel",
            "log_T_cut": "27", "m_integral": "m-sqrt-0.5 m-sqrt-0.701 m-meissel"}
    with pytest.raises(PlanError, match="unknown ledger entry 'm-sqrt-0.701'"):
        run_plan_step(led, step)
    got = run_plan_step(led, {**step, "m_integral": "m-sqrt-0.5 m-meissel"})
    m_int = (1.5 + 2.0 * 0.5 * (math.sqrt(7.7e9) - math.sqrt(3.0))
             + 1.0 * (math.exp(27.0) - 7.7e9))
    assert got.remainders == ((_logsumexp((math.log(H2_ENVELOPE.sup_norm) + math.log(m_int),
                                           math.log(H2_ENVELOPE.sum_c))), 1.0),)


def test_abs_m_integral_refuses_gaps_wrong_targets_and_short_pieces():
    led = base_ledger()
    run_chain("models", led)
    m05, m0701 = led["m-sqrt-0.5"], led["m-sqrt-0.701"]
    # the formula the function had for T <= 7.7e9, read from the entry
    assert abs_m_prefix_integral_bound(4.8e6, [m05]) == \
        1.5 + 2.0 * 0.5 * (math.sqrt(4.8e6) - math.sqrt(3.0))
    assert abs_m_prefix_integral_bound(2.5, []) == 1.5
    # a closing bound is read only past the last model
    assert abs_m_prefix_integral_bound(1e16, [m05, m0701]) == \
        abs_m_prefix_integral_bound(1e16, [m05, m0701, led["m-meissel"]])
    for pieces in ([m0701],                                   # gap [3, 7.7e9)
                   [m05, SqrtModel("m", 0.701, 8e9, 1e16)],   # gap [7.7e9, 8e9)
                   [led["m-sqrt-0.701-wide"], m0701],          # overlap
                   [led["M-sqrt-0.5"]],                        # |M| model
                   [m05, led["m1-sqrt-0.129"]],                # m1 model
                   [m05, led["M-4345"]],                       # bound on |M|/x
                   [BoundForm("m", 1e-3, log_T=math.log(1e17))],  # closes too late
                   [led["m-meissel"], m05]):                   # after the closing
        with pytest.raises(PlanError):
            abs_m_prefix_integral_bound(1e17, pieces)
    with pytest.raises(InvalidArgumentError, match="certified only to 1e\\+16"):
        abs_m_prefix_integral_bound(1e17, [m05, m0701])
    with pytest.raises(InvalidArgumentError, match="certified only to 1e\\+16"):
        log_abs_m_prefix_integral_bound(18900.0, [m05, m0701])
    with pytest.raises(InvalidArgumentError, match="certified only to 3"):
        abs_m_prefix_integral_bound(3.5, [])


def test_join_sqrt_models_checks_adjacency_and_target():
    led = base_ledger()
    run_chain("models", led)
    wide = join_sqrt_models(led, "m-sqrt-0.5", "m-sqrt-0.701")
    assert wide == led["m-sqrt-0.701-wide"]
    assert (wide.c, wide.x_lo, wide.x_hi) == (0.701, 3.0, 1e16)
    for low, high, why in (("m-sqrt-0.701", "m-sqrt-0.5", "not adjacent"),
                           ("m1-sqrt-0.114", "m1-sqrt-5.792", "not adjacent"),
                           ("M-sqrt-0.5", "m1-sqrt-0.129", "not adjacent"),
                           ("m-sqrt-0.5", "m-meissel", "not adjacent")):
        with pytest.raises(PlanError, match=why):
            join_sqrt_models(led, low, high)


def test_sqrt_form_reads_the_entry():
    led = base_ledger()
    run_chain("models", led)
    axiom = sqrt_form(led, "M-sqrt-0.5")
    assert (axiom.target, axiom.A, axiom.theta, axiom.j, axiom.log_T, axiom.provenance) == \
        ("M-over-x", 0.5, 0.5, 0.0, math.log(201.0), ("axiom:M-sqrt-0.5",))
    derived = sqrt_form(led, "m1-sqrt-0.129")
    assert (derived.A, derived.log_T, derived.provenance) == \
        (0.129, math.log(7.7e9), ("m1-sqrt-0.129",))
    with pytest.raises(PlanError, match="not a sqrt model"):
        sqrt_form(led, "M-4345")


def test_plan_M_integral_names_a_model_and_reads_its_exact_head():
    led = base_ledger()
    got = run_plan_step(led, {"step": "convert_via_G1", "id": "a", "hyp": "M-log2-362.7",
                              "T_cut": "201", "M_integral": "M-sqrt-0.5"})
    assert got.remainders[1] == (math.log(461.0), 2.0)


def test_abs_M_heads_are_the_exact_integrals(tables_small):
    assert _ABS_M_HEADS[1.0] == 0.0
    for x_lo, head in _ABS_M_HEADS.items():
        if x_lo > 1.0:
            assert abs_mertens_prefix_integral(tables_small.mu, int(x_lo)) == head
    models = [e for e in base_ledger().axioms.values()
              if isinstance(e, SqrtModel) and e.target == "M-over-x"]
    assert sorted(m.x_lo for m in models) == sorted(_ABS_M_HEADS)


@pytest.mark.parametrize("line, why", [
    ("kind=axiom name=x target=m A=1 theta=1 j=0 logT=0 remainders= provenance=",
     "missing field 'type'"),
    ("kind=axiom name=x type=bound target=m A=1 theta=1 j=0 logT=0 provenance=",
     "missing field 'remainders'"),
    ("name=x type=sqrt target=m c=1 x_lo=3 x_hi=9 provenance=", "missing field 'kind'"),
    ("kind=axiom name=x type=sqrt target=m c=abc x_lo=3 x_hi=9 provenance=",
     "could not convert"),
    ("kind=derived name=x type=bound target=m A=1 theta=1 j=0 logT=0 remainders=1.0 "
     "provenance=", "not enough values"),
    ("kind=derived name=M-4345 type=sqrt target=m c=1 x_lo=3 x_hi=9 provenance=",
     "duplicate ledger entry 'M-4345'"),
    ("kind=lemma name=x type=sqrt target=m c=1 x_lo=3 x_hi=9 provenance=",
     "unknown kind 'lemma'"),
    ("kind=axiom name=x type=cube target=m c=1 x_lo=3 x_hi=9 provenance=",
     "unknown type 'cube'"),
    ("kind=axiom name=x type=bound target=m A=9.0 A=0.00023 theta=1 j=0 logT=0 "
     "remainders= provenance=", "field 'A' repeated"),
    ("kind=axiom name=x type=sqrt target=m c=1 x_lo=3 x_hi=9 junk=1 provenance=",
     "type sqrt has no field 'junk'"),
    # a NaN fails every comparison: logT=nan would clear any rank check
    ("kind=axiom name=x type=bound target=m A=1 theta=1 j=0 logT=nan remainders= "
     "provenance=", "BoundForm requires"),
    ("kind=axiom name=x type=sqrt target=m c=nan x_lo=3 x_hi=9 provenance=",
     "SqrtModel requires"),
], ids=["type", "remainders", "kind", "number", "pair", "duplicate", "kind-value",
        "type-value", "repeated", "foreign", "logT-nan", "c-nan"])
def test_load_ledger_names_a_malformed_line(line, why):
    text = serialize_ledger(base_ledger())  # eight lines
    with pytest.raises(PlanError, match=f"ledger line 9: {re.escape(why)}"):
        load_ledger(text + line + "\n")
