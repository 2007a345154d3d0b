"""Acceptance criteria: one test per criterion, one pass/fail line each.

Criterion 1's second predicate (log x |m(x)| <= 0.0130073 on
[97063, 230000)) is implemented faithfully and is KNOWN TO FAIL: thirteen
integers in [119543, 120560] genuinely violate the stated constant (peak
log(119602)|m(119601)| = 0.0131931, about 1.4% above it).  The sieve
inputs behind this were triple-validated; the failure is reported, not
papered over.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    em_H1_envelope,
    epsilon1,
    golden_points,
    lattice_closed,
    mp_lattice,
    mp_panel_quad,
    table_array,
)
from mobsum.chains import LIMSUP_M_OVER_SQRT, base_ledger, run_chain
from mobsum.identities import (
    residual_bal2,
    residual_mchliss,
    residual_thm1_G,
    residual_thm1_H,
)
from mobsum.quad import _EM_H1_ERROR, mellin_numeric
from mobsum.special import (
    h2_integral_bound,
    mellin_G1_closed,
    mellin_H1_closed,
)
from mobsum.verify import (
    PREDICATES,
    ratio_theorem_C,
    ratio_violation_below,
    sup_scan,
    verify_range,
)
from mobsum.weights import G1_ENVELOPE, G1_SPEC, H1_ENVELOPE, H1_SPEC


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return ok


def test_criterion_01_desk_scale_verification(tables_big):
    t0 = time.time()
    rep_const = verify_range(PREDICATES["m4343"], 2160605, 5 * 10**6, tables_big, jobs=4)
    rep_wit = verify_range(PREDICATES["m4343"], 2160535, 2160605, tables_big, jobs=4)
    rep_log = verify_range(PREDICATES["mlog0.0130073"], 97063, 230000, tables_big, jobs=4)
    elapsed = time.time() - t0
    ok_const = rep_const.passed
    ok_wit = len(rep_wit.violations) >= 1
    ok_log = rep_log.passed  # known false: 13 violations in [119543, 120560]
    ok_time = elapsed < 120.0
    ok = report(
        1, ok_const and ok_wit and ok_log and ok_time,
        f"4343-bound pass={ok_const} (max_ratio {rep_const.max_ratio:.6f}), "
        f"rank witness={ok_wit} ({len(rep_wit.violations)} violations below rank), "
        f"log-bound pass={ok_log} ({len(rep_log.violations)} violations, "
        f"peak ratio {rep_log.max_ratio:.6f} at n={rep_log.argmax}), "
        f"runtime {elapsed:.1f}s")
    assert ok_const and ok_wit and ok_time
    assert ok_log, (
        "faithful check of the printed constant fails: "
        f"violations at n in {[v[0] for v in rep_log.violations]}")


def test_criterion_02_exact_integers(tables_big):
    mert = table_array(tables_big, "M")
    c1 = int(mert[1637]) == -16
    c2 = int(np.abs(mert[1:201]).sum()) == 461
    c3 = int(np.abs(mert[1:33]).sum()) == 59
    prod = 8510.0 * float(tables_big.read("m", 8510, 8511)[0])
    c4 = prod > 36.0
    ok = report(2, c1 and c2 and c3 and c4,
                f"M(1637)={int(mert[1637])}, sums 461/59 ok={c2}/{c3}, "
                f"8510*m(8510)={prod:.5f}>36={c4}")
    assert ok


def test_criterion_03_sqrt_models(tables_big):
    repM = verify_range(PREDICATES["Msqrt0.5"], 201, 10**7 + 1, tables_big, jobs=4)
    repm = verify_range(PREDICATES["msqrt0.5"], 3, 10**7 + 1, tables_big, jobs=4)
    ok = report(3, repM.passed and repm.passed,
                f"|M|<=0.5sqrt(x) on [201,1e7]: {repM.passed} "
                f"(max ratio {repM.max_ratio:.4f} at {repM.argmax}); "
                f"|m|sqrt(x)<=0.5 on [3,1e7]: {repm.passed} "
                f"(max ratio {repm.max_ratio:.4f} at {repm.argmax})")
    assert ok


def test_criterion_04_suprema(tables_big):
    sup1, arg1 = sup_scan(tables_big, "m1", "log2x", 1, 671)
    expect1 = (29.0 / 105.0) * math.log(7.0) ** 2
    c1 = arg1 == 7.0 and abs(sup1 - expect1) < 1e-12
    sup2, arg2 = sup_scan(tables_big, "mcheck-minus-1", "log2x", 1, 3)
    expect2 = 2.0 * (2.0 - math.log(2.0)) ** 3 / 27.0
    arg_expect = math.exp((4.0 - 2.0 * math.log(2.0)) / 3.0)
    c2 = abs(sup2 - expect2) < 1e-9 and abs(arg2 - arg_expect) < 1e-9
    rep = verify_range(PREDICATES["mchecklog2-0.162"], 3, 10**7, tables_big, jobs=4)
    c3 = rep.passed  # 0.162/log^2 x covers everything from x = 3 on
    ok = report(4, c1 and c2 and c3,
                f"m1 sup {sup1:.6f} at x={arg1} (exact argmax {c1}); "
                f"mcheck sup {sup2:.8f} at x={arg2:.6f} (within 1e-9 {c2}); "
                f"0.162/log^2x for x>=3: {c3}")
    assert ok


def test_criterion_05_mellin_brackets():
    X = 10**5
    all_ok = True
    details = []
    for s in (-0.5, 0.0, 0.5, 1.0, 2.0):
        b = mellin_numeric(G1_SPEC, s, X)
        closed = mellin_G1_closed(s)
        all_ok &= b.contains(closed.value) and b.width < 1e-6
        details.append(f"G1(s={s}) width={b.width:.1e}")
    for s in (0.0, 0.5, 1.0):
        b = mellin_numeric(H1_SPEC, s, X)
        closed = mellin_H1_closed(s)
        all_ok &= b.contains(closed.value) and b.width < 1e-6
        details.append(f"H1(s={s}) width={b.width:.1e}")
    key1 = abs(mellin_G1_closed(1.0).value - 0.1727843) < 5e-8
    key2 = abs(mellin_H1_closed(0.0).value - 0.43994) < 5e-5  # 2 zeta'(0)+41/18
    key3 = abs(mellin_H1_closed(0.5).value - 0.29395) < 5e-5  # b-2 of thm D
    all_ok &= key1 and key2 and key3
    ok = report(5, all_ok, "; ".join(details) +
                f"; key values 0.1727843/0.43994/0.29395 ok={key1}/{key2}/{key3}")
    assert ok


def test_criterion_06_h2_table():
    rows_ok = abs(h2_integral_bound(0.5) - 8.26) < 0.01
    for delta, printed, ulp in [(0.1, 0.0032, 1e-4), (0.05, 0.00114, 1e-5),
                                (0.01, 0.000479, 1e-6), (0.001, 0.000389, 1e-6)]:
        v = h2_integral_bound(delta)
        rows_ok &= printed - ulp < v <= printed
    limit = (math.pi**2 / 6.0) / 4345.0
    rows_ok &= 0.000378 <= limit < 0.000379
    p1 = 1.0 / h2_integral_bound(1.0 / math.log(8.2e25))
    p2 = 1.0 / h2_integral_bound(2.0 / 18900.0)
    proofs_ok = abs(p1 - 1796.57) < 1796.57 * 5e-5 and abs(p2 - 2633.6) < 2633.6 * 5e-5
    ok = report(6, rows_ok and proofs_ok,
                f"table rows ok={rows_ok}; 1/C = {p1:.6f} (~1796.57), "
                f"{p2:.5f} (~2633.6): {proofs_ok}")
    assert ok


def test_criterion_07_identity_residuals(tables_big):
    worst = 0.0
    all_ok = True
    for x in golden_points(50, 1.0, 1e5):
        for fn in (residual_thm1_G, residual_thm1_H, residual_bal2, residual_mchliss):
            rep = fn(tables_big, x, tol=1e-7)
            worst = max(worst, abs(rep.residual))
            all_ok &= rep.passed
    eps_ok = True
    for x in (2.0, 7.0, 50.0, 1000.0):
        num = mp_panel_quad(lambda t: mp_lattice("g1", t), range(1, int(x) + 1))
        eps_ok &= abs(float(num) - (epsilon1(x) - epsilon1(1.0))) < 1e-9
    ok = report(7, all_ok and eps_ok,
                f"200 residuals < 1e-7 (worst {worst:.2e}); "
                f"antiderivative check < 1e-9: {eps_ok}")
    assert ok


def test_criterion_08_envelopes():
    worst_em = 0.0
    all_ok = True
    for t in golden_points(10**5, 1.0, 1e5):
        G = lattice_closed("g1", t)
        H = lattice_closed("h1", t)
        all_ok &= -1e-10 <= G <= G1_ENVELOPE / (t * t) + 1e-10
        all_ok &= -1e-10 <= H <= H1_ENVELOPE / t + 1e-10
        approx, err = em_H1_envelope(t)
        worst_em = max(worst_em, abs(H - approx) - err)
        all_ok &= abs(H - approx) <= err + 1e-10
    ok = report(8, all_ok,
                f"1e5 samples: envelopes hold; EM error within {_EM_H1_ERROR}/(6t^2) "
                f"(worst slack {worst_em:.2e})")
    assert ok


def test_criterion_09_bootstrap_replay():
    led = base_ledger()
    results = {name: run_chain(name, led)
               for name in ("models", "const", "log", "log2", "mcheck")}
    chains_ok = all(res.ok for res in results.values())
    printed = {
        "m1-25146": 1.0 / 25146.0, "m-3704": 1.0 / 3704.0,
        "m-4342.67": 1.0 / 4342.67, "m1-11470909": 1.0 / 11470909.0,
        "m-4343": 1.0 / 4343.0,
        "m1-log-0.0023": 0.0023, "m1-log-8.517e-6": 8.517e-6,
        "m1-log-7.265e-6": 7.265e-6, "m-log-0.0130073": 0.0130073,
        "m1-log2-64.24": 64.24, "m-log2-426.94": 426.94,
        "m1-log2-0.1622": 0.1622, "m1-log2-0.1378": 0.1378,
        "m-log2-362.84": 362.84,
        "mcheck-9780919": 1.0 / 9780919.0, "mcheck-log-8.55e-6": 8.55e-6,
        "mcheck-log2-0.162": 0.162,
    }
    consts_ok = all(abs(led[k].A - v) <= 1e-9 * v for k, v in printed.items())
    thr1 = results["const"].step("const:threshold-(0.129*8119793)^2").computed
    thr2 = results["const"].step("const:threshold-(0.5*4343)^2").computed
    thresholds_ok = thr1 < 1.1e12 and thr2 < 4.72e6
    ok = report(9, chains_ok and consts_ok and thresholds_ok,
                f"5 chains certify={chains_ok}; 17 printed constants "
                f"reproduced={consts_ok}; thresholds {thr1:.4g}<1.1e12, "
                f"{thr2:.6g}<4.72e6: {thresholds_ok}")
    assert ok


def test_criterion_10_theorems_C_and_D(tables_big):
    rep = ratio_theorem_C(tables_big, 10**6)
    c_ok = rep.passed and 2.0 / 3.0 <= rep.min_ratio <= rep.max_ratio <= 1.5
    wit = ratio_violation_below(tables_big)
    wit_ok = wit is not None
    # limsup |m| sqrt(x) >= limsup |M|/sqrt(x) / (1 + b), b = 2 + (368/315) zeta(1/2)
    b = mellin_H1_closed(0.5)
    d = LIMSUP_M_OVER_SQRT / (1.0 + b.value + b.abs_error)
    d_ok = d > 1.42018 > math.sqrt(2.0)
    ok = report(10, c_ok and wit_ok and d_ok,
                f"ratio in [{rep.min_ratio:.6f}, {rep.max_ratio:.6f}] on [94,1e6]; "
                f"witness below 94 at x={wit[0] if wit else None}; "
                f"theorem D: {d:.7f} > 1.42018 > sqrt(2): {d_ok}")
    assert ok


def test_criterion_11_determinism(tables_big):
    same = True
    jobs_list = (1, 4, 16)
    cases = [("m4343", 2160605, 5 * 10**6), ("mlog0.0130073", 97063, 230000),
             ("Msqrt0.5", 201, 10**7 + 1), ("msqrt0.5", 3, 10**7 + 1)]
    for pred, lo, hi in cases:
        reps = [verify_range(PREDICATES[pred], lo, hi, tables_big, jobs=j)
                for j in jobs_list]
        for r in reps[1:]:
            same &= (r.violations == reps[0].violations
                     and r.max_ratio == reps[0].max_ratio
                     and r.argmax == reps[0].argmax
                     and r.indeterminate == reps[0].indeterminate)
    ok = report(11, same,
                f"{len(cases)} verification campaigns identical across "
                f"{jobs_list} workers")
    assert ok
