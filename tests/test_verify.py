import math
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_prefix_fraction, per_term_ell, per_term_m_fixed
from mobsum import verify
from mobsum.errors import InvalidArgumentError, RangeError
from mobsum.quad import identity_kernel_integral
from mobsum.tables import evaluate, with_series
from mobsum.verify import (
    PREDICATES,
    Predicate,
    _interval_sup,
    _mp_fns,
    ratio_theorem_C,
    ratio_violation_below,
    sup_scan,
    verify_range,
)


def test_predicate_registry():
    assert PREDICATES["m4343"].kind == "const-bound"
    assert PREDICATES["mlog0.0130073"].c == 0.0130073
    with pytest.raises(InvalidArgumentError):
        Predicate("x", "weird-kind", "m", 1.0)
    with pytest.raises(InvalidArgumentError):
        Predicate("x", "const-bound", "weird-target", 1.0)


def test_sup_m1_log2_exact_argmax(tables_small):
    sup, arg = sup_scan(tables_small, "m1", "log2x", 1, 671)
    assert arg == 7.0
    assert sup == pytest.approx((29.0 / 105.0) * math.log(7.0) ** 2, rel=1e-14)


def test_sup_mcheck_analytic_piece(tables_small):
    sup, arg = sup_scan(tables_small, "mcheck-minus-1", "log2x", 1, 3)
    expected = 2.0 * (2.0 - math.log(2.0)) ** 3 / 27.0
    assert sup == pytest.approx(expected, abs=1e-9)
    assert arg == pytest.approx(math.exp((4.0 - 2.0 * math.log(2.0)) / 3.0), abs=1e-9)


def test_sup_scan_m_weights(tables_small):
    # |m| sup with unit weight is just the largest |m(n)|
    sup, arg = sup_scan(tables_small, "m", "1", 1, 100)
    assert sup == 1.0 and arg == 1.0
    # sqrt weight: right-endpoint supremum sqrt(n+1)|m(n)|
    sup, arg = sup_scan(tables_small, "m", "sqrtx", 3, 1000)
    n = int(arg) - 1 if arg == int(arg) else int(arg)
    assert sup <= 0.5 + 1e-12  # desk-scale sqrt bound holds here


def test_sup_scan_M(tables_small):
    sup, arg = sup_scan(tables_small, "M", "sqrtx", 201, 10000)
    assert sup == pytest.approx(
        max(abs(int(tables_small.mu.mertens[n])) / math.sqrt(n)
            for n in range(201, 10001)), rel=1e-13)


def test_sup_scan_guards(tables_small):
    with pytest.raises(RangeError):
        sup_scan(tables_small, "m", "1", 1, 30000)
    # [N, N + 1/2] reads the table at N only: the rule of verify_range
    N = tables_small.limit
    assert sup_scan(tables_small, "m", "sqrtx", 3, N + 0.5)[1] < N + 0.5
    with pytest.raises(RangeError):
        sup_scan(tables_small, "m", "sqrtx", 3, N + 1)
    with pytest.raises(InvalidArgumentError):
        sup_scan(tables_small, "m1", "logx", 1, 10)
    with pytest.raises(InvalidArgumentError):
        sup_scan(tables_small, "m", "cube", 1, 10)
    for target, weight in (("m", "1"), ("m1", "log2x"),
                           ("mcheck-minus-1", "log2x"), ("M", "sqrtx")):
        with pytest.raises(InvalidArgumentError):
            sup_scan(tables_small, target, weight, 5000, 3000)
    for lo, hi in ((math.nan, 10), (1, math.nan), (1, math.inf), (-math.inf, 10)):
        with pytest.raises(InvalidArgumentError):
            sup_scan(tables_small, "m", "1", lo, hi)


def test_verify_const_bound_passes(tables_small):
    # 4343|m| <= 1 certainly holds on tiny ranges where |m| is small
    rep = verify_range(PREDICATES["m4345"], 10000, 20000, tables_small)
    # may or may not pass; just consistency checks on the report
    assert rep.checked == 10000
    assert rep.lo == 10000 and rep.hi == 20000
    assert 0 < rep.max_ratio
    assert rep.argmax >= 10000


def test_verify_finds_true_violation(tables_small):
    # log^2 x |m1| <= 0.138 is false below 671 (sup is 1.0458 at x = 7)
    rep = verify_range(PREDICATES["m1log2-0.138"], 2, 671, tables_small)
    assert not rep.passed
    assert any(n == 7 for n, _, _ in rep.violations)
    assert rep.max_ratio == pytest.approx(
        (29.0 / 105.0) * math.log(7.0) ** 2 / 0.138, rel=1e-12)
    # m1 is continuous at x = 7, so the sup sits on the shared endpoint of
    # intervals 6 and 7; either interval is a correct argmax
    assert rep.argmax in (6, 7)


def test_verify_passes_above_rank(tables_small):
    rep = verify_range(PREDICATES["m1log2-0.138"], 671, 7000, tables_small)
    assert rep.passed
    rep = verify_range(PREDICATES["mchecklog2-0.162"], 3, 20000, tables_small)
    assert rep.passed


def test_verify_sqrt_predicates(tables_small):
    assert verify_range(PREDICATES["Msqrt0.5"], 201, 20000, tables_small).passed
    assert verify_range(PREDICATES["msqrt0.5"], 3, 20000, tables_small).passed
    # the Mertens-conjecture bound fails somewhere below 201? no - it holds
    # at desk scale; instead check the report flags the right near-misses
    rep = verify_range(PREDICATES["Msqrt0.5"], 2, 201, tables_small)
    assert not rep.passed  # e.g. |M(7)| = 2 > 0.5 sqrt(7)


def test_verify_range_guards(tables_small):
    with pytest.raises(RangeError):
        verify_range(PREDICATES["m4343"], 1, 30000, tables_small)
    with pytest.raises(InvalidArgumentError):
        verify_range(PREDICATES["m4343"], 0, 10, tables_small)
    # an empty or inverted range certifies nothing, also within one interval
    for lo, hi in ((5000, 3000), (5000, 5000), (5000.5, 5000.25), (5000.5, 5000.5)):
        with pytest.raises(InvalidArgumentError):
            verify_range(PREDICATES["m4343"], lo, hi, tables_small)
    for lo, hi in ((math.nan, 10), (2, math.nan), (2, math.inf), (-math.inf, 10)):
        with pytest.raises(InvalidArgumentError):
            verify_range(PREDICATES["m4343"], lo, hi, tables_small)
    # a NaN constant would pass every interval, with max_ratio nan
    with pytest.raises(InvalidArgumentError):
        verify_range(Predicate("x", "sqrt-bound", "M", math.nan), 2, 10, tables_small)


def test_verify_jobs_deterministic(tables_small):
    for pred in ("m4345", "msqrt0.5", "mchecklog2-0.162", "m1log2-0.138"):
        reps = [verify_range(PREDICATES[pred], 3, 20000, tables_small, jobs=j)
                for j in (1, 4, 16)]
        for r in reps[1:]:
            assert r.violations == reps[0].violations
            assert r.max_ratio == reps[0].max_ratio
            assert r.argmax == reps[0].argmax
            assert r.indeterminate == reps[0].indeterminate


def test_scans_start_no_thread(tables_small, monkeypatch):
    # the kernel runs on few chunks: scans stay in the calling thread,
    # whatever jobs says
    def refuse(self):
        raise AssertionError("a scan started a thread")

    monkeypatch.setattr(verify, "_CHUNK", 97)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for pred in ("m4345", "Msqrt0.5", "mchecklog2-0.162"):
        rep = verify_range(PREDICATES[pred], 2, 6000, tables_small, jobs=2)
        assert rep.checked == 5998
    for target, weight in (("m", "sqrtx"), ("M", "sqrtx"), ("m1", "log2x")):
        sup_scan(tables_small, target, weight, 2, 6000)


def test_chunk_size_does_not_change_reports(tables_small, monkeypatch):
    # every chunk edge inside the range: reports, capped reports, scans and
    # ratio checks must equal the one-chunk run; the violation cap, the
    # ratio rank and the band are module constants, set here so that the
    # scans cross many chunks with violations in them
    def run():
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", 10**6)
        reps = [verify_range(p, 2, 6000, tables_small, jobs=j)
                for p in PREDICATES.values() for j in (1, 2)]
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", 5)
        capped = [verify_range(PREDICATES["m4345"], 2, 6000, tables_small, jobs=j)
                  for j in (1, 2)]
        sups = [sup_scan(tables_small, t, w, lo, hi)
                for t, ws in verify._WEIGHTS.items() for w in ws
                for lo, hi in ((1, 6000), (2.5, 5999.5))]
        monkeypatch.setattr(verify, "_RATIO_RANK", 2)
        monkeypatch.setattr(verify, "_RATIO_BAND", (0.9, 1.05))
        below = ratio_theorem_C(tables_small, 8510)
        monkeypatch.setattr(verify, "_RATIO_RANK", 8510)
        monkeypatch.setattr(verify, "_RATIO_BAND", (0.7, 1.5))
        return reps, capped, sups, (below, ratio_violation_below(tables_small))

    default = run()
    capped = default[1][0]
    # cut at the sixth violation: [2, that n] is all the report covers
    assert capped.truncated and len(capped.violations) == 6
    assert capped.checked == capped.violations[-1][0] - 1
    assert not any(r.truncated for r in default[0])
    assert default[3][0].violations and default[3][1] is not None
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert run() == default


def test_sup_scan_clips_to_a_fractional_lo(tables_small):
    # the first interval is [lo, floor(lo) + 1), not [floor(lo), ...): on
    # [201.5, 202.5] |M| is 7 then 6, so the sup is 7/sqrt(201.5) at 201.5
    mert = tables_small.mu.mertens
    assert (int(mert[201]), int(mert[202])) == (-7, -6)
    assert sup_scan(tables_small, "M", "sqrtx", 201.5, 202.5) == (
        7.0 / math.sqrt(201.5), 201.5)
    # |m| is constant on [2, 3), so the first point of [2.5, 2.9] is the argmax
    assert sup_scan(tables_small, "m", "1", 2.5, 2.9) == (0.5, 2.5)


def test_verify_range_clips_to_a_fractional_range(tables_small):
    # M(7) = -2: on [7.5, 8), 2/sqrt(x) < c although 2/sqrt(7) > c, so
    # a scan of all of [7, 8) would report a violation outside the range
    assert int(tables_small.mu.mertens[7]) == -2
    c = 1.001 * 2.0 / math.sqrt(7.5)
    rep = verify_range(Predicate("x", "sqrt-bound", "M", c), 7.5, 8, tables_small)
    assert (rep.lo, rep.hi, rep.checked, rep.violations) == (7, 8, 1, [])
    assert rep.max_ratio == pytest.approx(1 / 1.001, rel=1e-15)
    # sqrt(x)|m(7)| grows: on [7, 7.5) it stays below c, but not on [7, 8)
    m7 = abs(float(tables_small.series.m.values[7]))
    c = 1.001 * math.sqrt(7.5) * m7
    rep = verify_range(Predicate("y", "sqrt-bound", "m", c), 7, 7.5, tables_small)
    assert rep.passed and rep.max_ratio == pytest.approx(1 / 1.001, rel=1e-15)
    assert not verify_range(Predicate("y", "sqrt-bound", "m", c), 7, 8,
                            tables_small).passed


def test_exact_recheck_clips_to_a_fractional_range(tables_small):
    # planted at the clipped supremum 2/sqrt(7.5), the interval escalates,
    # and the exact re-check must weigh [7.5, 8), not [7, 8)
    pred = Predicate("x", "sqrt-bound", "M", 2.0 / math.sqrt(7.5))
    rep = verify_range(pred, 7.5, 8, tables_small)
    assert rep.indeterminate == [7]
    assert all(value < 0.74 for _, value, _ in rep.violations)  # 2/sqrt(7) = 0.756
    value, _ = verify._exact_recheck(pred, 7, tables_small, 7.5, 8)
    assert value == pytest.approx(2.0 / math.sqrt(7.5), rel=1e-15)


def test_kernels_name_the_series_their_tables_lack(tables_small):
    bare, m_only = with_series(tables_small.mu, ()), with_series(tables_small.mu, ("m",))
    for call, name in (
            (lambda: verify_range(PREDICATES["m4343"], 3, 100, bare), "m"),
            (lambda: verify_range(PREDICATES["mchecklog2-0.162"], 3, 100, m_only), "ell"),
            (lambda: sup_scan(bare, "m1", "log2x", 1, 100), "m"),
            (lambda: sup_scan(m_only, "mcheck-minus-1", "log2x", 1, 3), "ell"),
            (lambda: ratio_theorem_C(bare, 1000), "m"),
            (lambda: evaluate(m_only, 10.5), "ell"),
            (lambda: identity_kernel_integral(bare, 100.5, "m-kernel"), "m")):
        with pytest.raises(InvalidArgumentError, match=f"without the {name} prefix"):
            call()
    # where the series a target reads are there, results are the full tables'
    for pred, lo, tb in (("Msqrt0.5", 201, bare), ("msqrt0.5", 3, m_only),
                         ("m1log2-0.138", 671, m_only)):
        assert verify_range(PREDICATES[pred], lo, 20000, tb) == verify_range(
            PREDICATES[pred], lo, 20000, tables_small)
    assert sup_scan(bare, "M", "sqrtx", 201, 20000) == sup_scan(
        tables_small, "M", "sqrtx", 201, 20000)


def test_sup_scan_tie_across_chunk_edge(tables_small, monkeypatch):
    # mu(n+1) = 0 keeps m constant, so intervals n and n+1 tie under the
    # weight 1; with a chunk edge between them the first must still win
    mu, m = tables_small.mu.mu, np.abs(tables_small.series.m.values)
    n = next(k for k in range(7, 20000) if mu[k + 1] == 0 and m[k] > m[k - 6:k].max())
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert m[n + 1] == m[n]
    assert sup_scan(tables_small, "m", "1", n - 6, n + 1.5) == (float(m[n]), float(n))


def test_pruned_reports_equal_exhaustive(tables_small, monkeypatch, request):
    # the chunk envelopes skip chunks: every report (truncated, escalated,
    # tied across a chunk edge, fractional) and every scan must equal the
    # one that runs the kernel on every chunk
    mu, m = tables_small.mu.mu, np.abs(tables_small.series.m.values)
    tie = next(k for k in range(7, 20000) if mu[k + 1] == 0 and m[k] > m[k - 6:k].max())
    planted = verify_range(Predicate("unit", "sqrt-bound", "M", 1.0), 671.5, 5999.5,
                           tables_small).max_ratio
    # |m| peaks above 671 at 678, where the guard is 6.9e-14 relative: a
    # margin of 3e-14 escalates although the envelope alone stays below 1
    inside = (1.0 - 3e-14) / m[671 + int(np.argmax(m[671:6000]))]
    preds = [*PREDICATES.values(), Predicate("mlog2", "log2-bound", "m", 0.05),
             Predicate("inside", "const-bound", "m", inside),
             Predicate("planted", "sqrt-bound", "M", planted)]
    cap = verify._MAX_VIOLATIONS

    def run():
        monkeypatch.setattr(verify, "_CHUNK", 97)
        reps = [verify_range(p, lo, hi, tables_small, jobs=j) for p in preds
                for lo, hi in ((2, 6000), (671.5, 5999.5)) for j in (1, 2)]
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", 5)
        capped = [verify_range(PREDICATES[p], 2, 6000, tables_small, jobs=j)
                  for p in ("m4345", "Msqrt0.5") for j in (1, 2)]
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", cap)
        sups = [sup_scan(tables_small, t, w, lo, hi)
                for t, ws in verify._WEIGHTS.items() for w in ws
                for lo, hi in ((1, 6000), (2.5, 5999.5))]
        monkeypatch.setattr(verify, "_CHUNK", 7)
        tied = Predicate("tie", "const-bound", "m", 0.5 / m[tie])
        sups.append(sup_scan(tables_small, "m", "1", tie - 6, tie + 1.5))
        return reps, capped, sups, verify_range(tied, tie - 6, tie + 2, tables_small)

    pruned = run()
    request.getfixturevalue("exhaustive")
    full = run()
    assert pruned == full
    reps, capped, sups, tied = pruned
    assert all(r.truncated and len(r.violations) == 6 for r in capped)
    assert all(r.indeterminate for r in reps[-8:])  # the last two: escalated
    assert tied.argmax == tie and sups[-1] == (float(m[tie]), float(tie))
    assert any(r.violations for r in reps) and any(r.passed for r in reps)
    every = reps + capped + [tied]
    assert all(r.scanned == r.checked for r in full[0] + full[1] + [full[3]])
    assert all(r.scanned <= r.checked for r in every)
    assert all(r.scanned < r.checked / 4 for r in reps if r.passed)


@pytest.mark.parametrize("source", ["tables", "synthetic"])
def test_chunk_envelopes_dominate_the_kernel(tables_small, monkeypatch, source):
    # E bounds the float supremum of every interval of a span and G every
    # guard, for each target and weight, on random spans with fractional
    # ends; the synthetic m, M and ell give m1 its interior maxima
    rng = np.random.default_rng(7)
    if source == "synthetic":
        size = tables_small.limit + 1
        m, M = rng.uniform(-1.0, 1.0, size), rng.integers(-6, 7, size).astype(np.int32)
        ell = rng.uniform(-3.0, 3.0, size)
        monkeypatch.setattr(verify, "_kernel_inputs",
                            lambda tables, target, a, b: (m[a:b], M[a:b], ell[a:b]))
    top = 200 if source == "synthetic" else 19000
    for target, weights in verify._WEIGHTS.items():
        for weight in weights:
            kind = next(k for k, w in verify._KIND_WEIGHT.items() if w == weight)
            pred = Predicate("t", kind, target, 4343.0 if kind == "const-bound" else 1.0)
            scale = verify._scale_bound(pred)[0]
            for _ in range(60):
                a = 1 if rng.random() < 0.1 else int(rng.integers(1, top))
                b = a + int(rng.integers(1, 700))
                lo, hi = a + 0.4 * rng.random() * (rng.random() < 0.5), b - 0.5 * rng.random()
                x1, x2 = verify._clipped(a, b, lo, hi)
                sup, _ = _interval_sup(target, weight, x1, x2,
                                       *verify._kernel_inputs(tables_small, target, a, b))
                env = verify._chunk_envelope(target, weight, lo, hi, a, b, tables_small)
                assert env >= sup.max(), (target, weight, a, b)
                assert verify._guard(pred, scale * env, hi, b, tables_small) >= \
                    verify._guard(pred, scale * sup, x2, b, tables_small).max()


def test_desk_campaign_runs_the_kernel_on_few_chunks(tables_big, monkeypatch):
    # every interval is still checked, but the kernel runs on at most three
    # chunks per scan (16 to 153 chunks each without the envelopes)
    for pred, lo, hi in (("m4343", 2160605, 5 * 10**6), ("mlog0.0130073", 97063, 230000),
                         ("Msqrt0.5", 201, 10**7 + 1), ("msqrt0.5", 3, 10**7 + 1),
                         ("mchecklog2-0.162", 3, 10**7), ("m1log2-0.138", 671, 10**6)):
        rep = verify_range(PREDICATES[pred], lo, hi, tables_big, jobs=2)
        assert rep.checked == hi - lo and 0 < rep.scanned <= 3 * verify._CHUNK, pred
    seen = []
    kernel = verify._interval_sup

    def counted(target, weight, x1, *rest, **kw):
        seen.append(len(x1))
        return kernel(target, weight, x1, *rest, **kw)

    monkeypatch.setattr(verify, "_interval_sup", counted)
    for target, lo in (("m", 3), ("M", 201)):
        seen.clear()
        sup_scan(tables_big, target, "sqrtx", lo, 10**7)
        assert 0 < sum(seen) <= 3 * verify._CHUNK, target


def _oracle_sup(tables, target, n):
    """60-digit sup of the weighted target on [n, n+1], independent of the
    verify kernel: exact m(n), and the critical points of the signed
    weighted function from sign changes of its numerical derivative."""
    with mp.workdps(60):
        fr = exact_prefix_fraction(tables.mu, n)
        m = mp.mpf(fr.numerator) / fr.denominator
        M = int(tables.mu.mertens[n])
        if target == "M":
            return abs(M) / mp.sqrt(n)
        if target == "m":
            return abs(m)
        if target == "m1":
            def h(x):
                return (m - M / x) * mp.log(x) ** 2
        else:
            d = 1 + per_term_ell(tables.mu.mu, n, dps=60)

            def h(x):
                return (m * mp.log(x) - d) * mp.log(x) ** 2
        grid = mp.linspace(n, n + 1, 33)
        cands = [grid[0], grid[-1]]
        for a, b in zip(grid[:-1], grid[1:]):
            if mp.diff(h, a) * mp.diff(h, b) < 0:
                cands.append(mp.findroot(lambda x: mp.diff(h, x), (a, b),
                                         solver="anderson"))
        return max(abs(h(x)) for x in cands)


@pytest.mark.parametrize("target, kind, n", [
    ("m", "const-bound", 137), ("m1", "log2-bound", 1234),
    ("mcheck-minus-1", "log2-bound", 2), ("mcheck-minus-1", "log2-bound", 911),
    ("M", "sqrt-bound", 5003)])
def test_escalation_on_razor_thin_margin(tables_small, target, kind, n):
    # plant the constant at the float supremum: the margin is inside the
    # guard band, forcing exact re-decision, whose verdict must match an
    # independent 60-digit oracle
    unit = verify_range(Predicate("unit", kind, target, 1.0), n, n + 1, tables_small)
    q = unit.max_ratio
    c = 1.0 / q if kind == "const-bound" else q
    rep = verify_range(Predicate("synthetic", kind, target, c), n, n + 1, tables_small)
    assert rep.checked == 1
    assert n in rep.indeterminate
    sup = _oracle_sup(tables_small, target, n)
    holds = c * sup <= 1 if kind == "const-bound" else sup <= c
    assert rep.passed == holds


def test_exact_m_fixed_point_matches_fraction(tables_small):
    # m(n) is a fixed-point sum; the exact rational is its oracle
    with mp.workdps(50):
        for n in (1, 2, 137, 5003):
            f = exact_prefix_fraction(tables_small.mu, n)
            exact = mp.mpf(f.numerator) / f.denominator
            m = mp.ldexp(verify._exact_prefix(tables_small.mu.mu, n, False)[0], -256)
            assert abs(m - exact) <= mp.mpf(10) ** -48 * abs(exact)


def _exact_prefix_cases(block):
    return sorted({1, 2, 3, 4, 30, 911, 5003, block - 1, block, block + 1})


@pytest.mark.parametrize("block", [7, 64])
def test_exact_prefix_m_is_the_per_term_sum(tables_small, monkeypatch, block):
    # the digit sums join to the integer of the per-term loop, bit for bit,
    # whatever the block edges
    monkeypatch.setattr(verify, "_BLOCK", block)
    mu = tables_small.mu.mu
    for n in _exact_prefix_cases(block):
        for with_ell in (False, True):
            assert verify._exact_prefix(mu, n, with_ell)[0] == per_term_m_fixed(mu, n), n
    with pytest.raises(RangeError):  # the int64 digit sums need n < 2^31
        verify._exact_prefix(mu, 1 << 31, False)


@pytest.mark.parametrize("block", [7, 64])
def test_exact_prefix_ell_within_documented_bound(tables_small, monkeypatch, block):
    # |ell - ell(n)| < ((n + 2 sqrt(n)) ln n + 4) units of 2^-256, against a
    # 100-digit per-k sum (its own error is far below one unit)
    monkeypatch.setattr(verify, "_BLOCK", block)
    mu = tables_small.mu.mu
    with mp.workdps(100):
        for n in _exact_prefix_cases(block):
            ell = verify._exact_prefix(mu, n, True)[1]
            err = abs(mp.ldexp(ell, -256) - per_term_ell(mu, n)) * mp.mpf(2) ** 256
            assert err < (n + 2 * math.sqrt(n)) * math.log(n) + 4, n
    assert verify._exact_prefix(mu, 1, True) == (1 << 256, 0)


def test_m1_kernel_interior_maxima():
    # real tables give no interior m1 maxima below 1e6, so drive the
    # bisection with synthetic (m(n), M(n)); the kernel must dominate dense
    # samples, and its 50-digit run must agree with the float one
    rng = np.random.default_rng(2)
    n = rng.integers(1, 30, 2000).astype(np.float64)
    M = rng.integers(-6, 7, 2000).astype(np.float64)
    m = rng.uniform(-1.0, 1.0, 2000)
    sup, arg = _interval_sup("m1", "log2x", n, n + 1.0, m, M, m)
    interior = np.nonzero((arg != n) & (arg != n + 1.0))[0]
    assert interior.size > 10
    xs = n[:, None] + np.linspace(0.0, 1.0, 1001)[None, :]
    dense = (np.abs(m[:, None] - M[:, None] / xs) * np.log(xs) ** 2).max(axis=1)
    assert np.all(sup >= dense * (1.0 - 1e-14))
    with mp.workdps(50):
        for i in interior[:20].tolist():
            one = [np.array([mp.mpf(float(v[i]))], dtype=object) for v in (n, n + 1.0, m, M, m)]
            s50, a50 = _interval_sup("m1", "log2x", *one, fn=_mp_fns())
            assert float(s50[0]) == pytest.approx(sup[i], rel=1e-14)
            assert float(a50[0]) == pytest.approx(arg[i], rel=1e-12)


def test_ratio_theorem_C_band(tables_small):
    rep = ratio_theorem_C(tables_small, 8510)
    assert rep.passed
    assert rep.min_ratio == pytest.approx(0.6699597920535109, rel=1e-12)
    assert rep.max_ratio == pytest.approx(1.0810597232741925, rel=1e-12)
    assert 2.0 / 3.0 <= rep.min_ratio <= rep.max_ratio <= 1.5


def test_ratio_violation_witness_below_94(tables_small):
    out = ratio_violation_below(tables_small)
    assert out is not None
    x, r = out
    assert 2 <= x < 94
    assert r < 2.0 / 3.0 or r > 1.5


def test_ratio_near_a_band_edge_is_indeterminate(tables_small, monkeypatch):
    # the m radius bounds each ratio's error (2.9e-14 relative at the
    # minimum, x = 114): at a band edge on the minimum, or a hair inside or
    # outside it, the float ratio decides nothing
    rep = ratio_theorem_C(tables_small, 8510)
    assert rep.indeterminate == []
    for low in (rep.min_ratio, rep.min_ratio * (1 + 1e-14), rep.min_ratio * (1 - 1e-14)):
        monkeypatch.setattr(verify, "_RATIO_BAND", (low, 1.5))
        near = ratio_theorem_C(tables_small, 8510)
        assert (rep.argmin, rep.min_ratio) in near.indeterminate
        assert near.violations == [] and not near.passed
    # far outside the band it is still a violation
    monkeypatch.setattr(verify, "_RATIO_BAND", (rep.min_ratio * 1.001, 1.5))
    far = ratio_theorem_C(tables_small, 8510)
    assert (rep.argmin, rep.min_ratio) in far.violations
    assert (rep.argmin, rep.min_ratio) not in far.indeterminate


def test_ratio_range_guard(tables_small, monkeypatch):
    with pytest.raises(RangeError):
        ratio_theorem_C(tables_small, 30000)
    with pytest.raises(InvalidArgumentError):
        ratio_theorem_C(tables_small, 50)  # x_max below the rank 94
    # the witness search ends at the rank; past the table it must refuse
    monkeypatch.setattr(verify, "_RATIO_RANK", 20002)
    with pytest.raises(RangeError):
        ratio_violation_below(tables_small)


@pytest.mark.parametrize("target", ["m1", "mcheck-minus-1"])
@given(st.integers(min_value=3, max_value=19999))
@settings(max_examples=80, deadline=None)
def test_interval_sup_dominates_sampled_points(target, n):
    # soundness: the per-interval supremum is >= the weighted value at
    # interior sample points
    tb = test_interval_sup_dominates_sampled_points.tables
    sup, _ = sup_scan(tb, target, "log2x", n, n + 1)
    for frac in (0.0, 0.25, 0.625, 0.999):
        x = n + frac * 0.9999
        pt = evaluate(tb, x)
        f = pt.m1 if target == "m1" else pt.m_check - 1.0
        val = abs(f) * math.log(x) ** 2
        assert val <= sup + 1e-9


@pytest.fixture(autouse=True, scope="module")
def _attach_tables(tables_small):
    test_interval_sup_dominates_sampled_points.tables = tables_small
