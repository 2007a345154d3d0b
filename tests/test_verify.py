import collections
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    exact_prefix_fraction, exact_prefix_one_pass, per_term_ell, per_term_m_fixed, table_array,
)
from mobsum import cli, tables, verify
from mobsum.errors import InvalidArgumentError, RangeError, ResourceError
from mobsum.quad import identity_kernel_integral
from mobsum.tables import Chunk, build_tables, evaluate, with_series
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
        max(abs(int(table_array(tables_small, "M")[n])) / math.sqrt(n)
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
    # a scan starts at x >= 1, as verify_range does: the table has no
    # interval below 1, where |mcheck(x) - 1| log^2 x = log^2 x (5.30 at 0.1)
    with pytest.raises(InvalidArgumentError, match="range must start at x >= 1"):
        sup_scan(tables_small, "mcheck-minus-1", "log2x", 0.1, 3)


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
                for t, row in verify.TARGETS.items() for w in row.weights
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
    mert = table_array(tables_small, "M")
    assert (int(mert[201]), int(mert[202])) == (-7, -6)
    assert sup_scan(tables_small, "M", "sqrtx", 201.5, 202.5) == (
        7.0 / math.sqrt(201.5), 201.5)
    # |m| is constant on [2, 3), so the first point of [2.5, 2.9] is the argmax
    assert sup_scan(tables_small, "m", "1", 2.5, 2.9) == (0.5, 2.5)


def test_verify_range_clips_to_a_fractional_range(tables_small):
    # M(7) = -2: on [7.5, 8), 2/sqrt(x) < c although 2/sqrt(7) > c, so
    # a scan of all of [7, 8) would report a violation outside the range
    assert int(table_array(tables_small, "M")[7]) == -2
    c = 1.001 * 2.0 / math.sqrt(7.5)
    rep = verify_range(Predicate("x", "sqrt-bound", "M", c), 7.5, 8, tables_small)
    assert (rep.lo, rep.hi, rep.checked, rep.violations) == (7, 8, 1, [])
    assert rep.max_ratio == pytest.approx(1 / 1.001, rel=1e-15)
    # sqrt(x)|m(7)| grows: on [7, 7.5) it stays below c, but not on [7, 8)
    m7 = abs(float(table_array(tables_small, "m")[7]))
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
            (lambda: verify_range(PREDICATES["m1log2-0.138"], 671, 20000, m_only), "ell"),
            (lambda: ratio_theorem_C(bare, 1000), "m"),
            (lambda: evaluate(m_only, 10.5), "ell"),
            (lambda: identity_kernel_integral(bare, 100.5, "m-kernel"), "m")):
        with pytest.raises(InvalidArgumentError, match=f"without the {name} prefix"):
            call()
    # where the series a target reads are there, results are the full tables'
    for pred, lo, tb in (("Msqrt0.5", 201, bare), ("msqrt0.5", 3, m_only)):
        assert verify_range(PREDICATES[pred], lo, 20000, tb) == verify_range(
            PREDICATES[pred], lo, 20000, tables_small)
    assert sup_scan(bare, "M", "sqrtx", 201, 20000) == sup_scan(
        tables_small, "M", "sqrtx", 201, 20000)


def test_each_target_row_names_its_series_and_records(blocked, monkeypatch):
    # a TARGETS row names the prefix series its scans use, no fewer and no
    # more: on tables built from the row alone (as the CLI builds them) every
    # report and scan is the full tables', and the chunks use each of the
    # row's series for a record, a radius or a slice; and each chunk
    # computes the records its envelope reads, each once, and no other
    records = {"M": {"M"}, "m": {"m"}, "m1": {"M", "m1"}, "mcheck-minus-1": {"m", "mcheck"}}
    asked, used, made = collections.Counter(), set(), []

    class Counted(dict):
        def __getitem__(self, record):
            asked[record] += 1
            where = super().__getitem__(record)
            used.add(where[0])
            return where

    monkeypatch.setattr(tables, "_RECORDS", Counted(tables._RECORDS))
    chunk = tables.Tables.chunk

    def traced(self, a, b):
        made.append(a)
        c = chunk(self, a, b)
        return c._replace(radius=lambda name: used.add(name) or c.radius(name),
                          read=lambda name: used.add(name) or c.read(name))

    def scans(t, pred, lo, hi):
        weight = verify._KIND_WEIGHT[pred.kind]
        return verify_range(pred, lo, hi, t), sup_scan(t, pred.target, weight, lo, hi)

    monkeypatch.setattr(tables.Tables, "chunk", traced)
    for target, row in verify.TARGETS.items():
        tb = cli._get_tables(20000, None, target)
        for weight in row.weights:
            kind = next(k for k, w in verify._KIND_WEIGHT.items() if w == weight)
            pred = Predicate("t", kind, target, 4343.0 if kind == "const-bound" else 0.2)
            for lo, hi in ((2, 20000), (671.5, 19999.5)):
                full = scans(blocked, pred, lo, hi)
                asked.clear(), used.clear(), made.clear()
                assert scans(tb, pred, lo, hi) == full
                assert asked == dict.fromkeys(records[target], len(made)), (target, weight)
                assert used - {None, "M"} == set(row.series), (target, weight)


def test_sup_scan_tie_across_chunk_edge(tables_small, monkeypatch):
    # mu(n+1) = 0 keeps m constant, so intervals n and n+1 tie under the
    # weight 1; with a chunk edge between them the first must still win
    mu, m = tables_small.mu.mu, np.abs(table_array(tables_small, "m"))
    n = next(k for k in range(7, 20000) if mu[k + 1] == 0 and m[k] > m[k - 6:k].max())
    monkeypatch.setattr(verify, "_CHUNK", 7)
    assert m[n + 1] == m[n]
    assert sup_scan(tables_small, "m", "1", n - 6, n + 1.5) == (float(m[n]), float(n))


def test_pruned_reports_equal_exhaustive(tables_small, monkeypatch, request):
    # the chunk envelopes skip chunks: every report (truncated, escalated,
    # tied across a chunk edge, fractional) and every scan must equal the
    # one that runs the kernel on every chunk
    mu, m = tables_small.mu.mu, np.abs(table_array(tables_small, "m"))
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
                for t, row in verify.TARGETS.items() for w in row.weights
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


@pytest.mark.parametrize("source", ["tables", "synthetic"])
def test_chunk_envelopes_dominate_the_kernel(tables_small, source):
    # E bounds the float supremum of every interval of a span and G every
    # guard, for each target and weight, on random spans with fractional
    # ends; the synthetic m, M and ell give m1 its interior maxima, and the
    # synthetic m = M/n and ell = m log n - 1 make m1 and mcheck - 1 vanish
    # at the integers, so that the variation within [n, n+1) is all of E
    rng = np.random.default_rng(7)
    if source == "synthetic":
        size = tables_small.limit + 1
        m, M = rng.uniform(-1.0, 1.0, size), rng.integers(-6, 7, size).astype(np.int32)
        ell = rng.uniform(-3.0, 3.0, size)
        n = np.arange(size, dtype=np.float64)
        n[0] = 1.0
        vanishing = M / n
        arrays = (M, m, ell), (M, vanishing, vanishing * np.log(n) - 1.0)
        series = tables_small.series

        def chunks(a, b):
            for vs in arrays:
                M_, m_, ell_ = (v[a:b] for v in vs)
                m1 = m_ - M_ / n[a:b]
                mcheck = m_ * np.log(n[a:b]) - (ell_ + 1.0)
                tops = (float(np.abs(v).max()) for v in (M_, m_, m1, mcheck))
                yield Chunk(a, b, dict(zip(("M", "m", "m1", "mcheck"), tops)).get,
                            {"m": series.m.radius(b - 1), "ell": series.ell.radius(b - 1)}.get,
                            {"M": M_, "m": m_, "ell": ell_}.get)
    else:
        def chunks(a, b):
            yield tables_small.chunk(a, b)
    top = 200 if source == "synthetic" else 19000
    for target, row in verify.TARGETS.items():
        for weight in row.weights:
            kind = next(k for k, w in verify._KIND_WEIGHT.items() if w == weight)
            pred = Predicate("t", kind, target, 4343.0 if kind == "const-bound" else 1.0)
            scale = verify._scale_bound(pred)[0]
            for _ in range(60):
                a = 1 if rng.random() < 0.1 else int(rng.integers(1, top))
                b = a + int(rng.integers(1, 700))
                lo, hi = a + 0.4 * rng.random() * (rng.random() < 0.5), b - 0.5 * rng.random()
                x1, x2 = verify._clipped(a, b, lo, hi)
                for c in chunks(a, b):
                    sup, _ = _interval_sup(target, weight, x1, x2, *map(c.read, ("m", "M", "ell")))
                    env = verify._chunk_envelope(target, weight, lo, hi, c)
                    assert env >= sup.max(), (target, weight, a, b)
                    assert verify._guard(pred, scale * env, hi, c) >= \
                        verify._guard(pred, scale * sup, x2, c).max()


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


def test_desk_m_and_M_scans_reduce_only_their_end_chunks(tables_big, monkeypatch):
    # every chunk takes its m or M envelope from the build's block maxima:
    # not even a first or last chunk off the block grid reduces a slice
    reduced = []
    absmax = tables._absmax
    monkeypatch.setattr(tables, "_absmax", lambda v: reduced.append(len(v)) or absmax(v))
    for scan in (
            lambda: verify_range(PREDICATES["m4343"], 2160605, 5 * 10**6, tables_big),
            lambda: verify_range(PREDICATES["mlog0.0130073"], 97063, 230000, tables_big),
            lambda: verify_range(PREDICATES["Msqrt0.5"], 201, 10**7 + 1, tables_big),
            lambda: verify_range(PREDICATES["msqrt0.5"], 3, 10**7 + 1, tables_big),
            lambda: sup_scan(tables_big, "m", "sqrtx", 3, 10**7),
            lambda: sup_scan(tables_big, "M", "sqrtx", 201, 10**7)):
        reduced.clear()
        scan()
        assert reduced == []


def test_desk_mcheck_scans_reduce_only_their_end_chunks(tables_big, monkeypatch):
    # every chunk takes its mcheck envelope from the build's record of
    # |m(n) log n - ell(n) - 1|: not even a partial first or last chunk of
    # the desk mcheck scans reduces an mcheck slice
    reduced = []
    mcheck_absmax = tables._mcheck_absmax
    monkeypatch.setattr(tables, "_mcheck_absmax",
                        lambda m, *rest: reduced.append(len(m)) or mcheck_absmax(m, *rest))
    for scan in (
            lambda: verify_range(PREDICATES["mchecklog2-0.162"], 3, 10**7, tables_big),
            lambda: sup_scan(tables_big, "mcheck-minus-1", "log2x", 1, 3)):
        reduced.clear()
        scan()
        assert reduced == []


def test_chunk_maxima_read_no_slice(blocked, monkeypatch):
    # every largest value of a chunk is the largest build record of the
    # blocks its span meets: on the grid, off it, one index or across
    # blocks, no chunk reads or reduces a slice
    def refuse(*args, **kwargs):
        pytest.fail("a chunk maximum read a slice")

    for name in ("_absmax", "_m1_absmax", "_mcheck_absmax"):
        monkeypatch.setattr(tables, name, refuse)
    monkeypatch.setattr(tables.Tables, "read", refuse)
    s = blocked.series
    records = (blocked.mu.block_absmax, s.m.block_absmax, s.ell.m1_absmax, s.ell.mcheck_absmax)
    for a, b in ((1, 98), (98, 195), (19985, 20001), (2, 98), (98, 194), (5, 6), (97, 98),
                 (50, 400), (1, 20001)):
        c = blocked.chunk(a, b)
        first, last = (a - 1) // 97 + 1, (b - 2) // 97 + 1
        assert [c.top(r) for r in ("M", "m", "m1", "mcheck")] == \
            [float(r[first:last + 1].max()) for r in records], (a, b)


@pytest.fixture
def blocked(monkeypatch):
    """A 2e4 table built in 97-index blocks and scanned in 97-interval
    chunks: every chunk of a scan but its ends is a whole block, whose
    envelope reads the build's block maxima."""
    monkeypatch.setattr(tables, "_BLOCK", 97)
    monkeypatch.setattr(verify, "_CHUNK", 97)
    return build_tables(20000)


def test_whole_block_envelopes_dominate_the_kernel(blocked, monkeypatch):
    # E bounds the float supremum of every interval of every block and G
    # every guard, for each target and weight, with whole and fractional ends
    rng = np.random.default_rng(11)
    monkeypatch.setattr(tables, "_absmax",  # every chunk reads the block maxima
                        lambda v: pytest.fail("a whole block reduced its slice"))
    for target, row in verify.TARGETS.items():
        for weight in row.weights:
            kind = next(k for k, w in verify._KIND_WEIGHT.items() if w == weight)
            pred = Predicate("t", kind, target, 4343.0 if kind == "const-bound" else 1.0)
            scale = verify._scale_bound(pred)[0]
            for a, b in verify._spans(1, blocked.limit + 1):
                c = blocked.chunk(a, b)
                for lo, hi in ((a, b), (a + 0.4 * rng.random(), b - 0.5 * rng.random())):
                    x1, x2 = verify._clipped(a, b, lo, hi)
                    sup, _ = _interval_sup(target, weight, x1, x2, *map(c.read, ("m", "M", "ell")))
                    env = verify._chunk_envelope(target, weight, lo, hi, c)
                    assert env >= sup.max(), (target, weight, a, b)
                    assert verify._guard(pred, scale * env, hi, c) >= \
                        verify._guard(pred, scale * sup, x2, c).max()


def test_whole_block_envelopes_keep_reports_exhaustive(blocked, monkeypatch, request):
    # with whole-block envelopes, every report (capped and fractional too)
    # and every scan equals the one that runs the kernel on every chunk, and
    # a passing scan runs the kernel on under a quarter of its intervals
    cap = verify._MAX_VIOLATIONS
    preds = [*PREDICATES.values(), Predicate("mlog2", "log2-bound", "m", 0.05)]

    def run():
        reps = [verify_range(p, lo, hi, blocked) for p in preds
                for lo, hi in ((2, 20001), (671.5, 9999.5), (671.5, 5999.5))]
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", 5)
        capped = verify_range(PREDICATES["m4345"], 2, 20001, blocked)
        monkeypatch.setattr(verify, "_MAX_VIOLATIONS", cap)
        sups = [sup_scan(blocked, t, w, lo, hi) for t, row in verify.TARGETS.items()
                for w in row.weights for lo, hi in ((1, 20000), (2.5, 9999.5))]
        return reps, capped, sups

    pruned = run()
    request.getfixturevalue("exhaustive")
    assert run() == pruned
    reps, capped, _ = pruned
    assert capped.truncated and any(r.violations for r in reps)
    assert all(r.scanned < r.checked / 4 for r in reps if r.passed)


def _running_ratio_accumulating(tables, lo, x_max):
    """`verify._running_ratio` with both running maxima accumulated over
    every chunk in full."""
    run_m = run_M = prev = 0.0
    for a, b in verify._spans(1, x_max + 1):
        c = tables.chunk(a, b)
        abs_m = np.abs(c.read("m"))
        sup_m = np.empty_like(abs_m)
        sup_m[0], sup_m[1:], prev = prev, abs_m[:-1], abs_m[-1]
        np.maximum(sup_m, abs_m, out=sup_m)
        sup_m *= np.arange(a, b, dtype=np.float64)
        sup_M = np.abs(c.read("M")).astype(np.float64)
        for run, sup in ((run_m, sup_m), (run_M, sup_M)):
            sup[0] = max(sup[0], run)
            np.maximum.accumulate(sup, out=sup)
        run_m, run_M = sup_m[-1], sup_M[-1]
        if b > lo:
            i = max(lo - a, 0)
            yield a + i, sup_m[i:] / sup_M[i:], sup_M[i:], c.radius("m")


def test_ratio_walk_equals_a_walk_accumulating_every_chunk(blocked, monkeypatch):
    # the walk accumulates a chunk only from its first new running record
    # and fills one that holds none: its ratios and every report equal
    # those of a walk that accumulates every chunk, and both paths run
    paths = []
    running_max = verify._running_max

    def traced(sup, run):
        i = int(np.argmax(sup > run))
        paths.append("fill" if sup[i] <= run else "partial" if i else "whole")
        running_max(sup, run)

    monkeypatch.setattr(verify, "_running_max", traced)

    def walks():
        return [(x0, r.tobytes(), sup_M.tobytes(), rad)
                for lo, hi in ((94, 20000), (2, 93), (5000, 5100))
                for x0, r, sup_M, rad in verify._running_ratio(blocked, lo, hi)]

    def reports():
        rep = ratio_theorem_C(blocked, 20000)
        monkeypatch.setattr(verify, "_RATIO_BAND", (rep.min_ratio, 1.5))
        edge = ratio_theorem_C(blocked, 20000)
        monkeypatch.setattr(verify, "_RATIO_BAND", (2.0 / 3.0, 1.5))
        return rep, edge, ratio_violation_below(blocked)

    got = walks(), reports()
    assert {"fill", "partial"} <= set(paths)
    assert got[1][1].indeterminate and not got[1][1].passed
    monkeypatch.setattr(verify, "_running_ratio", _running_ratio_accumulating)
    assert (walks(), reports()) == got


def _oracle_sup(tables, target, n):
    """60-digit sup of the weighted target on [n, n+1], independent of the
    verify kernel: exact m(n), and the critical points of the signed
    weighted function from sign changes of its numerical derivative."""
    with mp.workdps(60):
        fr = exact_prefix_fraction(tables.mu, n)
        m = mp.mpf(fr.numerator) / fr.denominator
        M = int(tables.mu.mu[1:n + 1].sum())
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


def _one_shot(mu, n, with_ell):
    """(m(n), ell(n)) from one query on a fresh memo over mu[:n + 1]."""
    return tables._ExactMemo(mu[:max(n, 0) + 1]).query(n, with_ell)


def test_exact_m_fixed_point_matches_fraction(tables_small):
    # m(n) is a fixed-point sum; the exact rational is its oracle
    with mp.workdps(50):
        for n in (1, 2, 137, 5003):
            f = exact_prefix_fraction(tables_small.mu, n)
            exact = mp.mpf(f.numerator) / f.denominator
            m = mp.ldexp(_one_shot(tables_small.mu.mu, n, False)[0], -256)
            assert abs(m - exact) <= mp.mpf(10) ** -48 * abs(exact)


def _exact_prefix_cases(block):
    return sorted({1, 2, 3, 4, 30, 911, 5003, block - 1, block, block + 1})


@pytest.mark.parametrize("block", [7, 64])
def test_exact_prefix_m_is_the_per_term_sum(tables_small, monkeypatch, block):
    # the digit sums join to the integer of the per-term loop, bit for bit,
    # whatever the block edges
    monkeypatch.setattr(tables, "_EXACT_BLOCK", block)
    mu = tables_small.mu.mu
    for n in _exact_prefix_cases(block):
        for with_ell in (False, True):
            assert _one_shot(mu, n, with_ell)[0] == per_term_m_fixed(mu, n), n
    with pytest.raises(RangeError):  # the int64 digit sums need n < 2^31
        _one_shot(mu, 1 << 31, False)


@pytest.mark.parametrize("block", [7, 64])
def test_exact_prefix_ell_within_documented_bound(tables_small, monkeypatch, block):
    # |ell - ell(n)| < ((n + 2 sqrt(n)) ln n + 4) units of 2^-256, against a
    # 100-digit per-k sum (its own error is far below one unit)
    monkeypatch.setattr(tables, "_EXACT_BLOCK", block)
    mu = tables_small.mu.mu
    with mp.workdps(100):
        for n in _exact_prefix_cases(block):
            ell = _one_shot(mu, n, True)[1]
            err = abs(mp.ldexp(ell, -256) - per_term_ell(mu, n)) * mp.mpf(2) ** 256
            assert err < (n + 2 * math.sqrt(n)) * math.log(n) + 4, n
    assert _one_shot(mu, 1, True) == (1 << 256, 0)


def _fresh(tables_small):
    """The small tables, built again on the block grid as it is now, with
    the same series and a memo of their own, empty: it reads _BLOCK and
    _EXACT_BLOCK as they are when it is queried."""
    return tables.with_series(tables._mu_table(tables_small.mu.mu))


def test_exact_prefix_memo_matches_one_shot_in_any_order(tables_small, monkeypatch):
    # a memo grown by earlier queries, in any order, returns at each block
    # edge and at random n the integers of a one-shot pass from k = 1
    monkeypatch.setattr(tables, "_BLOCK", 64)
    monkeypatch.setattr(tables, "_EXACT_BLOCK", 7)
    mu = tables_small.mu.mu
    rng = np.random.default_rng(27)
    edges = [64 * j + d for j in (1, 2, 5, 40, 93) for d in (-1, 0, 1)]
    # isqrt(n) passes a prime inside a block: T_p(c_j) kept beside E_j
    squares = [p * p + d for p in (11, 31, 53, 67) for d in (-1, 0, 1)]
    ns = sorted({0, 1, 2, 3, *edges, *squares, *rng.integers(4, 6000, 4).tolist()})
    expect = {(n, e): exact_prefix_one_pass(mu, n, e) for n in ns for e in (False, True)}
    for n in ns:
        assert expect[n, False] == (per_term_m_fixed(mu, n), None), n
        assert expect[n, True][0] == expect[n, False][0], n
        for e in (False, True):
            assert _one_shot(mu, n, e) == expect[n, e], (n, e)
    for order in (ns, ns[::-1], rng.permutation(ns).tolist()):
        for with_ell in (False, True):
            fresh = _fresh(tables_small)
            for n in order:
                got = fresh.exact_prefix(n, with_ell)
                assert got == (int(mu.cumsum()[n]), *expect[n, with_ell]), (n, with_ell)
    mixed = _fresh(tables_small)  # m-only checkpoints first, then ell past them
    for n, e in ((2560, False), (321, True), (5953, True), (5951, False), (2561, True)):
        assert mixed.exact_prefix(n, e)[1:] == expect[n, e], (n, e)


def test_exact_prefix_repeat_costs_one_block(tables_small, monkeypatch):
    # below the memo's top, a query reads a checkpoint and a tail of fewer
    # than _BLOCK k, and extends no chain
    monkeypatch.setattr(tables, "_BLOCK", 1024)
    t = _fresh(tables_small)
    t.exact_prefix(20000, True)
    seen = {"k": [], "log": 0}
    recip, log_step = tables._recip_limbs, tables._log_step

    def count_recip(k, out=None):
        seen["k"].append(len(k))
        return recip(k, out)

    def count_log(p, prev):
        seen["log"] += 1
        return log_step(p, prev)

    monkeypatch.setattr(tables, "_recip_limbs", count_recip)
    monkeypatch.setattr(tables, "_log_step", count_log)
    for n in (19999, 15000, 15000, 2047, 1024):
        for with_ell in (True, False):
            seen["k"].clear()
            t.exact_prefix(n, with_ell)
            assert sum(seen["k"]) <= 1024 and seen["log"] == 0, (n, with_ell)


def test_exact_prefix_memo_shared_by_threads(tables_small, monkeypatch):
    # six threads grow one memo at once, switching every microsecond; each
    # must read the integers of a one-shot pass
    monkeypatch.setattr(tables, "_BLOCK", 256)
    mu = tables_small.mu.mu
    ns = np.random.default_rng(6).integers(0, 20001, 12).tolist()
    expect = {(n, e): _one_shot(mu, n, e) for n in ns for e in (False, True)}
    shared, got = _fresh(tables_small), []

    def work(seed):
        rng = np.random.default_rng(seed)
        for n in rng.permutation(ns).tolist():
            e = bool(rng.integers(2))
            got.append(shared.exact_prefix(n, e)[1:] == expect[n, e])

    threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(got) == 6 * len(ns) and all(got)


def test_exact_prefix_rejects_n_outside_the_table(tables_small):
    # before the memo grows, and before M(n) is read
    t = _fresh(tables_small)
    for n in (-3, -1, 20001, 1 << 31):
        for with_ell in (False, True):
            with pytest.raises(RangeError, match=f"n = {n} need 0 <= n <= 20000"):
                t.exact_prefix(n, with_ell)
    memo = t._exact
    assert (memo.nbytes(), memo.top, memo.m_small) == (_fresh(tables_small)._exact.nbytes(), 1, [0])
    assert t.exact_prefix(0, True) == (0, 0, 0)


def test_exact_prefix_memo_charges_memory_before_growing(tables_small, monkeypatch):
    # the tables beside the memo plus 16 KB of physical memory: 305 more m
    # checkpoints of _INT_BYTES, or a chain of 48 B per prime to 3000 or
    # 2e4, must fail before the memo holds any of it
    monkeypatch.setattr(tables, "_BLOCK", 64)
    t = _fresh(tables_small)
    resident = t._exact.resident
    assert resident > 21 * 20000  # mu and the LRU bound, 20 B/n at this size
    sysconf = {"SC_PHYS_PAGES": (resident >> 12) + 4, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(tables.os, "sysconf", sysconf.__getitem__)
    assert t.exact_prefix(500, False)[1] == per_term_m_fixed(tables_small.mu.mu, 500)
    held = t._exact.nbytes()
    for n, with_ell in ((20000, False), (20000, True), (3000, True)):
        with pytest.raises(ResourceError, match="physical memory"):
            t.exact_prefix(n, with_ell)
        assert t._exact.nbytes() == held and t._exact.top == 1
    # 64 KB holds the memo of a query at 500 but not the tables beside it
    sysconf["SC_PHYS_PAGES"] = 16
    with pytest.raises(ResourceError, match="physical memory"):
        _fresh(tables_small).exact_prefix(500, False)
    assert 16 << 12 > held
    # with two-index blocks the ell checkpoints, 224 B per block, pass the
    # limit where the chain to 3000 (29 KB) does not: the chain may grow,
    # the checkpoints must not
    monkeypatch.setattr(tables, "_BLOCK", 2)
    t = _fresh(tables_small)
    sysconf["SC_PHYS_PAGES"] = (t._exact.resident >> 12) + 16
    with pytest.raises(ResourceError, match="physical memory"):
        t.exact_prefix(3000, True)
    assert (t._exact.top, t._exact.e_cp, t._exact.m_cp) == (3000, [], [0])


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
