"""The four workloads.  Each has setup() and run_pass(); a pass runs a fixed
list of operations and checks every result against a known answer.

Known answers for desk-verify are the paper's: the 4343 bound holds on
[2160605, 5e6) and fails just below it, the printed log bound fails at
exactly thirteen integers, and the sup of log^2 x |m1(x)| is
(29/105) log^2 7 at x = 7.  The other floats (max ratios, suprema) are the
values mobsum 0.1.0 computes, kept to 1e-12 relative.
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

import mobsum.tables as T
from mobsum.chains import run_chain
from mobsum.identities import (
    residual_bal2,
    residual_mchliss,
    residual_thm1_G,
    residual_thm1_H,
)
from mobsum.quad import mellin_numeric
from mobsum.special import mellin_G1_closed, mellin_H1_closed
from mobsum.verify import PREDICATES, Predicate, ratio_theorem_C, sup_scan, verify_range
from mobsum.weights import G1_SPEC, H1_SPEC

import reference
from proc import run_child

JOBS = 2  # at most two threads per call: a two-core desk machine
REL = 1e-12

LOG_VIOLATIONS = [119543, 119544, 119545, 119546, 119547, 119548, 119598,
                  119599, 119600, 119601, 119602, 120559, 120560]


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def check(self, name, ok, detail=""):
        self.ops.append(Op(name, bool(ok), detail))

    def add(self, key, value):
        self.stats[key] = self.stats.get(key, 0) + value


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * abs(b)


def retained_bytes_per_n(tables):
    arrays = (tables.mu.mu, tables.mu.mertens, tables.series.m.values,
              tables.series.m.error_radius, tables.series.ell.values,
              tables.series.ell.error_radius)
    return sum(a.nbytes for a in arrays) / tables.limit


def _timed_builds(rec, limit, repeats):
    """Build the tables `repeats` times; return (last tables, seconds each)."""
    tables, samples = None, []
    for _ in range(repeats):
        tables = None  # release the previous build before the next one
        t0 = time.perf_counter()
        with rec.span("tables.build_tables"):
            tables = T.build_tables(limit, jobs=JOBS)
        samples.append(time.perf_counter() - t0)
    return tables, samples


# ---------------------------------------------------------------------------

class DeskVerify:
    """The paper's desk-scale campaign on one 1e7 table."""

    name = "desk-verify"

    # (predicate, lo, hi, expected max_ratio, expected argmax); None = witness
    VERIFY = [
        ("m4343", 2160605, 5 * 10**6, 0.9995907537006861, 2160605),
        ("m4343", 2160535, 2160605, None, None),
        ("mlog0.0130073", 97063, 230000, 1.0142867284523662, 119601),
        ("Msqrt0.5", 201, 10**7 + 1, 0.9874838622020375, 201),
        ("msqrt0.5", 3, 10**7 + 1, 0.9217434105419974, 221),
        ("mchecklog2-0.162", 3, 10**7, 0.7800783797802254, 3),
        ("m1log2-0.138", 671, 10**6, 0.9942681543150006, 671),
    ]
    # the rows of scripts/scan_suprema.py at limit 1e7: (target, weight, lo,
    # hi, sup, argmax, absolute tolerance on both)
    SUPS = [
        ("m1", "log2x", 1, 671, (29 / 105) * math.log(7) ** 2, 7.0, 1e-12),
        ("mcheck-minus-1", "log2x", 1, 3, 2 * (2 - math.log(2)) ** 3 / 27,
         math.exp((4 - 2 * math.log(2)) / 3), 1e-9),
        ("m", "sqrtx", 3, 10**7, 0.4608717052709987, 222.0, 1e-12),
        ("M", "sqrtx", 201, 10**7, 0.49374193110101877, 201.0, 1e-12),
    ]
    RATIO = (10**6, 0.6699597920535109, 114, 1.0810597232741925, 8502)

    def __init__(self, seed, workdir):
        self.tables = None  # the campaign ranges are fixed; the seed is unused

    def setup(self, rec):
        self.tables, samples = _timed_builds(rec, 10**7, 3)
        return samples

    def run_pass(self, rec):
        res = PassResult()
        tb = self.tables
        for pred, lo, hi, ratio, argmax in self.VERIFY:
            t0 = time.perf_counter()
            with rec.span(f"verify.verify_range.{pred}"):
                rep = verify_range(PREDICATES[pred], lo, hi, tb, jobs=JOBS)
            res.add("verify_s", time.perf_counter() - t0)
            res.add("intervals", rep.checked)
            res.add("escalations", len(rep.indeterminate))
            name = f"verify {pred} [{lo},{hi})"
            if ratio is None:
                res.check(name, len(rep.violations) >= 1, "rank witness must fail")
                continue
            bad = [v[0] for v in rep.violations]
            want = LOG_VIOLATIONS if pred == "mlog0.0130073" else []
            res.check(name, bad == want and _close(rep.max_ratio, ratio)
                      and rep.argmax == argmax,
                      f"violations={bad[:20]} max_ratio={rep.max_ratio!r} "
                      f"argmax={rep.argmax}")
        for target, weight, lo, hi, sup, arg, tol in self.SUPS:
            with rec.span(f"verify.sup_scan.{target}"):
                got, at = sup_scan(tb, target, weight, lo, hi)
            res.check(f"sup_scan {target} {weight} [{lo},{hi}]",
                      abs(got - sup) <= tol and abs(at - arg) <= tol,
                      f"sup={got!r} at {at!r}")
        x_max, lo_r, lo_at, hi_r, hi_at = self.RATIO
        with rec.span("verify.ratio_theorem_C"):
            rep = ratio_theorem_C(tb, x_max)
        res.check("ratio_theorem_C 1e6",
                  rep.passed and _close(rep.min_ratio, lo_r) and rep.argmin == lo_at
                  and _close(rep.max_ratio, hi_r) and rep.argmax == hi_at,
                  f"[{rep.min_ratio!r}, {rep.max_ratio!r}] at {rep.argmin}/{rep.argmax}")
        return res


class Escalation:
    """Single intervals whose predicate constant is planted inside the guard
    band, so every decision goes to exact arithmetic."""

    name = "escalation"

    # two narrow log-strata per target, spread over [1e4, 3e5]; escalation
    # costs O(n), so narrow strata keep the pass cost the same for any seed
    STRATA = [("m", 10000, 11000), ("m", 270000, 297000),
              ("m1", 26000, 28600), ("m1", 120000, 132000),
              ("mcheck-minus-1", 16000, 17600), ("mcheck-minus-1", 60000, 66000),
              ("M", 40000, 44000), ("M", 200000, 220000)]
    SPARE = 40  # candidates after n, for points where the supremum is 0

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        draws = [(t, int(lo * (hi / lo) ** rng.random()), rng.random() < 0.5)
                 for t, lo, hi in self.STRATA]
        top = max(n for _, n, _ in draws) + self.SPARE
        mu, spf = reference.sieve(top)
        cands = [n + i for _, n, _ in draws for i in range(self.SPARE)]
        ell = [n + i for t, n, _ in draws if t == "mcheck-minus-1"
               for i in range(self.SPARE)]
        pre = reference.prefixes(mu, spf, cands, ell)
        self.plants = []
        for target, n, holds in draws:
            for i in range(self.SPARE):
                p = reference.plant(target, pre[n + i], holds)
                if p is not None:
                    self.plants.append(p)
                    break
            else:
                raise RuntimeError(f"no plantable {target} point near n={n}")
        self.tables = None

    def setup(self, rec):
        self.tables, samples = _timed_builds(rec, 10**6, 9)
        return samples

    def run_pass(self, rec):
        res = PassResult()
        for p in self.plants:
            pred = Predicate(f"plant-{p.target}", p.kind, p.target, p.c)
            t0 = time.perf_counter()
            with rec.span(f"verify.escalation.{p.target}"):
                rep = verify_range(pred, p.n, p.n + 1, self.tables, jobs=JOBS)
            res.add("verify_s", time.perf_counter() - t0)
            res.add("intervals", rep.checked)
            res.add("escalations", len(rep.indeterminate))
            res.check(f"escalate {p.target} n={p.n} c={p.c!r}",
                      rep.indeterminate == [p.n] and rep.passed == p.holds,
                      f"indeterminate={rep.indeterminate} passed={rep.passed} "
                      f"planted holds={p.holds}")
        return res


class Quadrature:
    """Mellin enclosures and identity residuals on a small table."""

    name = "quadrature"

    X = 10**5
    MELLIN = [(G1_SPEC, 0.5), (G1_SPEC, 1.0), (H1_SPEC, 0.5)]
    RESIDUALS = [("thm1_G", residual_thm1_G), ("thm1_H", residual_thm1_H),
                 ("bal2", residual_bal2), ("mchliss", residual_mchliss)]
    # one x per narrow log-stratum; the cost of a residual grows like x
    X_STRATA = [(30, 33), (300, 330), (3000, 3300), (30000, 33000)]
    TOL = 1e-7

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.xs = [lo * (hi / lo) ** rng.random() for lo, hi in self.X_STRATA]
        self.closed = [(mellin_G1_closed if w is G1_SPEC else mellin_H1_closed)(s).value
                       for w, s in self.MELLIN]
        self.tables = None

    def setup(self, rec):
        self.tables, samples = _timed_builds(rec, self.X, 15)
        return samples

    def run_pass(self, rec):
        res = PassResult()
        for (w, s), closed in zip(self.MELLIN, self.closed):
            with rec.span(f"quad.mellin_numeric.{w.name}"):
                b = mellin_numeric(w, s, self.X)
            res.stats[f"bracket_width.{w.name}"] = max(
                res.stats.get(f"bracket_width.{w.name}", 0.0), b.width)
            res.check(f"mellin {w.name} s={s}", b.contains(closed) and b.width < 1e-6,
                      f"[{b.lo!r}, {b.hi!r}] closed={closed!r}")
        for x in self.xs:
            for key, fn in self.RESIDUALS:
                with rec.span(f"identities.residual.{key}"):
                    rep = fn(self.tables, x, tol=self.TOL)
                res.stats["worst_residual"] = max(res.stats.get("worst_residual", 0.0),
                                                  abs(rep.residual))
                res.check(f"residual {key} x={x!r}",
                          rep.passed and abs(rep.residual) < self.TOL,
                          f"residual={rep.residual!r}")
        return res


# ---------------------------------------------------------------------------

class CliCache:
    """The real CLI as child processes against a fresh cache directory."""

    name = "cli-cache"

    M4343 = ["verify", "--pred", "m4343", "--from", "2160605", "--to", "5e6",
             "--jobs", str(JOBS)]
    STEPS = [  # (span name, argv, expected exit code, required output)
        ("cli.verify_cold", M4343, 0, "max_ratio=0.999590753700686 argmax=2160605 status=PASS"),
        ("cli.verify_warm", M4343, 0, "max_ratio=0.999590753700686 argmax=2160605 status=PASS"),
        ("cli.verify_mlog", ["verify", "--pred", "mlog0.0130073", "--from", "97063",
                             "--to", "230000", "--jobs", str(JOBS)], 1,
         "violations=13 max_ratio=1.01428672845237 argmax=119601 status=FAIL"),
        ("cli.identity_bal2", ["identity", "--name", "bal2", "--x", "4999.5"], 0,
         "status=PASS"),
        ("cli.bootstrap_const", ["bootstrap", "--chain", "const"], 0,
         "m ≤ 1/4343 for x ≥ 2160605"),
        ("cli.mellin_g1", ["mellin", "--form", "g1", "--s", "1"], 0,
         "value=0.172784335098467"),
    ]
    CACHED = {"verify", "identity"}
    STARTUPS = 9

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "MOBSUM_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(T.__file__))  # src/
        self.tables = None

    def _cli(self, args):
        return run_child([sys.executable, "-m", "mobsum.cli", *args], self.workdir,
                         env=self.env)

    def setup(self, rec):
        samples = []
        for _ in range(self.STARTUPS):
            with rec.span("cli.startup"):
                rc, out, err, wall, _ = self._cli(["--help"])
            if rc != 0:
                raise RuntimeError(f"mobsum --help exited {rc}: {err.strip()}")
            samples.append(wall)
        return samples

    def run_pass(self, rec):
        res = PassResult()
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        try:
            for name, args, want_rc, want_out in self.STEPS:
                if args[0] in self.CACHED:
                    args = [*args, "--cache-dir", cache]
                with rec.span(name):
                    rc, out, err, wall, rss = self._cli(args)
                res.stats[name] = wall
                res.stats["child_rss_kb"] = max(res.stats.get("child_rss_kb", 0), rss)
                res.add("intervals", sum(int(c) for c in re.findall(r" checked=(\d+)", out)))
                res.add("escalations", len(re.findall(r"^escalated ", out, re.M)))
                if name == "cli.verify_mlog":
                    bad = [int(n) for n in re.findall(r"^violation .* n=(\d+) ", out, re.M)]
                    ok = bad == LOG_VIOLATIONS
                else:
                    ok = True
                res.check(f"mobsum {' '.join(args[:3])}",
                          ok and rc == want_rc and want_out in out,
                          f"exit {rc} (want {want_rc}); {(out or err).strip()[-200:]}")
            files = [os.path.join(cache, f) for f in os.listdir(cache)]
            res.stats["cache_files"] = len(files)
            res.stats["cache_bytes"] = sum(os.path.getsize(f) for f in files)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return res

    def replay(self, rec):
        """In-process replay of what `verify --pred m4343` does cold, then
        warm (cli._get_tables), plus the const chain, for per-layer spans."""
        cache = tempfile.mkdtemp(prefix="replay-", dir=self.workdir)
        try:
            limit = 5 * 10**6
            path = T.cache_path(cache, limit)
            tables = T.build_tables(limit, jobs=JOBS)
            with rec.span("tables.save_table"):
                T.save_table(tables.mu, path)
            tables = None
            with rec.span("tables.load_table"):
                mu = T.load_table(path)
            self.tables = T.Tables(mu=mu, series=T.SeriesPair(m=T.m_series(mu),
                                                               ell=T.ell_series(mu)))
            with rec.span("verify.verify_range.m4343"):
                verify_range(PREDICATES["m4343"], 2160605, 5e6, self.tables, jobs=JOBS)
            with rec.span("chains.run_chain"):
                run_chain("const")
        finally:
            shutil.rmtree(cache, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DeskVerify, Escalation, Quadrature, CliCache)}
