import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mobsum
from mobsum import cli, tables
from mobsum.cli import _build_parser, main
from mobsum.errors import InvalidArgumentError, ResourceError
from mobsum.verify import PREDICATES, TARGETS

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys, "verify")  # missing required flags
    assert code == 2
    code, _, err = run(capsys, "verify", "--pred", "nonsense",
                       "--from", "10", "--to", "20")
    assert code == 2
    assert "unknown predicate" in err
    # an inverted range is a usage error, never a PASS
    code, out, _ = run(capsys, "verify", "--pred", "m4343",
                       "--from", "5000", "--to", "3000")
    assert code == 2
    assert "status=PASS" not in out
    # a sup below x = 1 is a usage error, not a value for [1, to] printed as [from, to]
    code, out, err = run(capsys, "sup", "--target", "mcheck-minus-1", "--weight", "log2x",
                         "--from", "0.1", "--to", "3")
    assert code == 2 and out == "" and "range must start at x >= 1" in err
    # a cache directory that is a regular file is a usage error, not a traceback
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3",
                         "--to", "100", "--cache-dir", str(not_a_dir))
    assert code == 2
    assert "usage error" in err and "status=" not in out
    # fewer than one worker is a usage error, not a silent single worker
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3",
                             "--to", "100", "--jobs", jobs)
        assert code == 2 and "--jobs" in err and "status=" not in out
    # tables are sized from --to / --x; a bigger one comes from `mobsum sieve`
    for argv in (("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "100",
                  "--limit", "0"),
                 ("identity", "--name", "bal2", "--x", "100", "--limit", "5000"),
                 ("identity", "--name", "bal2", "--x", "100", "--tol", "1e-8"),
                 ("sieve", "--limit", "100", "--block-size", "1024"),
                 ("sieve", "--limit", "100", "--jobs", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err and out == ""
    # a non-finite end cannot size a table: a usage error, not a traceback
    for argv in (("verify", "--pred", "m4343", "--from", "3", "--to", "inf"),
                 ("sup", "--target", "m", "--weight", "sqrtx", "--from", "3",
                  "--to", "nan"),
                 ("identity", "--name", "bal2", "--x", "inf")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "must be finite" in err and out == ""
    # a non-finite s or X is a usage error, not a traceback with exit 1
    for argv in (("mellin", "--form", "g1", "--s", "inf"),
                 ("mellin-check", "--weight", "g1", "--s", "nan", "--X", "100"),
                 ("mellin-check", "--weight", "g1", "--s", "0.5", "--X", "inf"),
                 ("mellin-check", "--weight", "h1", "--s", "0.5", "--X", "nan")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "must be finite" in err and out == ""
    # chains are checked against chains.CHAINS when --chain is parsed
    code, out, err = run(capsys, "bootstrap", "--chain", "bogus")
    assert code == 2 and out == ""
    assert "invalid choice: 'bogus'" in err and "'const'" in err and "'all'" in err


# every name mobsum exports
EXPORTS = """BoundForm Ledger SqrtModel bootstrap convert_via_G1 convert_via_G1check
    convert_via_H1 convert_via_H_envelope descend_to load_ledger
    log_comparison_lowering majorant_descent parse_plan serialize_ledger
    sqrt_model_from_form sqrt_range_lowering triangle_m
    ChainResult ChainStep base_ledger run_chain DomainError InvalidArgumentError
    MobsumError NoDescentError PlanError RangeError ResourceError IdentityReport
    residual_bal2 residual_mchliss residual_thm1_G residual_thm1_H MellinBracket
    mellin_numeric SpecialValue h2_integral_bound mellin_G1_closed
    mellin_G1check_closed mellin_H1_closed zeta_prime_zero zeta_real MuTable
    PrefixSeries SeriesPair Tables build_tables evaluate load_table save_table
    sieve_mu PREDICATES Predicate RatioReport VerificationReport ratio_theorem_C
    ratio_violation_below sup_scan verify_range G1_SPEC H1_SPEC H2_ENVELOPE
    EnvelopeParams WeightSpec __version__""".split()


def _modules_after(code, watch=("numpy", "mpmath")):
    """The modules of ``watch`` (the top-level modules of numpy and mpmath
    by default) loaded after running code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(mobsum.__file__).parents[1]))
    probe = code + f"\nimport sys; print(sorted({set(watch)!r} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


def test_startup_imports_only_what_is_read():
    assert _modules_after("import mobsum.cli; mobsum.cli._build_parser()") == "[]"
    assert _modules_after("import mobsum.verify") == "['numpy']"
    assert mobsum.__all__ == sorted(set(EXPORTS) - {"__version__"})
    for name in EXPORTS:
        exec(f"from mobsum import {name}", {})


def test_ledger_commands_load_mpmath_but_not_numpy(tmp_path):
    # bounds and chains are scalar Python; numpy stays with the table commands
    assert _modules_after("import mobsum.bounds, mobsum.chains") == "['mpmath']"
    plan = tmp_path / "plan.txt"
    plan.write_text("step: convert_via_G1\nid: demo\nhyp: M-4345\n"
                    "T_cut: 4800000\nM_integral: M-sqrt-0.571\n")
    ledger = tmp_path / "ledger.txt"
    for argv in (["bootstrap", "--chain", "all", "--out", str(ledger)],
                 ["convert", "--plan", str(plan)],
                 ["report", "--ledger", str(ledger)]):
        code = f"from mobsum import cli; assert cli.main({argv!r}) == 0"
        assert _modules_after(code) == "['mpmath']", argv
    # weights holds plain floats only (the G1 and H1 envelopes among them),
    # so the identity kernels do not load mpmath
    code = ("from mobsum import cli; assert cli.main(['identity', '--name', 'bal2', "
            f"'--x', '100', '--cache-dir', {str(tmp_path)!r}]) == 0")
    assert _modules_after(code) == "['numpy']"


def test_cache_and_digests_never_load_openssl(tmp_path):
    # BLAKE2b comes from CPython's _blake2, whose blake2b hashlib hands out,
    # so no cache or digest path loads the OpenSSL that `import hashlib`
    # does; the digests are those of hashlib.blake2b
    out = tmp_path / "digests"
    code = f"""
from mobsum import tables
d = {str(tmp_path)!r}
for limit in (5000, 3000):
    tables.save_table(tables.sieve_mu(limit), tables.cache_path(d, limit))
read = [tables.load_table(tables.cache_path(d, 5000)), tables.load_cached(d, 3000)]
open({str(out)!r}, "w").write(" ".join(tables.table_digest(t).hex() for t in read))
"""
    assert _modules_after(code, watch=("_hashlib",)) == "[]"
    raw = open(tables.cache_path(str(tmp_path), 5000), "rb").read()
    mu = raw[raw.index(b"\n") + 1:-16]
    assert raw[-16:] == hashlib.blake2b(mu, digest_size=16).digest()
    assert out.read_text().split() == [hashlib.blake2b(m, digest_size=16).hexdigest()
                                       for m in (mu, mu[:3000])]


@pytest.mark.parametrize("pred, lo, hi, built", [
    ("Msqrt0.5", "201", "20000", (0, 0)), ("m4343", "3", "300", (1, 0)),
    ("m1log2-0.138", "671", "20000", (1, 1)),
    ("mchecklog2-0.162", "3", "20000", (1, 1))])
def test_verify_builds_only_the_series_its_target_reads(capsys, monkeypatch, pred,
                                                        lo, hi, built):
    calls = []
    for name in ("m_series", "ell_series"):
        def counting(table, *rest, _name=name, _fn=getattr(tables, name)):
            calls.append(_name)
            return _fn(table, *rest)
        monkeypatch.setattr(tables, name, counting)
    argv = ("verify", "--pred", pred, "--from", lo, "--to", hi)
    code, out, _ = run(capsys, *argv)
    assert (calls.count("m_series"), calls.count("ell_series")) == built
    # the output is that of a run on the full tables of build_tables
    monkeypatch.setattr(cli, "_get_tables", lambda limit, cache_dir, target:
                        tables.build_tables(limit))
    assert run(capsys, *argv)[:2] == (code, out)


@pytest.mark.parametrize("cached", [False, True])
def test_memory_guard_charges_the_series_built(tmp_path, monkeypatch, cached):
    # a 1e6 table is charged its mu (1 B/n) and per-block arrays, and the
    # LRU of re-derived blocks at most at the table's own M (4 B/n) and
    # series (8 B/n each): 5.0 MB for M alone, 13.0 MB with the m series
    # plus 1.3 MB of build buffers.  With nothing more when it is read from
    # a cached 1e6 table (5.0 and 14.3 MB), or on top of the sieve
    # segment's 1 MB of log sums and a span of the sign pass when sieved
    # (6.1 and 15.4 MB), M alone fits in 5 MiB and in 6 MiB of physical
    # memory and the m series does not; half a MiB and a MiB less, M alone
    # fails too, before the table is read or sieved
    cache = None
    if cached:
        cache = str(tmp_path)
        tables.save_table(tables.sieve_mu(10**6), tables.cache_path(cache, 10**6))
        monkeypatch.setattr(tables, "sieve_mu", None)  # must not build
    mib = 5 if cached else 6
    sysconf = {"SC_PHYS_PAGES": mib << 8, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(tables.os, "sysconf", sysconf.__getitem__)
    for target in ("m", "m1", "mcheck-minus-1"):
        with pytest.raises(ResourceError, match="physical memory"):
            cli._get_tables(10**6, cache, target)
    got = cli._get_tables(10**6, cache, "M")
    assert got.limit == 10**6 and got.series == tables.SeriesPair()
    sysconf["SC_PHYS_PAGES"] = (mib << 8) - (128 if cached else 256)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="physical memory"):
            cli._get_tables(10**6, cache, "M")
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def test_mellin_output_and_precision(capsys):
    code, out, _ = run(capsys, "mellin", "--form", "g1", "--s", "1")
    assert code == 0
    assert "0.172784335098467" in out  # 15 significant digits
    code, out, _ = run(capsys, "mellin", "--form", "h1", "--s", "0")
    assert code == 0 and "0.439900711368432" in out
    code, out, _ = run(capsys, "mellin", "--form", "h2bound", "--s", "0.5")
    assert code == 0 and "8.26001526240642" in out
    code, out, _ = run(capsys, "mellin", "--form", "g1check", "--s", "1")
    assert code == 0 and "value=1.17278433509847 error=1.00222044604925e-13" in out


def test_mellin_check_pass(capsys):
    code, out, _ = run(capsys, "mellin-check", "--weight", "g1", "--s", "0.5",
                       "--X", "500")
    assert code == 0
    assert "status=PASS" in out


def test_mellin_check_cutoff_picks_the_tail(capsys):
    # a non-integer X takes the one-sided tail; no flag chooses it
    code, out, _ = run(capsys, "mellin-check", "--weight", "g1", "--s", "0.5",
                       "--X", "1000.5")
    assert code == 0
    assert "tail=simple:G1<=1/t^2" in out and "status=PASS" in out
    code, out, err = run(capsys, "mellin-check", "--weight", "g1", "--s", "0.5",
                         "--X", "1000", "--envelope", "simple")
    assert code == 2 and "unrecognized arguments" in err and out == ""


def test_mellin_domain_error_exit_2(capsys):
    # the tail diverges for s <= -1: a usage error, not an internal failure
    code, _, err = run(capsys, "mellin-check", "--weight", "g1", "--s", "-1.5",
                       "--X", "100")
    assert code == 2
    assert "usage error" in err


def test_identity_pass(capsys):
    code, out, _ = run(capsys, "identity", "--name", "bal2", "--x", "100")
    assert code == 0
    assert "status=PASS" in out
    # the verdict reads the printed budget, and no option sets it
    budget = float(re.search(r" budget=(\S+) ", out).group(1))
    assert abs(float(re.search(r" residual=(\S+) ", out).group(1))) <= budget < 1e-12
    code, out, _ = run(capsys, "identity", "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--name", "--x", "--cache-dir"}


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000")
    assert code == 0 and "status=PASS" in out
    code, out, _ = run(capsys, "verify", "--pred", "Msqrt0.5", "--from", "2", "--to", "201")
    assert code == 1 and "status=FAIL" in out
    assert "violation " in out


def test_sieve_and_cache_reuse(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "sieve", "--limit", "5000", "--cache-dir", cache)
    assert code == 0
    assert os.path.exists(os.path.join(cache, "moebius-5000.tbl"))
    # cache reuse must not change results
    args = ("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000",
            "--cache-dir", cache)
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_a_corrupt_larger_cache_file_is_never_opened(capsys, tmp_path):
    # the cache is keyed by exact limit: a command to 5000 reads only
    # moebius-5000.tbl, so a corrupt 20000 table beside it is never opened,
    # and the 5000 table is sieved and saved
    argv = ("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000")
    fresh = run(capsys, *argv)
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "sieve", "--limit", "20000", "--cache-dir", cache)
    assert code == 0
    assert re.search(r" digest=[0-9a-f]{32} cache=", out)
    path = Path(tables.cache_path(cache, 20000))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(raw)
    assert run(capsys, *argv, "--cache-dir", cache) == fresh
    assert fresh[0] == 0
    assert sorted(os.listdir(cache)) == ["moebius-20000.tbl", "moebius-5000.tbl"]
    with pytest.raises(InvalidArgumentError, match="checksum"):
        tables.load_table(str(path))  # still corrupt: refused where it is read


def test_v1_cache_file_is_a_usage_error(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "moebius-5000.tbl").write_bytes(b"MOEBIUS-TABLE v1 limit=5000\n"
                                             + bytes(5000 * 9 + 8))
    code, _, err = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3",
                       "--to", "5000", "--cache-dir", str(cache))
    assert code == 2
    assert "v1 is no longer read" in err


def test_bootstrap_const_final_line(capsys):
    code, out, _ = run(capsys, "bootstrap", "--chain", "const")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "m ≤ 1/4343 for x ≥ 2160605"
    assert all(" FAIL" not in line for line in lines)


def test_bootstrap_log_final_line(capsys):
    code, out, _ = run(capsys, "bootstrap", "--chain", "log")
    assert code == 0
    assert out.strip().splitlines()[-1] == "log x · m ≤ 0.0130073 for x ≥ 97063"


def test_sup_closed_forms(capsys):
    pattern = (r"sup target=(\S+) weight=(\S+) range=\[(\S+),(\S+)\] "
               r"value=(\S+) argmax=(\S+)\n")
    log2 = math.log(2.0)
    for target, lo, hi, value, argmax, tol in (
            ("m1", "1", "671", 29 / 105 * math.log(7.0) ** 2, 7.0, 1e-12),
            ("mcheck-minus-1", "1", "3", 2 * (2 - log2) ** 3 / 27,
             math.exp((4 - 2 * log2) / 3), 1e-9)):
        code, out, _ = run(capsys, "sup", "--target", target, "--weight", "log2x",
                           "--from", lo, "--to", hi)
        assert code == 0
        fields = re.fullmatch(pattern, out).groups()
        assert fields[:4] == (target, "log2x", lo, hi)
        assert float(fields[4]) == pytest.approx(value, rel=tol)
        assert float(fields[5]) == pytest.approx(argmax, rel=tol)
    code, out, err = run(capsys, "sup", "--target", "m1", "--weight", "sqrtx",
                         "--from", "1", "--to", "10")
    assert code == 2 and "usage error" in err and out == ""


def test_scan_range_checked_before_any_table(capsys, monkeypatch):
    # a range the scan refuses is refused before anything is sieved: a
    # start below 1 asked for a 24 GiB table (exit 3), an inverted range
    # beyond 2^31 reported the sieve limit
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "_get_tables", refuse)
    verify = ("verify", "--pred", "m4343")
    sup = ("sup", "--target", "m", "--weight", "sqrtx")
    for argv, why in (
            (verify + ("--from", "0.5", "--to", "2e9"), "range must start at x >= 1"),
            (verify + ("--from", "3e9", "--to", "2.5e9"), "empty range [3000000000.0, "),
            (verify + ("--from", "7.5", "--to", "7.25"), "empty range [7.5, 7.25)"),
            (sup + ("--from", "3e9", "--to", "2.5e9"), "empty range [3000000000.0, "),
            (sup + ("--from", "7.5", "--to", "7.25"), "empty range [7.5, 7.25]"),
            (sup + ("--from", "0.25", "--to", "0.5"), "range must start at x >= 1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"usage error: {why}" in err


def test_readme_cli_block_parses():
    # every `mobsum ...` line of README's CLI block names only real options
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    parser = _build_parser()
    commands = []
    for line in block.splitlines():
        tokens = shlex.split(line, comments=True)
        while tokens:
            cut = tokens.index("&&") if "&&" in tokens else len(tokens)
            commands.append(tokens[:cut])
            tokens = tokens[cut + 1:]
    assert {"sup", "bootstrap", "sieve"} <= {argv[1] for argv in commands}
    for argv in commands:
        assert argv[0] == "mobsum"
        parser.parse_args(argv[1:])


def test_convert_and_report_round_trip(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "step: convert_via_G1\n"
        "id: demo\n"
        "hyp: M-4345\n"
        "T_cut: 4800000\n"
        "M_integral: M-sqrt-0.571\n"
    )
    ledger_file = tmp_path / "ledger.txt"
    code, out, _ = run(capsys, "convert", "--plan", str(plan),
                       "--out", str(ledger_file))
    assert code == 0
    text = ledger_file.read_text()
    assert "name=demo" in text
    code, out, _ = run(capsys, "report", "--ledger", str(ledger_file))
    assert code == 0
    assert out == text  # lossless round trip


def test_convert_bad_plan_exit_2(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("step: frobnicate\nid: x\n")
    code, _, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2
    code, _, _ = run(capsys, "convert", "--plan", str(tmp_path / "missing.txt"))
    assert code == 2
    # a convert_via_G1 step without M_integral would drop a remainder term
    plan.write_text("step: convert_via_G1\nid: demo\nhyp: M-4345\nT_cut: 4800000\n")
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2
    assert "M_integral required" in err and out == ""
    # A or rank_cap <= 0 has no logarithm: a usage error, not exit 1 (a failed check)
    for bad in ("A: 0\n", "A: -1\n", "A: 0.001\nrank_cap: 0\n"):
        plan.write_text("step: descend\nid: d\nhyp: m-meissel\n" + bad)
        code, out, err = run(capsys, "convert", "--plan", str(plan))
        assert code == 2 and out == "" and "usage error" in err, bad


def test_convert_refuses_a_stated_prefix_integral(capsys, tmp_path):
    # M_integral: 0 dropped the x^-2 remainder; a plan names a ledger model
    plan = tmp_path / "plan.txt"
    plan.write_text("step: convert_via_G1\nid: demo\nhyp: M-4345\nT_cut: 4800000\n"
                    "M_integral: 0\n")
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2 and out == ""
    assert "unknown ledger entry '0'" in err


@pytest.mark.parametrize("step, key", [
    ("step: descend\nid: d\nhyp: m-meissel\nA: 2\nrankcap: 1e21\n", "rankcap"),
    ("step: convert_via_H_envelope\nid: e\nhyp: m-meissel\nlog_T_cut: 15\n"
     "m_integral: 2243\ndelta: 0\n", "delta")], ids=["rankcap", "delta"])
def test_convert_names_a_key_its_step_does_not_read(capsys, tmp_path, step, key):
    plan = tmp_path / "plan.txt"
    plan.write_text(step)
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2 and out == ""
    assert f"does not read {key}" in err


@pytest.mark.parametrize("step, why", [
    ("step: sqrt_lower\nid: s\nhyp: m-meissel\nmodel: m-meissel\n",
     "model: ledger entry 'm-meissel' is not a sqrt model"),
    ("step: convert_via_H1\nid: h\nhyp: m-sqrt-0.5\n",
     "hyp: ledger entry 'm-sqrt-0.5' is not a bound"),
    ("step: log_lower\nid: l\nhyp: m-meissel\nhyp2: m-sqrt-0.5\n",
     "hyp2: ledger entry 'm-sqrt-0.5' is not a bound")],
    ids=["sqrt_lower-model", "convert_via_H1-hyp", "log_lower-hyp2"])
def test_convert_refuses_an_entry_of_the_wrong_type(capsys, tmp_path, step, why):
    # a bound where a sqrt model belongs, or the reverse, ended in an
    # AttributeError traceback, exit 1
    plan = tmp_path / "plan.txt"
    plan.write_text(step)
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2 and out == ""
    assert "usage error" in err and why in err


@pytest.mark.parametrize("step, why", [
    ("step: sqrt_lower\nid: s\nhyp: z\nmodel: m-sqrt-0.5\n",
     "sqrt_range_lowering expects a clean (descended) form"),
    ("step: log_lower\nid: l\nhyp: w\nhyp2: z\n",
     "log_comparison_lowering expects clean forms")], ids=["sqrt_lower", "log_lower"])
def test_convert_refuses_a_zero_constant_entry(capsys, tmp_path, step, why):
    # both lowerings divided by the zero constant of z: a ZeroDivisionError
    # traceback, exit 1
    ledger = tmp_path / "ledger.txt"
    ledger.write_text(
        "kind=axiom name=m-sqrt-0.5 type=sqrt target=m c=0.5 x_lo=3.0 x_hi=7700000000.0 "
        "provenance=\n"
        "kind=derived name=w type=bound target=m A=0.01 theta=1.0 j=1.0 logT=20.0 "
        "remainders= provenance=x\n"
        "kind=derived name=z type=bound target=m A=0.0 theta=1.0 j=0.0 logT=20.0 "
        "remainders= provenance=x\n")
    plan = tmp_path / "plan.txt"
    plan.write_text(step)
    code, out, err = run(capsys, "convert", "--ledger", str(ledger), "--plan", str(plan))
    assert code == 2 and out == ""
    assert "usage error" in err and why in err


def test_malformed_ledger_file_exit_2(capsys, tmp_path):
    ledger = tmp_path / "ledger.txt"
    plan = tmp_path / "plan.txt"
    plan.write_text("step: descend\nid: d\nhyp: x\nA: 2\n")
    for line, why in (
            # a line without its type field ended in a KeyError traceback, exit 1
            ("kind=axiom name=x target=m c=1 x_lo=3 x_hi=9 provenance=",
             "missing field 'type'"),
            # a repeated field kept its last value, a foreign one was ignored
            ("kind=axiom name=x type=sqrt target=m c=9 c=1 x_lo=3 x_hi=9 provenance=",
             "field 'c' repeated"),
            ("kind=axiom name=x type=sqrt target=m c=1 x_lo=3 x_hi=9 A=1 provenance=",
             "type sqrt has no field 'A'")):
        ledger.write_text(line + "\n")
        for argv in (["report", "--ledger", str(ledger)],
                     ["convert", "--ledger", str(ledger), "--plan", str(plan)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert f"ledger line 1: {why}" in err


def test_non_numeric_plan_value_exit_2(capsys, tmp_path):
    # T_cut: abc ended in a ValueError traceback, exit 1
    plan = tmp_path / "plan.txt"
    for value in ("abc", "nan", "inf"):
        plan.write_text("step: convert_via_G1\nid: demo\nhyp: M-4345\n"
                        f"T_cut: {value}\nM_integral: trivial\n")
        code, out, err = run(capsys, "convert", "--plan", str(plan))
        assert code == 2 and out == ""
        assert f"T_cut: '{value}' is not a finite number" in err


def test_repeated_plan_key_exit_2(capsys, tmp_path):
    # A: 2 then A: 0.5 in one step silently descended to 0.5
    plan = tmp_path / "plan.txt"
    plan.write_text("step: descend\nid: d\nhyp: m-meissel\nA: 2\nA: 0.5\n")
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert code == 2 and out == ""
    assert "plan key 'A' repeated in one step" in err


def test_scan_outputs_match_pinned_hashes(capsys, tmp_path):
    # tests/data/scans-2e4.txt holds, per command, its argv, the sha256 of
    # its stdout and its summary line: `mobsum verify` for every predicate
    # on [2, 20000) and [671.5, 19999.5), and `mobsum sup` for every target
    # and weight on [1, 20000] and [2.5, 19999.5], all on one cached 2e4
    # table; the stdout is not kept because the violation lists run to MBs
    cache = str(tmp_path)
    tables.save_table(tables.sieve_mu(20000), tables.cache_path(cache, 20000))
    lines = (DATA / "scans-2e4.txt").read_text(encoding="utf-8").splitlines()
    pairs = sum(len(row.weights) for row in TARGETS.values())
    assert len(lines) == 2 * (len(PREDICATES) + pairs)
    for line in lines:
        argv, digest, summary = line.split("\t")
        code, out, _ = run(capsys, *argv.split(), "--cache-dir", cache)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv
        assert out.splitlines()[-1] == summary
        assert code == (1 if "status=FAIL" in summary else 0), argv


def test_identity_panel_guard_runs_before_any_table(capsys, monkeypatch):
    # the kernel needs at most 2 floor(x) - 1 panels, so x = 6e6 is refused
    # from x alone, before its table and its 12e6 panel edges are built
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "_get_tables", refuse)
    code, out, err = run(capsys, "identity", "--name", "bal2", "--x", "6e6")
    assert (code, out) == (3, "")
    assert err == "error: panel count 11999999 exceeds 10000000; reduce the range\n"


def test_package_errors_exit_3_and_unattainable_bounds_exit_1(capsys, tmp_path):
    # a resource guard is neither a usage error nor a failed check: the
    # panel count of a Mellin enclosure to X = 2e7 passes its 1e7 cap
    code, out, err = run(capsys, "mellin-check", "--weight", "g1", "--s", "0.5",
                         "--X", "2e7")
    assert (code, out) == (3, "") and err.startswith("error: panel count")
    # no majorant descent reaches A = 1e-9 from |M| <= x/4345
    plan = tmp_path / "plan.txt"
    plan.write_text("step: descend\nid: d\nhyp: M-4345\nA: 1e-9\n")
    code, out, err = run(capsys, "convert", "--plan", str(plan))
    assert (code, out) == (1, "") and err.startswith("bound not attainable:")


def test_memory_exhausted_exits_3(capsys, monkeypatch):
    # an allocation that no resource guard charged is a bug, not a refuted
    # bound: exit 3, never 1, and no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(tables, "sieve_mu", exhausted)
    for argv in (("sieve", "--limit", "1000"),
                 ("verify", "--pred", "m4343", "--from", "3", "--to", "1000")):
        assert run(capsys, *argv) == (3, "", "error: memory exhausted: a charge is missing\n")


def test_verify_writes_its_table_to_an_empty_cache_dir(capsys, tmp_path):
    argv = ("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000")
    fresh = run(capsys, *argv)
    cache = tmp_path / "cache"
    cache.mkdir()
    assert run(capsys, *argv, "--cache-dir", str(cache)) == fresh
    assert os.listdir(cache) == ["moebius-5000.tbl"]
    assert tables.load_table(str(cache / "moebius-5000.tbl")).limit == 5000


def test_convert_without_out_prints_the_ledger(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("step: convert_via_G1\nid: demo\nhyp: M-4345\nT_cut: 4800000\n"
                    "M_integral: M-sqrt-0.571\n")
    ledger_file = tmp_path / "ledger.txt"
    assert run(capsys, "convert", "--plan", str(plan), "--out", str(ledger_file)) == \
        (0, "", "")
    code, out, _ = run(capsys, "convert", "--plan", str(plan))
    assert code == 0 and out == ledger_file.read_text() and "name=demo" in out


def test_cache_file_whose_name_and_header_disagree_exits_2(capsys, tmp_path):
    # a 3000 table saved under the name of the 5000 one the command reads
    tables.save_table(tables.sieve_mu(3000), tables.cache_path(str(tmp_path), 5000))
    code, out, err = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3",
                         "--to", "5000", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "") and "cache file name and header disagree" in err
