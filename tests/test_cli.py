import os
import re

import pytest

from mobsum.cli import main


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
        code, out, err = run(capsys, "sieve", "--limit", "100", "--jobs", jobs)
        assert code == 2 and "--jobs" in err and "sieve limit" not in out


def test_mellin_output_and_precision(capsys):
    code, out, _ = run(capsys, "mellin", "--form", "g1", "--s", "1")
    assert code == 0
    assert "0.172784335098467" in out  # 15 significant digits
    code, out, _ = run(capsys, "mellin", "--form", "h1", "--s", "0")
    assert code == 0 and "0.439900711368432" in out
    code, out, _ = run(capsys, "mellin", "--form", "h2bound", "--s", "0.5")
    assert code == 0 and "8.26001526240642" in out


def test_mellin_check_pass(capsys):
    code, out, _ = run(capsys, "mellin-check", "--weight", "g1", "--s", "0.5",
                       "--X", "500")
    assert code == 0
    assert "status=PASS" in out


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


def test_verify_pass_and_fail(capsys, tmp_path):
    env = os.environ.pop("MOBSUM_CACHE_DIR", None)
    try:
        code, out, _ = run(capsys, "verify", "--pred", "msqrt0.5",
                           "--from", "3", "--to", "5000")
        assert code == 0 and "status=PASS" in out
        code, out, _ = run(capsys, "verify", "--pred", "Msqrt0.5",
                           "--from", "2", "--to", "201")
        assert code == 1 and "status=FAIL" in out
        assert "violation " in out
    finally:
        if env is not None:
            os.environ["MOBSUM_CACHE_DIR"] = env


def test_sieve_and_cache_reuse(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "sieve", "--limit", "5000", "--cache-dir", cache)
    assert code == 0
    assert os.path.exists(os.path.join(cache, "moebius-5000.tbl"))
    # cache reuse must not change results
    args = ("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000",
            "--limit", "5000", "--cache-dir", cache)
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_covering_cache_matches_uncached_run(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("MOBSUM_CACHE_DIR", raising=False)
    commands = [("verify", "--pred", "msqrt0.5", "--from", "3", "--to", "5000"),
                ("identity", "--name", "bal2", "--x", "4999.5")]
    fresh = [run(capsys, *args) for args in commands]
    cache = str(tmp_path / "cache")
    code, out, _ = run(capsys, "sieve", "--limit", "20000", "--cache-dir", cache)
    assert code == 0
    assert re.search(r" digest=[0-9a-f]{32} cache=", out)
    (tmp_path / "cache" / "moebius-30000.tbl.tmp").write_bytes(b"partial")
    before = sorted(os.listdir(cache))
    cached = [run(capsys, *args, "--cache-dir", cache) for args in commands]
    assert cached == fresh
    assert sorted(os.listdir(cache)) == before  # served from the 20000 table


def test_v1_cache_file_is_a_usage_error(capsys, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "moebius-6000.tbl").write_bytes(b"MOEBIUS-TABLE v1 limit=6000\n"
                                             + bytes(6000 * 9 + 8))
    code, _, err = run(capsys, "verify", "--pred", "msqrt0.5", "--from", "3",
                       "--to", "5000", "--cache-dir", str(cache))
    assert code == 2
    assert "v1 is no longer read" in err


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("MOBSUM_CACHE_DIR", cache)
    code, _, _ = run(capsys, "sieve", "--limit", "4000")
    assert code == 0
    assert os.path.exists(os.path.join(cache, "moebius-4000.tbl"))


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


def test_convert_and_report_round_trip(capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "step: convert_via_G1\n"
        "id: demo\n"
        "hyp: M-4345\n"
        "T_cut: 4800000\n"
        "M_integral: 49350059\n"
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
