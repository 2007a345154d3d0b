import math
from pathlib import Path

import pytest

from mobsum.bounds import BoundForm, SqrtModel, serialize_ledger
from mobsum.chains import (
    CHAINS,
    LIMSUP_M_OVER_SQRT,
    base_ledger,
    run_chain,
)
from mobsum.cli import main
from mobsum.errors import PlanError


@pytest.fixture(scope="module")
def all_chains():
    """One shared ledger, all five chains run in dependency order."""
    from mobsum.bounds import Ledger
    led = base_ledger()
    results = {}
    for name in ("models", "const", "log", "log2", "mcheck"):
        results[name] = run_chain(name, led)
    return led, results


def test_every_chain_step_certifies(all_chains):
    _, results = all_chains
    for name, res in results.items():
        bad = [s.name for s in res.steps if not s.ok]
        assert not bad, f"chain {name} failed steps: {bad}"


def test_unknown_chain_rejected():
    with pytest.raises(PlanError):
        run_chain("nonsense")


def test_models_chain_constants(all_chains):
    led, results = all_chains
    res = results["models"]
    assert res.step("models:0.114-head").computed == pytest.approx(0.112651054331115, rel=1e-12)
    assert res.step("models:0.129-head").computed == pytest.approx(0.128647504046133, rel=1e-12)
    assert res.step("models:5.792-head").computed == pytest.approx(5.7902706989469, rel=1e-12)
    # K-coverage: x/K >= 1e16 certified from x = 1e21 downward
    assert res.step("models:5.792-K-coverage").computed <= 1e16
    m114 = led["m1-sqrt-0.114"]
    assert isinstance(m114, SqrtModel) and m114.c == 0.114
    assert (m114.x_lo, m114.x_hi) == (5e6, 7.7e9)
    m129 = led["m1-sqrt-0.129"]
    assert (m129.c, m129.x_lo, m129.x_hi) == (0.129, 7.7e9, 1e16)
    assert led["m-sqrt-0.701"].c == 0.701
    assert led["m1-sqrt-5.792"].x_hi == 1e21


def test_const_chain_reproduces_printed_constants(all_chains):
    led, _ = all_chains
    assert led["m1-25146"].A == pytest.approx(1.0 / 25146.0, rel=1e-12)
    assert led["m-3704"].A == pytest.approx(1.0 / 3704.0, rel=1e-12)
    assert led["m-4342.67"].A == pytest.approx(1.0 / 4342.67, rel=1e-12)
    assert led["m1-11470909"].A == pytest.approx(1.0 / 11470909.0, rel=1e-12)
    final = led["m-4343"]
    assert final.A == pytest.approx(1.0 / 4343.0, rel=1e-12)
    assert math.exp(final.log_T) == pytest.approx(2160605.0, rel=1e-9)
    assert final.remainders == ()


def test_const_chain_thresholds(all_chains):
    _, results = all_chains
    res = results["const"]
    assert res.step("const:threshold-(0.129*8119793)^2").computed < 1.1e12
    assert res.step("const:threshold-(0.5*4343)^2").computed < 4.72e6
    assert res.step("const:threshold-(0.5*4343)^2").computed == pytest.approx(
        (0.5 * 4343.0) ** 2)
    assert res.step("const:envelope-remainder").computed <= 4.94e7


def test_const_chain_obligation(all_chains):
    _, results = all_chains
    obl = results["const"].obligations
    assert any(o[1] == "m4343" and o[2] == 2160605 and o[3] == 5e6 for o in obl)


def test_log_chain_reproduces_printed_constants(all_chains):
    led, results = all_chains
    assert led["m1-log-0.0023"].A == 0.0023
    assert led["m1-log-8.517e-6"].A == pytest.approx(8.517e-6, rel=1e-12)
    assert led["m1-log-7.265e-6"].A == pytest.approx(7.265e-6, rel=1e-12)
    final = led["m-log-0.0130073"]
    assert final.A == pytest.approx(0.0130073, rel=1e-12)
    assert final.j == 1.0
    assert math.exp(final.log_T) == pytest.approx(97063.0, rel=1e-9)
    res = results["log"]
    # the honest conversion factor vs the two misprinted variants
    assert res.step("log:factor-0.17537").computed == pytest.approx(0.175417082, rel=1e-8)
    assert res.step("log:factor-1/1796.57").computed == pytest.approx(1796.57720916, rel=1e-10)
    assert any(o[1] == "mlog0.0130073" and o[2] == 97063 and o[3] == 230000
               for o in res.obligations)


def test_log2_chain_reproduces_printed_constants(all_chains):
    led, results = all_chains
    assert led["m1-log2-64.24"].A == pytest.approx(64.24, rel=1e-12)
    assert led["m-log2-426.94"].A == pytest.approx(426.94, rel=1e-12)
    assert led["m1-log2-0.1622"].A == pytest.approx(0.1622, rel=1e-12)
    assert led["m1-log2-0.1378"].A == pytest.approx(0.1378, rel=1e-12)
    final = led["m1-log2-0.138"]
    assert final.A == pytest.approx(0.138, rel=1e-12)
    assert math.exp(final.log_T) == pytest.approx(671.0, rel=1e-9)
    assert led["m-log2-362.84"].A == pytest.approx(362.84, rel=1e-12)
    assert led["m-log2-362.84"].log_T == 0.0  # valid for all x > 1
    res = results["log2"]
    assert res.step("log2:factor-1/2633.6").computed == pytest.approx(2633.6129, rel=1e-7)
    assert res.step("log2:three-term-rank").computed <= 7000.0
    obls = {o[1] for o in res.obligations}
    assert {"m1log2-0.138", "m1log2-sup671"} <= obls


def test_mcheck_chain_reproduces_printed_constants(all_chains):
    led, results = all_chains
    final_c = led["mcheck-9780919"]
    assert final_c.A == pytest.approx(1.0 / 9780919.0, rel=1e-12)
    assert math.exp(final_c.log_T) == pytest.approx(2.5e12, rel=1e-9)
    assert led["mcheck-log-8.55e-6"].A == pytest.approx(8.55e-6, rel=1e-12)
    final = led["mcheck-log2-0.162"]
    assert final.A == pytest.approx(0.162, rel=1e-12)
    assert math.exp(final.log_T) == pytest.approx(3.0, rel=1e-9)
    res = results["mcheck"]
    assert res.step("mcheck:3-model").computed <= 3.0
    assert res.step("mcheck:threshold-(7.1*9780919)^2").computed <= 1e16
    assert any(o[1] == "mchecklog2-0.162" and o[2] == 3 and o[3] == 1e7
               for o in res.obligations)


def test_chain_prerequisites_run_automatically():
    # a fresh mcheck run derives everything it needs on a fresh ledger
    res = run_chain("mcheck")
    assert res.ok


def test_base_ledger_axioms():
    led = base_ledger()
    assert led["M-4345"].A == pytest.approx(1.0 / 4345.0)
    assert led["m-meissel"].A == 1.0
    assert isinstance(led["M-sqrt-0.5"], SqrtModel)
    assert LIMSUP_M_OVER_SQRT == 1.837625


def test_chains_are_deterministic(all_chains):
    led, _ = all_chains
    from mobsum.bounds import serialize_ledger
    led2 = base_ledger()
    for name in ("models", "const", "log", "log2", "mcheck"):
        run_chain(name, led2)
    assert serialize_ledger(led) == serialize_ledger(led2)


DATA = Path(__file__).parent / "data"


def test_bootstrap_output_and_ledger_match_golden(capsys, tmp_path):
    # captured from `mobsum bootstrap --chain X` and from serialize_ledger
    # after all five chains on one ledger; every step, note, obligation,
    # provenance string and float repr must stay byte-identical
    statuses = dict(line.split() for line in
                    (DATA / "bootstrap-exit.txt").read_text().splitlines())
    assert list(statuses) == list(CHAINS)
    for name, status in statuses.items():
        code = main(["bootstrap", "--chain", name])
        out = capsys.readouterr().out.encode("utf-8")
        assert (code, out) == (int(status), (DATA / f"bootstrap-{name}.out").read_bytes())
    led = base_ledger()
    for name in CHAINS:
        run_chain(name, led)
    assert serialize_ledger(led).encode("utf-8") == \
        (DATA / "ledger-all-chains.txt").read_bytes()
    # `--chain all` replays on one shared ledger: the blocks concatenate
    ledger_file = tmp_path / "ledger.txt"
    code = main(["bootstrap", "--chain", "all", "--out", str(ledger_file)])
    out = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    assert out == b"".join((DATA / f"bootstrap-{name}.out").read_bytes() for name in CHAINS)
    assert ledger_file.read_bytes() == (DATA / "ledger-all-chains.txt").read_bytes()
