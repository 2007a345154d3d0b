"""Command-line front end.

Subcommands: sieve, verify, sup, mellin, mellin-check, identity, convert,
bootstrap, report.  Exit status: 0 success, 1 a checked inequality or
enclosure failed, 2 usage error (including an unusable file or cache
directory), 3 any other package error (e.g. a resource guard) or
exhausted memory.  Numeric output uses 15 significant digits.
"""

# Only the standard library and .errors load with this module: each
# subcommand imports what it uses, so `--help` and the commands that need
# no numpy or mpmath start without them.

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import (
    DomainError,
    InvalidArgumentError,
    MobsumError,
    NoDescentError,
    PlanError,
    RangeError,
)


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _cache_table(table, cdir: str) -> str:
    from .tables import cache_path, save_table
    os.makedirs(cdir, exist_ok=True)
    path = cache_path(cdir, table.limit)
    save_table(table, path)
    return path


def _get_tables(limit: int, cache_dir, target=None):
    """Tables to `limit` with the prefix series `target` reads (every
    series when target is None): from `limit`'s file in `cache_dir` if
    there is one, else sieved (and cached when a directory is given)."""
    from . import tables, verify
    series = tables.SERIES if target is None else verify.TARGETS[target].series
    mu = tables.load_cached(cache_dir, limit, series) if cache_dir else None
    if mu is None:
        mu = tables.sieve_mu(limit, series=series)
        if cache_dir:
            _cache_table(mu, cache_dir)
    return tables.with_series(mu, series)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sieve(args) -> int:
    from .tables import sieve_mu, table_digest
    mu = sieve_mu(args.limit, series=())
    line = (f"sieve limit={args.limit} mertens_at_limit={mu.mertens_at_limit} "
            f"digest={table_digest(mu).hex()}")
    if args.cache_dir:
        line += f" cache={_cache_table(mu, args.cache_dir)}"
    print(line)
    return 0


def _cmd_verify(args) -> int:
    from .verify import PREDICATES, _scan_range, verify_range
    if args.pred not in PREDICATES:
        print(f"unknown predicate {args.pred!r}; known: {', '.join(sorted(PREDICATES))}",
              file=sys.stderr)
        return 2
    pred = PREDICATES[args.pred]
    lo, hi = getattr(args, "from"), args.to
    _scan_range(lo, hi)  # before any table is built
    tables = _get_tables(int(math.ceil(hi)), args.cache_dir, pred.target)
    rep = verify_range(pred, lo, hi, tables)
    for n, value, margin in rep.violations:
        print(f"violation pred={pred.name} n={n} value={_fmt(value)} margin={_fmt(margin)}")
    for n in rep.indeterminate:
        print(f"escalated pred={pred.name} n={n}")
    status = "PASS" if rep.passed else "FAIL"
    cut = " truncated=yes" if rep.truncated else ""
    print(f"verify pred={pred.name} range=[{rep.lo},{rep.hi}) checked={rep.checked} "
          f"violations={len(rep.violations)} max_ratio={_fmt(rep.max_ratio)} "
          f"argmax={rep.argmax} status={status}{cut}")
    return 0 if rep.passed else 1


def _cmd_sup(args) -> int:
    from .verify import _check_weight, _scan_range, sup_scan
    lo, hi = getattr(args, "from"), args.to
    _check_weight(args.target, args.weight)  # before any table is built
    _scan_range(lo, hi, closed=True)
    tables = _get_tables(int(math.ceil(hi)), args.cache_dir, args.target)
    value, argmax = sup_scan(tables, args.target, args.weight, lo, hi)
    print(f"sup target={args.target} weight={args.weight} range=[{_fmt(lo)},{_fmt(hi)}] "
          f"value={_fmt(value)} argmax={_fmt(argmax)}")
    return 0


# the closed-form Mellin values of `mellin` and `mellin-check`, by form name;
# looked up in .special when a command runs, so the parser loads no mpmath
_CLOSED_FORMS = {"g1": "mellin_G1_closed", "h1": "mellin_H1_closed",
                 "g1check": "mellin_G1check_closed"}


def _closed_form(name: str, s: float):
    from . import special
    return getattr(special, _CLOSED_FORMS[name])(s)


def _cmd_mellin(args) -> int:
    s = args.s
    if args.form == "h2bound":
        from .special import h2_integral_bound
        print(f"mellin form=h2bound delta={_fmt(s)} value={_fmt(h2_integral_bound(s))}")
        return 0
    sv = _closed_form(args.form, s)
    print(f"mellin form={args.form} s={_fmt(s)} value={_fmt(sv.value)} "
          f"error={_fmt(sv.abs_error)}")
    return 0


def _cmd_mellin_check(args) -> int:
    from .quad import mellin_numeric
    from .weights import G1_SPEC, H1_SPEC
    spec = G1_SPEC if args.weight == "g1" else H1_SPEC
    closed = _closed_form(args.weight, args.s)
    bracket = mellin_numeric(spec, args.s, args.X)
    ok = bracket.lo <= closed.value + closed.abs_error and \
        closed.value - closed.abs_error <= bracket.hi
    print(f"mellin-check weight={args.weight} s={_fmt(args.s)} X={args.X} "
          f"bracket=[{_fmt(bracket.lo)},{_fmt(bracket.hi)}] width={_fmt(bracket.width)} "
          f"closed={_fmt(closed.value)} tail={bracket.tail_bound_used} "
          f"status={'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_identity(args) -> int:
    from .identities import (
        residual_bal2,
        residual_mchliss,
        residual_thm1_G,
        residual_thm1_H,
    )
    from .quad import check_kernel_panels
    check_kernel_panels(args.x)  # before any table is built
    # every series: evaluate reads m and ell
    tables = _get_tables(max(2, int(math.ceil(args.x))), args.cache_dir)
    residual = {"thm1g": residual_thm1_G, "thm1h": residual_thm1_H,
                "bal2": residual_bal2, "mchliss": residual_mchliss}[args.name]
    rep = residual(tables, args.x)
    print(f"identity name={rep.name} x={_fmt(rep.x)} lhs={_fmt(rep.lhs)} "
          f"rhs={_fmt(rep.rhs)} residual={_fmt(rep.residual)} "
          f"budget={_fmt(rep.budget)} status={'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def _cmd_convert(args) -> int:
    from .bounds import bootstrap as run_bootstrap
    from .bounds import load_ledger, parse_plan, serialize_ledger
    from .chains import base_ledger
    if args.ledger:
        with open(args.ledger, "r", encoding="utf-8") as fh:
            ledger = load_ledger(fh.read())
    else:
        ledger = base_ledger()
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = parse_plan(fh.read())
    run_bootstrap(ledger, plan)
    if args.out:
        _write_ledger(ledger, args.out)
    else:
        sys.stdout.write(serialize_ledger(ledger))
    return 0


def _write_ledger(ledger, path: str) -> None:
    from .bounds import serialize_ledger
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ledger(ledger))


def _describe_entry(entry) -> str:
    from .bounds import BoundForm, SqrtModel
    if isinstance(entry, SqrtModel):
        if entry.target == "M-over-x":
            head = f"|M(x)| ≤ {_fmt(entry.c)} sqrt(x)"
        else:
            lhs = {"m": "sqrt(x) |m(x)|", "m1": "sqrt(x) |m1(x)|",
                   "mcheck-minus-1": "sqrt(x) |mcheck(x) - 1|"}.get(entry.target,
                                                                    entry.target)
            head = f"{lhs} ≤ {_fmt(entry.c)}"
        return head + f" on [{_fmt(entry.x_lo)}, {_fmt(entry.x_hi)}]"
    assert isinstance(entry, BoundForm)
    lhs = {"M-over-x": "|M(x)|/x", "m": "m", "m1": "m1",
           "mcheck-minus-1": "(mcheck - 1)"}[entry.target]
    weight = {0.0: "", 1.0: "log x · ", 2.0: "log^2 x · "}.get(entry.j, f"log^{_fmt(entry.j)} x · ")
    inv = 1.0 / entry.A if entry.A > 0 else 0.0
    if inv >= 10 and abs(inv - round(inv)) <= 1e-9 * inv:
        rhs = f"1/{int(round(inv))}"
    else:
        rhs = _fmt(entry.A)
    T = entry.T
    if T <= 1.0:
        rank = "for x > 1"
    else:
        rank = f"for x ≥ {int(round(T))}" if abs(T - round(T)) <= 1e-6 * T \
            else f"for x ≥ {_fmt(T)}"
    return f"{weight}{lhs} ≤ {rhs} {rank}"


def _print_chain(chain: str, res) -> None:
    from .chains import CHAINS
    for step in res.steps:
        note = f"  [{step.note}]" if step.note else ""
        print(f"step {step.name}: {_fmt(step.computed)} ≤ {_fmt(step.printed)} "
              f"{'ok' if step.ok else 'FAIL'}{note}")
    for desc, pred, lo, hi in res.obligations:
        print(f"obligation: {desc} pred={pred} range=[{_fmt(lo)},{_fmt(hi)})")
    _, headline = CHAINS[chain]
    for name, entry in res.finals.items():
        if name != headline:
            print(f"result {name}: " + _describe_entry(entry))
    if headline in res.finals:
        print(_describe_entry(res.finals[headline]))


def _cmd_bootstrap(args) -> int:
    """Replay one chain, or every chain in order on one shared ledger."""
    from .chains import CHAINS, base_ledger, run_chain
    ledger = base_ledger()
    ok = True
    for chain in CHAINS if args.chain == "all" else [args.chain]:
        res = run_chain(chain, ledger)
        _print_chain(chain, res)
        ok = ok and res.ok
    if args.out:
        _write_ledger(ledger, args.out)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from .bounds import load_ledger, serialize_ledger
    with open(args.ledger, "r", encoding="utf-8") as fh:
        ledger = load_ledger(fh.read())
    sys.stdout.write(serialize_ledger(ledger))
    return 0


# ---------------------------------------------------------------------------

def worker_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {jobs}")
    return jobs


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text}")
    return value


def chain_name(text: str) -> str:
    """A name from chains.CHAINS, or "all"; checked when --chain is parsed,
    so building the parser does not import chains (and mpmath)."""
    from .chains import CHAINS
    names = [*CHAINS, "all"]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
    return text


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mobsum", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sieve", help="build (and cache) a Moebius/Mertens table")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=_cmd_sieve)

    sp = sub.add_parser("verify", help="exhaustively verify a named inequality")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--from", type=finite_float, required=True)
    sp.add_argument("--to", type=finite_float, required=True)
    sp.add_argument("--jobs", type=worker_count, default=1,
                    help="accepted and ignored: the scan runs in one thread")
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=_cmd_verify)

    claim = ("largest float value of a weighted function's per-interval kernel "
             "and its first argmax, with no enclosure")
    sp = sub.add_parser("sup", help=claim, description=claim)
    sp.add_argument("--target", required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--from", type=finite_float, required=True)
    sp.add_argument("--to", type=finite_float, required=True)
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=_cmd_sup)

    sp = sub.add_parser("mellin", help="closed-form Mellin value with certified error")
    sp.add_argument("--form", choices=[*_CLOSED_FORMS, "h2bound"], required=True)
    sp.add_argument("--s", type=finite_float, required=True)
    sp.set_defaults(func=_cmd_mellin)

    sp = sub.add_parser("mellin-check",
                        help="numeric Mellin enclosure vs closed form")
    sp.add_argument("--weight", choices=["g1", "h1"], required=True)
    sp.add_argument("--s", type=finite_float, required=True)
    sp.add_argument("--X", type=finite_float, required=True)
    sp.set_defaults(func=_cmd_mellin_check)

    claim = ("residual of an integral identity at x; PASS iff |residual| is within "
             "its rigorous rounding budget, which it prints")
    sp = sub.add_parser("identity", help=claim, description=claim)
    sp.add_argument("--name", choices=["thm1g", "thm1h", "bal2", "mchliss"],
                    required=True)
    sp.add_argument("--x", type=finite_float, required=True)
    sp.add_argument("--cache-dir", default=None)
    sp.set_defaults(func=_cmd_identity)

    sp = sub.add_parser("convert", help="run a conversion plan against a ledger")
    sp.add_argument("--plan", required=True)
    sp.add_argument("--ledger", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("bootstrap", help="replay a named derivation chain, or all")
    sp.add_argument("--chain", type=chain_name, required=True,
                    help="a chain name, or all (an unknown name lists the chains)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_bootstrap)

    sp = sub.add_parser("report", help="round-trip a ledger file")
    sp.add_argument("--ledger", required=True)
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except NoDescentError as exc:
        print(f"bound not attainable: {exc}", file=sys.stderr)
        return 1
    except (InvalidArgumentError, DomainError, PlanError, RangeError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MobsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # never a refuted bound: a resource guard should have fired
        print("error: memory exhausted: a charge is missing", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
