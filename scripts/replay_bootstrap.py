#!/usr/bin/env python3
"""Replay every bound-conversion chain on one shared ledger.

Prints each derivation step with its computed quantity, the desk-scale
verification obligations each chain emits, and finally the full serialized
ledger (pipe it to a file to diff against a previous run; the output is
deterministic).
"""

import argparse

from mobsum.bounds import serialize_ledger
from mobsum.chains import CHAINS, base_ledger, run_chain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chain", choices=list(CHAINS), action="append",
                    help="chain to run (repeatable; default: all, in order)")
    ap.add_argument("--ledger-only", action="store_true",
                    help="print only the final serialized ledger")
    args = ap.parse_args()

    led = base_ledger()
    for name in args.chain or CHAINS:
        res = run_chain(name, led)
        if args.ledger_only:
            continue
        print(f"== chain {name} ({'ok' if res.ok else 'FAILED'}) ==")
        for step in res.steps:
            mark = "ok " if step.ok else "FAIL"
            print(f"  [{mark}] {step.name}: {step.computed:.15g}")
        for obl in res.obligations:
            print(f"  obligation: verify {obl[1]} on [{obl[2]:g}, {obl[3]:g})")
    print(serialize_ledger(led), end="")


if __name__ == "__main__":
    main()
