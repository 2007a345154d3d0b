#!/usr/bin/env python3
"""Layered benchmark for mobsum.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) whose peak RSS comes from wait4.  Load is a
closed loop from that one process: operations run one after another, each
with at most two threads.  The output is one line per metric, name and
unit, then one JSON line: {"correct", "attempted", "failed", "metrics"}.
Untraced runs give the end-to-end metrics of BENCHMARK.json; traced runs
give its per-layer metrics and write every span to
perfbench/out/trace-<workload>-seed<N>.json.  perfbench/layer_map.json
says which end-to-end metric each layer metric should move.  Exit status
0 means a result was printed; `correct` is false when any operation gave
a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from proc import run_child  # noqa: E402

WORKER_TIMEOUT_S = 175.0


class BenchError(Exception):
    pass


def _end_to_end(name, res, maxrss_kb):
    """End-to-end metrics, plus the ones that exist only for some workloads."""
    stats = res["pass_stats"]
    if name == "cli-cache":  # the program runs in the CLI children
        maxrss_kb = max(s["child_rss_kb"] for s in stats)
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "pass_s": statistics.median(res["pass_s"]),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }
    extra = {"error_rate": ("", res["failed"] / res["attempted"])}
    verify_s = sum(s.get("verify_s", 0.0) for s in stats)
    if verify_s:
        extra["intervals_per_s"] = ("1/s", sum(s["intervals"] for s in stats) / verify_s)
    if name == "cli-cache":
        for key in ("cold", "warm"):
            extra[f"{key}_cli_s"] = ("s", statistics.median(
                s[f"cli.verify_{key}"] for s in stats))
    return metrics, extra


def run_workload(name, seed, seconds, trace, bench):
    """Run one workload in a worker; return (result line fields, printed lines)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", OUT]
    rc, out, err, _, maxrss_kb = run_child(argv, OUT, timeout=WORKER_TIMEOUT_S)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker for {name} exited {rc}:\n{err.strip()}")
    res = json.loads(lines[-1])
    tag = f"[{name} seed={seed} trace={trace}]"
    printed = [f"{tag} operations: {res['attempted']} attempted, {res['failed']} failed"]
    printed += [f"{tag} FAILED {f}" for f in res["failures"]]
    if trace:
        spec, values = bench["per_layer"], res["layers"]
        npass = f"{len(res['pass_s'])} untraced + {len(res['pass_traced_s'])} traced passes"
    else:
        spec = bench["end_to_end"]
        values, extra = _end_to_end(name, res, maxrss_kb)
        npass = f"median of {len(res['pass_s'])} passes"
    note = {"setup_s": f"median of {len(res['setup_s'])}", "pass_s": npass}
    metrics = {}
    for m in spec:
        # a layer this workload never calls has no spans: 0 % of its time
        v = values.get(m["name"], 0.0) if trace else values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        printed.append(f"{tag} {m['name']} = {v!r} {m['unit']}"
                       + (f" ({note[m['name']]})" if m["name"] in note else ""))
    if trace:
        printed += [f"{tag} span {n}: self {d['self_s']!r} s over {d['calls']} calls, "
                    f"median {d['median_s']!r} s per call" for n, d in res["spans"].items()]
    else:
        printed += [f"{tag} {k} = {v!r} {u}".rstrip() for k, (u, v) in extra.items()]
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}, printed


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mobsum", "__init__.py")):
        print(f"no mobsum sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.workload != "all":
            result, printed = run_workload(args.workload, args.seed, args.seconds,
                                           args.trace, bench)
            print("\n".join(printed))
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in names:
                one, printed = run_workload(name, args.seed, args.seconds,
                                            args.trace, bench)
                print("\n".join(printed), flush=True)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    {f"{name}.{k}": v for k, v in one["metrics"].items()})
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
