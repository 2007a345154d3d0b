"""One workload run in a fresh process; run.py starts it and reads its rusage.

Prints one JSON line: set-up and pass samples, operation outcomes, the
counters of a pass and, when traced, per-layer values.  Spans of a traced
run are written to perfbench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import mobsum.identities  # noqa: E402
import mobsum.tables  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, retained_bytes_per_n  # noqa: E402

# calls made inside the program that get their own child spans when traced
HOOKS = [
    (mobsum.tables, "sieve_mu", "tables.sieve_mu"),
    (mobsum.tables, "m_series", "tables.m_series"),
    (mobsum.tables, "ell_series", "tables.ell_series"),
    (mobsum.identities, "identity_kernel_integral", "quad.identity_kernel_integral"),
]


def _pct_name(span_name):
    """'verify.verify_range.m4343' -> 'verify.verify_range_pct.m4343'."""
    parts = span_name.split(".")
    parts[1] += "_pct"
    return ".".join(parts)


def layer_values(rec, traced_pass, untraced, traced, tables):
    """Per-layer values of a traced run, keyed by metric name."""
    durs = rec.durations()
    total = rec.root_seconds()
    out = {"trace.run_s": total,
           "trace.overhead_s": statistics.median(traced) - statistics.median(untraced)}
    for stage in ("sieve_mu", "m_series", "ell_series"):
        out[f"tables.{stage}_s"] = statistics.median(durs[f"tables.{stage}"])
    for name, secs in rec.self_seconds().items():
        if not name.startswith("bench."):
            out[_pct_name(name)] = 100.0 * secs / total
    st = traced_pass.stats
    out["verify.intervals_checked"] = st.get("intervals", 0)
    out["verify.escalations"] = st.get("escalations", 0)
    out["cli.cache_files_written"] = st.get("cache_files", 0)
    out["tables.cache_bytes"] = st.get("cache_bytes", 0)
    out["tables.retained_bytes_per_n"] = retained_bytes_per_n(tables)
    for w in ("g1", "h1"):
        out[f"quad.bracket_width.{w}"] = st.get(f"bracket_width.{w}", 0.0)
    out["identities.worst_residual"] = st.get("worst_residual", 0.0)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    rec = spans.Recorder() if args.trace else spans.NULL
    run = f"{args.workload}/seed{args.seed}"

    rec.run_id = f"{run}/setup"
    with rec.span("bench.setup"), rec.patched(HOOKS):
        setup = wl.setup(rec)

    # Passes until the next one would end past --seconds; a traced run
    # alternates untraced and traced passes and needs one of each.
    untraced, traced, results = [], [], []
    traced_pass = None
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(results) % 2 == 1
        r = rec if tracing else spans.NULL
        r.run_id = f"{run}/pass{len(results)}"
        t0 = time.perf_counter()
        with r.span("bench.pass"), r.patched(HOOKS):
            res = wl.run_pass(r)
        (traced if tracing else untraced).append(time.perf_counter() - t0)
        results.append((tracing, res))
        if tracing and traced_pass is None:
            traced_pass = res
        elapsed = time.perf_counter() - start
        typical = statistics.median(untraced + traced)
        if (not args.trace or traced) and elapsed + typical > args.seconds:
            break

    ops = [op for _, res in results for op in res.ops]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup,
        "pass_s": untraced,
        "pass_stats": [res.stats for tracing, res in results if not tracing],
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "failures": [f"{op.name}: {op.detail}" for op in ops if not op.ok][:20],
    }
    if args.trace:
        rec.run_id = f"{run}/replay"
        replay = getattr(wl, "replay", None)
        if replay is not None:
            with rec.span("bench.replay"), rec.patched(HOOKS):
                replay(rec)
        out["pass_traced_s"] = traced
        out["layers"] = layer_values(rec, traced_pass, untraced, traced, wl.tables)
        out["spans"] = rec.summary()
        rec.write(os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
