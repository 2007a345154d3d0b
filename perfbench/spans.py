"""In-memory spans recorded around calls into mobsum's layers.

A span is (name, start, end, parent, run id).  Untraced runs use NULL,
whose span() is a no-op, so they pay nothing for the hooks.  Traced runs
also patch a few module attributes so that calls made inside the program
(build_tables -> sieve_mu, residual_* -> identity_kernel_integral) get
child spans; the patches are undone when tracing stops.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans = []   # [name, start_ns, end_ns, parent_index, run_id]
        self._stack = []
        self.run_id = ""

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), None, parent, self.run_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self, hooks):
        """Wrap module attributes: hooks is [(module, attr, span name)]."""
        saved = []
        for mod, attr, name in hooks:
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        try:
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """{name: [seconds per call]}."""
        out = defaultdict(list)
        for name, t0, t1, _, _ in self.spans:
            out[name].append((t1 - t0) * 1e-9)
        return out

    def self_seconds(self):
        """{name: total self time}: duration minus time covered by children."""
        child = defaultdict(int)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0 - child[i]) * 1e-9
        return out

    def root_seconds(self):
        return sum((t1 - t0) * 1e-9 for _, t0, t1, p, _ in self.spans if p < 0)

    def summary(self):
        """{name: {calls, self_s, median_s}} over every span name."""
        durs = self.durations()
        return {name: {"calls": len(durs[name]), "self_s": secs,
                       "median_s": statistics.median(durs[name])}
                for name, secs in sorted(self.self_seconds().items())}

    def write(self, path):
        rows = [{"name": n, "start_ns": t0, "end_ns": t1, "parent": p, "run": r}
                for n, t0, t1, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.summary(), "spans": rows}, fh, indent=1)


class _Null:
    """Recorder stand-in for untraced passes."""

    run_id = ""

    def span(self, name):
        return contextlib.nullcontext()

    def patched(self, hooks):
        return contextlib.nullcontext()


NULL = _Null()
