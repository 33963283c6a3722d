"""Spans and counters around the calls into each parseq layer.

The wrappers replace module attributes under the names their callers
use: ``parseq.engine`` imports ``wp``, ``reach_fixpoint`` and
``decide_entailment`` with ``from ... import``, so only its own bindings
see the calls. Spans stay in memory until ``write``; a span's self time
is its duration minus the durations of the spans it directly contains
(calls nest, so these never overlap).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import parseq.engine
import parseq.frontend
import parseq.sat
import parseq.smt

# The layer each span name belongs to when self times are added up.
LAYER_OF = {
    "check": "engine",
    "engine.final": "engine",
    "frontend": "frontend",
    "reach": "reach",
    "wp": "wp",
    "smt.entail": "smt.simplify",
    "smt.translate": "smt.translate",
    "smt.check_sat": "smt.blast",
    "sat.solve": "sat.solve",
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, check index]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.check = -1  # index of the check under way; -1 before the first

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.check]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(out)
            return out

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the layer functions for the rest of this process."""
        c = self.counts

        def reach(out):
            c["reach.pairs"] += len(out)

        def wp(out):
            c["wp.calls"] += 1
            c["wp.obligations"] += len(out)

        def translate(out):
            c["smt.assertions"] += len(out)

        def query(out):
            c["smt.queries"] += 1

        self._wrap(parseq.frontend, "load", "frontend")
        self._wrap(parseq.frontend, "parse_source", "frontend")
        self._wrap(parseq.engine, "reach_fixpoint", "reach", reach)
        self._wrap(parseq.engine, "wp", "wp", wp)
        self._wrap(parseq.engine, "decide_entailment", "smt.entail")
        self._wrap(parseq.engine, "final_check", "engine.final")
        self._wrap(parseq.smt, "to_fol_bv", "smt.translate", translate)
        self._wrap(parseq.smt, "check_sat", "smt.check_sat", query)

        solve = parseq.sat.Solver.solve

        def traced_solve(solver):
            before = len(solver.clauses)
            out = self.call("sat.solve", solve, solver)
            c["sat.vars"] += solver.nvars
            c["sat.clauses"] += before
            c["sat.learned"] += len(solver.clauses) - before
            return out

        parseq.sat.Solver.solve = traced_solve

    def summary(self) -> dict:
        """Self time per layer (ms) and inclusive time of the entailment
        and final-check spans (ms), plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        inclusive_ms: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[LAYER_OF[name]] += (end - start - child[i]) * 1e3
            inclusive_ms[name] += (end - start) * 1e3
        return {
            "self_ms": dict(self_ms),
            "inclusive_ms": dict(inclusive_ms),
            "counts": dict(self.counts),
        }

    def write(self, path: str, process: str) -> None:
        """Append the spans as JSON lines; ``process`` names this process,
        and with ``check`` identifies the request a span belongs to."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, check) in enumerate(self.spans):
                record = {"process": process, "id": i, "parent": parent,
                          "check": check, "name": name, "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")
