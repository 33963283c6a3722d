"""One checking process: parse the inputs, decide each pair in turn, and
print what was measured as one JSON line.

Usage: python3 worker.py SPEC_JSON, where the spec holds either
``{"fixtures": [[left, lq, right, rq], ...], "leaps": bool}`` or
``{"random": [seed, count], "order": [index, ...]}``, plus ``"trace"``
(a span file path, or null for an untraced run) and ``"label"`` (this
process's name in the span file).
The time at which the first check starts is reported on the
``perf_counter`` clock, which is system-wide on Linux, so the parent can
subtract the moment it started this process.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import parseq.engine  # noqa: E402
import parseq.frontend  # noqa: E402
from parseq import fixture_path  # noqa: E402
from parseq.smt import SolverConfig  # noqa: E402

# Pinned: the CLI's default `--solver auto` would pick an external solver
# found on PATH, which measures that solver instead of parseq's own.
CONFIG = SolverConfig(backend="internal")


def main(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    frontend = parseq.frontend
    if "fixtures" in spec:
        leaps = spec["leaps"]
        pairs = [
            (frontend.load(fixture_path(l)), lq, frontend.load(fixture_path(r)), rq)
            for l, lq, r, rq in spec["fixtures"]
        ]
    else:
        from inputs import random_pairs

        leaps = True
        population = random_pairs(*spec["random"])
        pairs = [
            (frontend.parse_source(a), qa, frontend.parse_source(b), qb)
            for a, qa, b, qb in (population[i] for i in spec["order"])
        ]
    checks = []
    ready = time.perf_counter()
    for i, (a1, q1, a2, q2) in enumerate(pairs):
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            res = parseq.engine.check_equivalence(a1, q1, a2, q2, config=CONFIG, leaps=leaps)
        else:
            tracer.check = i
            res = tracer.call(
                "check", parseq.engine.check_equivalence,
                a1, q1, a2, q2, config=CONFIG, leaps=leaps,
            )
        t1, c1 = time.perf_counter(), time.process_time()
        checks.append(
            {
                "verdict": res.verdict,
                "reason": res.reason,
                "s": t1 - t0,
                "cpu_s": c1 - c0,
                "iterations": res.stats.iterations,
                "skips": res.stats.skips,
                "extends": res.stats.extends,
            }
        )
    out = {
        "ready": ready,
        "loop_s": time.perf_counter() - ready,
        "checks": checks,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(spec["trace"], spec["label"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
