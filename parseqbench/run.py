"""The parseq benchmark: decide parser pairs through the library API with
the in-process solver, confirm every verdict apart from the engine, and
print the metrics as one JSON object on the last line of stdout.

Usage:
  python3 parseqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): leap-fixtures, single-bit-fixtures,
random-small. A pass decides each of the workload's pairs once, one
check at a time; passes repeat until ``--seconds`` have gone by. Fixture
checks each start a fresh interpreter, as ``parseq check`` does; a
random-small pass is one interpreter deciding all its pairs in turn.
With ``--trace 1`` untraced and traced passes alternate, and the traced
ones give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

# A checkout without the parseq sources fails here, before any result.
import parseq  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(parseq.__file__))) != os.path.join(ROOT, "src"):
    sys.exit(f"parseq must come from {ROOT}/src, not {parseq.__file__}")

from inputs import FIXTURE_PAIRS, SINGLE_BIT_SKIPPED, pair_name  # noqa: E402
import referee  # noqa: E402

# random-small decides the same 300 pairs on every seed; the seed sets the
# order. A pair's check time has a coefficient of variation of about 3
# (ten pairs take 45% of a pass), so drawing 300 new pairs per seed moved
# verdict_s by 38% (IQR over median, 5 seeds), more than any bound.
RANDOM_PAIRS = 300
POPULATION_SEED = 2022
WORKER_TIMEOUT_S = 150

# Unit of each per-layer metric whose name does not end in "ms".
LAYER_UNITS = {
    "reach.pairs": "count", "wp.calls": "count", "wp.obligations": "count",
    "engine.iterations": "count", "engine.extends": "count",
    "engine.skip_ratio": "1/iteration", "smt.queries": "count",
    "smt.assertions": "count", "sat.vars": "count", "sat.clauses": "count",
    "sat.learned": "count", "trace.verdict_s": "s", "trace.accounted_pct": "%",
    "trace.overhead_ratio": "ratio",
}

WORKLOADS = {
    "leap-fixtures": {"pairs": FIXTURE_PAIRS, "leaps": True},
    "single-bit-fixtures": {
        "pairs": [p for p in FIXTURE_PAIRS if pair_name(p) not in SINGLE_BIT_SKIPPED],
        "leaps": False,
    },
    "random-small": {"random": [POPULATION_SEED, RANDOM_PAIRS]},
}


def spawn(spec: dict) -> tuple[float, dict | None, str]:
    """Run one worker; return its start time, its report, and why it
    crashed if it did (the report is then None)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return started, None, f"no answer within {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return started, None, proc.stderr.strip()[-2000:]
    return started, json.loads(proc.stdout.splitlines()[-1]), ""


class Pass:
    """What one pass over the workload's pairs measured."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.verdict_s = 0.0
        self.setups: list[float] = []
        self.checks: list[tuple[str, dict | None]] = []  # (pair key, check)
        self.rss_kb = 0
        self.traces: list[dict] = []
        self.errors: list[str] = []

    def add(self, keys: list[str], started: float, report: dict | None, err: str) -> None:
        if report is None:
            self.errors.append(err)
            self.checks += [(k, None) for k in keys]
            return
        self.setups.append(report["ready"] - started)
        self.rss_kb = max(self.rss_kb, report["rss_kb"])
        self.checks += list(zip(keys, report["checks"]))
        self.verdict_s += report["loop_s"]
        if "trace" in report:
            self.traces.append(report["trace"])


def run_pass(work: dict, seed: int, trace_path: str | None, label: str) -> Pass:
    p = Pass(trace_path is not None)
    if "random" in work:
        order = list(range(work["random"][1]))
        random.Random(seed).shuffle(order)
        spec = {"random": work["random"], "order": order, "trace": trace_path, "label": label}
        p.add([str(i) for i in order], *spawn(spec))
        return p
    for i, (l, lq, r, rq, _) in enumerate(work["pairs"]):
        spec = {"fixtures": [[l, lq, r, rq]], "leaps": work["leaps"],
                "trace": trace_path, "label": f"{label}.{i}"}
        p.add([pair_name((l, lq, r, rq))], *spawn(spec))
    return p


def judge(work: dict, passes: list[Pass], seed: int, oracle: referee.OracleClock):
    """Count the failed checks (crashed, Inconclusive or wrong) and
    confirm the verdicts of the others; a wrong verdict or an
    unconfirmed one makes the run incorrect."""
    if "random" in work:
        expected, problems = referee.oracle_verdicts(*work["random"], oracle)
        expect = {str(i): v for i, v in enumerate(expected)}
    else:
        expect = {pair_name(p): p[4] for p in work["pairs"]}
        problems = []
    failed, seen = 0, {}
    for p in passes:
        for err in p.errors:
            print(f"worker crashed: {err}", file=sys.stderr)
        for key, check in p.checks:
            if check is None:
                failed += 1
            elif check["verdict"] != expect[key]:
                failed += 1
                problems.append(f"{key}: {check['verdict']} {check['reason']}, "
                                f"expected {expect[key]}")
            else:
                seen[key] = check["verdict"]
    if "pairs" in work:
        problems += referee.confirm_fixtures(work["pairs"], seen, seed, work["leaps"], oracle)
    return failed, not problems, problems


def end_to_end(passes: list[Pass]) -> dict:
    timed = [p for p in passes if not p.traced]
    return {
        "setup_s": (statistics.median(s for p in passes for s in p.setups), "s"),
        "verdict_s": (statistics.median(p.verdict_s for p in timed), "s"),
        "peak_rss_mb": (max(p.rss_kb for p in passes) / 1024, "MB"),
    }


def print_check_times(work: dict, passes: list[Pass]) -> None:
    """Per-check times on stderr: for each fixture pair its median wall
    and CPU time over the untraced passes; for random pairs the median
    and 90th percentile over the pairs of each pair's median."""
    times: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        if not p.traced:
            for key, check in p.checks:
                if check is not None:
                    times.setdefault(key, []).append((check["s"], check["cpu_s"]))
    medians = {
        key: (statistics.median(s for s, _ in v), statistics.median(c for _, c in v), len(v))
        for key, v in times.items()
    }
    if "pairs" in work:
        for key, (wall, cpu, n) in medians.items():
            print(f"{key}: wall {wall:.3f} s, cpu {cpu:.3f} s, median of {n}", file=sys.stderr)
        return
    wall = [w * 1e3 for w, _, _ in medians.values()]
    p50, p90 = statistics.median(wall), statistics.quantiles(wall, n=10)[8]
    print(f"per-check wall over {len(wall)} pairs: p50 {p50:.3f} ms, p90 {p90:.3f} ms",
          file=sys.stderr)


def per_layer(passes: list[Pass], oracle_s: float) -> dict:
    traced = [p for p in passes if p.traced]
    untraced_s = statistics.median(p.verdict_s for p in passes if not p.traced)
    rows = []
    for p in traced:
        self_ms: dict[str, float] = {}
        incl_ms: dict[str, float] = {}
        counts: dict[str, float] = {}
        for t in p.traces:
            for src, dst in ((t["self_ms"], self_ms), (t["inclusive_ms"], incl_ms),
                             (t["counts"], counts)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        checks = [c for _, c in p.checks if c is not None]
        iterations = sum(c["iterations"] for c in checks)
        inside = sum(v for k, v in self_ms.items() if k != "frontend")
        rows.append({
            "frontend.load_ms": self_ms.get("frontend", 0.0),
            "reach.ms": self_ms.get("reach", 0.0),
            "reach.pairs": counts.get("reach.pairs", 0),
            "wp.ms": self_ms.get("wp", 0.0),
            "wp.calls": counts.get("wp.calls", 0),
            "wp.obligations": counts.get("wp.obligations", 0),
            "engine.iterations": iterations,
            "engine.extends": sum(c["extends"] for c in checks),
            "engine.skip_ratio": sum(c["skips"] for c in checks) / max(iterations, 1),
            "engine.self_ms": self_ms.get("engine", 0.0),
            "engine.final_ms": incl_ms.get("engine.final", 0.0),
            "smt.entail_ms": incl_ms.get("smt.entail", 0.0),
            "smt.simplify_ms": self_ms.get("smt.simplify", 0.0),
            "smt.queries": counts.get("smt.queries", 0),
            "smt.translate_ms": self_ms.get("smt.translate", 0.0),
            "smt.assertions": counts.get("smt.assertions", 0),
            "smt.blast_ms": self_ms.get("smt.blast", 0.0),
            "sat.solve_ms": self_ms.get("sat.solve", 0.0),
            "sat.vars": counts.get("sat.vars", 0),
            "sat.clauses": counts.get("sat.clauses", 0),
            "sat.learned": counts.get("sat.learned", 0),
            "trace.verdict_s": p.verdict_s,
            "trace.accounted_pct": 100 * inside / (p.verdict_s * 1e3),
            "trace.overhead_ratio": p.verdict_s / untraced_s,
        })
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["oracle.ms"] = oracle_s * 1e3
    return {k: (v, LAYER_UNITS.get(k, "ms")) for k, v in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    trace_path = os.path.join(OUT, f"trace-{tag}.jsonl") if args.trace else None
    if trace_path:
        open(trace_path, "w").close()

    passes: list[Pass] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        passes.append(run_pass(work, args.seed, None, f"pass{len(passes)}"))
        if args.trace:
            passes.append(run_pass(work, args.seed, trace_path, f"pass{len(passes)}"))

    oracle = referee.OracleClock()
    failed, correct, problems = judge(work, passes, args.seed, oracle)
    for line in problems:
        print(line, file=sys.stderr)
    print_check_times(work, passes)
    metrics = per_layer(passes, oracle.seconds) if args.trace else end_to_end(passes)
    result = {
        "correct": correct,
        "attempted": sum(len(p.checks) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
