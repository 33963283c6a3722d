"""Show which lines of parseq the benchmark's workloads never run.

Runs one pass of each workload of ``parseqbench/run.py`` in this process
under ``sys.settrace``: the 7 fixture pairs with leaps, the 5 fixture
pairs of the single-bit workload, and the 300 ``random-small`` pairs,
parsed from their sources as the benchmark's worker does. Then it prints,
for each module of ``parseq`` (or each one named), how many executable
lines it has and every one of them that no workload ran. A line is
executable when the compiled module has an instruction on it. A branch
that shows up here is one no workload takes, whatever its cost or its
purpose.

  python3 tools/traffic.py [--tree TREE] [MODULE ...]

TREE (by default the tree this script is in) is where ``parseq`` is
imported from, TREE/src, and the inputs, TREE/parseqbench/inputs.py.
MODULE is a file name in ``src/parseq``, such as ``smt.py``. Nothing is
written: no bytecode is cached, so neither tree changes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import types

RANDOM_SEED, RANDOM_COUNT = 2022, 300  # the random-small population


def executable_lines(path: str) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code
    sits on."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    out: set[int] = set()
    todo = [code]
    while todo:
        co = todo.pop()
        out.update(line for _, _, line in co.co_lines() if line)
        todo += [c for c in co.co_consts if type(c) is types.CodeType]
    return out


def run_workloads(tree: str) -> tuple[dict[str, set[int]], str]:
    """The lines of each file under TREE/src/parseq that one pass of each
    workload ran, and that directory."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "parseqbench")]
    package = os.path.join(os.path.abspath(src), "parseq") + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(global_)
    try:
        import parseq.engine
        import parseq.frontend
        from inputs import FIXTURE_PAIRS, SINGLE_BIT_SKIPPED, pair_name, random_pairs
        from parseq import fixture_path
        from parseq.smt import SolverConfig

        config = SolverConfig(backend="internal")
        check, load = parseq.engine.check_equivalence, parseq.frontend.load
        for leaps in (True, False):
            t0 = time.process_time()
            pairs = [p for p in FIXTURE_PAIRS if leaps or pair_name(p) not in SINGLE_BIT_SKIPPED]
            for lf, lq, rf, rq, _ in pairs:
                a, b = load(fixture_path(lf)), load(fixture_path(rf))
                check(a, lq, b, rq, config=config, leaps=leaps)
            name = "leap-fixtures" if leaps else "single-bit-fixtures"
            took = time.process_time() - t0
            print(f"{name}: {len(pairs)} pairs, {took:.1f} s traced", file=sys.stderr)
        t0 = time.process_time()
        parse = parseq.frontend.parse_source
        for a, qa, b, qb in random_pairs(RANDOM_SEED, RANDOM_COUNT):
            check(parse(a), qa, parse(b), qb, config=config)
        took = time.process_time() - t0
        print(f"random-small: {RANDOM_COUNT} pairs, {took:.1f} s traced", file=sys.stderr)
    finally:
        sys.settrace(None)
    return ran, package


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--tree", default=here)
    ap.add_argument("modules", nargs="*", help="file names in src/parseq, all by default")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    ran, package = run_workloads(args.tree)
    names = args.modules or sorted(f for f in os.listdir(package) if f.endswith(".py"))
    for name in names:
        path = package + name
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path, set()))
        print(f"{name}: {len(lines)} executable lines, {len(unrun)} not run")
        with open(path) as fh:
            text = fh.read().splitlines()
        for n in unrun:
            print(f"  {n:4d}  {text[n - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
