"""Command-line interface.

Subcommands: check (equivalence of two parsers), check-rel (the same
loop under a user-supplied initial relation), simulate (run one parser
on a packet), oracle (brute-force referee), dump-reach (the template
reachability overapproximation). Exit codes: 0 Equivalent, 1
NotEquivalent, 2 Inconclusive or an unexpected internal error, 3 usage or
input error.

Every entailment is decided in process (``--solver internal``, the
default) or by enumeration (``--solver enum``); ``--dump-smt`` writes each
query as a QF_BV script for ``parseq-smt``, or any SMT-LIB solver.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import core, engine, frontend, oracle
from .core import Configuration, Store, disjoint_sum
from .engine import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, Result
from .reach import TemplatePair, reach_fixpoint
from .confrel import Template
from .smt import BACKENDS, SolverConfig


class UsageError(Exception):
    pass


EXIT_CODES = {EQUIVALENT: 0, NOT_EQUIVALENT: 1, INCONCLUSIVE: 2}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parseq",
        description="Language-equivalence checking for packet-parser automata.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_solver_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-leaps", action="store_true", help="single-bit steps only")
        p.add_argument("--no-reach", action="store_true", help="skip reachability pruning")
        p.add_argument("--dump-smt", metavar="DIR", help="write each solver query to DIR")
        p.add_argument("--witness", metavar="PATH", help="write the final relation (text, or JSON for .json)")
        p.add_argument("--timeout", type=float, default=60.0, metavar="N", help="per-query solver timeout in seconds")
        p.add_argument(
            "--solver",
            default="internal",
            choices=BACKENDS,
            help="entailment backend: in-process simulation and SAT, or exhaustive enumeration",
        )

    p = sub.add_parser("check", help="decide equivalence of two parsers")
    p.add_argument("left", metavar="LEFT.p4a")
    p.add_argument("left_state")
    p.add_argument("right", metavar="RIGHT.p4a")
    p.add_argument("right_state")
    add_solver_flags(p)

    p = sub.add_parser(
        "check-rel", help="run the check under a user-supplied initial relation"
    )
    p.add_argument("left", metavar="LEFT.p4a")
    p.add_argument("left_state")
    p.add_argument("right", metavar="RIGHT.p4a")
    p.add_argument("right_state")
    p.add_argument("relation", metavar="REL", help="relation file (init:/pair lines)")
    add_solver_flags(p)

    p = sub.add_parser("simulate", help="run one parser on a packet bitstring")
    p.add_argument("source", metavar="FILE.p4a")
    p.add_argument("state")
    p.add_argument("packet", help="bitstring, e.g. 010011")

    p = sub.add_parser("oracle", help="brute-force equivalence on small parsers")
    p.add_argument("left", metavar="LEFT.p4a")
    p.add_argument("left_state")
    p.add_argument("right", metavar="RIGHT.p4a")
    p.add_argument("right_state")
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP, help="total-bit budget")

    p = sub.add_parser("dump-reach", help="print the reachable template pairs")
    p.add_argument("left", metavar="LEFT.p4a")
    p.add_argument("left_state")
    p.add_argument("right", metavar="RIGHT.p4a")
    p.add_argument("right_state")
    p.add_argument("--no-leaps", action="store_true")
    return ap


def solver_config(args: argparse.Namespace) -> SolverConfig:
    try:
        return SolverConfig(backend=args.solver, timeout=args.timeout, dump_dir=args.dump_smt)
    except ValueError as exc:
        raise UsageError(f"--timeout: {exc}") from None


def _load(path: str) -> core.Automaton:
    try:
        return frontend.load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except frontend.Diagnostic as exc:
        raise UsageError(exc.in_file(path)) from exc


def _check_state(aut: core.Automaton, name: str, path: str) -> None:
    if name not in dict(aut.states):
        raise UsageError(f"{path} has no state {name!r}")


def report(result: Result, args: argparse.Namespace, meta: dict) -> int:
    line = result.verdict
    if result.reason:
        line += f": {result.reason}"
    print(line)
    print(result.stats.summary())
    if args.witness and result.witness is not None:
        meta = dict(meta, verdict=result.verdict, stats=result.stats.summary())
        if args.witness.endswith(".json"):
            text = result.witness.to_json(meta)
        else:
            header = " ".join(f"{k}={v}" for k, v in meta.items())
            text = result.witness.to_text(header)
        with open(args.witness, "w") as fh:
            fh.write(text)
    return EXIT_CODES[result.verdict]


def cmd_check(args: argparse.Namespace) -> int:
    a1, a2 = _load(args.left), _load(args.right)
    _check_state(a1, args.left_state, args.left)
    _check_state(a2, args.right_state, args.right)
    result = engine.check_equivalence(
        a1,
        args.left_state,
        a2,
        args.right_state,
        config=solver_config(args),
        leaps=not args.no_leaps,
        use_reach=not args.no_reach,
    )
    meta = {
        "query": f"{args.left}:{args.left_state} vs {args.right}:{args.right_state}",
        "leaps": not args.no_leaps,
        "reach": not args.no_reach,
    }
    return report(result, args, meta)


def cmd_check_rel(args: argparse.Namespace) -> int:
    a1, a2 = _load(args.left), _load(args.right)
    _check_state(a1, args.left_state, args.left)
    _check_state(a2, args.right_state, args.right)
    total, left, right = disjoint_sum(a1, a2)
    try:
        with open(args.relation) as fh:
            rel_text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.relation}: {exc.strerror}") from exc
    try:
        phi_extra, i_extra = frontend.parse_relation(
            rel_text, left.states, right.states, left.headers, right.headers, total
        )
    except frontend.Diagnostic as exc:
        raise UsageError(exc.in_file(args.relation)) from exc
    result = engine.pre_bisimulation(
        total,
        left.states[args.left_state],
        right.states[args.right_state],
        config=solver_config(args),
        leaps=not args.no_leaps,
        use_reach=not args.no_reach,
        phi_extra=phi_extra,
        i_extra=i_extra,
    )
    meta = {
        "query": f"{args.left}:{args.left_state} vs {args.right}:{args.right_state}",
        "relation": args.relation,
    }
    return report(result, args, meta)


def cmd_simulate(args: argparse.Namespace) -> int:
    aut = _load(args.source)
    _check_state(aut, args.state, args.source)
    if not core.is_bits(args.packet):
        raise UsageError("the packet must be a string over 0 and 1")
    c = Configuration(args.state, Store.zeros(aut), "")
    c = core.multi_step(c, args.packet, aut)
    print(f"state: {c.state}")
    print(f"buffer: {c.buffer or 'ε'}")
    for name, bits in c.store.items:
        print(f"{name} = {bits}")
    print("accepting" if c.is_accepting else "not accepting")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    a1, a2 = _load(args.left), _load(args.right)
    _check_state(a1, args.left_state, args.left)
    _check_state(a2, args.right_state, args.right)
    d = oracle.distinguishing_word(
        a1, args.left_state, a2, args.right_state, cap=args.cap
    )
    if d is None:
        print("Equivalent (oracle)")
        return 0
    print("NotEquivalent (oracle)")
    print(f"word: {d.word or 'ε'}")
    print(f"left store: {dict(d.s1.items)}")
    print(f"right store: {dict(d.s2.items)}")
    return 1


def cmd_dump_reach(args: argparse.Namespace) -> int:
    a1, a2 = _load(args.left), _load(args.right)
    _check_state(a1, args.left_state, args.left)
    _check_state(a2, args.right_state, args.right)
    total, left, right = disjoint_sum(a1, a2)
    seed = TemplatePair(
        Template(left.states[args.left_state], 0),
        Template(right.states[args.right_state], 0),
    )
    reach = reach_fixpoint({seed}, total, leaps=not args.no_leaps)
    print(reach.dump())
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    handlers = {
        "check": cmd_check,
        "check-rel": cmd_check_rel,
        "simulate": cmd_simulate,
        "oracle": cmd_oracle,
        "dump-reach": cmd_dump_reach,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, frontend.Diagnostic, oracle.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # never read as a verdict: exit 1 means NotEquivalent
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES[INCONCLUSIVE]


if __name__ == "__main__":
    sys.exit(main())
