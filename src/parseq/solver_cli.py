"""A minimal SMT-LIB v2 solver for quantifier-free bitvector scripts.

Reads a script from stdin (or a file argument), supports the QF_BV
fragment emitted by the entailment pipeline — bitvector constants,
equality, concat, extract and the boolean connectives — and answers by
bit blasting into the bundled SAT solver. Runs as ``parseq-smt`` or
``python -m parseq.solver_cli``; anything it cannot parse or sort, or a
file it cannot read, yields "unknown" on stdout and a diagnostic on
stderr.
"""

from __future__ import annotations

import re
import sys
from typing import Union

from .confrel import (
    BOT,
    TOP,
    And,
    Bits,
    Eq,
    Formula,
    Implies,
    Not,
    Or,
    cat,
    lit,
    var,
)
from .smt import check_sat

Sexp = Union[str, list]


class ParseError(Exception):
    pass


# One findall per script, as the .p4a lexer does it: each match skips
# whitespace and ``;`` comments, then takes one token: a parenthesis, a
# |quoted symbol|, a "string" (either one, unterminated, runs to the end
# of the text), a symbol, else the end of the text.
_TOKEN_RE = re.compile(r'(?:\s|;[^\n]*)*([()]|\|[^|]*\|?|"[^"]*"?|[^\s();]+|\Z)')


def tokenize(text: str) -> list[str]:
    """The tokens of an SMT-LIB script. Raises ParseError for a quoted
    symbol that is not closed."""
    tokens = _TOKEN_RE.findall(text)
    del tokens[tokens.index("") :]  # the end of the text, once or twice
    if tokens and tokens[-1][0] == "|" and not tokens[-1].endswith("|", 1):
        raise ParseError("unterminated quoted symbol")
    return tokens


def parse_sexps(tokens: list[str]) -> list[Sexp]:
    out: list[Sexp] = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'")
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise ParseError("unbalanced '('")
    return out


def _literal(tok: str) -> Bits:
    if len(tok) > 2 and tok.startswith("#b"):
        return lit(tok[2:])
    if len(tok) > 2 and tok.startswith("#x"):
        bits = "".join(format(int(d, 16), "04b") for d in tok[2:])
        return lit(bits)
    raise ParseError(f"not a bitvector literal: {tok}")


class Script:
    def __init__(self):
        self.widths: dict[str, int] = {}
        self.assertions: list[Formula] = []
        self.checked = False

    def _sort_width(self, sort: Sexp) -> int:
        if (
            isinstance(sort, list)
            and len(sort) == 3
            and sort[0] == "_"
            and sort[1] == "BitVec"
            and int(sort[2]) > 0
        ):
            return int(sort[2])
        raise ParseError(f"unsupported sort: {sort!r}")

    def declare(self, name: Sexp, sort: Sexp) -> None:
        if name in self.widths:
            raise ParseError(f"{name} declared twice")
        self.widths[name] = self._sort_width(sort)

    def term(self, e: Sexp) -> Bits:
        if isinstance(e, str):
            if e.startswith("#"):
                return _literal(e)
            if e in self.widths:
                return var(e, self.widths[e])
            raise ParseError(f"undeclared symbol: {e}")
        if not e:
            raise ParseError("empty term")
        head = e[0]
        if head == "concat":
            args = [self.term(a) for a in e[1:]]
            if len(args) < 2:
                raise ParseError("concat needs two arguments")
            return cat(args)
        if isinstance(head, list) and len(head) == 4 and head[0] == "_" and head[1] == "extract":
            i, j = int(head[2]), int(head[3])
            inner = self.term(e[1])
            w = inner.width
            if not (w > i >= j >= 0):
                raise ParseError(f"extract {i} {j} out of range for width {w}")
            # SMT bit k is our bit (w - 1 - k)
            return inner.slice(w - 1 - i, w - 1 - j)
        raise ParseError(f"unsupported term: {e!r}")

    def formula(self, e: Sexp) -> Formula:
        if e == "true":
            return TOP
        if e == "false":
            return BOT
        if isinstance(e, str):
            raise ParseError(f"boolean symbols unsupported: {e}")
        if not e:
            raise ParseError("empty formula")
        head = e[0]
        if head == "=":
            args = [self.term(a) for a in e[1:]]
            if len(args) < 2:
                raise ParseError("= needs two arguments")
            if len({a.width for a in args}) > 1:
                raise ParseError(f"= of unequal widths {[a.width for a in args]}")
            eqs = tuple(Eq(a, b) for a, b in zip(args, args[1:]))
            return eqs[0] if len(eqs) == 1 else And(eqs)
        if head == "not":
            return Not(self.formula(e[1]))
        if head == "and":
            return And(tuple(self.formula(a) for a in e[1:]))
        if head == "or":
            return Or(tuple(self.formula(a) for a in e[1:]))
        if head == "=>":
            parts = [self.formula(a) for a in e[1:]]
            f = parts[-1]
            for p in reversed(parts[:-1]):
                f = Implies(p, f)
            return f
        raise ParseError(f"unsupported formula: {e!r}")

    def run_command(self, cmd: Sexp, out) -> None:
        if not isinstance(cmd, list) or not cmd:
            raise ParseError(f"bad command: {cmd!r}")
        head = cmd[0]
        if head in ("set-logic", "set-info", "set-option", "exit"):
            return
        if head == "declare-const":
            self.declare(cmd[1], cmd[2])
            return
        if head == "declare-fun":
            if cmd[2] != []:
                raise ParseError("only nullary declare-fun supported")
            self.declare(cmd[1], cmd[3])
            return
        if head == "assert":
            self.assertions.append(self.formula(cmd[1]))
            return
        if head == "check-sat":
            print("sat" if check_sat(self.assertions) else "unsat", file=out)
            self.checked = True
            return
        raise ParseError(f"unsupported command: {head}")


def run_script(text: str, out=sys.stdout) -> int:
    try:
        script = Script()
        for cmd in parse_sexps(tokenize(text)):
            script.run_command(cmd, out)
    except (ParseError, ValueError, IndexError, RecursionError) as exc:
        print("unknown", file=out)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        try:
            with open(argv[0]) as fh:
                text = fh.read()
        except OSError as exc:
            print("unknown")
            print(f"error: cannot read {argv[0]}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        text = sys.stdin.read()
    return run_script(text)


if __name__ == "__main__":
    sys.exit(main())
