"""Surface syntax for parser automata, and its pretty-printer.

One automaton per .p4a file, written as a sequence of state blocks:

    state q1 {
      extract(mpls, 32);
      select(mpls[23:23]) {
        0b0 => q1
        0b1 => q2
      }
    }

Header sizes are inferred: the first extract of a header fixes its
size, every other extract must agree, and headers that are only ever
assigned take the width of their right-hand side. Literals are binary
(0b101 or a bare bitstring) or hex (0x8100, four bits per digit);
comments run from '#' to end of line.

Tokens are plain strings, split off by one regular-expression scan of the
source. A diagnostic's line and column are computed only when they are
read, by scanning the source again up to its token.

The module also parses the relation files consumed by check-rel; see
parse_relation.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

from . import core
from .core import (
    Assign,
    Automaton,
    Case,
    Concat,
    ExactPat,
    Expr,
    Extract,
    Goto,
    HdrRef,
    Lit,
    Pattern,
    RESULTS,
    Select,
    Slice,
    State,
    TypeError_,
    Wildcard,
    width_of,
)
from .confrel import (
    Bits,
    BOT,
    TOP,
    Eq,
    Formula,
    Guarded,
    Implies,
    LEFT,
    Not,
    RIGHT,
    Template,
    buf,
    conj,
    disj,
    hdr,
    lit,
)


class Diagnostic(Exception):
    """A positioned syntax or type error in a source file. One made at a
    ``token``, a pair of the source and the token's index, works out its
    line and column when they are first read: a diagnostic the parser
    discards as it backtracks costs no scan of the source."""

    def __init__(self, message: str, line: int = 0, col: int = 0, token=None):
        super().__init__(message)
        self.message, self._where, self._token = message, (line, col), token

    line = property(lambda self: self._place()[0])
    col = property(lambda self: self._place()[1])

    def _place(self) -> tuple[int, int]:
        if self._token:
            text, index = self._token
            at = next(itertools.islice(_TOKEN_RE.finditer(text), index, None)).start(1)
            self._where = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
            self._token = None
        return self._where

    def __str__(self) -> str:
        line, col = self._place()
        return f"{line}:{col}: {self.message}" if line else self.message

    def in_file(self, path: str) -> str:
        """The diagnostic as ``PATH:LINE:COL: message``, or ``PATH: message``
        when it has no position."""
        return f"{path}:{self}" if self.line else f"{path}: {self}"


# ---------------------------------------------------------------------------
# Tokenizer
#
# One findall per source: each match skips whitespace and comments, then
# takes one token: a literal, a name or an operator, else any other
# character (which tokenize reports), else the end of the text. The skip
# never has to give anything back, since after it some alternative matches.

_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    ( 0x[0-9a-fA-F]+ | 0b[01]+ | [0-9]+ | [A-Za-z_][A-Za-z0-9_]*
    | := | => | \+\+ | && | \|\| | [{}()\[\],;:=!.]
    | \S | \Z )
    """,
    re.VERBOSE,
)
# the one-character tokens
_SINGLES = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_0123456789{}()[],;:=!.")


def tokenize(text: str) -> list[str]:
    """The tokens of ``text``, ending with "" (once or twice, at the end
    of the text). Raises Diagnostic at the first character that starts no
    token."""
    tokens = _TOKEN_RE.findall(text)
    bad = [t for t in set(tokens) - _SINGLES if len(t) == 1]
    if bad:
        i = min(map(tokens.index, bad))
        raise Diagnostic(f"unexpected character {tokens[i]!r}", token=(text, i))
    return tokens


def _bits(tok: str) -> Optional[str]:
    """The bits of literal token ``tok``, or None when it is no literal."""
    if tok[:2] == "0x":
        return format(int(tok, 16), f"0{4 * len(tok) - 8}b")
    if tok[:2] == "0b":
        return tok[2:]
    if tok and not tok.strip("01"):
        return tok
    return None


# ---------------------------------------------------------------------------
# Parser
#
# Every token tokenize returns is ASCII, so a name is a token that
# isidentifier() and a number one that isdigit().

_KEYWORDS = {"state", "extract", "goto", "select"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def error(self, message: str, index: int) -> Diagnostic:
        """A Diagnostic at token ``index``."""
        return Diagnostic(message, token=(self.text, index))

    def expected(self, what: str, index: int) -> Diagnostic:
        """The diagnostic for token ``index`` where ``what`` should stand."""
        found = self.tokens[index] or "end of file"
        return self.error(f"expected {what}, found {found!r}", index)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.expected(repr(text), self.pos)
        self.pos += 1

    def name(self, what: str) -> str:
        tok = self.next()
        if not tok.isidentifier() or tok in _KEYWORDS:
            raise self.expected(what, self.pos - 1)
        return tok

    def number(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise self.expected("a number", self.pos - 1)
        return int(tok)

    def literal(self) -> str:
        tok = self.next()
        bits = _bits(tok)
        if bits is None:
            raise self.error(f"not a bitvector literal: {tok!r}", self.pos - 1)
        return bits

    # expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        left = self.postfix()
        if self.peek() == "++":
            self.pos += 1
            return Concat(left, self.expr())
        return left

    def postfix(self) -> Expr:
        e = self.primary()
        while self.peek() == "[":
            self.pos += 1
            lo = self.number()
            self.expect(":")
            hi = self.number()
            self.expect("]")
            e = Slice(e, lo, hi)
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        if tok == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        bits = _bits(tok)
        if bits is not None:
            self.pos += 1
            return Lit(bits)
        if tok.isidentifier() and tok not in _KEYWORDS:
            return HdrRef(self.next())
        raise self.expected("an expression", self.pos)

    # states ---------------------------------------------------------------

    def pattern(self) -> Pattern:
        if self.peek() == "_":
            self.pos += 1
            return Wildcard()
        return ExactPat(self.literal())

    def case(self) -> Case:
        if self.peek() == "(":
            self.pos += 1
            pats = [self.pattern()]
            while self.peek() == ",":
                self.pos += 1
                pats.append(self.pattern())
            self.expect(")")
        else:
            pats = [self.pattern()]
        self.expect("=>")
        return Case(tuple(pats), self.target())

    def target(self) -> str:
        tok = self.next()
        if not tok.isidentifier():
            raise self.expected("a state name", self.pos - 1)
        return tok

    def state_body(self):
        stmts: list[tuple] = []  # ("extract", hdr, width, index) | ("assign", hdr, expr, index)
        while True:
            tok = self.peek()
            at = self.pos
            if tok == "extract":
                self.pos += 1
                self.expect("(")
                at = self.pos
                hdr = self.name("a header name")
                self.expect(",")
                width = self.number()
                self.expect(")")
                self.expect(";")
                stmts.append(("extract", hdr, width, at))
            elif tok.isidentifier() and tok not in _KEYWORDS:
                self.pos += 1
                self.expect(":=")
                e = self.expr()
                self.expect(";")
                stmts.append(("assign", tok, e, at))
            else:
                break
        if tok == "goto":
            self.pos += 1
            trans: object = Goto(self.target())
            if self.peek() == ";":
                self.pos += 1
        elif tok == "select":
            self.pos += 1
            self.expect("(")
            exprs = [self.expr()]
            while self.peek() == ",":
                self.pos += 1
                exprs.append(self.expr())
            self.expect(")")
            self.expect("{")
            cases = []
            while self.peek() != "}":
                cases.append(self.case())
            self.expect("}")
            trans = Select(tuple(exprs), tuple(cases))
        else:
            raise self.error("expected 'goto' or 'select' to end the state", at)
        return stmts, trans

    def source_file(self):
        states = []
        while self.peek() == "state":
            self.pos += 1
            at = self.pos
            name = self.name("a state name")
            if name in RESULTS:
                raise self.error(f"{name!r} is reserved", at)
            self.expect("{")
            stmts, trans = self.state_body()
            self.expect("}")
            states.append((name, stmts, trans))
        if self.peek():
            raise self.expected("'state'", self.pos)
        if not states:
            raise Diagnostic("a source file needs at least one state", 1, 1)
        return states


def _infer_sizes(states, text: str) -> dict[str, int]:
    """Header widths: extracts fix them, assignments propagate them.
    Diagnostics are placed at the header token of ``text`` that each
    statement records."""
    sizes: dict[str, int] = {}
    order: dict[str, None] = {}  # every header, by first mention
    assigns = []

    def expr_headers(e: Expr) -> None:
        if isinstance(e, HdrRef):
            order[e.name] = None
        elif isinstance(e, Slice):
            expr_headers(e.expr)
        elif isinstance(e, Concat):
            expr_headers(e.left)
            expr_headers(e.right)

    for _, stmts, trans in states:
        for s in stmts:
            kind, name, arg, at = s
            order[name] = None
            if kind == "assign":
                assigns.append(s)
                expr_headers(arg)
            elif sizes.setdefault(name, arg) != arg:
                raise Diagnostic(
                    f"header {name!r} extracted at width {arg}, previously {sizes[name]}",
                    token=(text, at),
                )
        if isinstance(trans, Select):
            for e in trans.exprs:
                expr_headers(e)

    changed = True
    while changed:
        changed = False
        for _, name, e, _ in assigns:
            if name in sizes:
                continue
            try:
                sizes[name] = width_of(e, sizes)
            except TypeError_:
                continue  # not known yet, or left for typecheck to report
            changed = True

    for _, name, _, at in assigns:
        if name not in sizes:
            raise Diagnostic(
                f"cannot infer a width for header {name!r} "
                "(never extracted, and its assignment's width is unknown)",
                token=(text, at),
            )
    for name in order:
        if name not in sizes:
            raise Diagnostic(
                f"header {name!r} is read but never extracted or assigned"
            )
    return {name: sizes[name] for name in order}


def parse_source(text: str) -> Automaton:
    """Parse and typecheck one automaton; raises Diagnostic on failure."""
    states = _Parser(text).source_file()
    sizes = _infer_sizes(states, text)
    out_states = []
    for name, stmts, trans in states:
        op = tuple(
            Extract(s[1]) if s[0] == "extract" else Assign(s[1], s[2])
            for s in stmts
        )
        out_states.append((name, State(op, trans)))
    aut = Automaton(tuple(sizes.items()), tuple(out_states))
    errors = core.typecheck(aut)
    if errors:
        raise Diagnostic("; ".join(errors))
    return aut


def load(path: str) -> Automaton:
    with open(path) as fh:
        return parse_source(fh.read())


# ---------------------------------------------------------------------------
# Pretty-printer


def _pp_expr(e: Expr, parent_concat: bool = False) -> str:
    if isinstance(e, HdrRef):
        return e.name
    if isinstance(e, Lit):
        return "0b" + e.bits
    if isinstance(e, Slice):
        inner = _pp_expr(e.expr)
        if isinstance(e.expr, Concat):
            inner = f"({inner})"
        return f"{inner}[{e.lo}:{e.hi}]"
    if isinstance(e, Concat):
        text = f"{_pp_expr(e.left, True)} ++ {_pp_expr(e.right)}"
        return f"({text})" if parent_concat else text
    raise TypeError(f"not an expression: {e!r}")


def _pp_pattern(p: Pattern) -> str:
    return "_" if isinstance(p, Wildcard) else "0b" + p.bits


def pretty_print(aut: Automaton) -> str:
    """Canonical source text; parse_source(pretty_print(a)) rebuilds a
    (with headers ordered by first mention)."""
    if not aut.states:
        raise ValueError("cannot print an automaton with no states")
    sizes = aut.sizes
    lines: list[str] = []
    for name, st in aut.states:
        lines.append(f"state {name} {{")
        for stmt in st.op:
            if isinstance(stmt, Extract):
                lines.append(f"  extract({stmt.header}, {sizes[stmt.header]});")
            else:
                lines.append(f"  {stmt.header} := {_pp_expr(stmt.expr)};")
        tz = st.trans
        if isinstance(tz, Goto):
            lines.append(f"  goto {tz.target}")
        else:
            args = ", ".join(_pp_expr(e) for e in tz.exprs)
            lines.append(f"  select({args}) {{")
            for case in tz.cases:
                pats = ", ".join(_pp_pattern(p) for p in case.patterns)
                if len(case.patterns) > 1:
                    lines.append(f"    ({pats}) => {case.target}")
                else:
                    lines.append(f"    {pats} => {case.target}")
            lines.append("  }")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Relation files (check-rel input)
#
# Line-oriented:   init: <formula>
#                  pair <lstate> <lbuflen> <rstate> <rbuflen>: <formula>
# Formulas are over left.<hdr>, right.<hdr>, left.buf, right.buf with
# literals, slices, ++, =, !, &&, ||, => and parentheses; lowest to
# highest precedence: => (right-assoc), ||, &&, !. A buffer has the width
# of its side's template: 0 in init, the stated length in a pair.


class _RelParser(_Parser):
    def __init__(
        self, text: str, lmap: dict[str, str], rmap: dict[str, str], sizes: dict[str, int]
    ):
        super().__init__(text)
        self.lmap = lmap
        self.rmap = rmap
        self.sizes = sizes
        self.buflens = {LEFT: 0, RIGHT: 0}

    def bit_atom(self) -> Bits:
        tok = self.peek()
        if tok == "(":
            save = self.pos
            self.pos += 1
            try:
                e = self.bit_expr()
                self.expect(")")
                return e
            except Diagnostic:
                self.pos = save
                raise
        bits = _bits(tok)
        if bits is not None:
            self.pos += 1
            return lit(bits)
        if tok in ("left", "right"):
            self.pos += 1
            self.expect(".")
            ref = self.name("a header name or 'buf'")
            side = LEFT if tok == "left" else RIGHT
            if ref == "buf":
                return buf(side, self.buflens[side])
            hmap = self.lmap if side == LEFT else self.rmap
            if ref not in hmap:
                raise self.error(f"unknown header {ref!r} on the {tok} side", self.pos - 1)
            name = hmap[ref]
            return hdr(name, side, self.sizes[name])
        raise self.expected("a bit expression", self.pos)

    def bit_postfix(self) -> Bits:
        e = self.bit_atom()
        while self.peek() == "[":
            at = self.pos
            self.pos += 1
            lo = self.number()
            self.expect(":")
            hi = self.number()
            self.expect("]")
            if not lo <= hi < e.width:
                raise self.error(f"slice [{lo}:{hi}] out of range for width {e.width}", at)
            e = e.slice(lo, hi)
        return e

    def bit_expr(self) -> Bits:
        e = self.bit_postfix()
        while self.peek() == "++":
            self.pos += 1
            e += self.bit_postfix()
        return e

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "true":
            self.pos += 1
            return TOP
        if tok == "false":
            self.pos += 1
            return BOT
        if tok == "!":
            self.pos += 1
            return Not(self.atom())
        if tok == "(":
            save = self.pos
            try:
                self.pos += 1
                f = self.formula()
                self.expect(")")
                return f
            except Diagnostic:
                self.pos = save
        left = self.bit_expr()
        self.expect("=")
        return Eq(left, self.bit_expr())

    def conjunction(self) -> Formula:
        parts = [self.atom()]
        while self.peek() == "&&":
            self.pos += 1
            parts.append(self.atom())
        return conj(parts)

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "||":
            self.pos += 1
            parts.append(self.conjunction())
        return disj(parts)

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "=>":
            self.pos += 1
            return Implies(left, self.formula())
        return left


def parse_relation(
    text: str,
    lstates: dict[str, str],
    rstates: dict[str, str],
    lheaders: dict[str, str],
    rheaders: dict[str, str],
    aut: Automaton,
) -> tuple[Formula, list[Guarded]]:
    """Parse a relation file against the summed automaton and its
    renamings.

    Returns the conjoined init formula and the guarded extra
    obligations, with state and header names mapped through the
    disjoint-sum renaming of each side. A pair's buffer length must be
    below its state's operation size, as every configuration's is.
    """
    p = _RelParser(text, lheaders, rheaders, aut.sizes)
    init_parts: list[Formula] = []
    extra: list[Guarded] = []
    while p.peek():
        tok = p.peek()
        if tok == "init":
            p.pos += 1
            p.expect(":")
            p.buflens = {LEFT: 0, RIGHT: 0}
            init_parts.append(p.formula())
        elif tok == "pair":
            p.pos += 1
            sides = []  # (what, states, the state name, its token's index, buffer length)
            for what, states in (("left", lstates), ("right", rstates)):
                at = p.pos
                q = p.name(f"a {what} state name")
                sides.append((what, states, q, at, p.number()))
            p.expect(":")
            p.buflens = {side: s[-1] for side, s in zip((LEFT, RIGHT), sides)}
            body = p.formula()
            templates = []
            for what, states, q, at, buflen in sides:
                if q not in states:
                    raise p.error(f"unknown {what} state {q!r}", at)
                size = aut.opsize_of(states[q])
                if buflen >= size:
                    raise p.error(
                        f"buffer length {buflen} is not below the {size}-bit "
                        f"operation of state {q!r}",
                        at + 1,
                    )
                templates.append(Template(states[q], buflen))
            extra.append(Guarded(*templates, body))
        else:
            raise p.expected("'init' or 'pair'", p.pos)
    return conj(init_parts), extra
