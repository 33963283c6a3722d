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

The module also parses the relation files consumed by check-rel; see
parse_relation.
"""

from __future__ import annotations

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
    Record,
    Select,
    Slice,
    State,
    Wildcard,
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
    guard,
    hdr,
    lit,
)


class Diagnostic(Exception):
    """A positioned syntax or type error in a source file."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f"{line}:{col}: " if line else ""
        super().__init__(f"{where}{message}")


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<hex>0x[0-9a-fA-F]+)
  | (?P<bin>0b[01]+)
  | (?P<num>[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|=>|\+\+|&&|\|\||[{}()\[\],;:=!.])
    """,
    re.VERBOSE,
)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos, line, bol = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise Diagnostic(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            out.append(Token(kind, tok, line, pos - bol + 1))
        nl = tok.count("\n")
        if nl:
            line += nl
            bol = pos + tok.rindex("\n") + 1
        pos = m.end()
    out.append(Token("eof", "", line, pos - bol + 1))
    return out


def literal_bits(tok: Token) -> str:
    if tok.kind == "hex":
        return "".join(format(int(d, 16), "04b") for d in tok.text[2:])
    if tok.kind == "bin":
        return tok.text[2:]
    if tok.kind == "num" and set(tok.text) <= {"0", "1"}:
        return tok.text
    raise Diagnostic(f"not a bitvector literal: {tok.text!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = {"state", "extract", "goto", "select"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise Diagnostic(
                f"expected {text!r}, found {tok.text or 'end of file'!r}",
                tok.line,
                tok.col,
            )
        return tok

    def name(self, what: str) -> Token:
        tok = self.next()
        if tok.kind != "name" or tok.text in _KEYWORDS:
            raise Diagnostic(
                f"expected {what}, found {tok.text or 'end of file'!r}",
                tok.line,
                tok.col,
            )
        return tok

    def number(self) -> int:
        tok = self.next()
        if tok.kind != "num":
            raise Diagnostic(
                f"expected a number, found {tok.text!r}", tok.line, tok.col
            )
        return int(tok.text)

    # expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        left = self.postfix()
        if self.peek().text == "++":
            self.next()
            return Concat(left, self.expr())
        return left

    def postfix(self) -> Expr:
        e = self.primary()
        while self.peek().text == "[":
            self.next()
            lo = self.number()
            self.expect(":")
            hi = self.number()
            self.expect("]")
            e = Slice(e, lo, hi)
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind in ("hex", "bin") or (
            tok.kind == "num" and set(tok.text) <= {"0", "1"}
        ):
            return Lit(literal_bits(self.next()))
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            return HdrRef(self.next().text)
        raise Diagnostic(
            f"expected an expression, found {tok.text or 'end of file'!r}",
            tok.line,
            tok.col,
        )

    # states ---------------------------------------------------------------

    def pattern(self) -> Pattern:
        tok = self.peek()
        if tok.text == "_":
            self.next()
            return Wildcard()
        return ExactPat(literal_bits(self.next()))

    def case(self) -> Case:
        if self.peek().text == "(":
            self.next()
            pats = [self.pattern()]
            while self.peek().text == ",":
                self.next()
                pats.append(self.pattern())
            self.expect(")")
        else:
            pats = [self.pattern()]
        self.expect("=>")
        target = self.target()
        return Case(tuple(pats), target)

    def target(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise Diagnostic(
                f"expected a state name, found {tok.text!r}", tok.line, tok.col
            )
        return tok.text

    def state_body(self):
        stmts: list[tuple] = []  # ("extract", hdr, width, tok) | ("assign", hdr, expr)
        while True:
            tok = self.peek()
            if tok.text == "extract":
                self.next()
                self.expect("(")
                hdr = self.name("a header name")
                self.expect(",")
                width = self.number()
                self.expect(")")
                self.expect(";")
                stmts.append(("extract", hdr.text, width, hdr))
            elif tok.kind == "name" and tok.text not in _KEYWORDS:
                hdr = self.next()
                self.expect(":=")
                e = self.expr()
                self.expect(";")
                stmts.append(("assign", hdr.text, e, hdr))
            else:
                break
        tok = self.peek()
        if tok.text == "goto":
            self.next()
            trans: object = Goto(self.target())
            if self.peek().text == ";":
                self.next()
        elif tok.text == "select":
            self.next()
            self.expect("(")
            exprs = [self.expr()]
            while self.peek().text == ",":
                self.next()
                exprs.append(self.expr())
            self.expect(")")
            self.expect("{")
            cases = []
            while self.peek().text != "}":
                cases.append(self.case())
            self.expect("}")
            trans = Select(tuple(exprs), tuple(cases))
        else:
            raise Diagnostic(
                "expected 'goto' or 'select' to end the state",
                tok.line,
                tok.col,
            )
        return stmts, trans

    def source_file(self):
        states = []
        while self.peek().text == "state":
            self.next()
            name = self.name("a state name")
            if name.text in RESULTS:
                raise Diagnostic(
                    f"{name.text!r} is reserved", name.line, name.col
                )
            self.expect("{")
            stmts, trans = self.state_body()
            self.expect("}")
            states.append((name, stmts, trans))
        tok = self.peek()
        if tok.kind != "eof":
            raise Diagnostic(
                f"expected 'state', found {tok.text!r}", tok.line, tok.col
            )
        if not states:
            raise Diagnostic("a source file needs at least one state", 1, 1)
        return states


def _infer_sizes(states) -> dict[str, int]:
    """Header widths: extracts fix them, assignments propagate them."""
    sizes: dict[str, int] = {}
    order: list[str] = []

    def note(name: str) -> None:
        if name not in order:
            order.append(name)

    def expr_headers(e: Expr) -> None:
        if isinstance(e, HdrRef):
            note(e.name)
        elif isinstance(e, Slice):
            expr_headers(e.expr)
        elif isinstance(e, Concat):
            expr_headers(e.left)
            expr_headers(e.right)

    for _, stmts, trans in states:
        for s in stmts:
            note(s[1])
            if s[0] == "assign":
                expr_headers(s[2])
        if isinstance(trans, Select):
            for e in trans.exprs:
                expr_headers(e)

    for _, stmts, _ in states:
        for s in stmts:
            if s[0] != "extract":
                continue
            _, name, width, tok = s
            if sizes.setdefault(name, width) != width:
                raise Diagnostic(
                    f"header {name!r} extracted at width {width}, "
                    f"previously {sizes[name]}",
                    tok.line,
                    tok.col,
                )

    def try_width(e: Expr) -> Optional[int]:
        if isinstance(e, HdrRef):
            return sizes.get(e.name)
        if isinstance(e, Lit):
            return len(e.bits)
        if isinstance(e, Slice):
            w = try_width(e.expr)
            if w is None:
                return None
            if not (0 <= e.lo <= e.hi < w):
                return None  # left for typecheck to report precisely
            return e.hi - e.lo + 1
        if isinstance(e, Concat):
            wl, wr = try_width(e.left), try_width(e.right)
            if wl is None or wr is None:
                return None
            return wl + wr
        return None

    changed = True
    while changed:
        changed = False
        for _, stmts, _ in states:
            for s in stmts:
                if s[0] != "assign" or s[1] in sizes:
                    continue
                w = try_width(s[2])
                if w is not None:
                    sizes[s[1]] = w
                    changed = True

    for _, stmts, _ in states:
        for s in stmts:
            if s[1] not in sizes:
                tok = s[3]
                raise Diagnostic(
                    f"cannot infer a width for header {s[1]!r} "
                    "(never extracted, and its assignment's width is unknown)",
                    tok.line,
                    tok.col,
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
    sizes = _infer_sizes(states)
    out_states = []
    for name, stmts, trans in states:
        op = tuple(
            Extract(s[1]) if s[0] == "extract" else Assign(s[1], s[2])
            for s in stmts
        )
        out_states.append((name.text, State(op, trans)))
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
        if tok.text == "(":
            save = self.pos
            self.next()
            try:
                e = self.bit_expr()
                self.expect(")")
                return e
            except Diagnostic:
                self.pos = save
                raise
        if tok.kind in ("hex", "bin") or (
            tok.kind == "num" and set(tok.text) <= {"0", "1"}
        ):
            return lit(literal_bits(self.next()))
        if tok.text in ("left", "right"):
            side_tok = self.next()
            self.expect(".")
            ref = self.name("a header name or 'buf'")
            side = LEFT if side_tok.text == "left" else RIGHT
            if ref.text == "buf":
                return buf(side, self.buflens[side])
            hmap = self.lmap if side == LEFT else self.rmap
            if ref.text not in hmap:
                raise Diagnostic(
                    f"unknown header {ref.text!r} on the {side_tok.text} side",
                    ref.line,
                    ref.col,
                )
            name = hmap[ref.text]
            return hdr(name, side, self.sizes[name])
        raise Diagnostic(
            f"expected a bit expression, found {tok.text!r}", tok.line, tok.col
        )

    def bit_postfix(self) -> Bits:
        e = self.bit_atom()
        while self.peek().text == "[":
            self.next()
            lo = self.number()
            self.expect(":")
            hi = self.number()
            self.expect("]")
            e = e.slice(lo, hi)
        return e

    def bit_expr(self) -> Bits:
        e = self.bit_postfix()
        while self.peek().text == "++":
            self.next()
            e += self.bit_postfix()
        return e

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "true":
            self.next()
            return TOP
        if tok.text == "false":
            self.next()
            return BOT
        if tok.text == "!":
            self.next()
            return Not(self.atom())
        if tok.text == "(":
            save = self.pos
            try:
                self.next()
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
        while self.peek().text == "&&":
            self.next()
            parts.append(self.atom())
        return conj(parts)

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek().text == "||":
            self.next()
            parts.append(self.conjunction())
        return disj(parts)

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "=>":
            self.next()
            return Implies(left, self.formula())
        return left


def parse_relation(
    text: str,
    lstates: dict[str, str],
    rstates: dict[str, str],
    lheaders: dict[str, str],
    rheaders: dict[str, str],
    sizes: dict[str, int],
) -> tuple[Formula, list[Guarded]]:
    """Parse a relation file against the summed automaton's renamings and
    header sizes.

    Returns the conjoined init formula and the guarded extra
    obligations, with state and header names mapped through the
    disjoint-sum renaming of each side.
    """
    p = _RelParser(text, lheaders, rheaders, sizes)
    init_parts: list[Formula] = []
    extra: list[Guarded] = []
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.text == "init":
            p.next()
            p.expect(":")
            p.buflens = {LEFT: 0, RIGHT: 0}
            init_parts.append(p.formula())
        elif tok.text == "pair":
            p.next()
            lq = p.name("a left state name")
            ln = p.number()
            rq = p.name("a right state name")
            rn = p.number()
            p.expect(":")
            p.buflens = {LEFT: ln, RIGHT: rn}
            body = p.formula()
            if lq.text not in lstates:
                raise Diagnostic(
                    f"unknown left state {lq.text!r}", lq.line, lq.col
                )
            if rq.text not in rstates:
                raise Diagnostic(
                    f"unknown right state {rq.text!r}", rq.line, rq.col
                )
            extra.append(
                guard(
                    Template(lstates[lq.text], ln),
                    Template(rstates[rq.text], rn),
                    body,
                )
            )
        else:
            raise Diagnostic(
                f"expected 'init' or 'pair', found {tok.text!r}",
                tok.line,
                tok.col,
            )
    return conj(init_parts), extra
