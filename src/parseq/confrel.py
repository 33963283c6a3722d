"""Symbolic relations on configuration pairs.

Formulas relate a left and a right configuration. Variables are
bitvectors of a fixed width (one bit unless stated); conjunction,
disjunction, negation and top are first-class but denotationally equal to
their implication/bottom encodings. The same language, with only literals
and variables as leaves, is what the QF_BV translation in ``smt`` emits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from .core import ACCEPT, REJECT, RESULTS, Automaton, Configuration, slice_bits

LEFT = "<"
RIGHT = ">"
SIDES = (LEFT, RIGHT)


class NotPure(Exception):
    """Raised when a guard body contains state or buffer-length assertions."""


# ---------------------------------------------------------------------------
# Bit expressions


@dataclass(frozen=True)
class BLit:
    bits: str


@dataclass(frozen=True)
class BufRef:
    side: str


@dataclass(frozen=True)
class BHdrRef:
    name: str
    side: str


@dataclass(frozen=True)
class Var:
    name: str
    width: int = 1


@dataclass(frozen=True)
class BSlice:
    expr: "BitExpr"
    lo: int
    hi: int


@dataclass(frozen=True)
class BConcat:
    left: "BitExpr"
    right: "BitExpr"


BitExpr = Union[BLit, BufRef, BHdrRef, Var, BSlice, BConcat]


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Eq:
    left: BitExpr
    right: BitExpr


@dataclass(frozen=True)
class StateIs:
    state: str
    side: str


@dataclass(frozen=True)
class BufLenIs:
    length: int
    side: str


@dataclass(frozen=True)
class Implies:
    hyp: "Formula"
    concl: "Formula"


@dataclass(frozen=True)
class And:
    conjuncts: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    disjuncts: tuple["Formula", ...]


@dataclass(frozen=True)
class Not:
    body: "Formula"


Formula = Union[Bottom, Top, Eq, StateIs, BufLenIs, Implies, And, Or, Not]

BOT = Bottom()
TOP = Top()


def conj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TOP
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return BOT
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


# ---------------------------------------------------------------------------
# Traversal

Node = Union[Formula, BitExpr]


# Both walks test exact types rather than isinstance: they are the inner
# loop of wp, and no node class is subclassed.


def rewrite(node: Node, fn: Callable[[Node], Node]) -> Node:
    """Rebuild a formula or bit expression bottom-up: each node's children
    are rewritten first, then ``fn`` maps the rebuilt node. A leaf map
    returns every node it does not replace unchanged."""
    t = type(node)
    if t is BConcat:
        node = BConcat(rewrite(node.left, fn), rewrite(node.right, fn))
    elif t is BSlice:
        node = BSlice(rewrite(node.expr, fn), node.lo, node.hi)
    elif t is Eq:
        node = Eq(rewrite(node.left, fn), rewrite(node.right, fn))
    elif t is Implies:
        node = Implies(rewrite(node.hyp, fn), rewrite(node.concl, fn))
    elif t is And:
        node = And(tuple(rewrite(p, fn) for p in node.conjuncts))
    elif t is Or:
        node = Or(tuple(rewrite(p, fn) for p in node.disjuncts))
    elif t is Not:
        node = Not(rewrite(node.body, fn))
    return fn(node)


def leaves(node: Node) -> Iterator[Node]:
    """The childless nodes under ``node``, left to right: bit-expression
    leaves and atomic formulas."""
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        t = type(n)
        if t is BConcat or t is Eq:
            push(n.right)
            push(n.left)
        elif t is BSlice:
            push(n.expr)
        elif t is Implies:
            push(n.concl)
            push(n.hyp)
        elif t is And:
            stack += reversed(n.conjuncts)
        elif t is Or:
            stack += reversed(n.disjuncts)
        elif t is Not:
            push(n.body)
        else:
            yield n


# ---------------------------------------------------------------------------
# Semantics

Valuation = dict[str, str]  # variable name -> its bits


def eval_bit_expr(
    be: BitExpr, cl: Configuration, cr: Configuration, v: Valuation
) -> str:
    if isinstance(be, BLit):
        return be.bits
    if isinstance(be, BufRef):
        return cl.buffer if be.side == LEFT else cr.buffer
    if isinstance(be, BHdrRef):
        c = cl if be.side == LEFT else cr
        return c.store.get(be.name)
    if isinstance(be, Var):
        return v[be.name]
    if isinstance(be, BSlice):
        return slice_bits(eval_bit_expr(be.expr, cl, cr, v), be.lo, be.hi)
    if isinstance(be, BConcat):
        return eval_bit_expr(be.left, cl, cr, v) + eval_bit_expr(be.right, cl, cr, v)
    raise TypeError(f"not a bit expression: {be!r}")


def holds(phi: Formula, cl: Configuration, cr: Configuration, v: Valuation) -> bool:
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Eq):
        return eval_bit_expr(phi.left, cl, cr, v) == eval_bit_expr(phi.right, cl, cr, v)
    if isinstance(phi, StateIs):
        c = cl if phi.side == LEFT else cr
        return c.state == phi.state
    if isinstance(phi, BufLenIs):
        c = cl if phi.side == LEFT else cr
        return len(c.buffer) == phi.length
    if isinstance(phi, Implies):
        return (not holds(phi.hyp, cl, cr, v)) or holds(phi.concl, cl, cr, v)
    if isinstance(phi, And):
        return all(holds(p, cl, cr, v) for p in phi.conjuncts)
    if isinstance(phi, Or):
        return any(holds(p, cl, cr, v) for p in phi.disjuncts)
    if isinstance(phi, Not):
        return not holds(phi.body, cl, cr, v)
    raise TypeError(f"not a formula: {phi!r}")


def variables(phi: Formula) -> set[str]:
    return {x.name for x in leaves(phi) if isinstance(x, Var)}


def var_widths(phi: Formula) -> dict[str, int]:
    return {x.name: x.width for x in leaves(phi) if isinstance(x, Var)}


def valuations(phi: Formula) -> Iterator[Valuation]:
    """Every valuation of phi's variables, in a fixed order."""
    widths = sorted(var_widths(phi).items())
    for bits in itertools.product("01", repeat=sum(w for _, w in widths)):
        v, pos = {}, 0
        for name, w in widths:
            v[name] = "".join(bits[pos : pos + w])
            pos += w
        yield v


def rename_vars(phi: Formula, mapping: dict[str, str]) -> Formula:
    def ren(x: Node) -> Node:
        if isinstance(x, Var) and x.name in mapping:
            return Var(mapping[x.name], x.width)
        return x

    return rewrite(phi, ren)


def instantiate_vars(phi: Formula, assignment: Valuation) -> Formula:
    """Replace variables by literal bits."""

    def inst(x: Node) -> Node:
        if isinstance(x, Var) and x.name in assignment:
            return BLit(assignment[x.name])
        return x

    return rewrite(phi, inst)


def canonical_vars(phi: Formula, prefix: str = "v") -> Formula:
    """Rename variables to v0, v1, … in first-occurrence order.

    Variables are scoped to one formula (the engine's fresh-variable
    discipline never shares them across relation entries), so renaming
    preserves meaning while making alpha-equivalent formulas equal.
    """
    order = dict.fromkeys(x.name for x in leaves(phi) if isinstance(x, Var))
    return rename_vars(phi, {name: f"{prefix}{i}" for i, name in enumerate(order)})


def denotes(phi: Formula, cl: Configuration, cr: Configuration) -> bool:
    """True iff phi holds under every valuation of its variables."""
    return all(holds(phi, cl, cr, v) for v in valuations(phi))


def is_pure(phi: Formula) -> bool:
    return not any(isinstance(x, (StateIs, BufLenIs)) for x in leaves(phi))


# ---------------------------------------------------------------------------
# Templates and guarded formulas


@dataclass(frozen=True)
class Template:
    state: str
    buflen: int

    def __str__(self) -> str:
        return f"<{self.state},{self.buflen}>"


T_ACCEPT = Template(ACCEPT, 0)
T_REJECT = Template(REJECT, 0)


def templates_of(aut: Automaton, states: Optional[Iterable[str]] = None) -> list[Template]:
    """All templates whose state lies in ``states`` (default: all user states),
    plus the accept/reject templates."""
    if states is None:
        states = [q for q, _ in aut.states]
    out = []
    for q in states:
        for n in range(aut.opsize_of(q)):
            out.append(Template(q, n))
    out.append(T_ACCEPT)
    out.append(T_REJECT)
    return out


def template_of(c: Configuration) -> Template:
    return Template(c.state, len(c.buffer))


def template_formula(t: Template, side: str) -> Formula:
    return And((StateIs(t.state, side), BufLenIs(t.buflen, side)))


@dataclass(frozen=True)
class Guarded:
    """A template-guarded formula: t1< ∧ t2> ⟹ body, with a pure body."""

    t1: Template
    t2: Template
    body: Formula

    def formula(self) -> Formula:
        return Implies(
            And((template_formula(self.t1, LEFT), template_formula(self.t2, RIGHT))),
            self.body,
        )

    def holds(self, cl: Configuration, cr: Configuration, v: Valuation) -> bool:
        if template_of(cl) != self.t1 or template_of(cr) != self.t2:
            return True
        return holds(self.body, cl, cr, v)

    def denotes(self, cl: Configuration, cr: Configuration) -> bool:
        if template_of(cl) != self.t1 or template_of(cr) != self.t2:
            return True
        return denotes(self.body, cl, cr)


def guard(t1: Template, t2: Template, body: Formula) -> Guarded:
    if not is_pure(body):
        raise NotPure(f"guard body is not pure: {render(body)}")
    return Guarded(t1, t2, body)


# ---------------------------------------------------------------------------
# Substitution


def subst(
    phi: Formula,
    buf: dict[str, BitExpr],
    hdr: dict[tuple[str, str], BitExpr],
) -> Formula:
    """Simultaneous substitution of buffer and header references.

    ``buf`` maps a side to a replacement for that side's buffer;
    ``hdr`` maps (name, side) pairs to replacements.
    """

    def sub(x: Node) -> Node:
        t = type(x)
        if t is BufRef:
            return buf.get(x.side, x)
        if t is BHdrRef:
            return hdr.get((x.name, x.side), x)
        return x

    return rewrite(phi, sub)


# ---------------------------------------------------------------------------
# Widths and simplification


class WidthContext:
    """Static widths for bit expressions.

    Header widths come from the automaton; buffer widths, when known,
    from the enclosing guard's templates. Unknown widths are None.
    """

    def __init__(
        self,
        sizes: Optional[dict[str, int]] = None,
        buflens: Optional[dict[str, int]] = None,
    ):
        self.sizes = sizes or {}
        self.buflens = buflens or {}

    @staticmethod
    def for_guard(aut: Automaton, g: Guarded) -> "WidthContext":
        def blen(t: Template) -> int:
            return 0 if t.state in RESULTS else t.buflen

        return WidthContext(aut.sizes, {LEFT: blen(g.t1), RIGHT: blen(g.t2)})

    def width(self, be: BitExpr) -> Optional[int]:
        if isinstance(be, BLit):
            return len(be.bits)
        if isinstance(be, Var):
            return be.width
        if isinstance(be, BufRef):
            return self.buflens.get(be.side)
        if isinstance(be, BHdrRef):
            return self.sizes.get(be.name)
        if isinstance(be, BSlice):
            w = self.width(be.expr)
            if w is None:
                return None
            if w == 0:
                return 0
            lo = min(be.lo, w - 1)
            hi = min(be.hi, w - 1)
            return 0 if lo > hi else hi - lo + 1
        if isinstance(be, BConcat):
            wl = self.width(be.left)
            wr = self.width(be.right)
            if wl is None or wr is None:
                return None
            return wl + wr
        raise TypeError(f"not a bit expression: {be!r}")


EMPTY_CTX = WidthContext()


def simplify_bit_expr(be: BitExpr, ctx: WidthContext = EMPTY_CTX) -> BitExpr:
    if isinstance(be, BufRef) and ctx.width(be) == 0:
        return BLit("")
    if isinstance(be, BConcat):
        left = simplify_bit_expr(be.left, ctx)
        right = simplify_bit_expr(be.right, ctx)
        if isinstance(left, BLit) and not left.bits:
            return right
        if isinstance(right, BLit) and not right.bits:
            return left
        if isinstance(left, BLit) and isinstance(right, BLit):
            return BLit(left.bits + right.bits)
        return BConcat(left, right)
    if isinstance(be, BSlice):
        inner = simplify_bit_expr(be.expr, ctx)
        lo, hi = be.lo, be.hi
        w = ctx.width(inner)
        if w is not None:
            if w == 0:
                return BLit("")
            lo = min(lo, w - 1)
            hi = min(hi, w - 1)
            if lo == 0 and hi == w - 1:
                return inner
        if isinstance(inner, BLit):
            return BLit(slice_bits(inner.bits, lo, hi))
        # slice of concat: distribute when the split point is known
        if isinstance(inner, BConcat):
            wl = ctx.width(inner.left)
            if wl is not None and w is not None:
                if hi < wl:
                    return simplify_bit_expr(BSlice(inner.left, lo, hi), ctx)
                if lo >= wl:
                    return simplify_bit_expr(BSlice(inner.right, lo - wl, hi - wl), ctx)
                return simplify_bit_expr(
                    BConcat(
                        BSlice(inner.left, lo, wl - 1),
                        BSlice(inner.right, 0, hi - wl),
                    ),
                    ctx,
                )
        # nested slices compose
        if isinstance(inner, BSlice):
            wi = ctx.width(inner.expr)
            if wi is not None:
                ilo = min(inner.lo, wi - 1) if wi else 0
                return simplify_bit_expr(
                    BSlice(inner.expr, ilo + lo, ilo + hi), ctx
                )
        return BSlice(inner, lo, hi)
    return be


def simplify(phi: Formula, ctx: WidthContext = EMPTY_CTX) -> Formula:
    """Semantics-preserving local rewriting (smart constructors)."""
    if isinstance(phi, Eq):
        left = simplify_bit_expr(phi.left, ctx)
        right = simplify_bit_expr(phi.right, ctx)
        if left == right:
            return TOP
        if isinstance(left, BLit) and isinstance(right, BLit):
            return TOP if left.bits == right.bits else BOT
        wl, wr = ctx.width(left), ctx.width(right)
        if wl is not None and wr is not None and wl != wr:
            return BOT
        return Eq(left, right)
    if isinstance(phi, Implies):
        hyp = simplify(phi.hyp, ctx)
        concl = simplify(phi.concl, ctx)
        if isinstance(hyp, Bottom) or isinstance(concl, Top):
            return TOP
        if isinstance(hyp, Top):
            return concl
        if isinstance(concl, Bottom):
            return simplify(Not(hyp), ctx) if not isinstance(hyp, Not) else hyp.body
        return Implies(hyp, concl)
    if isinstance(phi, And):
        parts: list[Formula] = []
        for p in phi.conjuncts:
            p = simplify(p, ctx)
            if isinstance(p, Bottom):
                return BOT
            if isinstance(p, Top):
                continue
            for q in p.conjuncts if isinstance(p, And) else (p,):
                if q not in parts:
                    parts.append(q)
        return conj(parts)
    if isinstance(phi, Or):
        parts = []
        for p in phi.disjuncts:
            p = simplify(p, ctx)
            if isinstance(p, Top):
                return TOP
            if isinstance(p, Bottom):
                continue
            for q in p.disjuncts if isinstance(p, Or) else (p,):
                if q not in parts:
                    parts.append(q)
        return disj(parts)
    if isinstance(phi, Not):
        body = simplify(phi.body, ctx)
        if isinstance(body, Bottom):
            return TOP
        if isinstance(body, Top):
            return BOT
        if isinstance(body, Not):
            return body.body
        return Not(body)
    return phi


def simplify_guarded(g: Guarded, aut: Automaton) -> Guarded:
    return Guarded(g.t1, g.t2, simplify(g.body, WidthContext.for_guard(aut, g)))


# ---------------------------------------------------------------------------
# Rendering (deterministic, diffable)


def render_bit_expr(be: BitExpr) -> str:
    if isinstance(be, BLit):
        return f'"{be.bits}"'
    if isinstance(be, BufRef):
        return f"buf{be.side}"
    if isinstance(be, BHdrRef):
        return f"{be.name}{be.side}"
    if isinstance(be, Var):
        return be.name
    if isinstance(be, BSlice):
        return f"{render_bit_expr(be.expr)}[{be.lo}:{be.hi}]"
    if isinstance(be, BConcat):
        return f"({render_bit_expr(be.left)} ++ {render_bit_expr(be.right)})"
    raise TypeError(f"not a bit expression: {be!r}")


def render(phi: Formula) -> str:
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Eq):
        return f"{render_bit_expr(phi.left)} = {render_bit_expr(phi.right)}"
    if isinstance(phi, StateIs):
        return f"state{phi.side}({phi.state})"
    if isinstance(phi, BufLenIs):
        return f"buflen{phi.side}({phi.length})"
    if isinstance(phi, Implies):
        return f"({render(phi.hyp)} => {render(phi.concl)})"
    if isinstance(phi, And):
        return "(" + " & ".join(render(p) for p in phi.conjuncts) + ")"
    if isinstance(phi, Or):
        return "(" + " | ".join(render(p) for p in phi.disjuncts) + ")"
    if isinstance(phi, Not):
        return f"!{render(phi.body)}"
    raise TypeError(f"not a formula: {phi!r}")


def render_guarded(g: Guarded) -> str:
    return f"[{g.t1} {g.t2}] {render(g.body)}"
