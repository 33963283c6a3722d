"""Symbolic relations on configuration pairs.

Formulas relate a left and a right configuration. Variables are
bitvectors of a fixed width (one bit unless stated); conjunction,
disjunction, negation and top are first-class but denotationally equal to
their implication/bottom encodings. The same language, with only literals
and variables as leaves, is what the QF_BV translation in ``smt`` emits.
"""

from __future__ import annotations

import itertools
from operator import is_, is_not
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .core import ACCEPT, REJECT, Automaton, Configuration, Record, slice_bits

LEFT = "<"
RIGHT = ">"


class NotPure(Exception):
    """Raised when a guard body contains state or buffer-length assertions."""


# ---------------------------------------------------------------------------
# Bit expressions
#
# A bit expression is kept in the concatenation/extraction normal form of
# Cyrluk, Möller & Rueß (CAV 1997): a flat tuple of segments, each either
# a string of literal bits or bits lo..hi of a base (a buffer, a header or
# a bit variable). A base carries its width, so every expression knows its
# width when it is built. No segment is empty and no two literals are
# adjacent; slices of slices and of concatenations never arise.


class BufRef(Record):
    __slots__ = ("side", "width")

    def __init__(self, side: str, width: int):
        self.side, self.width = side, width

    def __eq__(self, o): return type(o) is BufRef and (self.side, self.width) == (o.side, o.width)
    def __hash__(self): return hash((self.side, self.width))


class BHdrRef(Record):
    __slots__ = ("name", "side", "width")

    def __init__(self, name: str, side: str, width: int):
        self.name, self.side, self.width = name, side, width

    def __eq__(self, o):
        return type(o) is BHdrRef and (self.name, self.side, self.width) == (o.name, o.side, o.width)

    def __hash__(self): return hash((self.name, self.side, self.width))


class Var(Record):
    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int = 1):
        self.name, self.width = name, width

    def __eq__(self, o): return type(o) is Var and (self.name, self.width) == (o.name, o.width)
    def __hash__(self): return hash((self.name, self.width))


Base = Union[BufRef, BHdrRef, Var]


class Seg(NamedTuple):  # bits lo..hi of a base, within its width
    base: Base
    lo: int
    hi: int


Segment = Union[str, Seg]


def seg_width(s: Segment) -> int:
    return len(s) if type(s) is str else s.hi - s.lo + 1


def bit_segs(s: Seg) -> list[Seg]:
    """One segment per bit of ``s``."""
    return [Seg(s.base, i, i) for i in range(s.lo, s.hi + 1)]


class Bits(NamedTuple):
    """A bit expression: its segments and their total width."""

    segs: tuple[Segment, ...]
    width: int

    def __add__(self, other: "Bits") -> "Bits":  # type: ignore[override]
        """Concatenation (``++``)."""
        a, b = self.segs, other.segs
        if a and b and type(a[-1]) is str and type(b[0]) is str:
            return Bits(a[:-1] + (a[-1] + b[0],) + b[1:], self.width + other.width)
        return Bits(a + b, self.width + other.width)

    def slice(self, lo: int, hi: int) -> "Bits":
        """Bits lo..hi, both clamped to the last bit as ``core.slice_bits``
        does; empty when lo > hi."""
        w = self.width
        lo, hi = min(lo, w - 1), min(hi, w - 1)
        if lo > hi or not w:
            return EMPTY
        if lo == 0 and hi == w - 1:
            return self
        out: list[Segment] = []
        pos = 0
        for s in self.segs:
            sw = seg_width(s)
            a, b = max(lo - pos, 0), min(hi - pos, sw - 1)
            if a == 0 and b == sw - 1:
                out.append(s)
            elif a <= b:
                out.append(s[a : b + 1] if type(s) is str else Seg(s.base, s.lo + a, s.lo + b))
            pos += sw
            if pos > hi:
                break
        return Bits(tuple(out), hi - lo + 1)


EMPTY = Bits((), 0)


def lit(bits: str) -> Bits:
    return Bits((bits,), len(bits)) if bits else EMPTY


def ref(base: Base) -> Bits:
    """All bits of a base."""
    w = base.width
    return Bits((Seg(base, 0, w - 1),), w) if w else EMPTY


def buf(side: str, width: int) -> Bits:
    return ref(BufRef(side, width))


def hdr(name: str, side: str, width: int) -> Bits:
    return ref(BHdrRef(name, side, width))


def var(name: str, width: int = 1) -> Bits:
    return ref(Var(name, width))


def cat(parts: Iterable[Union[Bits, Segment]]) -> Bits:
    """The concatenation of bit expressions and segments, in one pass."""
    out: list[Segment] = []
    width = 0
    for p in parts:
        for s in p.segs if type(p) is Bits else (p,):
            width += seg_width(s)
            if type(s) is str and out and type(out[-1]) is str:
                out[-1] += s
            elif s:
                out.append(s)
    return Bits(tuple(out), width)


def map_segs(e: Bits, fn: Callable[[Seg], Optional[Bits]]) -> Bits:
    """e with each base segment that ``fn`` maps to a bit expression (of
    the segment's width) replaced by it."""
    parts = [s if type(s) is str else fn(s) or s for s in e.segs]
    return e if all(map(is_, parts, e.segs)) else cat(parts)


# ---------------------------------------------------------------------------
# Formulas


class Bottom(Record):
    __slots__ = ()

    def __eq__(self, o): return type(o) is Bottom
    def __hash__(self): return hash(())


class Top(Record):
    __slots__ = ()

    def __eq__(self, o): return type(o) is Top
    def __hash__(self): return hash(())


class Eq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Bits, right: Bits):
        self.left, self.right = left, right

    def __eq__(self, o): return type(o) is Eq and (self.left, self.right) == (o.left, o.right)
    def __hash__(self): return hash((self.left, self.right))


class StateIs(Record):
    __slots__ = ("state", "side")

    def __init__(self, state: str, side: str):
        self.state, self.side = state, side

    def __eq__(self, o): return type(o) is StateIs and (self.state, self.side) == (o.state, o.side)
    def __hash__(self): return hash((self.state, self.side))


class BufLenIs(Record):
    __slots__ = ("length", "side")

    def __init__(self, length: int, side: str):
        self.length, self.side = length, side

    def __eq__(self, o):
        return type(o) is BufLenIs and (self.length, self.side) == (o.length, o.side)

    def __hash__(self): return hash((self.length, self.side))


class Implies(Record):
    __slots__ = ("hyp", "concl")

    def __init__(self, hyp: "Formula", concl: "Formula"):
        self.hyp, self.concl = hyp, concl

    def __eq__(self, o): return type(o) is Implies and (self.hyp, self.concl) == (o.hyp, o.concl)
    def __hash__(self): return hash((self.hyp, self.concl))


class And(Record):
    __slots__ = ("conjuncts",)

    def __init__(self, conjuncts: tuple["Formula", ...]):
        self.conjuncts = conjuncts

    def __eq__(self, o): return type(o) is And and self.conjuncts == o.conjuncts
    def __hash__(self): return hash((self.conjuncts,))


class Or(Record):
    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: tuple["Formula", ...]):
        self.disjuncts = disjuncts

    def __eq__(self, o): return type(o) is Or and self.disjuncts == o.disjuncts
    def __hash__(self): return hash((self.disjuncts,))


class Not(Record):
    __slots__ = ("body",)

    def __init__(self, body: "Formula"):
        self.body = body

    def __eq__(self, o): return type(o) is Not and (self.body,) == (o.body,)
    def __hash__(self): return hash((self.body,))


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

# Both walks test exact types rather than isinstance: they are the inner
# loop of wp, and no node class is subclassed.


def rewrite(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild a formula bottom-up: each node's subformulas are rewritten
    first, then ``fn`` maps the node, rebuilt if one of them changed.
    Equations are leaves."""
    t = type(phi)
    if t is Implies:
        hyp, concl = rewrite(phi.hyp, fn), rewrite(phi.concl, fn)
        if hyp is not phi.hyp or concl is not phi.concl:
            phi = Implies(hyp, concl)
    elif t is And or t is Or:
        old = phi.conjuncts if t is And else phi.disjuncts
        parts = tuple(rewrite(p, fn) for p in old)
        if any(map(is_not, parts, old)):
            phi = t(parts)
    elif t is Not:
        body = rewrite(phi.body, fn)
        if body is not phi.body:
            phi = Not(body)
    return fn(phi)


def replace(phi: Formula, fn: Callable[[Seg], Optional[Bits]]) -> Formula:
    """phi with each base segment that ``fn`` maps to a bit expression of
    its width replaced by it (``map_segs`` on both sides of every
    equation)."""

    def eq(x: Formula) -> Formula:
        if type(x) is Eq:
            left, right = map_segs(x.left, fn), map_segs(x.right, fn)
            if left is not x.left or right is not x.right:
                return Eq(left, right)
        return x

    return rewrite(phi, eq)


def leaves(phi: Formula) -> Iterator[Union[Formula, Base]]:
    """The atomic formulas under ``phi`` other than equations, and the base
    of every segment of an equation, left to right."""
    stack = [phi]
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        t = type(n)
        if t is Eq:
            for s in n.left.segs + n.right.segs:
                if type(s) is not str:
                    yield s.base
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
    be: Bits, cl: Configuration, cr: Configuration, v: Valuation
) -> str:
    out = []
    for s in be.segs:
        if type(s) is str:
            out.append(s)
            continue
        b = s.base
        if type(b) is Var:
            bits = v[b.name]
        elif type(b) is BufRef:
            bits = cl.buffer if b.side == LEFT else cr.buffer
        else:
            bits = (cl if b.side == LEFT else cr).store.get(b.name)
        out.append(slice_bits(bits, s.lo, s.hi))
    return "".join(out)


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
    def ren(s: Seg) -> Optional[Bits]:
        b = s.base
        if type(b) is Var and b.name in mapping:
            return ref(Var(mapping[b.name], b.width)).slice(s.lo, s.hi)
        return None

    return replace(phi, ren)


def instantiate_vars(phi: Formula, assignment: Valuation) -> Formula:
    """Replace variables by literal bits."""
    return replace(
        phi,
        lambda s: lit(assignment[s.base.name][s.lo : s.hi + 1])
        if type(s.base) is Var and s.base.name in assignment
        else None,
    )


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


class Template(Record):
    __slots__ = ("state", "buflen")

    def __init__(self, state: str, buflen: int):
        self.state, self.buflen = state, buflen

    def __eq__(self, o):
        return type(o) is Template and (self.state, self.buflen) == (o.state, o.buflen)

    def __hash__(self): return hash((self.state, self.buflen))

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


class Guarded(Record):
    """A template-guarded formula: t1< ∧ t2> ⟹ body, with a pure body."""

    __slots__ = ("t1", "t2", "body")

    def __init__(self, t1: Template, t2: Template, body: Formula):
        self.t1, self.t2, self.body = t1, t2, body

    def __eq__(self, o):
        return type(o) is Guarded and (self.t1, self.t2, self.body) == (o.t1, o.t2, o.body)

    def __hash__(self): return hash((self.t1, self.t2, self.body))

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
    buf: dict[str, Bits],
    hdr: dict[tuple[str, str], Bits],
) -> Formula:
    """Simultaneous substitution of buffer and header references.

    ``buf`` maps a side to a replacement for that side's buffer;
    ``hdr`` maps (name, side) pairs to replacements. A replacement has
    the width of what it replaces.
    """

    def sub(s: Seg) -> Optional[Bits]:
        b = s.base
        t = type(b)
        if t is BufRef:
            r = buf.get(b.side)
        elif t is BHdrRef:
            r = hdr.get((b.name, b.side))
        else:
            return None
        return None if r is None else r.slice(s.lo, s.hi)

    return replace(phi, sub)


# ---------------------------------------------------------------------------
# Simplification


def simplify_node(phi: Formula) -> Formula:
    """One step of local rewriting (smart constructors) at a node whose
    subformulas are simplified already. Bit expressions are normal
    already; an equation is decided when its sides are equal, of unequal
    widths or both literal."""
    t = type(phi)
    if t is Eq:
        left, right = phi.left, phi.right
        if left == right:
            return TOP
        if left.width != right.width:
            return BOT
        if all(type(s) is str for s in left.segs + right.segs):
            return BOT
        return phi
    if t is Implies:
        hyp, concl = phi.hyp, phi.concl
        if type(hyp) is Bottom or type(concl) is Top:
            return TOP
        if type(hyp) is Top:
            return concl
        if type(concl) is Bottom:
            return hyp.body if type(hyp) is Not else Not(hyp)
        return phi
    if t is And:
        parts: list[Formula] = []
        for p in phi.conjuncts:
            if type(p) is Bottom:
                return BOT
            if type(p) is Top:
                continue
            for q in p.conjuncts if type(p) is And else (p,):
                if q not in parts:
                    parts.append(q)
        return conj(parts)
    if t is Or:
        parts = []
        for p in phi.disjuncts:
            if type(p) is Top:
                return TOP
            if type(p) is Bottom:
                continue
            for q in p.disjuncts if type(p) is Or else (p,):
                if q not in parts:
                    parts.append(q)
        return disj(parts)
    if t is Not:
        body = phi.body
        if type(body) is Bottom:
            return TOP
        if type(body) is Top:
            return BOT
        if type(body) is Not:
            return body.body
    return phi


def simplify(phi: Formula) -> Formula:
    """Semantics-preserving local rewriting, bottom-up."""
    return rewrite(phi, simplify_node)


# ---------------------------------------------------------------------------
# Rendering (deterministic, diffable)


def render_segment(s: Segment) -> str:
    if type(s) is str:
        return f'"{s}"'
    b = s.base
    if type(b) is Var:
        name = b.name
    elif type(b) is BufRef:
        name = f"buf{b.side}"
    else:
        name = f"{b.name}{b.side}"
    return name if s.lo == 0 and s.hi == b.width - 1 else f"{name}[{s.lo}:{s.hi}]"


def render_bit_expr(be: Bits) -> str:
    if len(be.segs) == 1:
        return render_segment(be.segs[0])
    if not be.segs:
        return '""'
    return "(" + " ++ ".join(render_segment(s) for s in be.segs) + ")"


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
