"""Symbolic relations on configuration pairs.

Formulas relate a left and a right configuration. Their only atoms are
equations between bit expressions over the two buffers, the two stores'
headers and variables. Variables are bitvectors of a fixed width (one bit
unless stated); conjunction, disjunction, negation and top are first-class
but denotationally equal to their implication/bottom encodings. No
formula names a state or a buffer length: a guard's templates fix both,
so every guarded body is pure by construction. The same language, with
only literals and variables as bases, is what the QF_BV translation in
``smt`` emits.
"""

from __future__ import annotations

import itertools
from operator import is_, is_not
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .core import ACCEPT, REJECT, Automaton, Configuration, Record, slice_bits

LEFT = "<"
RIGHT = ">"


# ---------------------------------------------------------------------------
# Bit expressions
#
# A bit expression is kept in the concatenation/extraction normal form of
# Cyrluk, Möller & Rueß (CAV 1997): a flat tuple of segments, each either
# a string of literal bits or bits lo..hi of a base (a buffer, a header or
# a bit variable). A header or a variable carries its width; a buffer's
# width is its side's template buflen, which the guard gives, so one
# reference serves every buffer length and a buffer's bits stay equal as it
# grows. Every expression knows its width when it is built. No segment is
# empty and no two literals are adjacent; slices of slices and of
# concatenations never arise.


class BufRef(Record):
    __slots__ = ("side",)

    def __init__(self, side: str):
        self.side = side

    def __eq__(self, o): return type(o) is BufRef and self.side == o.side
    def __hash__(self): return hash(self.side)


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


class Seg(NamedTuple):  # bits lo..hi of a base, within its width (a buffer's: the guard's)
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
        """Bits lo..hi. Raises ValueError unless 0 <= lo <= hi < width:
        every caller slices within range (the parsers reject a slice that
        is not, and ``core.typecheck`` does for the automaton)."""
        w = self.width
        if not 0 <= lo <= hi < w:
            raise ValueError(f"slice [{lo}:{hi}] out of range for width {w}")
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


def ref(base: Base, w: int) -> Bits:
    """Bits 0..w-1 of a base."""
    return Bits((Seg(base, 0, w - 1),), w) if w else EMPTY


def buf(side: str, width: int) -> Bits:
    """All bits of a side's buffer, ``width`` of them."""
    return ref(BufRef(side), width)


def hdr(name: str, side: str, width: int) -> Bits:
    return ref(BHdrRef(name, side, width), width)


def var(name: str, width: int = 1) -> Bits:
    return ref(Var(name, width), width)


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


Formula = Union[Bottom, Top, Eq, Implies, And, Or, Not]

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


def segments(phi: Formula) -> Iterator[Seg]:
    """Every base segment of an equation under ``phi``, left to right."""
    stack = [phi]
    pop, push = stack.pop, stack.append
    while stack:
        n = pop()
        t = type(n)
        if t is Eq:
            for s in n.left.segs + n.right.segs:
                if type(s) is not str:
                    yield s
        elif t is Implies:
            push(n.concl)
            push(n.hyp)
        elif t is And:
            stack += reversed(n.conjuncts)
        elif t is Or:
            stack += reversed(n.disjuncts)
        elif t is Not:
            push(n.body)


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
    return {s.base.name for s in segments(phi) if type(s.base) is Var}


def var_widths(phi: Formula) -> dict[str, int]:
    return {s.base.name: s.base.width for s in segments(phi) if type(s.base) is Var}


def valuations(phi: Formula) -> Iterator[Valuation]:
    """Every valuation of phi's variables, in a fixed order."""
    widths = sorted(var_widths(phi).items())
    for bits in itertools.product("01", repeat=sum(w for _, w in widths)):
        v, pos = {}, 0
        for name, w in widths:
            v[name] = "".join(bits[pos : pos + w])
            pos += w
        yield v


def denotes(phi: Formula, cl: Configuration, cr: Configuration) -> bool:
    """True iff phi holds under every valuation of its variables."""
    return all(holds(phi, cl, cr, v) for v in valuations(phi))


# ---------------------------------------------------------------------------
# Templates and guarded formulas


class Template(Record):
    # hashed in every guard key, so its hash is computed once
    __slots__ = ("state", "buflen", "_hash")

    def __init__(self, state: str, buflen: int):
        self.state, self.buflen = state, buflen
        self._hash = hash((state, buflen))

    def __eq__(self, o):
        return type(o) is Template and (self.state, self.buflen) == (o.state, o.buflen)

    def __hash__(self): return self._hash

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
    """A template-guarded formula: t1< ∧ t2> ⟹ body. The templates fix
    each side's state and buffer length; the body reads bits only."""

    __slots__ = ("t1", "t2", "body")

    def __init__(self, t1: Template, t2: Template, body: Formula):
        self.t1, self.t2, self.body = t1, t2, body

    def __eq__(self, o):
        return type(o) is Guarded and (self.t1, self.t2, self.body) == (o.t1, o.t2, o.body)

    def __hash__(self): return hash((self.t1, self.t2, self.body))

    def denotes(self, cl: Configuration, cr: Configuration) -> bool:
        if template_of(cl) != self.t1 or template_of(cr) != self.t2:
            return True
        return denotes(self.body, cl, cr)


# ---------------------------------------------------------------------------
# Substitution


def subst(
    phi: Formula,
    buf: dict[str, Bits],
    hdr: dict[tuple[str, str], Bits],
) -> Formula:
    """Simultaneous substitution of buffer and header references,
    simplified: each node is rebuilt with its substituted subformulas and
    then simplified (``simplify_node``), in one walk.

    ``buf`` maps a side to a replacement for that side's buffer;
    ``hdr`` maps (name, side) pairs to replacements. A replacement has
    the width of what it replaces. A segment within a prefix that its
    replacement maps to itself, as a buffering rewind maps the bits below
    the old buffer length, is kept, and so is every node it leaves
    unchanged: a formula no replacement changes comes back as the same
    object.
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
        if r is None:
            return None
        head = r.segs[0] if r.segs else None
        if type(head) is Seg and head.lo == 0 and s.hi <= head.hi and head.base == b:
            return None  # r starts with the bits of b it replaces
        return r.slice(s.lo, s.hi)

    def node(x: Formula) -> Formula:
        if type(x) is Eq:
            left, right = map_segs(x.left, sub), map_segs(x.right, sub)
            if left is not x.left or right is not x.right:
                x = Eq(left, right)
        return simplify_node(x)

    return rewrite(phi, node)


# ---------------------------------------------------------------------------
# Simplification


def simplify_node(phi: Formula) -> Formula:
    """One step of local rewriting (smart constructors) at a node whose
    subformulas are simplified already. Bit expressions are normal
    already; an equation is decided when its sides are equal, of unequal
    widths or both literal. A node the step leaves alone is returned as
    it is."""
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
        return phi if _kept(parts, phi.conjuncts) else conj(parts)
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
        return phi if _kept(parts, phi.disjuncts) else disj(parts)
    if t is Not:
        body = phi.body
        if type(body) is Bottom:
            return TOP
        if type(body) is Top:
            return BOT
        if type(body) is Not:
            return body.body
    return phi


def _kept(parts: list[Formula], old: tuple[Formula, ...]) -> bool:
    """Are ``parts`` the parts ``old`` of an And or Or of two or more?"""
    return len(parts) == len(old) > 1 and all(map(is_, parts, old))


def simplify(phi: Formula) -> Formula:
    """Semantics-preserving local rewriting, bottom-up."""
    return rewrite(phi, simplify_node)


# ---------------------------------------------------------------------------
# Rendering (deterministic, diffable)


def render_segment(s: Segment, buflens: dict[str, int]) -> str:
    """A segment as text: a whole base by its name, else with its bit
    range. A buffer is whole when the segment covers its side's length in
    ``buflens``; without one it is always shown with its range."""
    if type(s) is str:
        return f'"{s}"'
    b = s.base
    if type(b) is Var:
        name, width = b.name, b.width
    elif type(b) is BufRef:
        name, width = f"buf{b.side}", buflens.get(b.side)
    else:
        name, width = f"{b.name}{b.side}", b.width
    return name if s.lo == 0 and s.hi + 1 == width else f"{name}[{s.lo}:{s.hi}]"


def render_bit_expr(be: Bits, buflens: dict[str, int] = {}) -> str:
    if len(be.segs) == 1:
        return render_segment(be.segs[0], buflens)
    if not be.segs:
        return '""'
    return "(" + " ++ ".join(render_segment(s, buflens) for s in be.segs) + ")"


def render(phi: Formula, buflens: dict[str, int] = {}) -> str:
    """phi as text; ``buflens`` gives the buffer length of each side (see
    ``render_body``)."""
    if isinstance(phi, Bottom):
        return "false"
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Eq):
        return f"{render_bit_expr(phi.left, buflens)} = {render_bit_expr(phi.right, buflens)}"
    if isinstance(phi, Implies):
        return f"({render(phi.hyp, buflens)} => {render(phi.concl, buflens)})"
    if isinstance(phi, And):
        return "(" + " & ".join(render(p, buflens) for p in phi.conjuncts) + ")"
    if isinstance(phi, Or):
        return "(" + " | ".join(render(p, buflens) for p in phi.disjuncts) + ")"
    if isinstance(phi, Not):
        return f"!{render(phi.body, buflens)}"
    raise TypeError(f"not a formula: {phi!r}")


def guard_buflens(t1: Template, t2: Template) -> dict[str, int]:
    """The buffer length of each side under the guard (t1, t2)."""
    return {LEFT: t1.buflen, RIGHT: t2.buflen}


def render_body(g: Guarded) -> str:
    """g's body as text, each buffer at its length under g's guard."""
    return render(g.body, guard_buflens(g.t1, g.t2))


def render_guarded(g: Guarded) -> str:
    return f"[{g.t1} {g.t2}] {render_body(g)}"
