"""Weakest preconditions over the symbolic relation language.

The per-side transformer rewinds k steps of one side of a configuration
pair as one k-bit read: the side's buffer grows by a k-bit variable, or
the variable completes the buffer and the state's operation runs on it,
once for all the transition's targets, over only the headers it writes.
The paired transformer rewinds both sides over one shared read, of one
bit, or with leaps of every bit up to the next state transition on either
side. Every precondition leaves it with canonical one-bit variable names:
this module alone names variables.
"""

from __future__ import annotations

from typing import Optional

from . import core
from .core import RESULTS, Automaton, Assign, Extract, Goto, Select
from .confrel import (
    TOP,
    Bits,
    Eq,
    Formula,
    Guarded,
    Implies,
    LEFT,
    Not,
    RIGHT,
    Seg,
    T_REJECT,
    Template,
    Top,
    Var,
    buf,
    conj,
    disj,
    hdr,
    lit,
    replace,
    simplify,
    simplify_node,
    subst,
    var,
    variables,
)
from .reach import Predecessors, TemplatePair, leap_size

READ = "x"  # the bits a step of ``wp`` reads, until canonical renaming


class FreshnessError(Exception):
    pass


class SymbolicStore(dict):
    """The headers an operation has written on one side, by name, to the
    bits written; any other header reads as itself, ``hdr(h, side, size)``."""

    __slots__ = ("side", "sizes")

    def __init__(self, side: str, sizes: dict[str, int]):
        super().__init__()
        self.side, self.sizes = side, sizes

    def __missing__(self, h: str) -> Bits:
        return hdr(h, self.side, self.sizes[h])


def expr_to_bit_expr(e: core.Expr, st: SymbolicStore) -> Bits:
    """Translate an automaton expression, reading headers from a symbolic store."""
    if isinstance(e, core.HdrRef):
        return st[e.name]
    if isinstance(e, core.Lit):
        return lit(e.bits)
    if isinstance(e, core.Slice):
        return expr_to_bit_expr(e.expr, st).slice(e.lo, e.hi)
    if isinstance(e, core.Concat):
        return expr_to_bit_expr(e.left, st) + expr_to_bit_expr(e.right, st)
    raise TypeError(f"not an expression: {e!r}")


def symbolic_exec_op(
    op: tuple[core.Stmt, ...], side: str, buf: Bits, aut: Automaton
) -> SymbolicStore:
    """The headers a block writes on one side, bound to what it writes,
    when it runs on the symbolic input ``buf`` of the block's opsize:
    extracts bind successive slices of ``buf``, and assigns see earlier
    bindings."""
    sizes = aut.sizes
    st = SymbolicStore(side, sizes)
    offset = 0
    for stmt in op:
        if isinstance(stmt, Extract):
            sz = sizes[stmt.header]
            st[stmt.header] = buf.slice(offset, offset + sz - 1)
            offset += sz
        else:
            assert isinstance(stmt, Assign)
            st[stmt.header] = expr_to_bit_expr(stmt.expr, st)
    return st


def trans_conds(tz: core.TransBlock, st: SymbolicStore) -> dict[str, Formula]:
    """Each state a transition block can route to -> the simplified pure
    formula holding exactly when it does, in one sweep over a select's
    cases. A select falls through to reject, the last arm of its
    condition."""
    if isinstance(tz, Goto):
        return {tz.target: TOP}
    assert isinstance(tz, Select)
    exprs = [expr_to_bit_expr(e, st) for e in tz.exprs]
    arms: dict[str, list[Formula]] = {}
    earlier: list[Formula] = []
    for case in tz.cases:
        m = conj([
            Eq(ex, lit(pat.bits))
            for ex, pat in zip(exprs, case.patterns)
            if isinstance(pat, core.ExactPat)
        ])
        arms.setdefault(case.target, []).append(conj([m] + [Not(e) for e in earlier]))
        earlier.append(m)
    arms.setdefault(core.REJECT, []).append(conj([Not(e) for e in earlier]))
    return {q: simplify(disj(a)) for q, a in arms.items()}


Rewind = tuple[dict[str, Bits], dict[tuple[str, str], Bits], Formula]


def rewinds(
    side: str, t_src: Template, x: str, k: int, aut: Automaton
) -> dict[Template, Rewind]:
    """How a k-bit read, the k-bit variable x, carries one side from
    t_src: each template the read can end at -> the replacements of that
    side's buffer (by side) and of the headers its operation writes (by
    (name, side)) that rewind a formula there to t_src, and the
    simplified condition under which the read ends there. A read ends at
    no other template, so a precondition across it is vacuous. The
    targets of a transition share one run of its operation, and so one
    header map. k may not exceed the bits the side has left before its
    state transition."""
    if t_src.state in RESULTS:
        return {T_REJECT: ({}, {}, TOP)}  # a result state steps to reject only
    size = aut.opsize_of(t_src.state)
    remaining = size - t_src.buflen
    if k > remaining:
        raise ValueError(f"read of {k} bits overshoots template {t_src}")
    full_buf = buf(side, t_src.buflen) + var(x, k)
    if remaining > k:
        # buffering edge: the read bits are appended to this side's buffer
        return {Template(t_src.state, t_src.buflen + k): ({side: full_buf}, {}, TOP)}
    # transition edge: the read bits complete the buffer
    st = aut.state(t_src.state)
    post = symbolic_exec_op(st.op, side, full_buf, aut)
    hdrs = {(h, side): e for h, e in post.items()}
    return {Template(q, 0): ({}, hdrs, cond) for q, cond in trans_conds(st.trans, post).items()}


def wp_side(
    phi: Formula,
    side: str,
    t_src: Template,
    t_dst: Template,
    x: str,
    aut: Automaton,
    k: int = 1,
) -> Formula:
    """Rewind k single-bit steps of one side as one read of k bits.

    Returns a simplified pure formula psi such that, for configurations c
    on the given side matching t_src, c satisfies psi (for all values of
    the k-bit variable x, the bits read) exactly when every k-bit
    successor of c matching t_dst satisfies phi. The one-side reference
    for ``wp``, which rewinds both sides at once.
    """
    if x in variables(phi):
        raise FreshnessError(f"{x} is not fresh")
    r = rewinds(side, t_src, x, k, aut).get(t_dst)
    if r is None:
        return TOP
    bufs, hdrs, cond = r
    return simplify_node(Implies(cond, subst(phi, bufs, hdrs)))


def template_chain(
    t_src: Template, k: int, t_end: Template, aut: Automaton
) -> Optional[list[Template]]:
    """The forced k-step template path of one side, or None when no path
    from t_src can end at t_end. The reference the predecessor index is
    tested against."""
    if t_src.state in RESULTS:
        if t_end != Template(core.REJECT, 0):
            return None
        return [t_src] + [Template(core.REJECT, 0)] * k
    size = aut.opsize_of(t_src.state)
    remaining = size - t_src.buflen
    if k > remaining:
        raise ValueError(f"leap of {k} overshoots template {t_src}")
    prefix = [Template(t_src.state, t_src.buflen + i) for i in range(k)]
    if k < remaining:
        if t_end != Template(t_src.state, t_src.buflen + k):
            return None
        return prefix + [t_end]
    if t_end.buflen != 0 or t_end.state not in core.select_targets(
        aut.state(t_src.state).trans
    ):
        return None
    return prefix + [t_end]


def canonical_vars(phi: Formula) -> Formula:
    """phi with each variable bit renamed to a one-bit variable v0, v1, …
    in the order the bits first occur (``segments`` order, low bit first).

    Variables are scoped to one formula (no variable is shared across
    relation entries), so renaming preserves meaning while making
    alpha-equivalent formulas equal. A canonical formula comes back as
    the same object.
    """
    names: dict[tuple[str, int], Seg] = {}

    def rename(s: Seg) -> Optional[Bits]:
        b = s.base
        if type(b) is not Var:
            return None
        segs = []
        for i in range(s.lo, s.hi + 1):
            seg = names.get((b.name, i))
            if seg is None:
                seg = names[b.name, i] = Seg(Var(f"v{len(names)}"), 0, 0)
            segs.append(seg)
        if b.width == 1 and segs[0].base.name == b.name:
            return None  # already one-bit and canonical
        return Bits(tuple(segs), len(segs))

    return replace(phi, rename)


def side_rewind(
    preds: Predecessors,
    side: str,
    t_src: Template,
    t_dst: Template,
    k: int,
    aut: Automaton,
) -> Optional[Rewind]:
    """The rewind of the read READ from t_src to t_dst, or None when no
    such read ends at t_dst. ``rewinds`` of (side, t_src, k) is built on
    first use and kept in ``preds`` for the rest of the check: every pair
    that steps from t_src on this side with a k-bit read shares it."""
    key = (side, t_src, k)
    table = preds.rewinds.get(key)
    if table is None:
        table = preds.rewinds[key] = rewinds(side, t_src, READ, k, aut)
    return table.get(t_dst)


def transparent(r: Rewind) -> bool:
    """Does rewind ``r`` rewrite no header and have no condition? Then it
    maps each buffer bit below its source template's buffer length to
    itself: a buffering rewind appends the read above them, and a result
    state stepping to reject replaces nothing."""
    return not r[1] and type(r[2]) is Top


def wp(
    psig: Guarded, preds: Predecessors, aut: Automaton, leaps: bool = True
) -> list[Guarded]:
    """Template-guarded weakest preconditions of a guarded formula, one
    per predecessor pair in ``preds`` (``predecessors(reach_set, aut,
    leaps)``) that can actually step into psig's guard; vacuous entries
    simplify to true and are dropped.

    Both sides share one read, the variable READ of the leap's width, so
    their replacements apply in one simplifying ``subst``; the transition
    conditions wrap the result, and ``canonical_vars`` splits the read
    into one-bit variables for just the bits the precondition reads.
    Each side's rewinds from its source template come from ``preds``,
    all built there in one pass on first use.

    A pair whose rewinds are both ``transparent``, and whose buffers hold
    every bit psig's body reads, leaves the body alone: it takes the
    body's canonical form without a walk. ``preds.bodies``, the check's
    table, holds each body's buffer reads (``Body.reads``) and canonical
    form, made on first use.
    ``simplify`` and ``canonical_vars`` return a simplified canonical
    body as it is, so an obligation of the engine comes back as the same
    object.
    """
    body = psig.body
    known = preds.bodies[body]
    if READ in known.widths:
        raise FreshnessError(f"{READ} is not fresh")
    reads = known.reads
    out: list[Guarded] = []
    for pair in preds.get(TemplatePair(psig.t1, psig.t2), ()):
        k = leap_size(pair.left, pair.right, aut) if leaps else 1
        left = side_rewind(preds, LEFT, pair.left, psig.t1, k, aut)
        right = side_rewind(preds, RIGHT, pair.right, psig.t2, k, aut)
        if left is None or right is None:
            continue
        if (
            transparent(left) and transparent(right)
            and reads[LEFT] <= pair.left.buflen and reads[RIGHT] <= pair.right.buflen
        ):
            if known.canonical is None:
                known.canonical = canonical_vars(simplify(body))
            phi = known.canonical
        else:
            (lbufs, lhdrs, lcond), (rbufs, rhdrs, rcond) = left, right
            phi = subst(body, {**lbufs, **rbufs}, {**lhdrs, **rhdrs})
            phi = simplify_node(Implies(lcond, simplify_node(Implies(rcond, phi))))
            phi = canonical_vars(phi)
        if type(phi) is not Top:
            out.append(Guarded(pair.left, pair.right, phi))
    return out
