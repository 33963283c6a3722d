"""Weakest preconditions over the symbolic relation language.

The per-side transformer rewinds k steps of one side of a configuration
pair as one k-bit read: the side's buffer grows by a k-bit variable, or
the variable completes the buffer and the state's operation runs on it.
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
    BOT,
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

SymbolicStore = dict[str, Bits]

READ = "x"  # the bits a step of ``wp`` reads, until canonical renaming


class WidthError(Exception):
    pass


class FreshnessError(Exception):
    pass


def identity_store(aut: Automaton, side: str) -> SymbolicStore:
    return {h: hdr(h, side, size) for h, size in aut.headers}


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
    op: tuple[core.Stmt, ...],
    pre: SymbolicStore,
    buf: Bits,
    buf_width: int,
    aut: Automaton,
) -> SymbolicStore:
    """Post-state header bindings after running a block on symbolic input.

    ``buf_width`` must equal the block's opsize; extracts bind successive
    slices of ``buf``, assigns see earlier bindings.
    """
    if buf_width != core.opsize(op, aut):
        raise WidthError(f"buffer width {buf_width} != opsize {core.opsize(op, aut)}")
    sizes = aut.sizes
    st = dict(pre)
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


def symbolic_trans_cond(
    tz: core.TransBlock, st: SymbolicStore, target: str
) -> Formula:
    """Pure formula holding exactly when the transition routes to ``target``."""
    if isinstance(tz, Goto):
        return TOP if tz.target == target else BOT
    assert isinstance(tz, Select)
    exprs = [expr_to_bit_expr(e, st) for e in tz.exprs]

    def full_match(case: core.Case) -> Formula:
        eqs = [
            Eq(ex, lit(pat.bits))
            for ex, pat in zip(exprs, case.patterns)
            if isinstance(pat, core.ExactPat)
        ]
        return conj(eqs)

    arms: list[Formula] = []
    earlier: list[Formula] = []
    for case in tz.cases:
        m = full_match(case)
        if case.target == target:
            arms.append(conj([m] + [Not(e) for e in earlier]))
        earlier.append(m)
    if target == core.REJECT:
        arms.append(conj([Not(e) for e in earlier]))
    return disj(arms)


Rewind = tuple[dict[str, Bits], dict[tuple[str, str], Bits], Formula]


def rewind(
    side: str, t_src: Template, t_dst: Template, x: str, k: int, aut: Automaton
) -> Optional[Rewind]:
    """How a k-bit read, the k-bit variable x, carries one side from
    t_src to t_dst: the replacements of that side's buffer (by side) and
    of the headers its operation writes (by (name, side)) that rewind a
    formula at t_dst to t_src, and the simplified condition under which
    the read ends at t_dst. None when no such read ends at t_dst, so the
    precondition is vacuous. k may not exceed the bits the side has left
    before its state transition."""
    if t_src.state in RESULTS:
        return ({}, {}, TOP) if t_dst == T_REJECT else None  # steps to reject only
    size = aut.opsize_of(t_src.state)
    remaining = size - t_src.buflen
    if k > remaining:
        raise ValueError(f"read of {k} bits overshoots template {t_src}")
    full_buf = buf(side, t_src.buflen) + var(x, k)
    if remaining > k:
        # buffering edge: the read bits are appended to this side's buffer
        if t_dst != Template(t_src.state, t_src.buflen + k):
            return None
        return {side: full_buf}, {}, TOP
    # transition edge: the read bits complete the buffer
    st = aut.state(t_src.state)
    if t_dst.buflen != 0 or t_dst.state not in core.select_targets(st.trans):
        return None
    pre = identity_store(aut, side)
    post = symbolic_exec_op(st.op, pre, full_buf, size, aut)
    cond = simplify(symbolic_trans_cond(st.trans, post, t_dst.state))
    return {}, {(h, side): e for h, e in post.items() if e is not pre[h]}, cond


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
    r = rewind(side, t_src, t_dst, x, k, aut)
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


UNBUILT = object()  # a rewind not built yet: None is a rewind (vacuous)


def side_rewind(
    preds: Predecessors,
    side: str,
    t_src: Template,
    t_dst: Template,
    k: int,
    aut: Automaton,
) -> Optional[Rewind]:
    """``rewind`` of the read READ, built on first use and kept in
    ``preds`` for the rest of the check: every pair that steps from t_src
    to t_dst on this side with a k-bit read shares it. A buffering rewind
    depends only on (side, t_src.buflen, k), so one value serves each
    such key."""
    key = (side, t_src, t_dst, k)
    r = preds.rewinds.get(key, UNBUILT)
    if r is UNBUILT:
        r = rewind(side, t_src, t_dst, READ, k, aut)
        if r is not None and r[0]:  # only a buffering rewind replaces a buffer
            r = preds.rewinds.setdefault((side, t_src.buflen, k), r)
        preds.rewinds[key] = r
    return r


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
    Each side's rewind comes from ``preds``, built there on first use.

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
