"""Weakest preconditions over the symbolic relation language.

The per-side transformer rewinds k steps of one side of a configuration
pair as one k-bit read: the side's buffer grows by a k-bit variable, or
the variable completes the buffer and the state's operation runs on it.
The paired transformer composes the right and left sides over one shared
read, of one bit, or with leaps of every bit up to the next state
transition on either side. Each precondition then splits the read into
one-bit variables for just the bits it still depends on.
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
    subst,
    var,
    variables,
)
from .reach import Predecessors, ReachSet, TemplatePair, leap_size, predecessors

SymbolicStore = dict[str, Bits]


class WidthError(Exception):
    pass


class FreshnessError(Exception):
    pass


class FreshVars:
    """Monotonic fresh-variable source, scoped to one engine run."""

    def __init__(self, prefix: str = "x"):
        self.prefix = prefix
        self.count = 0

    def __call__(self) -> str:
        name = f"{self.prefix}{self.count}"
        self.count += 1
        return name


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


def wp_side(
    phi: Formula,
    side: str,
    t_src: Template,
    t_dst: Template,
    x: str,
    aut: Automaton,
    check_fresh: bool = True,
    k: int = 1,
) -> Formula:
    """Rewind k single-bit steps of one side as one read of k bits.

    Returns a pure formula psi such that, for configurations c on the
    given side matching t_src, c satisfies psi (for all values of the
    k-bit variable x, the bits read) exactly when every k-bit successor
    of c matching t_dst satisfies phi. k may not exceed the bits the side
    has left before its state transition. The paired transformer shares
    x between both sides and checks its freshness itself.
    """
    if check_fresh and x in variables(phi):
        raise FreshnessError(f"{x} is not fresh")
    if t_src.state in RESULTS:
        if t_dst != T_REJECT:
            return TOP
        return phi  # the side's buffer is empty at reject
    size = aut.opsize_of(t_src.state)
    remaining = size - t_src.buflen
    if k > remaining:
        raise ValueError(f"read of {k} bits overshoots template {t_src}")
    full_buf = buf(side, t_src.buflen) + var(x, k)
    if remaining > k:
        # buffering edge: the read bits are appended to this side's buffer
        if t_dst != Template(t_src.state, t_src.buflen + k):
            return TOP
        return subst(phi, {side: full_buf}, {})
    # transition edge: the read bits complete the buffer
    if t_dst.buflen != 0 or t_dst.state not in core.select_targets(
        aut.state(t_src.state).trans
    ):
        return TOP
    st = aut.state(t_src.state)
    post = symbolic_exec_op(st.op, identity_store(aut, side), full_buf, size, aut)
    cond = symbolic_trans_cond(st.trans, post, t_dst.state)
    phi2 = subst(phi, {}, {(h, side): post[h] for h, _ in aut.headers})
    return Implies(cond, phi2)


def split_read(phi: Formula, x: str, k: int, taken: set[str]) -> Formula:
    """Replace the k-bit variable x by one-bit variables x_<i> for only
    the bits phi reads."""
    bits: dict[int, Seg] = {}

    def bit(i: int) -> Seg:
        s = bits.get(i)
        if s is None:
            name = f"{x}_{i}"
            if name in taken:
                raise FreshnessError(f"{name} is not fresh")
            s = bits[i] = Seg(Var(name), 0, 0)
        return s

    def read(s: Seg) -> Optional[Bits]:
        b = s.base
        if type(b) is Var and b.name == x:
            return Bits(tuple(bit(i) for i in range(s.lo, s.hi + 1)), s.hi - s.lo + 1)
        return None

    return replace(phi, read)


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


def wp(
    psig: Guarded,
    reach_set: ReachSet,
    aut: Automaton,
    fresh: FreshVars,
    leaps: bool = True,
    preds: Optional[Predecessors] = None,
) -> list[Guarded]:
    """Template-guarded weakest preconditions of a guarded formula, one
    per reachable predecessor pair that can actually step into psig's
    guard; vacuous entries simplify to true and are dropped.

    ``preds`` is ``predecessors(reach_set, aut, leaps)``; a caller that
    asks for many preconditions over one reach set builds it once.
    """
    if preds is None:
        preds = predecessors(reach_set, aut, leaps)
    taken = variables(psig.body)
    out: list[Guarded] = []
    for pair in preds.get(TemplatePair(psig.t1, psig.t2), ()):
        k = leap_size(pair.left, pair.right, aut) if leaps else 1
        x = fresh()
        if x in taken:
            raise FreshnessError("fresh-variable counter collided with formula")
        phi = wp_side(
            psig.body, RIGHT, pair.right, psig.t2, x, aut, check_fresh=False, k=k
        )
        phi = wp_side(phi, LEFT, pair.left, psig.t1, x, aut, check_fresh=False, k=k)
        phi = simplify(phi)
        if isinstance(phi, Top):
            continue
        if k > 1:
            phi = split_read(phi, x, k, taken)
        out.append(Guarded(pair.left, pair.right, phi))
    return out
