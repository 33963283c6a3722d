"""Seeded generator of small well-typed automata for property tests.

Instances stay within the oracle's bit budget: at most two headers
totalling four bits, at most three states, at most two extracts per
state. Everything is driven by a random.Random so failures replay.
"""

from __future__ import annotations

import random

from parseq.core import (
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
    Select,
    Slice,
    State,
    Wildcard,
    check,
)


def random_bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def random_expr(rng: random.Random, sizes: dict[str, int], width: int, depth: int = 2) -> Expr:
    """A well-typed expression of exactly the requested width."""
    choices = ["lit"]
    fitting = [h for h, sz in sizes.items() if sz == width]
    sliceable = [h for h, sz in sizes.items() if sz >= width]
    if fitting:
        choices.append("hdr")
    if sliceable:
        choices.append("slice")
    if depth > 0 and width >= 2:
        choices.append("concat")
    kind = rng.choice(choices)
    if kind == "hdr":
        return HdrRef(rng.choice(fitting))
    if kind == "slice":
        h = rng.choice(sliceable)
        lo = rng.randrange(sizes[h] - width + 1)
        return Slice(HdrRef(h), lo, lo + width - 1)
    if kind == "concat":
        split = rng.randint(1, width - 1)
        return Concat(
            random_expr(rng, sizes, split, depth - 1),
            random_expr(rng, sizes, width - split, depth - 1),
        )
    return Lit(random_bits(rng, width))


def random_automaton(
    rng: random.Random,
    max_states: int = 3,
    max_header_bits: int = 4,
) -> Automaton:
    n_headers = rng.randint(1, 2)
    sizes: dict[str, int] = {}
    budget = max_header_bits
    for i in range(n_headers):
        hi = budget - (n_headers - 1 - i)  # leave 1 bit per remaining header
        sz = rng.randint(1, min(2, hi))
        sizes[f"h{i}"] = sz
        budget -= sz
    n_states = rng.randint(1, max_states)
    names = [f"Q{i}" for i in range(n_states)]
    targets = names + ["accept", "reject"]
    headers = list(sizes)

    states = []
    for name in names:
        op: list = []
        for h in rng.sample(headers, rng.randint(1, len(headers))):
            op.append(Extract(h))
        if rng.random() < 0.4:
            h = rng.choice(headers)
            pos = rng.randrange(len(op) + 1)
            op.insert(pos, Assign(h, random_expr(rng, sizes, sizes[h])))
        if rng.random() < 0.5:
            trans = Goto(rng.choice(targets))
        else:
            n_exprs = rng.randint(1, 2)
            exprs = tuple(
                random_expr(rng, sizes, rng.randint(1, 2)) for _ in range(n_exprs)
            )
            widths = [_width(e, sizes) for e in exprs]
            cases = []
            for _ in range(rng.randint(1, 3)):
                pats = tuple(
                    Wildcard() if rng.random() < 0.25 else ExactPat(random_bits(rng, w))
                    for w in widths
                )
                cases.append(Case(pats, rng.choice(targets)))
            trans = Select(exprs, tuple(cases))
        states.append((name, State(tuple(op), trans)))
    aut = Automaton(tuple(sizes.items()), tuple(states))
    check(aut)
    return aut


def _width(e: Expr, sizes: dict[str, int]) -> int:
    if isinstance(e, HdrRef):
        return sizes[e.name]
    if isinstance(e, Lit):
        return len(e.bits)
    if isinstance(e, Slice):
        return e.hi - e.lo + 1
    return _width(e.left, sizes) + _width(e.right, sizes)


def random_bit_expr(rng, sizes, buflens, varnames, width, depth=2):
    """A well-typed relation-level bit expression of exactly ``width`` bits."""
    from parseq.confrel import LEFT, RIGHT, buf, hdr, lit, var

    pool = []
    for side in (LEFT, RIGHT):
        for h, sz in sizes.items():
            if sz >= width:
                pool.append(("hdr", side, h, sz))
        if buflens[side] >= width:
            pool.append(("buf", side, None, buflens[side]))
    choices = ["lit"]
    if pool:
        choices.append("ref")
    if varnames and width == 1:
        choices.append("var")
    if depth > 0 and width >= 2:
        choices.append("concat")
    kind = rng.choice(choices)
    if kind == "ref":
        what, side, h, sz = rng.choice(pool)
        base = hdr(h, side, sz) if what == "hdr" else buf(side, sz)
        if sz == width:
            return base
        lo = rng.randrange(sz - width + 1)
        return base.slice(lo, lo + width - 1)
    if kind == "var":
        return var(rng.choice(varnames))
    if kind == "concat":
        split = rng.randint(1, width - 1)
        return random_bit_expr(
            rng, sizes, buflens, varnames, split, depth - 1
        ) + random_bit_expr(rng, sizes, buflens, varnames, width - split, depth - 1)
    return lit(random_bits(rng, width))


def random_formula(rng, sizes, buflens, varnames, depth=2):
    """A pure relation formula over the given widths and bit variables."""
    from parseq.confrel import BOT, TOP, And, Eq, Implies, Not, Or

    kind = rng.choice(
        ["eq", "eq", "eq", "and", "or", "implies", "not", "top", "bot"]
        if depth > 0
        else ["eq", "eq", "eq", "top", "bot"]
    )
    if kind == "eq":
        w = rng.randint(1, 3)
        return Eq(
            random_bit_expr(rng, sizes, buflens, varnames, w),
            random_bit_expr(rng, sizes, buflens, varnames, w),
        )
    if kind == "and":
        return And(tuple(random_formula(rng, sizes, buflens, varnames, depth - 1)
                         for _ in range(rng.randint(1, 2))))
    if kind == "or":
        return Or(tuple(random_formula(rng, sizes, buflens, varnames, depth - 1)
                        for _ in range(rng.randint(1, 2))))
    if kind == "implies":
        return Implies(
            random_formula(rng, sizes, buflens, varnames, depth - 1),
            random_formula(rng, sizes, buflens, varnames, depth - 1),
        )
    if kind == "not":
        return Not(random_formula(rng, sizes, buflens, varnames, depth - 1))
    return TOP if kind == "top" else BOT


def random_guard(rng):
    """A guard over the disjoint sum of two small automata: the sum, the
    guard's templates, and a formula generator at that guard, which draws
    pure formulas over its widths and up to three bit variables."""
    from parseq.core import disjoint_sum
    from parseq.confrel import LEFT, RIGHT, Template

    a1 = random_automaton(rng, max_states=2, max_header_bits=2)
    a2 = random_automaton(rng, max_states=2, max_header_bits=2)
    total, left, right = disjoint_sum(a1, a2)
    sizes = dict(total.headers)
    lq = rng.choice(list(left.states.values()))
    rq = rng.choice(list(right.states.values()))
    t1 = Template(lq, rng.randrange(total.opsize_of(lq)))
    t2 = Template(rq, rng.randrange(total.opsize_of(rq)))
    buflens = {LEFT: t1.buflen, RIGHT: t2.buflen}
    varnames = ["x0", "x1", "x2"][: rng.randint(0, 3)]
    return total, t1, t2, lambda: random_formula(rng, sizes, buflens, varnames)


def random_wide_guard(rng):
    """``random_guard`` plus one premise quantifying a variable of 9 to 12
    bits: the sum, the templates, that premise and the formula generator.
    The premise is ``w = E | G`` or ``!(w[lo:hi] = e) | G``, with E and e
    over the guard's buffers, headers and literals and G drawn by the
    generator, so it means G. G is drawn again while it simplifies to
    true. The slice lies at w's right end: enumeration tries w's last bits
    first and falsifies the premise quickly where G is false."""
    from parseq.confrel import LEFT, RIGHT, Eq, Not, Or, Top, lit, simplify, var

    total, t1, t2, formula = random_guard(rng)
    sizes = dict(total.headers)
    buflens = {LEFT: t1.buflen, RIGHT: t2.buflen}
    width = rng.randint(9, 12)
    w = var("w", width)
    if rng.random() < 0.5:
        head = rng.randint(1, 2)
        e = random_bit_expr(rng, sizes, buflens, [], head) + lit(random_bits(rng, width - head))
        wide = Eq(w, e)
    else:
        lo = rng.randrange(width - 2, width)
        e = random_bit_expr(rng, sizes, buflens, [], width - lo)
        wide = Not(Eq(w.slice(lo, width - 1), e))
    g = formula()
    while isinstance(simplify(g), Top):
        g = formula()
    return total, t1, t2, Or((wide, g)), formula


def random_entailment(rng):
    """A filtered entailment over the disjoint sum of two small automata."""
    from parseq.confrel import Guarded
    from parseq.smt import template_filter

    total, t1, t2, formula = random_guard(rng)
    goal = Guarded(t1, t2, formula())
    rel = [Guarded(t1, t2, formula()) for _ in range(rng.randint(0, 3))]
    return template_filter(rel, goal), total


def random_pair(rng: random.Random):
    """Two automata plus start states; biased toward related machines so
    Equivalent verdicts actually occur."""
    a1 = random_automaton(rng)
    roll = rng.random()
    if roll < 0.3:
        a2, q2 = a1, rng.choice([q for q, _ in a1.states])
    elif roll < 0.5:
        a2 = random_automaton(rng, max_states=len(a1.states))
        q2 = a2.states[0][0]
    else:
        a2 = random_automaton(rng)
        q2 = rng.choice([q for q, _ in a2.states])
    q1 = rng.choice([q for q, _ in a1.states])
    return a1, q1, a2, q2


def chain_pair(n: int):
    """Two equivalent parsers of n 8-bit headers, for even n, each header
    read on to the next only when its bit 0 is 1: the left side takes one
    header per state, the right side two. Returns (left, q, right, q)."""
    from parseq.frontend import parse_source

    def state(i: int, width: int) -> str:
        names = [f"h{j}" for j in range(i, i + width)]
        nxt = f"s{i + width}" if i + width < n else "accept"
        extracts = " ".join(f"extract({h}, 8);" for h in names)
        keys = ", ".join(f"{h}[0:0]" for h in names)
        ones = ", ".join("0b1" for _ in names)
        anys = ", ".join("_" for _ in names)
        return f"state s{i} {{ {extracts} select({keys}) {{ ({ones}) => {nxt} ({anys}) => reject }} }}"

    left = "\n".join(state(i, 1) for i in range(n))
    right = "\n".join(state(i, 2) for i in range(0, n, 2))
    return parse_source(left), "s0", parse_source(right), "s0"
