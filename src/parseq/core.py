"""P4-automaton abstract syntax and concrete bit-by-bit semantics.

Bitvectors are plain Python strings over "01"; index 0 is the first bit
extracted from the packet (leftmost character).
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

ACCEPT = "accept"
REJECT = "reject"
RESULTS = (ACCEPT, REJECT)


class TypeError_(Exception):
    """Raised when an automaton or expression fails typechecking."""


class ArityError(Exception):
    """Raised when an operation block is fed the wrong number of bits."""


def is_bits(w: str) -> bool:
    return all(ch in "01" for ch in w)


class Record:
    """Base of parseq's plain classes. Its repr names the public fields in
    ``__slots__``, as in ``Var(name='x', width=1)``.

    Each class writes its own ``__init__``, and its own ``__eq__`` and
    ``__hash__`` when its instances are compared or hashed: per-class
    methods cost the least, and checking the class first keeps instances
    of two classes with equal fields apart (``Top() != Bottom()``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


# ---------------------------------------------------------------------------
# Expressions


class HdrRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, o): return type(o) is HdrRef and self.name == o.name
    def __hash__(self): return hash((self.name,))


class Lit(Record):
    __slots__ = ("bits",)

    def __init__(self, bits: str):
        if not is_bits(bits):
            raise ValueError(f"not a bitstring: {bits!r}")
        self.bits = bits

    def __eq__(self, o): return type(o) is Lit and self.bits == o.bits
    def __hash__(self): return hash((self.bits,))


class Slice(Record):
    __slots__ = ("expr", "lo", "hi")

    def __init__(self, expr: "Expr", lo: int, hi: int):
        self.expr, self.lo, self.hi = expr, lo, hi

    def __eq__(self, o):
        return type(o) is Slice and (self.expr, self.lo, self.hi) == (o.expr, o.lo, o.hi)

    def __hash__(self): return hash((self.expr, self.lo, self.hi))


class Concat(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        self.left, self.right = left, right

    def __eq__(self, o): return type(o) is Concat and (self.left, self.right) == (o.left, o.right)
    def __hash__(self): return hash((self.left, self.right))


Expr = Union[HdrRef, Lit, Slice, Concat]


# ---------------------------------------------------------------------------
# Patterns, operations, transitions


class ExactPat(Record):
    __slots__ = ("bits",)

    def __init__(self, bits: str):
        self.bits = bits

    def __eq__(self, o): return type(o) is ExactPat and self.bits == o.bits
    def __hash__(self): return hash((self.bits,))


class Wildcard(Record):
    __slots__ = ()

    def __eq__(self, o): return type(o) is Wildcard
    def __hash__(self): return hash(())


Pattern = Union[ExactPat, Wildcard]


class Extract(Record):
    __slots__ = ("header",)

    def __init__(self, header: str):
        self.header = header

    def __eq__(self, o): return type(o) is Extract and self.header == o.header
    def __hash__(self): return hash((self.header,))


class Assign(Record):
    __slots__ = ("header", "expr")

    def __init__(self, header: str, expr: Expr):
        self.header, self.expr = header, expr

    def __eq__(self, o): return type(o) is Assign and (self.header, self.expr) == (o.header, o.expr)
    def __hash__(self): return hash((self.header, self.expr))


Stmt = Union[Extract, Assign]


class Goto(Record):
    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target

    def __eq__(self, o): return type(o) is Goto and self.target == o.target
    def __hash__(self): return hash((self.target,))


class Case(Record):
    __slots__ = ("patterns", "target")

    def __init__(self, patterns: tuple[Pattern, ...], target: str):
        self.patterns, self.target = patterns, target

    def __eq__(self, o):
        return type(o) is Case and (self.patterns, self.target) == (o.patterns, o.target)

    def __hash__(self): return hash((self.patterns, self.target))


class Select(Record):
    __slots__ = ("exprs", "cases")

    def __init__(self, exprs: tuple[Expr, ...], cases: tuple[Case, ...]):
        self.exprs, self.cases = exprs, cases

    def __eq__(self, o): return type(o) is Select and (self.exprs, self.cases) == (o.exprs, o.cases)
    def __hash__(self): return hash((self.exprs, self.cases))


TransBlock = Union[Goto, Select]


class State(Record):
    __slots__ = ("op", "trans")

    def __init__(self, op: tuple[Stmt, ...], trans: TransBlock):
        self.op, self.trans = op, trans

    def __eq__(self, o): return type(o) is State and (self.op, self.trans) == (o.op, o.trans)
    def __hash__(self): return hash((self.op, self.trans))


class Automaton(Record):
    # Lookup tables built once from headers and states; they take no part
    # in equality. An ill-typed state (one that extracts an unknown header)
    # gets no opsize entry, so that construction succeeds and typecheck can
    # report it.
    __slots__ = ("headers", "states", "sizes", "state_map", "_opsizes")

    def __init__(
        self,
        headers: tuple[tuple[str, int], ...],  # (name, size), sizes >= 1
        states: tuple[tuple[str, State], ...],
    ):
        self.headers, self.states = headers, states
        self.sizes: dict[str, int] = dict(headers)
        self.state_map: dict[str, State] = dict(states)
        self._opsizes: dict[str, int] = {}
        for q, st in states:
            try:
                self._opsizes[q] = opsize(st.op, self)
            except KeyError:
                pass

    def __eq__(self, o):
        return type(o) is Automaton and (self.headers, self.states) == (o.headers, o.states)

    def __hash__(self): return hash((self.headers, self.states))

    def __repr__(self) -> str:
        return f"Automaton(headers={self.headers!r}, states={self.states!r})"

    def state(self, name: str) -> State:
        return self.state_map[name]

    def opsize_of(self, name: str) -> int:
        return self._opsizes[name]


def select_targets(tz: TransBlock) -> set[str]:
    """States reachable through a transition block.

    A non-exhaustive select falls through to reject; we cannot cheaply
    decide exhaustiveness, so reject is always included for selects.
    """
    if isinstance(tz, Goto):
        return {tz.target}
    targets = {case.target for case in tz.cases}
    targets.add(REJECT)
    return targets


# ---------------------------------------------------------------------------
# Store and configurations


class Store(Record):
    """Total map from header name to a bitvector of exactly its size."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[tuple[str, str], ...]):
        self.items = items

    def __eq__(self, o): return type(o) is Store and self.items == o.items
    def __hash__(self): return hash((self.items,))

    @staticmethod
    def of(mapping: dict[str, str]) -> "Store":
        return Store(tuple(sorted(mapping.items())))

    @staticmethod
    def zeros(aut: Automaton) -> "Store":
        return Store.of({h: "0" * sz for h, sz in aut.headers})

    def get(self, name: str) -> str:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def set(self, name: str, bits: str) -> "Store":
        return Store(tuple((k, bits if k == name else v) for k, v in self.items))

    def to_dict(self) -> dict[str, str]:
        return dict(self.items)


class Configuration(Record):
    __slots__ = ("state", "store", "buffer")

    def __init__(self, state: str, store: Store, buffer: str):
        self.state = state  # user state name, or "accept"/"reject"
        self.store, self.buffer = store, buffer

    def __eq__(self, o):
        return type(o) is Configuration and (self.state, self.store, self.buffer) == (
            o.state, o.store, o.buffer)

    def __hash__(self): return hash((self.state, self.store, self.buffer))

    @property
    def is_accepting(self) -> bool:
        return self.state == ACCEPT and self.buffer == ""


# ---------------------------------------------------------------------------
# Typing

def width_of(e: Expr, sizes: dict[str, int]) -> int:
    """Static bit width of a well-typed expression, over the header sizes
    ``sizes``.

    Slices must satisfy lo <= hi < width(operand), which makes the
    clamping in eval_expr dead code for typed programs.
    """
    if isinstance(e, HdrRef):
        if e.name not in sizes:
            raise TypeError_(f"unknown header {e.name!r}")
        return sizes[e.name]
    if isinstance(e, Lit):
        return len(e.bits)
    if isinstance(e, Slice):
        w = width_of(e.expr, sizes)
        if not (0 <= e.lo <= e.hi < w):
            raise TypeError_(f"slice [{e.lo}:{e.hi}] out of range for width {w}")
        return e.hi - e.lo + 1
    if isinstance(e, Concat):
        return width_of(e.left, sizes) + width_of(e.right, sizes)
    raise TypeError_(f"not an expression: {e!r}")


def opsize(op: Iterable[Stmt], aut: Automaton) -> int:
    """Exact number of bits consumed by an operation block."""
    sizes = aut.sizes
    total = 0
    for stmt in op:
        if isinstance(stmt, Extract):
            total += sizes[stmt.header]
    return total


def typecheck(aut: Automaton) -> list[str]:
    """All diagnostics for an automaton; empty list means well-typed."""
    errors: list[str] = []
    sizes = aut.sizes
    names = [h for h, _ in aut.headers]
    if len(set(names)) != len(names):
        errors.append("duplicate header names")
    for h, sz in aut.headers:
        if sz < 1:
            errors.append(f"header {h!r} has size {sz} < 1")
    state_names = [q for q, _ in aut.states]
    if len(set(state_names)) != len(state_names):
        errors.append("duplicate state names")
    known = set(state_names) | set(RESULTS)

    for q, st in aut.states:
        try:
            if opsize(st.op, aut) < 1:
                errors.append(f"state {q!r} makes no progress (no extract)")
        except KeyError as exc:
            errors.append(f"state {q!r}: unknown header {exc.args[0]!r}")
            continue
        for stmt in st.op:
            if isinstance(stmt, Extract):
                if stmt.header not in sizes:
                    errors.append(f"state {q!r}: extract of unknown header {stmt.header!r}")
            else:
                if stmt.header not in sizes:
                    errors.append(f"state {q!r}: assign to unknown header {stmt.header!r}")
                    continue
                try:
                    w = width_of(stmt.expr, sizes)
                except TypeError_ as exc:
                    errors.append(f"state {q!r}: {exc}")
                    continue
                if w != sizes[stmt.header]:
                    errors.append(
                        f"state {q!r}: assign of width {w} to header "
                        f"{stmt.header!r} of size {sizes[stmt.header]}"
                    )
        tz = st.trans
        if isinstance(tz, Goto):
            if tz.target not in known:
                errors.append(f"state {q!r}: goto to undeclared state {tz.target!r}")
        else:
            widths = []
            for e in tz.exprs:
                try:
                    widths.append(width_of(e, sizes))
                except TypeError_ as exc:
                    errors.append(f"state {q!r}: {exc}")
                    widths.append(None)
            for case in tz.cases:
                if len(case.patterns) != len(tz.exprs):
                    errors.append(
                        f"state {q!r}: case arity {len(case.patterns)} "
                        f"!= select arity {len(tz.exprs)}"
                    )
                    continue
                for pat, w in zip(case.patterns, widths):
                    if isinstance(pat, ExactPat) and w is not None and len(pat.bits) != w:
                        errors.append(
                            f"state {q!r}: pattern width {len(pat.bits)} "
                            f"!= expression width {w}"
                        )
                if case.target not in known:
                    errors.append(f"state {q!r}: case target {case.target!r} undeclared")
    return errors


def check(aut: Automaton) -> None:
    errors = typecheck(aut)
    if errors:
        raise TypeError_("; ".join(errors))


# ---------------------------------------------------------------------------
# Evaluation


def slice_bits(w: str, lo: int, hi: int) -> str:
    """Zero-indexed inclusive substring with end-clamping; empty input gives ε."""
    if not w:
        return ""
    lo = min(lo, len(w) - 1)
    hi = min(hi, len(w) - 1)
    return w[lo : hi + 1]


def eval_expr(e: Expr, s: Store) -> str:
    if isinstance(e, HdrRef):
        return s.get(e.name)
    if isinstance(e, Lit):
        return e.bits
    if isinstance(e, Slice):
        return slice_bits(eval_expr(e.expr, s), e.lo, e.hi)
    if isinstance(e, Concat):
        return eval_expr(e.left, s) + eval_expr(e.right, s)
    raise TypeError_(f"not an expression: {e!r}")


def exec_op(
    op: Iterable[Stmt], s: Store, w: str, aut: Automaton, strict: bool = False
) -> tuple[Store, str]:
    """Run an operation block against input bits, returning the remainder.

    With ``strict`` the input length must equal the block's opsize, in
    which case the remainder is always empty.
    """
    op = tuple(op)
    if strict and len(w) != opsize(op, aut):
        raise ArityError(f"got {len(w)} bits, need {opsize(op, aut)}")
    sizes = aut.sizes
    for stmt in op:
        if isinstance(stmt, Extract):
            sz = sizes[stmt.header]
            if len(w) < sz:
                raise ArityError(f"extract({stmt.header}) needs {sz} bits, have {len(w)}")
            s = s.set(stmt.header, w[:sz])
            w = w[sz:]
        else:
            v = eval_expr(stmt.expr, s)
            if len(v) != sizes[stmt.header]:
                raise ArityError(
                    f"assign width {len(v)} != sz({stmt.header}) = {sizes[stmt.header]}"
                )
            s = s.set(stmt.header, v)
    return s, w


def matches(pat: Pattern, v: str) -> bool:
    if isinstance(pat, Wildcard):
        return True
    return pat.bits == v


def eval_transition(tz: TransBlock, s: Store) -> str:
    """Route a transition block; first matching case wins, fall-through rejects."""
    if isinstance(tz, Goto):
        return tz.target
    values = [eval_expr(e, s) for e in tz.exprs]
    for case in tz.cases:
        if all(matches(p, v) for p, v in zip(case.patterns, values)):
            return case.target
    return REJECT


def step(c: Configuration, b: str, aut: Automaton) -> Configuration:
    """Single-bit DFA step; accept and reject both step to reject."""
    if b not in ("0", "1"):
        raise ValueError(f"not a bit: {b!r}")
    if c.state in RESULTS:
        return Configuration(REJECT, c.store, "")
    st = aut.state(c.state)
    wb = c.buffer + b
    if len(wb) < aut.opsize_of(c.state):
        return Configuration(c.state, c.store, wb)
    s2, rest = exec_op(st.op, c.store, wb, aut, strict=True)
    assert rest == ""
    return Configuration(eval_transition(st.trans, s2), s2, "")


def multi_step(c: Configuration, w: str, aut: Automaton) -> Configuration:
    for b in w:
        c = step(c, b, aut)
    return c


def accepts(q: str, s: Store, w: str, aut: Automaton) -> bool:
    return multi_step(Configuration(q, s, ""), w, aut).is_accepting


# ---------------------------------------------------------------------------
# Disjoint sum


class Renaming(Record):
    __slots__ = ("states", "headers")

    def __init__(
        self, states: Optional[dict[str, str]] = None, headers: Optional[dict[str, str]] = None
    ):
        self.states = {} if states is None else states
        self.headers = {} if headers is None else headers


def _rename_expr(e: Expr, hmap: dict[str, str]) -> Expr:
    if isinstance(e, HdrRef):
        return HdrRef(hmap[e.name])
    if isinstance(e, Lit):
        return e
    if isinstance(e, Slice):
        return Slice(_rename_expr(e.expr, hmap), e.lo, e.hi)
    return Concat(_rename_expr(e.left, hmap), _rename_expr(e.right, hmap))


def _rename_state(st: State, smap: dict[str, str], hmap: dict[str, str]) -> State:
    def tgt(name: str) -> str:
        return name if name in RESULTS else smap[name]

    op = tuple(
        Extract(hmap[stmt.header])
        if isinstance(stmt, Extract)
        else Assign(hmap[stmt.header], _rename_expr(stmt.expr, hmap))
        for stmt in st.op
    )
    tz = st.trans
    if isinstance(tz, Goto):
        trans: TransBlock = Goto(tgt(tz.target))
    else:
        trans = Select(
            tuple(_rename_expr(e, hmap) for e in tz.exprs),
            tuple(Case(c.patterns, tgt(c.target)) for c in tz.cases),
        )
    return State(op, trans)


def disjoint_sum(a1: Automaton, a2: Automaton) -> tuple[Automaton, Renaming, Renaming]:
    """Merge two automata with left/right tagging of states and headers.

    Returns the sum and the renaming maps for both sides; accept/reject
    are shared, not renamed.
    """
    left = Renaming(
        {q: f"l:{q}" for q, _ in a1.states}, {h: f"l:{h}" for h, _ in a1.headers}
    )
    right = Renaming(
        {q: f"r:{q}" for q, _ in a2.states}, {h: f"r:{h}" for h, _ in a2.headers}
    )
    headers = tuple((left.headers[h], sz) for h, sz in a1.headers) + tuple(
        (right.headers[h], sz) for h, sz in a2.headers
    )
    states = tuple(
        (left.states[q], _rename_state(st, left.states, left.headers))
        for q, st in a1.states
    ) + tuple(
        (right.states[q], _rename_state(st, right.states, right.headers))
        for q, st in a2.states
    )
    return Automaton(headers, states), left, right
