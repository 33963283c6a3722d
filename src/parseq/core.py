"""P4-automaton abstract syntax and concrete bit-by-bit semantics.

Bitvectors are plain Python strings over "01"; index 0 is the first bit
extracted from the packet (leftmost character).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

ACCEPT = "accept"
REJECT = "reject"
RESULTS = (ACCEPT, REJECT)


class TypeError_(Exception):
    """Raised when an automaton or expression fails typechecking."""


class ArityError(Exception):
    """Raised when an operation block is fed the wrong number of bits."""


def is_bits(w: str) -> bool:
    return all(ch in "01" for ch in w)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class HdrRef:
    name: str


@dataclass(frozen=True)
class Lit:
    bits: str

    def __post_init__(self):
        if not is_bits(self.bits):
            raise ValueError(f"not a bitstring: {self.bits!r}")


@dataclass(frozen=True)
class Slice:
    expr: "Expr"
    lo: int
    hi: int


@dataclass(frozen=True)
class Concat:
    left: "Expr"
    right: "Expr"


Expr = Union[HdrRef, Lit, Slice, Concat]


# ---------------------------------------------------------------------------
# Patterns, operations, transitions


@dataclass(frozen=True)
class ExactPat:
    bits: str


@dataclass(frozen=True)
class Wildcard:
    pass


Pattern = Union[ExactPat, Wildcard]


@dataclass(frozen=True)
class Extract:
    header: str


@dataclass(frozen=True)
class Assign:
    header: str
    expr: Expr


Stmt = Union[Extract, Assign]


@dataclass(frozen=True)
class Goto:
    target: str


@dataclass(frozen=True)
class Case:
    patterns: tuple[Pattern, ...]
    target: str


@dataclass(frozen=True)
class Select:
    exprs: tuple[Expr, ...]
    cases: tuple[Case, ...]


TransBlock = Union[Goto, Select]


@dataclass(frozen=True)
class State:
    op: tuple[Stmt, ...]
    trans: TransBlock


@dataclass(frozen=True)
class Automaton:
    headers: tuple[tuple[str, int], ...]  # (name, size), sizes >= 1
    states: tuple[tuple[str, State], ...]
    # Lookup tables built once from the two fields above. An ill-typed
    # state (one that extracts an unknown header) gets no opsize entry, so
    # that construction succeeds and typecheck can report it.
    sizes: dict[str, int] = field(init=False, repr=False, compare=False)
    state_map: dict[str, State] = field(init=False, repr=False, compare=False)
    _opsizes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sizes", dict(self.headers))
        object.__setattr__(self, "state_map", dict(self.states))
        opsizes = {}
        for q, st in self.states:
            try:
                opsizes[q] = opsize(st.op, self)
            except KeyError:
                pass
        object.__setattr__(self, "_opsizes", opsizes)

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


@dataclass(frozen=True)
class Store:
    """Total map from header name to a bitvector of exactly its size."""

    items: tuple[tuple[str, str], ...]

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


@dataclass(frozen=True)
class Configuration:
    state: str  # user state name, or "accept"/"reject"
    store: Store
    buffer: str

    @property
    def is_accepting(self) -> bool:
        return self.state == ACCEPT and self.buffer == ""


# ---------------------------------------------------------------------------
# Typing

def width_of(e: Expr, aut: Automaton) -> int:
    """Static bit width of a well-typed expression.

    Slices must satisfy lo <= hi < width(operand), which makes the
    clamping in eval_expr dead code for typed programs.
    """
    sizes = aut.sizes
    if isinstance(e, HdrRef):
        if e.name not in sizes:
            raise TypeError_(f"unknown header {e.name!r}")
        return sizes[e.name]
    if isinstance(e, Lit):
        return len(e.bits)
    if isinstance(e, Slice):
        w = width_of(e.expr, aut)
        if not (0 <= e.lo <= e.hi < w):
            raise TypeError_(f"slice [{e.lo}:{e.hi}] out of range for width {w}")
        return e.hi - e.lo + 1
    if isinstance(e, Concat):
        return width_of(e.left, aut) + width_of(e.right, aut)
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
                    w = width_of(stmt.expr, aut)
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
                    widths.append(width_of(e, aut))
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


@dataclass(frozen=True)
class Renaming:
    states: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)


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
