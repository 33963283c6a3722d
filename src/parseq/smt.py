"""Entailment checking for template-guarded formulas.

An entailment "R entails g" between guarded formulas reduces, after
filtering R down to the conjuncts sharing g's guard, to validity of a
pure implication in which buffer widths are fixed by the guard. That
implication is decided in process, by random simulation and then one
incremental bit-blasting SAT solver per guard, or by exhaustive
enumeration, the reference for small instances. ``--dump-smt`` writes each
query's translation to quantifier-free bitvector SMT-LIB, which
``parseq-smt`` or any SMT-LIB solver re-checks offline. A query that
cannot be answered surfaces as SolverFailure, never as a verdict.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from typing import Callable, Iterable, Iterator, Optional

from .core import Automaton, Configuration, Record, Store
from .confrel import (
    BOT,
    LEFT,
    RIGHT,
    And,
    Base,
    BHdrRef,
    Bits,
    Bottom,
    BufLenIs,
    BufRef,
    Eq,
    Formula,
    Guarded,
    Implies,
    Not,
    Or,
    Seg,
    Segment,
    StateIs,
    Template,
    Top,
    Valuation,
    Var,
    bit_segs,
    cat,
    denotes,
    is_pure,
    leaves,
    lit,
    replace,
    rewrite,
    simplify,
    valuations,
    var,
    var_widths,
)
from . import sat
from .sat import SolverFailure


class InternalError(Exception):
    """A formula reached the simulation, the solver or the bitvector
    translation that does not fit its guard: state or buffer-length
    assertions, an unknown header, or a reference whose width is not the
    guard's."""


# ---------------------------------------------------------------------------
# Filtered entailments


class FilteredEntailment(Record):
    """premises |= conclusion at a fixed template pair."""

    __slots__ = ("t1", "t2", "premises", "conclusion")

    def __init__(
        self, t1: Template, t2: Template, premises: tuple[Formula, ...], conclusion: Formula
    ):
        self.t1, self.t2, self.premises, self.conclusion = t1, t2, premises, conclusion


def template_filter(rel: Iterable[Guarded], goal: Guarded) -> FilteredEntailment:
    """Keep the conjuncts of ``rel`` guarded by the goal's templates.

    Conjuncts with a different guard are vacuous on configurations
    matching the goal's guard, so dropping them preserves the entailment
    and leaves a formula over a single fixed buffer-width assignment.
    """
    premises = tuple(
        r.body for r in rel if r.t1 == goal.t1 and r.t2 == goal.t2
    )
    return FilteredEntailment(goal.t1, goal.t2, premises, goal.body)


def check_base(b: Base, aut: Automaton, buflens: dict[str, int]) -> None:
    """Raise InternalError unless a buffer or header reference has the
    width the guard (``buflens``) or the automaton gives it."""
    want = buflens[b.side] if type(b) is BufRef else aut.sizes.get(b.name)
    if want is None:
        raise InternalError(f"unknown header {b.name!r}")
    if want != b.width:
        raise InternalError(f"{b} read at width {b.width}, not {want}")


def sat_name(b: Base, aut: Automaton, buflens: dict[str, int]) -> str:
    """A base's name in the internal backend, after ``check_base``. Names
    never leave the process, so headers need no SMT-LIB sanitizing;
    prefixes keep the kinds apart. A variable's name carries its width:
    goals accumulate at a guard, and one goal's v0 may be wider than
    another's."""
    t = type(b)
    if t is Var:
        return f"v{b.width}_{b.name}"
    check_base(b, aut, buflens)
    if t is BufRef:
        return "bufL" if b.side == LEFT else "bufR"
    return ("L_" if b.side == LEFT else "R_") + b.name


# ---------------------------------------------------------------------------
# Translation to bitvector logic

_SANE = re.compile(r"[^A-Za-z0-9_]")


def _name_table(formulas: Iterable[Formula]) -> dict[tuple[str, str], str]:
    """Deterministic, collision-free SMT names for header references."""
    refs = {
        (x.name, x.side) for f in formulas for x in leaves(f) if type(x) is BHdrRef
    }
    table: dict[tuple[str, str], str] = {}
    used: set[str] = {"bufL", "bufR"}
    for name, side in sorted(refs):
        base = ("L_" if side == LEFT else "R_") + _SANE.sub("_", name)
        cand, n = base, 1
        while cand in used:
            n += 1
            cand = f"{base}_{n}"
        used.add(cand)
        table[(name, side)] = cand
    return table


# Each formula's bit variables are universally quantified over that formula
# alone. The conclusion's become free (skolemized by the negation). A
# premise's are eliminated exactly, at any width, by walking the cofactors
# of its variable bits: ``to_fol_bv`` collects every instance that is not
# true, and a GuardContext searches one premise at a time for an instance
# false under a SAT model.

_KNOWN = str.maketrans("01?", "110")
_VALUE = str.maketrans("01?", "010")


def _pattern(be: Bits) -> str:
    """A bit expression's bits: its literal ones, and "?" elsewhere."""
    return "".join(s if type(s) is str else "?" * (s.hi - s.lo + 1) for s in be.segs)


def _clashes(eq: Eq) -> bool:
    """Do the sides hold different literal bits at an aligned position?"""
    left, right = _pattern(eq.left), _pattern(eq.right)
    if len(left) != len(right) or "?" not in left + right:
        return False  # simplify has decided these already
    known = int(left.translate(_KNOWN), 2) & int(right.translate(_KNOWN), 2)
    return bool(known & (int(left.translate(_VALUE), 2) ^ int(right.translate(_VALUE), 2)))


def _fold_clashes(phi: Formula) -> Formula:
    """phi with each equation whose sides clash at a literal bit made
    false, simplified again if one was."""
    clashed = False

    def clash(x: Formula) -> Formula:
        nonlocal clashed
        if type(x) is Eq and _clashes(x):
            clashed = True
            return BOT
        return x

    phi = rewrite(phi, clash)
    return simplify(phi) if clashed else phi


def _fix_bit(phi: Formula, name: str, bit: str) -> Formula:
    """phi with the leftmost bit of variable ``name`` fixed, simplified,
    clashes folded. ``Var(x, w)`` becomes ``bit ++ Var(x, w - 1)``, so no
    fresh name is needed."""

    def fix(s: Seg) -> Optional[Bits]:
        b = s.base
        if type(b) is not Var or b.name != name:
            return None
        return (lit(bit) + var(name, b.width - 1)).slice(s.lo, s.hi)

    return _fold_clashes(simplify(replace(phi, fix)))


def _cofactors(
    p: Formula, deadline: Optional[float]
) -> Iterator[tuple[Formula, Valuation]]:
    """The cofactor walk over a simplified formula's variable bits.

    Each step fixes the leftmost bit of the first variable by name, 0
    before 1 (``_fix_bit``). A branch ends at true (dropped), at false, or
    with no variable left, and is yielded with the bits it fixed, in the
    order of ``valuations``. A branch is simplified only when the walk
    reaches it. Raises SolverFailure once ``deadline`` passes."""
    stack: list[tuple[Formula, Valuation, str, str]] = [(p, {}, "", "")]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverFailure("solver timeout")
        phi, fixed, name, bit = stack.pop()
        if name:
            phi = _fix_bit(phi, name, bit)
            if isinstance(phi, Top):
                continue
            fixed = {**fixed, name: fixed.get(name, "") + bit}
        widths = var_widths(phi)
        if not widths:
            yield phi, fixed
            continue
        name = min(widths)
        stack.append((phi, fixed, name, "1"))
        stack.append((phi, fixed, name, "0"))


def _premise_instances(p: Formula, deadline: Optional[float]) -> list[Formula]:
    """The instances of a simplified premise that are not true; just false
    when one is false."""
    out = []
    for inst, _ in _cofactors(p, deadline):
        if isinstance(inst, Bottom):
            return [BOT]
        out.append(inst)
    return out


def to_fol_bv(
    ent: FilteredEntailment, aut: Automaton, deadline: Optional[float] = None
) -> list[Formula]:
    """Assertions whose joint unsatisfiability is the entailment's validity:
    every premise (expanded over its variables) plus the negated conclusion,
    in QF_BV: every base becomes a width-carrying variable (bufL/bufR,
    L_h/R_h per header, sanitized for SMT-LIB and collision-free, v_x per
    bit variable). The expansion raises SolverFailure once
    time.monotonic() passes ``deadline``."""
    buflens = {LEFT: ent.t1.buflen, RIGHT: ent.t2.buflen}
    names = _name_table(list(ent.premises) + [ent.conclusion])

    def smt_name(s: Seg) -> Bits:
        b = s.base
        t = type(b)
        if t is Var:
            name = f"v_{b.name}"
        else:
            check_base(b, aut, buflens)
            name = names[b.name, b.side] if t is BHdrRef else "bufL" if b.side == LEFT else "bufR"
        return Bits((Seg(Var(name, b.width), s.lo, s.hi),), s.hi - s.lo + 1)

    if not all(map(is_pure, [*ent.premises, ent.conclusion])):
        raise InternalError("impure formula survived filtering")
    out = [
        replace(inst, smt_name)
        for p in ent.premises
        for inst in _premise_instances(p, deadline)
    ]
    out.append(Not(replace(ent.conclusion, smt_name)))
    return out


# ---------------------------------------------------------------------------
# SMT-LIB serialization


def _smt_bits(e: Bits) -> str:
    parts = []
    for s in e.segs:
        if type(s) is str:
            parts.append("#b" + s)
            continue
        w = s.base.width
        if s.lo == 0 and s.hi == w - 1:
            parts.append(s.base.name)
        else:  # our bit i is SMT bit (w - 1 - i)
            parts.append(f"((_ extract {w - 1 - s.lo} {w - 1 - s.hi}) {s.base.name})")
    out = parts.pop()
    while parts:
        out = f"(concat {parts.pop()} {out})"
    return out


def _smt(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Eq):
        if f.left.width != f.right.width:
            return "false"
        return f"(= {_smt_bits(f.left)} {_smt_bits(f.right)})" if f.left.width else "true"
    if isinstance(f, Not):
        return f"(not {_smt(f.body)})"
    if isinstance(f, And):
        if not f.conjuncts:
            return "true"
        return "(and " + " ".join(_smt(p) for p in f.conjuncts) + ")"
    if isinstance(f, Or):
        if not f.disjuncts:
            return "false"
        return "(or " + " ".join(_smt(p) for p in f.disjuncts) + ")"
    if isinstance(f, Implies):
        return f"(=> {_smt(f.hyp)} {_smt(f.concl)})"
    raise TypeError(f"not a QF_BV formula: {f!r}")


def serialize_smtlib(assertions: list[Formula], comment: str = "") -> str:
    """SMT-LIB v2 script: unsat means the negated query was valid."""
    decls: dict[str, int] = {}
    for f in assertions:
        for x in leaves(f):
            if type(x) is Var and decls.setdefault(x.name, x.width) != x.width:
                raise InternalError(
                    f"variable {x.name} used at widths {decls[x.name]} and {x.width}"
                )
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"; {ln}")
    lines.append("(set-logic QF_BV)")
    for name in sorted(decls):
        lines.append(f"(declare-const {name} (_ BitVec {decls[name]}))")
    for f in assertions:
        lines.append(f"(assert {_smt(f)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bit blasting


class Blaster:
    """Tseitin encoding of bitvector formulas into a SAT solver.

    Each base is a SAT variable per bit, found by the name ``name`` gives
    it (by default its own). Gates fold against the constant and against
    equal or opposite inputs, and are shared: one per input pair (iff) or
    input set (and).
    """

    def __init__(self, name: Callable[[Base], str] = lambda b: b.name):
        self.sat = sat.Solver()
        self.true_lit = self.sat.new_var()
        self.sat.add_clause([self.true_lit])
        self.name = name
        self.env: dict[str, list[int]] = {}
        self._iffs: dict[tuple[int, int], int] = {}
        self._ands: dict[tuple[int, ...], int] = {}

    def var_bits(
        self, name: str, width: int, lo: int = 0, hi: Optional[int] = None
    ) -> list[int]:
        """Literals of bits lo..hi of a variable. A bit gets its SAT
        variable when first read, so the unread bits of a wide buffer
        cost nothing."""
        bits = self.env.get(name)
        if bits is None:
            bits = self.env[name] = [0] * width
        if len(bits) != width:
            raise InternalError(f"variable {name} used at widths {len(bits)} and {width}")
        hi = width - 1 if hi is None else hi
        part = bits[lo : hi + 1]
        if 0 in part:
            for i in range(lo, hi + 1):
                if not bits[i]:
                    bits[i] = self.sat.new_var()
            part = bits[lo : hi + 1]
        return part

    def term(self, e: Bits) -> list[int]:
        t = self.true_lit
        out: list[int] = []
        for s in e.segs:
            if type(s) is str:
                out += [t if b == "1" else -t for b in s]
            else:
                out += self.var_bits(self.name(s.base), s.base.width, s.lo, s.hi)
        return out

    def _iff(self, a: int, b: int) -> int:
        t = self.true_lit
        if a == b:
            return t
        if a == -b:
            return -t
        if a == t or a == -t:
            return b if a == t else -b
        if b == t or b == -t:
            return a if b == t else -a
        key = (a, b) if a < b else (b, a)
        o = self._iffs.get(key)
        if o is None:
            o = self._iffs[key] = self.sat.new_var()
            self.sat.add_clause([-o, -a, b])
            self.sat.add_clause([-o, a, -b])
            self.sat.add_clause([o, a, b])
            self.sat.add_clause([o, -a, -b])
        return o

    def _and(self, lits: list[int]) -> int:
        t = self.true_lit
        parts: set[int] = set()
        for lit in lits:
            if lit == -t or -lit in parts:
                return -t
            if lit != t:
                parts.add(lit)
        if len(parts) <= 1:
            return parts.pop() if parts else t
        key = tuple(sorted(parts))
        o = self._ands.get(key)
        if o is None:
            o = self._ands[key] = self.sat.new_var()
            for lit in key:
                self.sat.add_clause([-o, lit])
            self.sat.add_clause([o] + [-lit for lit in key])
        return o

    def _or(self, lits: list[int]) -> int:
        return -self._and([-lit for lit in lits])

    def formula(self, f: Formula) -> int:
        if isinstance(f, Top):
            return self.true_lit
        if isinstance(f, Bottom):
            return -self.true_lit
        if isinstance(f, Eq):
            lb, rb = self.term(f.left), self.term(f.right)
            if len(lb) != len(rb):
                return -self.true_lit
            return self._and([self._iff(a, b) for a, b in zip(lb, rb)])
        if isinstance(f, Not):
            return -self.formula(f.body)
        if isinstance(f, And):
            return self._and([self.formula(p) for p in f.conjuncts])
        if isinstance(f, Or):
            return self._or([self.formula(p) for p in f.disjuncts])
        if isinstance(f, Implies):
            return self._or([-self.formula(f.hyp), self.formula(f.concl)])
        if isinstance(f, (StateIs, BufLenIs)):
            raise InternalError(f"impure formula survived filtering: {f!r}")
        raise TypeError(f"not a formula: {f!r}")


def _deadline(timeout: Optional[float]) -> Optional[float]:
    return None if timeout is None else time.monotonic() + timeout


def check_sat(assertions: list[Formula], deadline: Optional[float] = None) -> bool:
    """Satisfiability of the conjunction, by bit blasting. Raises
    SolverFailure once time.monotonic() passes ``deadline``."""
    bl = Blaster()
    for f in assertions:
        bl.sat.add_clause([bl.formula(f)])
    bl.sat.deadline = deadline
    return bl.sat.solve()


class GuardContext:
    """One incremental solver for the entailments at one guard, built by
    its GuardRelation for the first goal that simulation cannot refute.

    Premises and goals arrive simplified. A premise without variables is
    blasted once, as a permanent clause (a goal that joins as a premise
    reuses its literal). A premise with variables is kept pending and
    instantiated lazily, from models (Ge & de Moura, *Complete
    Instantiation for Quantified Formulas in SMT*, CAV 2009). Each goal is
    solved under the assumption of its negation. On sat, the model's
    configuration is substituted into each pending premise and the
    cofactor walk looks for a valuation of its variables that falsifies
    it. Each bit of it becomes a configuration bit the premise aligns with
    that variable bit and the model agrees with, or else a literal. The
    instance is asserted and the goal solved again. Each instance is false
    under the model it came from and there are finitely many, so the loop
    ends: unsat means valid, and a model no pending premise rejects means
    not entailed.

    An earlier goal's Tseitin definitions can be met by every assignment
    of its inputs, and instances follow from the premises, so both leave
    later answers as a fresh per-query solver would give them.
    """

    def __init__(self, aut: Automaton, t1: Template, t2: Template):
        self.aut = aut
        self.buflens = {LEFT: t1.buflen, RIGHT: t2.buflen}
        self.blaster = Blaster(self._name)
        self.asserted = 0  # how many conjuncts of the relation are premises
        # premises with variables, each with its _aligned_bits
        self.pending: list[tuple[Formula, dict[tuple[str, int], list[Seg]]]] = []
        self.instances = 0  # instances of pending premises asserted
        self.extra_solves = 0  # solve() calls beyond one per goal
        self._goal: tuple[Optional[Formula], int] = (None, 0)  # last goal, its literal

    def _name(self, b: Base) -> str:
        return sat_name(b, self.aut, self.buflens)

    def _assert(self, p: Formula) -> None:
        self.blaster.sat.add_clause([self.blaster.formula(p)])

    def _model_bits(self, s: Seg) -> str:
        """A configuration segment's bits in the last model. A bit the
        Blaster never allocated is unconstrained and reads as 0."""
        value = self.blaster.sat.value
        lits = self.blaster.env.get(self._name(s.base), [0] * s.base.width)
        return "".join("1" if lit and value(lit) else "0" for lit in lits[s.lo : s.hi + 1])

    def _falsified_instance(
        self, p: Formula, aligned: dict[tuple[str, int], list[Seg]], deadline: Optional[float]
    ) -> Optional[Formula]:
        """An instance of pending premise ``p`` false under the last
        model, simplified, or None when the model satisfies ``p``."""

        def at_model(s: Seg) -> Optional[Bits]:
            return None if type(s.base) is Var else lit(self._model_bits(s))

        phi = replace(p, at_model)  # p itself when it reads no configuration
        phi = _fold_clashes(phi if phi is p else simplify(phi))
        if isinstance(phi, Top):
            return None
        falsified = next(_cofactors(phi, deadline), None)
        if falsified is None:
            return None
        fixed = falsified[1]  # bits the walk left open read as 0
        v = {name: fixed.get(name, "").ljust(w, "0") for name, w in var_widths(p).items()}

        def project(x: str, i: int) -> Segment:
            same = (c for c in aligned.get((x, i), ()) if self._model_bits(c) == v[x][i])
            return next(same, v[x][i])

        return simplify(
            replace(p, lambda s: cat(project(s.base.name, i) for i in range(s.lo, s.hi + 1))
                    if type(s.base) is Var else None)
        )

    def entails(
        self, rel: list[Guarded], conclusion: Formula, deadline: Optional[float]
    ) -> bool:
        """Do the conjuncts of ``rel`` entail ``conclusion``? Conjuncts
        past ``asserted`` join first. Raises SolverFailure once
        time.monotonic() passes ``deadline``."""
        for r in rel[self.asserted :]:
            p = r.body
            if var_widths(p):
                for b in leaves(p):
                    if type(b) in (BufRef, BHdrRef):
                        self._name(b)
                self.pending.append((p, _aligned_bits(p)))
            elif p is self._goal[0]:
                self.blaster.sat.add_clause([self._goal[1]])
            else:
                self._assert(p)
        self.asserted = len(rel)
        goal = self.blaster.formula(conclusion)
        self._goal = (conclusion, goal)
        solver = self.blaster.sat
        solver.assumptions = [-goal]
        solver.deadline = deadline
        while solver.solve():
            found = [
                inst
                for p, aligned in self.pending
                if (inst := self._falsified_instance(p, aligned, deadline)) is not None
            ]
            if not found:
                return False
            for inst in found:
                self._assert(inst)
            self.instances += len(found)
            self.extra_solves += 1
        return True


def _aligned_bits(p: Formula) -> dict[tuple[str, int], list[Seg]]:
    """For each bit i of each variable x of ``p``, the one-bit segments of
    buffers and headers that an equation of ``p`` puts across from x's
    bit i."""
    out: dict[tuple[str, int], list[Seg]] = {}

    def bitwise(e: Bits) -> list[Segment]:
        return [b for s in e.segs for b in (s if type(s) is str else bit_segs(s))]

    def align(x: Formula) -> Formula:
        if type(x) is Eq and x.left.width == x.right.width:
            left, right = bitwise(x.left), bitwise(x.right)
            for a, b in zip(left + right, right + left):
                if type(a) is Seg and type(a.base) is Var and type(b) is Seg and type(b.base) is not Var:
                    out.setdefault((a.base.name, a.lo), []).append(b)
        return x

    rewrite(p, align)
    return out


# ---------------------------------------------------------------------------
# Random simulation
#
# Bit-parallel random simulation, as equivalence checkers of circuits use
# it to disprove candidate equivalences before any SAT call (Mishchenko et
# al., *Improvements to Combinational Equivalence Checking*, ICCAD 2006).
# A lane is one configuration pair; each configuration bit is a Python int
# holding its value on every lane, and a formula evaluates to the int of
# the lanes on which it holds.

LANES = 256  # configuration pairs simulated at each guard
SIM_VAR_BITS = 4  # a premise with more variable bits holds on no lane
_ALL = (1 << LANES) - 1
_M64 = (1 << 64) - 1
# SAT name -> lane values of its bits 0, 1, ...: the memo of ``lane_bits``.
# The values are fixed, so checks sharing it in one process answer alike.
_LANE_BITS: dict[str, list[int]] = {}


def lane_bits(name: str, width: int) -> list[int]:
    """The lanes of bits 0..width-1 of the base called ``name``. The value
    of a bit on a lane is a fixed pseudo-random function of the name, the
    bit and the lane: FNV-1a of "name/bit", stretched by splitmix64."""
    bits = _LANE_BITS.setdefault(name, [])
    for i in range(len(bits), width):
        h = 0xCBF29CE484222325
        for byte in f"{name}/{i}".encode():
            h = ((h ^ byte) * 0x100000001B3) & _M64
        lanes = 0
        for _ in range(LANES // 64):
            h = (h + 0x9E3779B97F4A7C15) & _M64
            z = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
            lanes = (lanes << 64) | z ^ (z >> 31)
        bits.append(lanes)
    return bits


def _bit_lanes(e: Bits, lanes: Callable[[Seg], list[int]]) -> list[int]:
    out: list[int] = []
    for s in e.segs:
        if type(s) is str:
            out += [_ALL if b == "1" else 0 for b in s]
        else:
            out += lanes(s)
    return out


def simulate(phi: Formula, lanes: Callable[[Seg], list[int]]) -> int:
    """The lanes on which ``phi`` holds, each base segment's bits read
    through ``lanes``. Every segment is read, so ``lanes`` sees (and may
    reject) every base of ``phi``."""
    t = type(phi)
    if t is Eq:
        left, right = _bit_lanes(phi.left, lanes), _bit_lanes(phi.right, lanes)
        if len(left) != len(right):
            return 0
        out = _ALL
        for a, b in zip(left, right):
            out &= ~(a ^ b)
        return out
    if t is Not:
        return _ALL ^ simulate(phi.body, lanes)
    if t is And:
        out = _ALL
        for p in phi.conjuncts:
            out &= simulate(p, lanes)
        return out
    if t is Or:
        out = 0
        for p in phi.disjuncts:
            out |= simulate(p, lanes)
        return out
    if t is Implies:
        return (_ALL ^ simulate(phi.hyp, lanes)) | simulate(phi.concl, lanes)
    if t is Top:
        return _ALL
    if t is Bottom:
        return 0
    if t is StateIs or t is BufLenIs:
        raise InternalError(f"impure formula survived filtering: {phi!r}")
    raise TypeError(f"not a formula: {phi!r}")


class GuardRelation(list):
    """The conjuncts of R at the guard (t1, t2), in the order they joined,
    and the internal backend's entailment checks against them.

    A query is simulated first, on ``LANES`` random configuration pairs.
    ``alive`` holds the lanes that satisfy every conjunct: a premise with
    variables holds on a lane when it holds for each valuation of them,
    enumerated when it has at most ``SIM_VAR_BITS`` variable bits and taken
    to hold on no lane otherwise. A goal that is false on a live lane,
    under random values for its own variables, is not entailed: that lane
    is a counter-model; ``refutes`` is this simulation alone. Only a goal
    the simulation cannot refute builds the guard's GuardContext, which
    then decides it and every later one."""

    __slots__ = (
        "t1", "t2", "context", "alive", "simulated", "refuted", "solver_calls", "_lanes"
    )

    def __init__(self, t1: Template, t2: Template, conjuncts: Iterable[Guarded] = ()):
        super().__init__(conjuncts)
        self.t1, self.t2 = t1, t2
        self.context: Optional[GuardContext] = None
        self.alive = _ALL
        self.simulated = 0  # how many conjuncts ``alive`` has met
        self.refuted = 0  # queries answered by simulation
        self.solver_calls = 0  # queries answered by a solver
        self._lanes: dict[Base, list[int]] = {}  # each base read, checked

    def entails(self, goal: Formula, aut: Automaton, deadline: Optional[float]) -> bool:
        """Do the conjuncts entail ``goal``? Raises SolverFailure once
        time.monotonic() passes ``deadline``, and InternalError for an
        impure goal or a base that does not fit the guard."""
        if self.refutes(goal, aut, deadline):
            return False
        if self.context is None:
            self.context = GuardContext(aut, self.t1, self.t2)
        self.solver_calls += 1
        return self.context.entails(self, goal, deadline)

    def refutes(self, goal: Formula, aut: Automaton, deadline: Optional[float]) -> bool:
        """Is ``goal`` false on a live lane? Then that lane is a counter-model
        and the conjuncts do not entail it; False says nothing. Raises as
        ``entails`` does."""
        if self.alive:
            buflens = {LEFT: self.t1.buflen, RIGHT: self.t2.buflen}
            cache = self._lanes

            def lanes(s: Seg) -> list[int]:
                b = s.base
                bits = cache.get(b)
                if bits is None:
                    bits = cache[b] = lane_bits(sat_name(b, aut, buflens), b.width)
                return bits[s.lo : s.hi + 1]

            for r in self[self.simulated :]:
                self.alive &= _premise_lanes(r.body, lanes)
            self.simulated = len(self)
            if self.alive & ~simulate(goal, lanes):
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverFailure("solver timeout")
                self.refuted += 1
                return True
        return False


def _premise_lanes(p: Formula, lanes: Callable[[Seg], list[int]]) -> int:
    """The lanes on which premise ``p`` holds for every valuation of its
    variables; none when it has more than ``SIM_VAR_BITS`` of them."""
    if sum(var_widths(p).values()) > SIM_VAR_BITS:
        return 0
    out = _ALL
    for v in valuations(p):

        def at(s: Seg) -> list[int]:
            b = s.base
            if type(b) is not Var:
                return lanes(s)
            return [_ALL if c == "1" else 0 for c in v[b.name][s.lo : s.hi + 1]]

        out &= simulate(p, at)
    return out


# ---------------------------------------------------------------------------
# Solver configuration

BACKENDS = ("internal", "enum")


class SolverConfig(Record):
    """How entailments get decided: backend is one of ``BACKENDS``,
    "internal" (simulation, then a SAT context per guard) or "enum"
    (exhaustive valuation enumeration)."""

    __slots__ = ("backend", "timeout", "dump_dir", "_dump_count")

    def __init__(
        self,
        backend: str = "internal",
        timeout: float = 60.0,
        dump_dir: Optional[str] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}, not one of {BACKENDS}")
        self.backend, self.timeout, self.dump_dir = backend, timeout, dump_dir
        self._dump_count = 0

    def dump(self, text: str) -> None:
        if not self.dump_dir:
            return
        os.makedirs(self.dump_dir, exist_ok=True)
        self._dump_count += 1
        path = os.path.join(self.dump_dir, f"{self._dump_count:04d}_query.smt2")
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Enumeration backend


def _enum_domain(ent: FilteredEntailment, aut: Automaton):
    """Referenced configuration bits: headers per side plus buffers."""
    buflens = {LEFT: ent.t1.buflen, RIGHT: ent.t2.buflen}
    refs = [x for f in list(ent.premises) + [ent.conclusion] for x in leaves(f)]
    for x in refs:
        if type(x) in (BufRef, BHdrRef):
            check_base(x, aut, buflens)
    hdrs = {(x.name, x.side) for x in refs if type(x) is BHdrRef}
    bufs = {x.side for x in refs if type(x) is BufRef}
    slots: list[tuple[str, str, int]] = []  # (kind, key, width)
    for name, side in sorted(hdrs):
        slots.append(("hdr", f"{side}{name}", aut.sizes[name]))
    for side in sorted(bufs):
        slots.append(("buf", side, buflens[side]))
    return slots


def decide_by_enumeration(ent: FilteredEntailment, aut: Automaton) -> bool:
    """Entailment validity by brute force: every assignment of the
    referenced configuration bits, with each formula's own bit variables
    universally quantified inside (via denotes)."""
    slots = _enum_domain(ent, aut)
    total = sum(w for _, _, w in slots)
    for bits in itertools.product("01", repeat=total):
        w = "".join(bits)
        pos = 0
        stores = {LEFT: {}, RIGHT: {}}
        buffers = {LEFT: "", RIGHT: ""}
        for kind, key, width in slots:
            chunk, pos = w[pos : pos + width], pos + width
            if kind == "hdr":
                side, name = key[0], key[1:]
                stores[side][name] = chunk
            else:
                buffers[key] = chunk
        cl = Configuration(ent.t1.state, Store.of(stores[LEFT]), buffers[LEFT])
        cr = Configuration(ent.t2.state, Store.of(stores[RIGHT]), buffers[RIGHT])
        if all(denotes(p, cl, cr) for p in ent.premises) and not denotes(
            ent.conclusion, cl, cr
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Top-level entailment interface


def _provenance(ent: FilteredEntailment) -> str:
    return (
        f"entailment at guard [{ent.t1} {ent.t2}], "
        f"{len(ent.premises)} premise(s); unsat means valid"
    )


def refuted(rel: GuardRelation, goal: Guarded, aut: Automaton, config: SolverConfig) -> bool:
    """Does simulation find a counter-model to ``rel`` entailing ``goal``, a
    goal at ``rel``'s guard? Only the internal backend simulates; under
    enum this is always False."""
    return config.backend == "internal" and rel.refutes(
        goal.body, aut, _deadline(config.timeout)
    )


def decide_entailment(
    rel: Iterable[Guarded], goal: Guarded, aut: Automaton, config: SolverConfig
) -> bool:
    """Does the conjunction of ``rel`` entail the guarded formula ``goal``?

    Formulas are used as the engine made them, simplified. The query goes
    through a GuardRelation at the goal's guard: ``rel`` itself when it is
    one, else one holding the conjuncts of ``rel`` at that guard. With the
    internal backend the GuardRelation decides it, after its SMT-LIB
    translation is written when ``config.dump_dir`` is set. With enum,
    ``decide_by_enumeration`` decides the filtered entailment, counted in
    the GuardRelation's ``solver_calls``.
    """
    if isinstance(goal.body, Top):
        return True
    if not (isinstance(rel, GuardRelation) and (rel.t1, rel.t2) == (goal.t1, goal.t2)):
        rel = GuardRelation(
            goal.t1, goal.t2, (r for r in rel if r.t1 == goal.t1 and r.t2 == goal.t2)
        )
    if config.backend == "enum":
        rel.solver_calls += 1
        return decide_by_enumeration(template_filter(rel, goal), aut)
    deadline = _deadline(config.timeout)
    if config.dump_dir:
        ent = template_filter(rel, goal)
        config.dump(serialize_smtlib(to_fol_bv(ent, aut, deadline), comment=_provenance(ent)))
    return rel.entails(goal.body, aut, deadline)
