"""Entailment checking for template-guarded formulas.

An entailment "R entails g" between guarded formulas reduces, after
filtering R down to the conjuncts sharing g's guard, to validity of a
pure implication in which buffer widths are fixed by the guard. That
implication is decided in process, by random simulation and then one
incremental bit-blasting SAT solver per guard, or by exhaustive
enumeration, the reference for small instances. ``--dump-smt`` writes each
query as quantifier-free bitvector SMT-LIB: the ground query a fresh
context asserts to decide it, which ``parseq-smt`` or any SMT-LIB solver
re-checks offline. A query that cannot be answered surfaces as
SolverFailure, never as a verdict.

A closed body, one that reads no configuration bit, is true at every
guard or false at every one; ``fold`` decides each such body once per
check, as the engine makes the obligation.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from typing import Callable, Iterable, Optional

from .core import Automaton, Configuration, Record, Store
from .confrel import (
    BOT,
    LEFT,
    RIGHT,
    And,
    BHdrRef,
    Bits,
    Bottom,
    BufRef,
    Eq,
    Formula,
    Guarded,
    Implies,
    Not,
    Or,
    Seg,
    Segment,
    Template,
    Top,
    Valuation,
    Var,
    bit_segs,
    cat,
    denotes,
    guard_buflens,
    lit,
    replace,
    rewrite,
    segments,
    simplify,
    var_widths,
)
from . import sat
from .lanes import (
    ALL_LANES,
    Bodies,
    Body,
    InternalError,
    check_buffer,
    check_header,
    lowest_false,
    sat_name,
    simulate_body,
)
from .sat import SolverFailure


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


def base_width(s: Seg, aut: Automaton, buflens: dict[str, int]) -> int:
    """The width of a segment's base: the guard's buffer length for a
    buffer. Raises InternalError unless the segment fits it."""
    b = s.base
    t = type(b)
    if t is BufRef:
        check_buffer(b.side, s.hi + 1, buflens[b.side])
        return buflens[b.side]
    if t is BHdrRef:
        check_header(b, aut)
    return b.width


# ---------------------------------------------------------------------------
# Translation to bitvector logic

_SANE = re.compile(r"[^A-Za-z0-9_]")


def _name_table(formulas: Iterable[Formula]) -> dict[tuple[str, str], str]:
    """Deterministic, collision-free SMT names for header references."""
    refs = {
        (s.base.name, s.base.side) for f in formulas for s in segments(f) if type(s.base) is BHdrRef
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
# alone. The conclusion's become free (skolemized by the negation); a
# premise's are eliminated by the instances a GuardContext adds.


def to_fol_bv(
    ent: FilteredEntailment, aut: Automaton, deadline: Optional[float] = None
) -> list[Formula]:
    """Assertions whose joint unsatisfiability is the entailment's validity,
    in QF_BV: what a fresh GuardContext asserts to decide it, that is, the
    premises without variables, then the instances of the others it added,
    then the negated conclusion. Each instance follows from its premise,
    and the context stops only at unsat or at a model under which every
    premise holds for all its valuations, so the query is exact. Every base
    becomes a width-carrying variable (bufL/bufR, L_h/R_h per header,
    sanitized for SMT-LIB and collision-free, v_x per bit variable).
    Raises SolverFailure once time.monotonic() passes ``deadline``."""
    context = GuardContext(aut, ent.t1, ent.t2)
    context.entails([Guarded(ent.t1, ent.t2, p) for p in ent.premises], ent.conclusion, deadline)
    buflens = guard_buflens(ent.t1, ent.t2)
    names = _name_table(list(ent.premises) + [ent.conclusion])

    def smt_name(s: Seg) -> Bits:
        b = s.base
        t = type(b)
        if t is Var:
            name = f"v_{b.name}"
        else:
            name = names[b.name, b.side] if t is BHdrRef else "bufL" if b.side == LEFT else "bufR"
        width = base_width(s, aut, buflens)
        return Bits((Seg(Var(name, width), s.lo, s.hi),), s.hi - s.lo + 1)

    out = [replace(f, smt_name) for f in context.assertions]
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
        for s in segments(f):
            b = s.base
            if type(b) is Var and decls.setdefault(b.name, b.width) != b.width:
                raise InternalError(
                    f"variable {b.name} used at widths {decls[b.name]} and {b.width}"
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

    Each base is a SAT variable per bit, found by the name and width
    ``base`` gives a segment's base (by default its own). Gates fold
    against the constant and against equal or opposite inputs, and are
    shared: one per input pair (iff) or input set (and). Each distinct
    equation is blasted once.
    """

    def __init__(
        self, base: Callable[[Seg], tuple[str, int]] = lambda s: (s.base.name, s.base.width)
    ):
        self.sat = sat.Solver()
        self.true_lit = self.sat.new_var()
        self.sat.add_clause([self.true_lit])
        self.base = base
        # name -> (width, SAT variable of each bit read so far)
        self.env: dict[str, tuple[int, dict[int, int]]] = {}
        self._iffs: dict[tuple[int, int], int] = {}
        self._ands: dict[tuple[int, ...], int] = {}
        self._eqs: dict[Eq, int] = {}

    def var_bits(
        self, name: str, width: int, lo: int = 0, hi: Optional[int] = None
    ) -> list[int]:
        """Literals of bits lo..hi of a variable. A bit gets its SAT
        variable when first read, so the unread bits of a wide buffer
        cost nothing."""
        known = self.env.get(name)
        if known is None:
            known = self.env[name] = (width, {})
        elif known[0] != width:
            raise InternalError(f"variable {name} used at widths {known[0]} and {width}")
        bits = known[1]
        out = []
        for i in range(lo, width if hi is None else hi + 1):
            b = bits.get(i)
            if b is None:
                b = bits[i] = self.sat.new_var()
            out.append(b)
        return out

    def model_bits(self, name: str, lo: int, hi: int) -> str:
        """Bits lo..hi of a variable in the last model. A bit never read
        is unconstrained and reads as 0."""
        bits = self.env.get(name, (0, {}))[1]
        value = self.sat.value
        return "".join("1" if i in bits and value(bits[i]) else "0" for i in range(lo, hi + 1))

    def term(self, e: Bits) -> list[int]:
        t = self.true_lit
        out: list[int] = []
        for s in e.segs:
            if type(s) is str:
                out += [t if b == "1" else -t for b in s]
            else:
                out += self.var_bits(*self.base(s), s.lo, s.hi)
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
            o = self._eqs.get(f)
            if o is None:
                lb, rb = self.term(f.left), self.term(f.right)
                if len(lb) != len(rb):
                    return -self.true_lit
                o = self._eqs[f] = self._and([self._iff(a, b) for a, b in zip(lb, rb)])
            return o
        if isinstance(f, Not):
            return -self.formula(f.body)
        if isinstance(f, And):
            return self._and([self.formula(p) for p in f.conjuncts])
        if isinstance(f, Or):
            return self._or([self.formula(p) for p in f.disjuncts])
        if isinstance(f, Implies):
            return self._or([-self.formula(f.hyp), self.formula(f.concl)])
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


INSTANCE_VAR_BITS = 10  # the widest premise an instance search takes in one pass


def _by_sat(widths: dict[str, int]) -> bool:
    """Does ``_falsifying_valuation`` search by SAT, rather than in one
    pass, for a formula with variables ``widths``?"""
    return sum(widths.values()) > INSTANCE_VAR_BITS


def _falsifying_valuation(
    p: Formula, widths: dict[str, int], bits: Callable[[Seg], str], deadline: Optional[float]
) -> Optional[Valuation]:
    """A valuation of p's variables (``var_widths(p)``, given as
    ``widths``) under which p is false when each configuration segment
    holds ``bits(s)``, or None when p holds under every one.

    A premise with at most ``INSTANCE_VAR_BITS`` variable bits is
    evaluated under all its valuations in one pass (``lowest_false``),
    which finds the first falsifying one in the order of ``valuations``.
    A wider one has the configuration bits substituted, and the valuation
    is read from a SAT model of its negation. Raises SolverFailure once
    ``deadline`` passes."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolverFailure("solver timeout")
    if not _by_sat(widths):
        return lowest_false(p, widths, bits)
    at_model = replace(p, lambda s: None if type(s.base) is Var else lit(bits(s)))
    bl = Blaster()
    bl.sat.add_clause([-bl.formula(at_model)])
    bl.sat.deadline = deadline
    if not bl.sat.solve():
        return None
    return {x: bl.model_bits(x, 0, w - 1) for x, w in widths.items()}


class GuardContext:
    """One incremental solver for the entailments at one guard, built by
    its GuardRelation for the first goal that simulation cannot refute.

    Premises and goals arrive simplified. A premise without variables is
    blasted once, as a permanent clause (a goal that joins as a premise
    reuses its literal). A premise with variables is kept pending and
    instantiated lazily, from models (Ge & de Moura, *Complete
    Instantiation for Quantified Formulas in SMT*, CAV 2009). Each goal is
    solved under the assumption of its negation. On sat, each pending
    premise is evaluated under the model's configuration bits for a
    valuation of its variables that falsifies it
    (``_falsifying_valuation``). Each bit of that valuation becomes a
    configuration bit the premise aligns with that variable bit and the
    model agrees with, or else a literal. The instance is asserted and the
    goal solved again. Each instance is false under the model it came from
    and there are finitely many, so the loop ends: unsat means valid, and
    a model no pending premise rejects means not entailed.

    An earlier goal's Tseitin definitions can be met by every assignment
    of its inputs, and instances follow from the premises, so both leave
    later answers as a fresh per-query solver would give them. The Blaster
    blasts each distinct equation once. ``assertions`` lists the premises
    without variables and the instances in the order they were asserted:
    with a goal's negation, a ground query that is unsat exactly when the
    goal is entailed (``to_fol_bv``).
    """

    def __init__(self, aut: Automaton, t1: Template, t2: Template):
        self.aut = aut
        self.buflens = guard_buflens(t1, t2)
        self.blaster = Blaster(self._base)
        self.asserted = 0  # how many conjuncts of the relation are premises
        self.assertions: list[Formula] = []  # what was asserted, in order
        # premises with variables, each with its _aligned_bits and var_widths
        self.pending: list[tuple[Formula, dict[tuple[str, int], list[Seg]], dict[str, int]]] = []
        self.instances = 0  # instances of pending premises asserted
        self.extra_solves = 0  # solve() calls beyond one per goal
        self._goal: tuple[Optional[Formula], int] = (None, 0)  # last goal, its literal

    def _base(self, s: Seg) -> tuple[str, int]:
        return sat_name(s.base), base_width(s, self.aut, self.buflens)

    def _assert(self, p: Formula) -> None:
        self.assertions.append(p)
        self.blaster.sat.add_clause([self.blaster.formula(p)])

    def _model_bits(self, s: Seg) -> str:
        """A configuration segment's bits in the last model."""
        return self.blaster.model_bits(sat_name(s.base), s.lo, s.hi)

    def _falsified_instance(
        self,
        p: Formula,
        aligned: dict[tuple[str, int], list[Seg]],
        widths: dict[str, int],
        deadline: Optional[float],
    ) -> Optional[Formula]:
        """An instance of pending premise ``p`` false under the last
        model, simplified, or None when the model satisfies ``p``."""
        v = _falsifying_valuation(p, widths, self._model_bits, deadline)
        if v is None:
            return None

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
            widths = var_widths(p)
            if widths:
                for s in segments(p):
                    if type(s.base) is not Var:
                        self._base(s)
                self.pending.append((p, _aligned_bits(p), widths))
            elif p is self._goal[0]:
                self.assertions.append(p)
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
                for p, aligned, widths in self.pending
                if (inst := self._falsified_instance(p, aligned, widths, deadline)) is not None
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


class GuardRelation(list):
    """The conjuncts of R at the guard (t1, t2), in the order they joined,
    and the internal backend's entailment checks against them.

    A query is simulated first, on ``LANES`` random configuration pairs.
    ``alive`` holds the lanes that satisfy every conjunct as a premise
    (``simulate_body``). A goal that is false on a live lane, under random
    values for its own variables, is not entailed: that lane is a
    counter-model; ``refutes`` is this simulation alone. Only a goal the
    simulation cannot refute builds the guard's GuardContext, which then
    decides it and every later one.

    A body is simulated once as a goal, and once more, with its
    valuations, if it becomes a premise (``simulate_body``), into its
    Body in ``bodies``. The engine gives every relation of a check the
    check's table. Each query still checks the body's buffer reads
    against this guard."""

    __slots__ = (
        "t1", "t2", "context", "alive", "simulated", "refuted", "solver_calls", "bodies"
    )

    def __init__(self, t1: Template, t2: Template, conjuncts: Iterable[Guarded] = ()):
        super().__init__(conjuncts)
        self.t1, self.t2 = t1, t2
        self.context: Optional[GuardContext] = None
        self.alive = ALL_LANES
        self.simulated = 0  # how many conjuncts ``alive`` has met
        self.refuted = 0  # queries answered by simulation
        self.solver_calls = 0  # queries answered by a solver
        self.bodies = Bodies()

    def entails(self, goal: Formula, aut: Automaton, deadline: Optional[float]) -> bool:
        """Do the conjuncts entail ``goal``? Raises SolverFailure once
        time.monotonic() passes ``deadline``, and InternalError for a base
        that does not fit the guard. Conjuncts that hold false entail every
        goal, with no simulation and no context."""
        if any(type(r.body) is Bottom for r in self):
            return True
        if self.refutes(goal, aut, deadline):
            return False
        if self.context is None:
            self.context = GuardContext(aut, self.t1, self.t2)
        self.solver_calls += 1
        return self.context.entails(self, goal, deadline)

    def simulation(self, body: Formula, aut: Automaton, premise: bool = False) -> Body:
        """``body``'s Body, with its goal lanes, and its premise lanes when
        ``premise`` is set, made on first use, after checking that its
        buffer reads fit this guard."""
        known = self.bodies[body]
        if known.goal is None or premise and known.premise is None:
            known.goal, known.premise = simulate_body(body, aut, premise)
        check_buffer(LEFT, known.reads[LEFT], self.t1.buflen)
        check_buffer(RIGHT, known.reads[RIGHT], self.t2.buflen)
        return known

    def refutes(self, goal: Formula, aut: Automaton, deadline: Optional[float]) -> bool:
        """Is ``goal`` false on a live lane? Then that lane is a counter-model
        and the conjuncts do not entail it; False says nothing. Raises as
        ``entails`` does."""
        if self.alive:
            for r in self[self.simulated :]:
                self.alive &= self.simulation(r.body, aut, premise=True).premise
            self.simulated = len(self)
            if self.alive & ~self.simulation(goal, aut).goal:
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverFailure("solver timeout")
                self.refuted += 1
                return True
        return False


# ---------------------------------------------------------------------------
# Solver configuration

BACKENDS = ("internal", "enum")


class SolverConfig(Record):
    """How entailments get decided: backend is one of ``BACKENDS``,
    "internal" (simulation, then a SAT context per guard) or "enum"
    (exhaustive valuation enumeration), each query within ``timeout``
    seconds, a positive number."""

    __slots__ = ("backend", "timeout", "dump_dir", "_dump_count")

    def __init__(
        self,
        backend: str = "internal",
        timeout: float = 60.0,
        dump_dir: Optional[str] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}, not one of {BACKENDS}")
        if not timeout > 0:  # NaN too: no time would ever pass it
            raise ValueError(f"timeout {timeout!r} is not a positive number of seconds")
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
    buflens = guard_buflens(ent.t1, ent.t2)
    segs = [s for f in list(ent.premises) + [ent.conclusion] for s in segments(f)]
    for x in segs:
        base_width(x, aut, buflens)
    hdrs = {(x.base.name, x.base.side) for x in segs if type(x.base) is BHdrRef}
    bufs = {x.base.side for x in segs if type(x.base) is BufRef}
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
# Closed bodies


def closed(phi: Formula) -> bool:
    """Does ``phi`` read no configuration bit: is every base it reads a
    variable? A closed body holds, under ``denotes``, at every
    configuration pair or at none."""
    return all(type(s.base) is Var for s in segments(phi))


_NOWHERE = Configuration("", Store(()), "")  # what a closed body reads: nothing


def _unread(s: Seg) -> str:
    raise InternalError(f"a closed body read {s}")


def valid_closed(body: Formula, config: SolverConfig) -> bool:
    """Does closed ``body`` hold under every valuation of its variables?
    Under enum, by enumeration (``denotes``). Otherwise, when no valuation
    falsifies it (``_falsifying_valuation``), within ``config.timeout``."""
    if config.backend == "enum":
        return denotes(body, _NOWHERE, _NOWHERE)
    return _falsifying_valuation(body, var_widths(body), _unread, _deadline(config.timeout)) is None


def fold(g: Guarded, bodies: Bodies, config: SolverConfig) -> Optional[Guarded]:
    """``g`` with a closed body decided, once per body in ``bodies``
    (``Body.valid``), and counted in ``bodies.folded``: None when the
    body is valid, so that ``g`` holds everywhere, ``g``'s guard with the
    body false when it is not, else ``g`` itself. A decision that takes a
    SAT search (``_by_sat``, outside enum) is counted in
    ``bodies.closed_solves``."""
    body = g.body
    if type(body) is Bottom or not closed(body):
        return g
    known = bodies[body]
    if known.valid is None:
        known.valid = valid_closed(body, config)
        if config.backend != "enum" and _by_sat(known.widths):
            bodies.closed_solves += 1
    bodies.folded += 1
    return None if known.valid else Guarded(g.t1, g.t2, BOT)


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
    one, else one holding the conjuncts of ``rel`` at that guard. Its
    SMT-LIB translation is written first when ``config.dump_dir`` is set.
    With the internal backend the GuardRelation decides it. With enum,
    ``decide_by_enumeration`` decides the filtered entailment, counted in
    the GuardRelation's ``solver_calls``.
    """
    if isinstance(goal.body, Top):
        return True
    if not (isinstance(rel, GuardRelation) and (rel.t1, rel.t2) == (goal.t1, goal.t2)):
        rel = GuardRelation(
            goal.t1, goal.t2, (r for r in rel if r.t1 == goal.t1 and r.t2 == goal.t2)
        )
    deadline = _deadline(config.timeout)
    if config.dump_dir:
        ent = template_filter(rel, goal)
        config.dump(serialize_smtlib(to_fol_bv(ent, aut, deadline), comment=_provenance(ent)))
    if config.backend == "enum":
        rel.solver_calls += 1
        return decide_by_enumeration(template_filter(rel, goal), aut)
    return rel.entails(goal.body, aut, deadline)
