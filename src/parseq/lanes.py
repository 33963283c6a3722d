"""Bit-parallel evaluation of formulas on lanes.

Bit-parallel random simulation, as equivalence checkers of circuits use
it to disprove candidate equivalences before any SAT call (Mishchenko et
al., *Improvements to Combinational Equivalence Checking*, ICCAD 2006).
A lane is one configuration pair; each configuration bit is a Python int
holding its value on every lane, and a formula evaluates to the int of
the lanes on which it holds. Lanes can also stand for valuations of a
formula's variables: n variable bits take 2^n blocks of lanes, one per
valuation in the order of ``valuations``, and every configuration bit is
the same on each block (``_on_valuations``).

The internal backend (``smt``) simulates each body here before it blasts
anything, as a goal (``goal_lanes``: one block of random lanes) and, if
it becomes a premise, as a premise (``premise_lanes``: one block of
random configuration lanes per valuation). Its instance search evaluates
a premise under the configuration bits of a model, one lane per
valuation (``lowest_false``). The checks of what a formula may read
under a guard live here, as the first layer to read it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .core import Automaton
from .confrel import (
    LEFT,
    RIGHT,
    And,
    Base,
    BHdrRef,
    Bits,
    Bottom,
    BufRef,
    Eq,
    Formula,
    Implies,
    Not,
    Or,
    Seg,
    Top,
    Valuation,
    Var,
    segments,
)


class InternalError(Exception):
    """A formula reached the simulation, the solver or the bitvector
    translation that does not fit its guard: an unknown header, a header
    read at a width that is not its own, or a buffer read beyond the
    guard's buffer length."""


def check_header(b: BHdrRef, aut: Automaton) -> None:
    """Raise InternalError unless a header reference has the width the
    automaton gives it."""
    want = aut.sizes.get(b.name)
    if want is None:
        raise InternalError(f"unknown header {b.name!r}")
    if want != b.width:
        raise InternalError(f"{b} read at width {b.width}, not {want}")


def check_buffer(side: str, reads: int, buflen: int) -> None:
    """Raise InternalError when ``reads`` bits of a side's buffer run past
    its length under the guard, ``buflen``."""
    if reads > buflen:
        raise InternalError(f"buf{side} read at bit {reads - 1}, beyond its {buflen} bit(s)")


def sat_name(b: Base) -> str:
    """A base's name in the internal backend. Names never leave the
    process, so headers need no SMT-LIB sanitizing; prefixes keep the
    kinds apart. A variable's name carries its width: goals accumulate at
    a guard, and one goal's v0 may be wider than another's."""
    t = type(b)
    if t is Var:
        return f"v{b.width}_{b.name}"
    if t is BufRef:
        return "bufL" if b.side == LEFT else "bufR"
    return ("L_" if b.side == LEFT else "R_") + b.name


LANES = 256  # configuration pairs simulated at each guard
SIM_VAR_BITS = 4  # a premise with more variable bits holds on no lane
ALL_LANES = (1 << LANES) - 1
_M64 = (1 << 64) - 1
# SAT name -> lane values of its bits 0, 1, ...: the memo of ``lane_bits``.
# The values are fixed, so checks sharing it in one process answer alike.
_LANE_BITS: dict[str, list[int]] = {}


def lane_bits(name: str, width: int) -> list[int]:
    """The lanes of (at least) bits 0..width-1 of the base called
    ``name``. The value of a bit on a lane is a fixed pseudo-random
    function of the name, the bit and the lane: FNV-1a of "name/bit",
    stretched by splitmix64."""
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


def _split(widths: list[tuple[str, int]], seq: Sequence) -> dict[str, Sequence]:
    """``seq``, one item per variable bit in the order of ``valuations``,
    cut into each variable's bits."""
    out, pos = {}, 0
    for name, w in widths:
        out[name], pos = seq[pos : pos + w], pos + w
    return out


def _bit_lanes(e: Bits, lanes: Callable[[Seg], list[int]], full: int) -> list[int]:
    out: list[int] = []
    for s in e.segs:
        if type(s) is str:
            out += [full if b == "1" else 0 for b in s]
        else:
            out += lanes(s)
    return out


def simulate(phi: Formula, lanes: Callable[[Seg], list[int]], full: int = ALL_LANES) -> int:
    """The lanes on which ``phi`` holds, each base segment's bits read
    through ``lanes``, among the lanes ``full`` sets. Every segment is
    read, so ``lanes`` sees (and may reject) every base of ``phi``."""
    t = type(phi)
    if t is Eq:
        left, right = _bit_lanes(phi.left, lanes, full), _bit_lanes(phi.right, lanes, full)
        if len(left) != len(right):
            return 0
        out = full
        for a, b in zip(left, right):
            out &= ~(a ^ b)
        return out
    if t is Not:
        return full ^ simulate(phi.body, lanes, full)
    if t is And:
        out = full
        for p in phi.conjuncts:
            out &= simulate(p, lanes, full)
        return out
    if t is Or:
        out = 0
        for p in phi.disjuncts:
            out |= simulate(p, lanes, full)
        return out
    if t is Implies:
        return (full ^ simulate(phi.hyp, lanes, full)) | simulate(phi.concl, lanes, full)
    if t is Top:
        return full
    if t is Bottom:
        return 0
    raise TypeError(f"not a formula: {phi!r}")


def _on_valuations(
    phi: Formula, widths: dict[str, int], block: int, config: Callable[[Seg], list[int]]
) -> int:
    """The lanes on which ``phi`` holds over 2^n blocks of ``block``
    lanes, block j holding valuation j of its n variable bits (``widths``)
    in the order of ``valuations``. Each configuration segment reads its
    lanes of one block through ``config``, repeated on every block."""
    widths = sorted(widths.items())
    n = sum(w for _, w in widths)
    full = (1 << (block << n)) - 1
    copies = full // ((1 << block) - 1)  # bit 0 of each block
    # bit q (0 first) is set on block j exactly when bit q of j, written
    # in n binary digits with the most significant first, is 1
    valuation = []
    for q in range(n):
        half = block << (n - 1 - q)  # lanes per run of equal bits
        valuation.append((((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1)))
    at = _split(widths, valuation)

    def lanes(s: Seg) -> list[int]:
        if type(s.base) is Var:
            return at[s.base.name][s.lo : s.hi + 1]
        return [r * copies for r in config(s)]

    return simulate(phi, lanes, full)


def lowest_false(
    phi: Formula, var_bits: dict[str, int], bits: Callable[[Seg], str]
) -> Optional[Valuation]:
    """The first valuation of phi's variables (``var_widths(phi)``, given
    as ``var_bits``) in the order of ``valuations`` under which phi is
    false, each configuration segment holding ``bits(s)``, or None: one
    simulation with one lane per valuation."""
    n = sum(var_bits.values())
    holds = _on_valuations(phi, var_bits, 1, lambda s: [1 if c == "1" else 0 for c in bits(s)])
    false = ((1 << (1 << n)) - 1) & ~holds
    if not false:
        return None
    first = (false & -false).bit_length() - 1
    return _split(sorted(var_bits.items()), format(first, f"0{n}b") if n else "")


def _random(aut: Automaton) -> Callable[[Seg], list[int]]:
    """Each segment's lanes on ``LANES`` random configuration pairs: the
    ``lane_bits`` of its base's ``sat_name``, so they fit any guard. A
    header is checked against the automaton; the guard checks the buffer
    reads (``Body.reads``)."""

    def lanes(s: Seg) -> list[int]:
        b = s.base
        if type(b) is BHdrRef:
            check_header(b, aut)
        return lane_bits(sat_name(b), s.hi + 1)[s.lo : s.hi + 1]

    return lanes


def goal_lanes(body: Formula, aut: Automaton) -> int:
    """The lanes on which ``body`` holds as a goal: its variables take
    random lanes, as configuration bits do."""
    return simulate(body, _random(aut))


def premise_lanes(body: Formula, widths: dict[str, int], aut: Automaton) -> int:
    """The lanes on which ``body`` holds as a premise: those on which it
    holds for each valuation of its variables (``widths``), none when it
    has more than ``SIM_VAR_BITS`` variable bits. One simulation covers
    the 2^n valuations, one block of ``LANES`` lanes each."""
    n = sum(widths.values())
    if n > SIM_VAR_BITS:
        return 0
    holds = _on_valuations(body, widths, LANES, _random(aut))
    every = ALL_LANES
    for j in range(1 << n):
        every &= holds >> (LANES * j)
    return every


class Body:
    """What a check derives from one body, whatever its guard: per side,
    one past the highest buffer bit it reads; its variables' widths; and,
    each made on first use, its canonical form (``wp``), the lanes on
    which it holds as a goal (``goal_lanes``) and as a premise
    (``premise_lanes``, or the goal lanes when it has no variables), and,
    for a closed body, whether it is valid (``smt.fold``)."""

    __slots__ = ("reads", "widths", "canonical", "goal", "premise", "valid")

    def __init__(self, body: Formula):
        self.reads, self.widths = {LEFT: 0, RIGHT: 0}, {}
        for s in segments(body):
            b = s.base
            if type(b) is Var:
                self.widths[b.name] = b.width
            elif type(b) is BufRef and s.hi >= self.reads[b.side]:
                self.reads[b.side] = s.hi + 1
        self.canonical = self.goal = self.premise = self.valid = None


class Bodies(dict):
    """The Body of each body one check meets, made on first lookup and
    keyed by the body's value, so that equal bodies built apart share
    one; ``folded`` counts the obligations ``smt.fold`` decided, and
    ``closed_solves`` the closed bodies it decided by SAT. A body's
    meaning does not depend on its guard, so ``wp`` and every guard of
    the check share the table: each ``GuardRelation`` is made with it."""

    folded = closed_solves = 0

    def __missing__(self, body: Formula) -> Body:
        known = self[body] = Body(body)
        return known
