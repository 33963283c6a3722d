"""Template-level abstract interpretation of the step function.

Templates abstract configurations to (state, buffer length);
sigma_side over-approximates one side's successors after k single-bit
steps, successors takes their product at k = 1, or at the leap size with
leaps, reach_fixpoint closes a seed set of template pairs under it, and
predecessors inverts the chosen step relation over a closed set, from the
successors the fixpoint kept.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .core import RESULTS, Automaton, Record, select_targets
from .confrel import T_REJECT, Template, templates_of
from .lanes import Bodies


class TemplatePair(Record):
    # hashed in every set and dict of a check's step relation, so its hash
    # is computed once
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Template, right: Template):
        self.left, self.right = left, right
        self._hash = hash((left, right))

    def __eq__(self, o):
        return type(o) is TemplatePair and (self.left, self.right) == (o.left, o.right)

    def __hash__(self): return self._hash


def leap_size(t1: Template, t2: Template, aut: Automaton) -> int:
    """Steps until the next state-to-state transition on either side."""
    def remaining(t: Template) -> Optional[int]:
        if t.state in RESULTS:
            return None
        return aut.opsize_of(t.state) - t.buflen

    r1, r2 = remaining(t1), remaining(t2)
    if r1 is None and r2 is None:
        return 1
    if r2 is None:
        return r1
    if r1 is None:
        return r2
    return min(r1, r2)


def sigma_side(t: Template, k: int, aut: Automaton) -> set[Template]:
    """Abstract successors of one side after k single-bit steps.

    Assumes k does not exceed the side's remaining bits (guaranteed when
    k is the leap size of a pair containing t).
    """
    if t.state in RESULTS:
        return {T_REJECT}
    size = aut.opsize_of(t.state)
    remaining = size - t.buflen
    if k < remaining:
        return {Template(t.state, t.buflen + k)}
    if k == remaining:
        targets = select_targets(aut.state(t.state).trans)
        return {Template(q, 0) for q in targets}
    raise ValueError(f"leap of {k} overshoots template {t} (remaining {remaining})")


Successors = dict[TemplatePair, set[TemplatePair]]


class ReachSet(Record):
    """A set of template pairs, closed under a step relation when
    ``reach_fixpoint`` made it. Then ``_succ`` holds that relation's mode
    (``leaps``) and the successors the fixpoint computed for each pair,
    until ``predecessors`` takes them."""

    __slots__ = ("pairs", "_succ", "_sorted")

    def __init__(
        self, pairs: frozenset[TemplatePair], succ: Optional[tuple[bool, Successors]] = None
    ):
        self.pairs, self._succ = pairs, succ
        self._sorted: Optional[list[TemplatePair]] = None

    def __contains__(self, p: TemplatePair) -> bool:
        return p in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted(self) -> list[TemplatePair]:
        """The pairs by their templates' text; sorted once, and shared by
        every caller, which must not change the list."""
        if self._sorted is None:
            self._sorted = sorted(self.pairs, key=lambda p: (str(p.left), str(p.right)))
        return self._sorted

    def dump(self) -> str:
        return "\n".join(f"{p.left} {p.right}" for p in self.sorted())


def successors(
    p: TemplatePair, aut: Automaton, leaps: bool = True
) -> set[TemplatePair]:
    """The step relation of a check: one leap, or one bit on both sides."""
    k = leap_size(p.left, p.right, aut) if leaps else 1
    return {
        TemplatePair(l, r)
        for l in sigma_side(p.left, k, aut)
        for r in sigma_side(p.right, k, aut)
    }


def reach_fixpoint(
    seeds: Iterable[TemplatePair], aut: Automaton, leaps: bool = True
) -> ReachSet:
    """Least template-pair set containing the seeds and closed under the
    chosen successor relation."""
    seen: set[TemplatePair] = set(seeds)
    succ: Successors = {}
    worklist = deque(seen)
    while worklist:
        p = worklist.popleft()
        succ[p] = step = successors(p, aut, leaps)
        fresh = step - seen
        seen.update(fresh)
        worklist.extend(fresh)
    return ReachSet(frozenset(seen), (leaps, succ))


class Predecessors(dict):
    """Each successor of a pair in a reach set -> the pairs of the set
    that step into it. ``rewinds`` holds ``wp``'s one-side rewinds of
    these steps as it builds them: for each (side, t_src, k), every
    template the read ends at, with its rewind (``wp.rewinds``). ``bodies`` is
    the check's table of what it derives from each body (``Bodies``);
    like the rest, it lives as long as the check."""

    __slots__ = ("rewinds", "bodies")

    def __init__(self):
        super().__init__()
        self.rewinds: dict = {}
        self.bodies = Bodies()


def predecessors(reach: ReachSet, aut: Automaton, leaps: bool = True) -> Predecessors:
    """Each successor of a pair in ``reach`` -> the pairs of ``reach`` that
    step into it, in ``reach.sorted()`` order. Pairs nothing steps into
    are absent. Reads the successors ``reach_fixpoint`` kept, when they
    are of the same relation, and releases them."""
    known = reach._succ[1] if reach._succ and reach._succ[0] == leaps else {}
    reach._succ = None
    preds = Predecessors()
    for p in reach.sorted():
        step = known.get(p)
        for q in successors(p, aut, leaps) if step is None else step:
            preds.setdefault(q, []).append(p)
    return preds


def all_template_pairs(
    aut: Automaton, left_states: Iterable[str], right_states: Iterable[str]
) -> ReachSet:
    """The unpruned pair space: every valid left template against every
    valid right template (used when reach pruning is disabled)."""
    lts = templates_of(aut, list(left_states))
    rts = templates_of(aut, list(right_states))
    return ReachSet(frozenset(TemplatePair(l, r) for l in lts for r in rts))
