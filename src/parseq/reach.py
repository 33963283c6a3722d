"""Template-level abstract interpretation of the step function.

Templates abstract configurations to (state, buffer length); sigma
over-approximates single-bit successors, sigma_leap its multi-bit
variant, reach_fixpoint closes a seed set of template pairs, and
predecessors inverts the chosen step relation over a closed set.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Optional

from .core import RESULTS, Automaton, Record, select_targets
from .confrel import T_REJECT, Template, templates_of


class TemplatePair(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Template, right: Template):
        self.left, self.right = left, right

    def __eq__(self, o):
        return type(o) is TemplatePair and (self.left, self.right) == (o.left, o.right)

    def __hash__(self): return hash((self.left, self.right))


def sigma(t: Template, aut: Automaton) -> set[Template]:
    """Abstract single-bit successors of a template."""
    if t.state in RESULTS:
        return {T_REJECT}
    size = aut.opsize_of(t.state)
    if t.buflen + 1 < size:
        return {Template(t.state, t.buflen + 1)}
    targets = select_targets(aut.state(t.state).trans)
    return {Template(q, 0) for q in targets}


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


def sigma_leap(p: TemplatePair, aut: Automaton) -> set[TemplatePair]:
    k = leap_size(p.left, p.right, aut)
    return {
        TemplatePair(l, r)
        for l in sigma_side(p.left, k, aut)
        for r in sigma_side(p.right, k, aut)
    }


class ReachSet(Record):
    __slots__ = ("pairs", "seeds")

    def __init__(self, pairs: frozenset[TemplatePair], seeds: frozenset[TemplatePair]):
        self.pairs, self.seeds = pairs, seeds

    def __contains__(self, p: TemplatePair) -> bool:
        return p in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted(self) -> list[TemplatePair]:
        return sorted(self.pairs, key=lambda p: (str(p.left), str(p.right)))

    def dump(self) -> str:
        return "\n".join(f"{p.left} {p.right}" for p in self.sorted())


def successors(
    p: TemplatePair, aut: Automaton, leaps: bool = True
) -> set[TemplatePair]:
    """The step relation of a check: one leap, or one bit on both sides."""
    if leaps:
        return sigma_leap(p, aut)
    return {
        TemplatePair(l, r) for l in sigma(p.left, aut) for r in sigma(p.right, aut)
    }


def reach_fixpoint(
    seeds: Iterable[TemplatePair], aut: Automaton, leaps: bool = True
) -> ReachSet:
    """Least template-pair set containing the seeds and closed under the
    chosen successor relation."""
    seeds = frozenset(seeds)
    seen: set[TemplatePair] = set(seeds)
    worklist = deque(seeds)
    while worklist:
        fresh = successors(worklist.popleft(), aut, leaps) - seen
        seen.update(fresh)
        worklist.extend(fresh)
    return ReachSet(frozenset(seen), seeds)


Predecessors = dict[TemplatePair, list[TemplatePair]]


def predecessors(reach: ReachSet, aut: Automaton, leaps: bool = True) -> Predecessors:
    """Each successor of a pair in ``reach`` -> the pairs of ``reach`` that
    step into it, in ``reach.sorted()`` order. Pairs nothing steps into
    are absent."""
    preds: Predecessors = defaultdict(list)
    for p in reach.sorted():
        for q in successors(p, aut, leaps):
            preds[q].append(p)
    return dict(preds)


def all_template_pairs(
    aut: Automaton, left_states: Iterable[str], right_states: Iterable[str]
) -> ReachSet:
    """The unpruned pair space: every valid left template against every
    valid right template (used when reach pruning is disabled)."""
    lts = templates_of(aut, list(left_states))
    rts = templates_of(aut, list(right_states))
    pairs = frozenset(TemplatePair(l, r) for l in lts for r in rts)
    return ReachSet(pairs, pairs)
