"""Symbolic equivalence checking by weakest-precondition saturation.

Starting from the requirement that no reachable template pair mixes
acceptance with non-acceptance, the engine grows a candidate relation R
by popping proof obligations from a FIFO frontier: an obligation already
entailed by R (at its guard) is skipped, otherwise it joins R and its
weakest preconditions join the frontier. On a drained frontier the
verdict reduces to whether the initial configurations satisfy R.

A failure is never interpreted: a solver failure, the iteration bound or
any other exception aborts the run with an Inconclusive result whose
reason names the exception.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Optional

from .core import Automaton, Record, disjoint_sum
from .confrel import (
    BOT,
    TOP,
    Formula,
    Guarded,
    T_ACCEPT,
    Template,
    Top,
    canonical_vars,
    guard,
    render,
    render_guarded,
    simplify,
)
from .reach import (
    ReachSet,
    TemplatePair,
    all_template_pairs,
    predecessors,
    reach_fixpoint,
)
from .smt import GuardContext, GuardRelation, SolverConfig, decide_entailment
from .wp import FreshVars, wp

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


class EngineError(Exception):
    """The saturation loop exceeded its iteration safety bound."""


class Stats(Record):
    __slots__ = (
        "iterations", "skips", "extends", "solver_calls", "wall_time",
        "contexts", "instances", "extra_solves",
    )

    def __init__(
        self,
        iterations: int = 0,
        skips: int = 0,
        extends: int = 0,
        solver_calls: int = 0,
        wall_time: float = 0.0,
        contexts: int = 0,  # incremental solvers (GuardContexts) the check built
        instances: int = 0,  # premise instances they asserted
        extra_solves: int = 0,  # their solve() calls beyond one per query
    ):
        self.iterations, self.skips, self.extends = iterations, skips, extends
        self.solver_calls, self.wall_time = solver_calls, wall_time
        self.contexts, self.instances, self.extra_solves = contexts, instances, extra_solves

    def summary(self) -> str:
        return (
            f"iterations={self.iterations} skips={self.skips} "
            f"extends={self.extends} solver_calls={self.solver_calls} "
            f"contexts={self.contexts} instances={self.instances} "
            f"extra_solves={self.extra_solves} wall_time={self.wall_time:.2f}s"
        )


class Entry(Record):
    __slots__ = ("guarded", "origin")

    def __init__(self, guarded: Guarded, origin: str):
        self.guarded = guarded
        self.origin = origin  # "init", "given", or "wp of #<k>"


class Witness(Record):
    """The accumulated relation, with per-conjunct provenance."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[list[Entry]] = None):
        self.entries = [] if entries is None else entries

    def formulas(self) -> list[Guarded]:
        return [e.guarded for e in self.entries]

    def to_text(self, header: str = "") -> str:
        lines = [f"; {ln}" for ln in header.splitlines()]
        for k, e in enumerate(self.entries):
            lines.append(f"#{k} {render_guarded(e.guarded)}  ({e.origin})")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, meta: Optional[dict] = None) -> str:
        import json  # here, so that only a check writing a JSON witness loads it

        return json.dumps(
            {
                "meta": meta or {},
                "relation": [
                    {
                        "index": k,
                        "left": str(e.guarded.t1),
                        "right": str(e.guarded.t2),
                        "body": render(e.guarded.body),
                        "origin": e.origin,
                    }
                    for k, e in enumerate(self.entries)
                ],
            },
            indent=2,
        )


class Result(Record):
    __slots__ = ("verdict", "reason", "witness", "stats", "reach")

    def __init__(
        self,
        verdict: str,
        reason: str = "",
        witness: Optional[Witness] = None,
        stats: Optional[Stats] = None,
        reach: Optional[ReachSet] = None,
    ):
        self.verdict, self.reason, self.witness = verdict, reason, witness
        self.stats = Stats() if stats is None else stats
        self.reach = reach


def mixed_acceptance(p: TemplatePair) -> bool:
    return (p.left == T_ACCEPT) != (p.right == T_ACCEPT)


def init_relation(reach: ReachSet) -> list[Guarded]:
    """One falsum obligation per reachable pair mixing acceptance."""
    return [
        guard(p.left, p.right, BOT)
        for p in reach.sorted()
        if mixed_acceptance(p)
    ]


def final_check(
    given: GuardRelation,
    rel: Iterable[Guarded],
    aut: Automaton,
    config: SolverConfig,
) -> Optional[Guarded]:
    """The first conjunct of ``rel``, the relation's conjuncts at the
    initial templates, that some initial configuration pair satisfying
    ``given`` (phi_extra, if any) violates, or None. Conjuncts guarded
    elsewhere hold vacuously there, so one entailment per conjunct of
    ``rel`` suffices; the internal backend decides all in one context."""
    if config.backend == "internal" and rel:
        given.context = GuardContext(aut, given.t1, given.t2)
    for r in rel:
        if not decide_entailment(given, r, aut, config):
            return r
    return None


def _reach_for(
    aut: Automaton, t1: Template, t2: Template, leaps: bool, use_reach: bool
) -> ReachSet:
    seed = TemplatePair(t1, t2)
    if use_reach:
        return reach_fixpoint({seed}, aut, leaps=leaps)
    names = [q for q, _ in aut.states]
    full = all_template_pairs(aut, names, names)
    return ReachSet(full.pairs | {seed}, frozenset({seed}))


def pre_bisimulation(
    aut: Automaton,
    q1: str,
    q2: str,
    config: Optional[SolverConfig] = None,
    leaps: bool = True,
    use_reach: bool = True,
    phi_extra: Formula = TOP,
    i_extra: Iterable[Guarded] = (),
    debug_check: Optional[Callable[[list[Guarded], list[Guarded]], None]] = None,
) -> Result:
    """Worklist saturation over two start states of one automaton.

    phi_extra strengthens the initial formula (pure, interpreted at the
    initial templates); i_extra adds guarded obligations to the initial
    frontier. Both default to the plain equivalence query.
    """
    config = config or SolverConfig()
    t_init1, t_init2 = Template(q1, 0), Template(q2, 0)
    stats = Stats()
    start = time.monotonic()
    reach = _reach_for(aut, t_init1, t_init2, leaps, use_reach)
    preds = predecessors(reach, aut, leaps)
    witness = Witness()
    # R indexed by guard: an entailment only reads the goal's own guard
    by_guard: dict[tuple[Template, Template], GuardRelation] = {}
    # phi_extra as the premise of the final check
    given = GuardRelation(t_init1, t_init2)
    fresh = FreshVars()
    frontier: deque[tuple[Guarded, str]] = deque()
    enqueued: set[Guarded] = set()

    def push(g: Guarded, origin: str) -> None:
        # Fresh variables are formula-local, so renaming them canonically
        # makes alpha-equivalent obligations syntactically equal: repeated
        # preconditions of a loop dedup here instead of growing R forever.
        g = Guarded(g.t1, g.t2, canonical_vars(g.body))
        if g not in enqueued:
            enqueued.add(g)
            frontier.append((g, origin))

    # wp simplifies the obligations it makes; these are simplified here,
    # once, and no later stage simplifies an obligation again
    for g in init_relation(reach):
        push(g, "init")
    for g in i_extra:
        push(Guarded(g.t1, g.t2, simplify(g.body)), "given")
    phi_extra = simplify(phi_extra)
    if not isinstance(phi_extra, Top):
        given.append(Guarded(t_init1, t_init2, phi_extra))
    bound = (len(reach) + len(frontier) + 1) * (len(reach) + 1) * 20

    def done(result: Result) -> Result:
        stats.wall_time = time.monotonic() - start
        for rel in [*by_guard.values(), given]:
            if rel.context is not None:
                stats.contexts += 1
                stats.instances += rel.context.instances
                stats.extra_solves += rel.context.extra_solves
        result.stats = stats
        result.witness = witness
        result.reach = reach
        return result

    try:
        while frontier:
            stats.iterations += 1
            if stats.iterations > bound:
                raise EngineError(
                    f"no saturation after {stats.iterations} iterations"
                )
            phi, origin = frontier.popleft()
            stats.solver_calls += 1
            same_guard = by_guard.get((phi.t1, phi.t2))
            if same_guard is None:
                same_guard = by_guard[phi.t1, phi.t2] = GuardRelation(phi.t1, phi.t2)
            if decide_entailment(same_guard, phi, aut, config):
                stats.skips += 1
            else:
                index = len(witness.entries)
                witness.entries.append(Entry(phi, origin))
                same_guard.append(phi)
                stats.extends += 1
                for g in wp(phi, reach, aut, fresh, leaps=leaps, preds=preds):
                    push(g, f"wp of #{index}")
            if debug_check is not None:
                debug_check(witness.formulas(), [g for g, _ in frontier])
        initial = by_guard.get((t_init1, t_init2), [])
        stats.solver_calls += len(initial)
        bad = final_check(given, initial, aut, config)
        if bad is None:
            return done(Result(EQUIVALENT))
        k = witness.formulas().index(bad)
        why = f"initial configurations violate #{k}: {render_guarded(bad)}"
        return done(Result(NOT_EQUIVALENT, reason=why))
    except Exception as exc:  # solver trouble, the iteration bound, deep recursion
        return done(Result(INCONCLUSIVE, reason=f"{type(exc).__name__}: {exc}"))


def check_states(
    aut: Automaton,
    q1: str,
    q2: str,
    config: Optional[SolverConfig] = None,
    leaps: bool = True,
    use_reach: bool = True,
) -> Result:
    """Decide language equivalence of two start states of one automaton."""
    return pre_bisimulation(
        aut, q1, q2, config=config, leaps=leaps, use_reach=use_reach
    )


def check_equivalence(
    a1: Automaton,
    q1: str,
    a2: Automaton,
    q2: str,
    config: Optional[SolverConfig] = None,
    leaps: bool = True,
    use_reach: bool = True,
) -> Result:
    """Decide language equivalence of states of two separate automata.

    Initial stores are unconstrained on both sides, so Equivalent means
    the languages agree for every pair of initial stores.
    """
    total, left, right = disjoint_sum(a1, a2)
    return check_states(
        total,
        left.states[q1],
        right.states[q2],
        config=config,
        leaps=leaps,
        use_reach=use_reach,
    )


def check_with_relation(
    a1: Automaton,
    q1: str,
    a2: Automaton,
    q2: str,
    phi_extra: Formula = TOP,
    i_extra: Iterable[Guarded] = (),
    config: Optional[SolverConfig] = None,
    leaps: bool = True,
    use_reach: bool = True,
) -> Result:
    """The saturation loop under a strengthened initial relation.

    phi_extra (pure, over the summed automaton's headers at the initial
    templates) restricts which initial store pairs must satisfy the
    computed relation; i_extra seeds extra obligations. Equivalent then
    means: the computed relation is a bisimulation candidate and every
    initial pair satisfying phi_extra is in it — what that implies about
    the original automata is up to the chosen relation.
    """
    total, left, right = disjoint_sum(a1, a2)
    return pre_bisimulation(
        total,
        left.states[q1],
        right.states[q2],
        config=config,
        leaps=leaps,
        use_reach=use_reach,
        phi_extra=phi_extra,
        i_extra=i_extra,
    )
