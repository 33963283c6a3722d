"""Symbolic equivalence checking by weakest-precondition saturation.

Starting from the requirement that no reachable template pair mixes
acceptance with non-acceptance, the engine grows a candidate relation R
by popping proof obligations from a FIFO frontier: an obligation already
entailed by R (at its guard) is skipped, otherwise it joins R and its
weakest preconditions join the frontier.

Every obligation is necessary for equivalence, so the check stops at the
first one at the initial guard that the initial configurations (phi_extra)
violate: simulation refutes it as it is pushed, or an exact entailment
fails as it joins R. Either way it is the witness's last entry, and the
verdict is NotEquivalent. A drained frontier means Equivalent.

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
    render_body,
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
from .smt import GuardRelation, SolverConfig, decide_entailment, fold, refuted
from .wp import canonical_vars, wp

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


class EngineError(Exception):
    """The saturation loop exceeded its iteration safety bound."""


class Stats(Record):
    __slots__ = (
        "iterations", "skips", "extends", "solver_calls", "wall_time",
        "refuted", "folded", "closed_solves", "contexts", "instances", "extra_solves",
    )

    def __init__(
        self,
        iterations: int = 0,
        skips: int = 0,
        extends: int = 0,
        solver_calls: int = 0,  # queries a solver answered: a context or enum
        wall_time: float = 0.0,
        refuted: int = 0,  # queries answered by random simulation
        contexts: int = 0,  # incremental solvers (GuardContexts) the check built
        instances: int = 0,  # premise instances they asserted
        extra_solves: int = 0,  # their solve() calls beyond one per query
        folded: int = 0,  # obligations with a closed body, decided as made
        closed_solves: int = 0,  # closed bodies among them decided by SAT
    ):
        self.iterations, self.skips, self.extends = iterations, skips, extends
        self.solver_calls, self.wall_time = solver_calls, wall_time
        self.refuted, self.folded, self.closed_solves = refuted, folded, closed_solves
        self.contexts, self.instances, self.extra_solves = contexts, instances, extra_solves

    def summary(self) -> str:
        return (
            f"iterations={self.iterations} skips={self.skips} "
            f"extends={self.extends} refuted={self.refuted} folded={self.folded} "
            f"closed_solves={self.closed_solves} "
            f"solver_calls={self.solver_calls} contexts={self.contexts} instances={self.instances} "
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
                        "body": render_body(e.guarded),
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
    return [Guarded(p.left, p.right, BOT) for p in reach.sorted() if mixed_acceptance(p)]


def final_check(
    given: GuardRelation,
    rel: Iterable[Guarded],
    aut: Automaton,
    config: SolverConfig,
) -> Optional[Guarded]:
    """The first of ``rel``, conjuncts at the initial templates, that some
    initial configuration pair satisfying ``given`` (phi_extra, if any)
    violates, or None. The engine calls it on each conjunct as it joins R
    at the initial guard, so a saturated R holds on every initial pair:
    conjuncts guarded elsewhere hold vacuously there. Each conjunct is one
    exact entailment against ``given``."""
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
    return ReachSet(all_template_pairs(aut, names, names).pairs | {seed})


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
    t_init1, t_init2 = initial = Template(q1, 0), Template(q2, 0)
    stats = Stats()
    start = time.monotonic()
    reach = _reach_for(aut, t_init1, t_init2, leaps, use_reach)
    preds = predecessors(reach, aut, leaps)
    witness = Witness()
    # what the check derives from each body (its lanes, canonical form and,
    # for a closed body, its validity), shared by wp and every guard
    bodies = preds.bodies

    def relation(t1: Template, t2: Template) -> GuardRelation:
        rel = GuardRelation(t1, t2)
        rel.bodies = bodies
        return rel

    # R indexed by guard: an entailment only reads the goal's own guard
    by_guard: dict[tuple[Template, Template], GuardRelation] = {}
    # phi_extra, the premise every obligation at the initial guard is
    # checked against
    given = relation(t_init1, t_init2)
    frontier: deque[tuple[Guarded, str]] = deque()
    enqueued: set[Guarded] = set()

    def done(result: Result) -> Result:
        stats.wall_time = time.monotonic() - start
        stats.folded, stats.closed_solves = bodies.folded, bodies.closed_solves
        for rel in [*by_guard.values(), given]:
            stats.solver_calls += rel.solver_calls
            stats.refuted += rel.refuted
            if rel.context is not None:
                stats.contexts += 1
                stats.instances += rel.context.instances
                stats.extra_solves += rel.context.extra_solves
        result.stats = stats
        result.witness = witness
        result.reach = reach
        return result

    def violation() -> Result:
        # the last entry of the witness is the obligation phi_extra violates
        k = len(witness.entries) - 1
        bad = render_guarded(witness.entries[k].guarded)
        why = f"initial configurations violate #{k}: {bad}"
        return done(Result(NOT_EQUIVALENT, reason=why))

    def push(g: Guarded, origin: str) -> bool:
        """Enqueue ``g`` unless it was enqueued before. A closed body, one
        that reads no configuration bit, is decided first: a valid one is
        dropped, as ``wp`` drops true, and any other becomes false. An
        obligation at the initial guard that simulation refutes under
        ``given`` is instead appended to the witness, and push returns
        True."""
        g = fold(g, bodies, config)
        if g is None:
            return False
        # Obligations arrive simplified, with canonical variable names, so
        # alpha-equivalent ones are equal: repeated preconditions of a loop
        # dedup here instead of growing R forever. A formula's hash is not
        # cached, so the set is probed once, by its size.
        n = len(enqueued)
        enqueued.add(g)
        if len(enqueued) == n:
            return False
        if (g.t1, g.t2) == initial and refuted(given, g, aut, config):
            witness.entries.append(Entry(g, origin))
            return True
        frontier.append((g, origin))
        return False

    try:
        # every obligation at the initial guard is checked against phi_extra
        # as it is pushed, so phi_extra is in place before the first push
        phi_extra = simplify(phi_extra)
        if not isinstance(phi_extra, Top):
            given.append(Guarded(t_init1, t_init2, phi_extra))
        # wp makes its obligations canonical; these are made so here, once,
        # and no later stage simplifies or renames an obligation again
        for g in init_relation(reach):
            if push(g, "init"):
                return violation()
        for g in i_extra:
            g = Guarded(g.t1, g.t2, canonical_vars(simplify(g.body)))
            if push(g, "given"):
                return violation()
        bound = (len(reach) + len(frontier) + 1) * (len(reach) + 1) * 20
        while frontier:
            stats.iterations += 1
            if stats.iterations > bound:
                raise EngineError(
                    f"no saturation after {stats.iterations} iterations"
                )
            phi, origin = frontier.popleft()
            same_guard = by_guard.get((phi.t1, phi.t2))
            if same_guard is None:
                same_guard = by_guard[phi.t1, phi.t2] = relation(phi.t1, phi.t2)
            if decide_entailment(same_guard, phi, aut, config):
                stats.skips += 1
            else:
                index = len(witness.entries)
                witness.entries.append(Entry(phi, origin))
                same_guard.append(phi)
                stats.extends += 1
                if (phi.t1, phi.t2) == initial and (
                    final_check(given, [phi], aut, config) is not None
                ):
                    return violation()
                for g in wp(phi, preds, aut, leaps):
                    if push(g, f"wp of #{index}"):
                        return violation()
            if debug_check is not None:
                debug_check(witness.formulas(), [g for g, _ in frontier])
        return done(Result(EQUIVALENT))
    except Exception as exc:  # solver trouble, the iteration bound, deep recursion
        return done(Result(INCONCLUSIVE, reason=f"{type(exc).__name__}: {exc}"))


def check_equivalence(
    a1: Automaton,
    q1: str,
    a2: Automaton,
    q2: str,
    config: Optional[SolverConfig] = None,
    leaps: bool = True,
    use_reach: bool = True,
    phi_extra: Formula = TOP,
    i_extra: Iterable[Guarded] = (),
) -> Result:
    """Decide language equivalence of states of two separate automata.

    Initial stores are unconstrained on both sides, so Equivalent means
    the languages agree for every pair of initial stores. phi_extra and
    i_extra, over the disjoint sum's names, strengthen the initial
    relation as in ``pre_bisimulation``; what Equivalent then implies
    about the original automata is up to the chosen relation.
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
