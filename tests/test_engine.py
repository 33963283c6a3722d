"""The saturation loop: verdicts, witnesses, failure handling."""

import io
import json
import re
import time
from collections import Counter

import pytest

from _gen import random_automaton, random_pair
from conftest import FIXTURE_PAIRS, load_fixture
from parseq.core import Automaton, Extract, Goto, State, disjoint_sum
from parseq.confrel import (
    BOT,
    LEFT,
    RIGHT,
    TOP,
    Eq,
    Guarded,
    Not,
    Or,
    Template,
    T_ACCEPT,
    T_REJECT,
    hdr,
    render_guarded,
    var,
    var_widths,
)
import parseq.engine
import parseq.sat
import parseq.smt
from parseq.engine import (
    EQUIVALENT,
    INCONCLUSIVE,
    EngineError,
    NOT_EQUIVALENT,
    Witness,
    check_equivalence,
    init_relation,
    mixed_acceptance,
    pre_bisimulation,
)
from parseq.frontend import parse_source
from parseq.reach import ReachSet, TemplatePair
from parseq.smt import GuardRelation, SolverConfig, SolverFailure, decide_entailment
from parseq.solver_cli import run_script


def chain_automaton():
    return Automaton(
        (("h", 1),),
        (
            ("A", State((Extract("h"),), Goto("B"))),
            ("B", State((Extract("h"),), Goto("accept"))),
        ),
    )


class TestInitRelation:
    def test_mixed_acceptance(self):
        t = Template("A", 0)
        assert mixed_acceptance(TemplatePair(T_ACCEPT, T_REJECT))
        assert mixed_acceptance(TemplatePair(t, T_ACCEPT))
        assert not mixed_acceptance(TemplatePair(T_ACCEPT, T_ACCEPT))
        assert not mixed_acceptance(TemplatePair(t, T_REJECT))

    def test_one_falsum_per_mixed_pair(self):
        pairs = frozenset(
            {
                TemplatePair(T_ACCEPT, T_REJECT),
                TemplatePair(T_ACCEPT, T_ACCEPT),
                TemplatePair(Template("A", 0), T_ACCEPT),
            }
        )
        rel = init_relation(ReachSet(pairs))
        assert len(rel) == 2
        assert all(g.body == BOT for g in rel)


class TestVerdicts:
    def test_identity(self, rng, internal_config):
        for _ in range(5):
            aut = random_automaton(rng)
            q = aut.states[0][0]
            res = check_equivalence(aut, q, aut, q, config=internal_config)
            assert res.verdict == EQUIVALENT

    def test_same_automaton_both_states(self, internal_config):
        aut = chain_automaton()
        res = pre_bisimulation(
            disjoint_sum(aut, aut)[0], "l:A", "r:B", config=internal_config
        )
        assert res.verdict == NOT_EQUIVALENT
        assert res.reason

    def test_fixture_verdicts(self, internal_config):
        for lf, lq, rf, rq, want in FIXTURE_PAIRS:
            res = check_equivalence(
                load_fixture(lf), lq, load_fixture(rf), rq, config=internal_config
            )
            assert res.verdict == want, (lf, rf, res.reason)

    def test_backends_agree(self, rng):
        for _ in range(20):
            a1 = random_automaton(rng)
            a2 = random_automaton(rng)
            q1, q2 = a1.states[0][0], a2.states[0][0]
            verdicts = {
                check_equivalence(
                    a1, q1, a2, q2, config=SolverConfig(backend=b)
                ).verdict
                for b in ("enum", "internal")
            }
            assert len(verdicts) == 1


class TestWitness:
    def test_witness_is_deterministic(self, internal_config):
        left = load_fixture("mpls_ref_small")
        right = load_fixture("mpls_vec_small")
        texts = set()
        for _ in range(3):
            res = check_equivalence(
                left, "q1", right, "q3", config=SolverConfig(backend="internal")
            )
            texts.add(res.witness.to_text("hdr"))
        assert len(texts) == 1
        assert next(iter(texts)).startswith("; hdr\n#0 ")

    def test_witness_json_shape(self, internal_config):
        res = check_equivalence(
            chain_automaton(), "A", chain_automaton(), "A", config=internal_config
        )
        doc = json.loads(res.witness.to_json({"query": "probe"}))
        assert doc["meta"]["query"] == "probe"
        assert all(
            {"index", "left", "right", "body", "origin"} <= set(e) for e in doc["relation"]
        )
        # both renderings read each buffer's width from the entry's guard:
        # a segment covering it prints as the bare name (only the small
        # pair's witnesses have one)
        whole = 0
        for left, right in [("mpls_ref", "mpls_vec"), ("mpls_ref_small", "mpls_vec_small")]:
            for leaps in (True, False):
                res = check_equivalence(
                    load_fixture(left), "q1", load_fixture(right), "q3",
                    config=internal_config, leaps=leaps,
                )
                doc = json.loads(res.witness.to_json())
                lines = res.witness.to_text().splitlines()
                assert len(lines) == len(doc["relation"]) > 20
                for line, e in zip(lines, doc["relation"]):
                    assert line == f"#{e['index']} [{e['left']} {e['right']}] {e['body']}  ({e['origin']})"
                    whole += len(re.findall(r"buf[<>](?!\[)", e["body"]))
        assert whole > 10

    def test_empty_witness_renders_empty(self):
        assert Witness().to_text() == ""


class TestFailureHandling:
    def test_solver_failure_is_inconclusive(self, monkeypatch, internal_config):
        def unknown(solver):
            raise SolverFailure("solver returned unknown")

        monkeypatch.setattr(parseq.sat.Solver, "solve", unknown)
        res = check_equivalence(
            load_fixture("mpls_ref_small"), "q1", load_fixture("mpls_vec_small"), "q3",
            config=internal_config,
        )
        assert res.verdict == INCONCLUSIVE
        assert res.reason == "SolverFailure: solver returned unknown"

    def test_crashing_solver_is_inconclusive(self, monkeypatch, internal_config):
        def crash(solver):
            raise RuntimeError("probe")

        monkeypatch.setattr(parseq.sat.Solver, "solve", crash)
        res = check_equivalence(
            load_fixture("mpls_ref_small"), "q1", load_fixture("mpls_vec_small"), "q3",
            config=internal_config,
        )
        assert res.verdict == INCONCLUSIVE
        assert res.reason == "RuntimeError: probe"

    @pytest.mark.parametrize("exc", [RecursionError, EngineError, ValueError])
    def test_internal_exception_is_inconclusive(self, monkeypatch, internal_config, exc):
        def broken_wp(*args, **kwargs):
            raise exc("probe")

        monkeypatch.setattr(parseq.engine, "wp", broken_wp)
        res = check_equivalence(
            chain_automaton(), "A", chain_automaton(), "B", config=internal_config
        )
        assert res.verdict == INCONCLUSIVE
        assert exc.__name__ in res.reason

    def test_stats_are_populated(self, internal_config):
        res = check_equivalence(
            chain_automaton(), "A", chain_automaton(), "A", config=internal_config
        )
        s = res.stats
        assert s.iterations == s.skips + s.extends
        # each query is refuted by simulation or answered by a solver
        assert s.solver_calls + s.refuted >= s.iterations
        assert "iterations=" in s.summary()


class TestLoopInvariants:
    def test_debug_check_sees_monotone_relation(self, rng, enum_config):
        aut = random_automaton(rng)
        total, left, right = disjoint_sum(aut, aut)
        q = left.states[aut.states[0][0]]
        p = right.states[aut.states[0][0]]
        sizes = []

        def dbg(rel, frontier):
            # R only grows, and frontier entries are deduplicated
            sizes.append(len(rel))
            assert len(frontier) == len(set(frontier))

        res = pre_bisimulation(total, q, p, config=enum_config, debug_check=dbg)
        assert res.verdict == EQUIVALENT
        assert sizes == sorted(sizes)

    def test_no_reach_visits_superset(self, rng, enum_config):
        for _ in range(10):
            a1 = random_automaton(rng)
            a2 = random_automaton(rng)
            q1, q2 = a1.states[0][0], a2.states[0][0]
            pruned = check_equivalence(
                a1, q1, a2, q2, config=enum_config, use_reach=True
            )
            full = check_equivalence(
                a1, q1, a2, q2, config=enum_config, use_reach=False
            )
            assert pruned.verdict == full.verdict
            assert pruned.reach.pairs <= full.reach.pairs


    def test_entailments_see_only_the_goals_guard(self, monkeypatch, internal_config):
        real = parseq.engine.decide_entailment
        seen = []

        def recording(rel, goal, aut, config):
            rel = list(rel)
            seen.append(len(rel))
            assert all((r.t1, r.t2) == (goal.t1, goal.t2) for r in rel)
            return real(rel, goal, aut, config)

        monkeypatch.setattr(parseq.engine, "decide_entailment", recording)
        a1, a2 = load_fixture("mpls_ref_small"), load_fixture("mpls_vec_small")
        res = check_equivalence(a1, "q1", a2, "q3", config=internal_config)
        assert res.verdict == "Equivalent"
        # every saturation query, and one final query per conjunct at the
        # initial guard
        _, left, right = disjoint_sum(a1, a2)
        init = (Template(left.states["q1"], 0), Template(right.states["q3"], 0))
        finals = [g for g in res.witness.formulas() if (g.t1, g.t2) == init]
        assert len(seen) == res.stats.iterations + len(finals) and max(seen) > 0

    def test_premises_are_instantiated_from_models(self, internal_config):
        # expanding every valuation asserted 310 instances on this check
        a1, a2 = load_fixture("ipopt_generic"), load_fixture("ipopt_timestamp")
        res = check_equivalence(
            a1, "parse_0", a2, "parse_0", config=internal_config, leaps=False
        )
        assert res.verdict == "Equivalent"
        assert 0 < res.stats.instances < 310
        assert res.stats.extra_solves > 0
        assert f"instances={res.stats.instances} " in res.stats.summary()


class TestWithRelation:
    def test_empty_extras_match_plain_check(self, internal_config):
        aut = chain_automaton()
        plain = check_equivalence(aut, "A", aut, "A", config=internal_config)
        total, left, right = disjoint_sum(aut, aut)
        seeded = pre_bisimulation(
            total, left.states["A"], right.states["A"], config=internal_config,
            phi_extra=TOP, i_extra=[],
        )
        assert plain.verdict == seeded.verdict == EQUIVALENT

    def test_contradictory_filter_is_vacuously_equivalent(self, internal_config):
        aut = chain_automaton()
        res = check_equivalence(
            aut, "A", aut, "B", phi_extra=BOT, config=internal_config
        )
        assert res.verdict == EQUIVALENT

    def test_extra_obligations_can_break_equivalence(self, internal_config):
        aut = chain_automaton()
        total, left, right = disjoint_sum(aut, aut)
        bad = Guarded(
            Template(left.states["A"], 0), Template(right.states["A"], 0), BOT
        )
        res = check_equivalence(
            aut, "A", aut, "A", i_extra=[bad], config=internal_config
        )
        assert res.verdict == NOT_EQUIVALENT
        # refuted as it is pushed, before the first iteration
        assert res.stats.iterations == 0

    def test_extra_obligation_entailed_by_the_filter_holds(self, internal_config):
        # phi_extra is in place before the first push, so an obligation at
        # the initial guard that it entails is not refuted
        aut = chain_automaton()
        total, left, right = disjoint_sum(aut, aut)
        t1, t2 = Template(left.states["A"], 0), Template(right.states["A"], 0)
        same = Eq(hdr("l:h", LEFT, 1), hdr("r:h", RIGHT, 1))
        res = check_equivalence(
            aut, "A", aut, "A", phi_extra=same, i_extra=[Guarded(t1, t2, same)],
            config=internal_config,
        )
        assert res.verdict == EQUIVALENT, res.reason


class TestEarlyStop:
    """A check stops at the first obligation at the initial guard that the
    initial configurations violate: refuted as it is pushed, or failing
    its exact check as it joins R."""

    @staticmethod
    def stop(monkeypatch, a1, q1, a2, q2, config, leaps=True):
        """Check a NotEquivalent pair; returns whether the violation was
        found as it was pushed."""
        real, calls = parseq.engine.wp, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parseq.engine, "wp", counting)
        res = check_equivalence(a1, q1, a2, q2, config=config, leaps=leaps)
        monkeypatch.setattr(parseq.engine, "wp", real)
        assert res.verdict == NOT_EQUIVALENT, res.reason
        entries = res.witness.entries
        k, last = len(entries) - 1, entries[-1].guarded
        assert res.reason == f"initial configurations violate #{k}: {render_guarded(last)}"
        total, left, right = disjoint_sum(a1, a2)
        assert (last.t1, last.t2) == (Template(left.states[q1], 0), Template(right.states[q2], 0))
        assert not decide_entailment([], last, total, SolverConfig(backend="enum"))
        # a pushed obligation that is refuted never joins R; a conjunct
        # that fails as it joins R gets no weakest precondition
        at_push = len(entries) == res.stats.extends + 1
        if at_push:
            assert len(calls) == res.stats.extends
        else:
            assert len(entries) == res.stats.extends
            assert len(calls) == res.stats.extends - 1
        # only the internal backend simulates
        if config.backend != "internal":
            assert not at_push and res.stats.refuted == 0
        return at_push

    @pytest.mark.parametrize("backend", ["internal", "enum"])
    @pytest.mark.parametrize("leaps", [True, False], ids=["leaps", "single-bit"])
    def test_fixture_pair(self, monkeypatch, backend, leaps):
        a1, a2 = load_fixture("sloppy_small"), load_fixture("strict_small")
        config = SolverConfig(backend=backend)
        self.stop(monkeypatch, a1, "parse_eth", a2, "parse_eth", config, leaps)

    def test_random_pairs(self, monkeypatch, rng, internal_config, enum_config):
        at_push = at_join = 0
        for _ in range(100):
            a1, q1, a2, q2 = random_pair(rng)
            if check_equivalence(a1, q1, a2, q2, config=internal_config).verdict == EQUIVALENT:
                continue
            for config in (internal_config, enum_config):
                pushed = self.stop(monkeypatch, a1, q1, a2, q2, config)
                at_push += pushed
                at_join += not pushed
        assert at_push > 20 and at_join > 20


class TestQuantifiedFilter:
    """A phi_extra with a 16-bit variable: for all x, l:h< = x implies
    r:h> = x, which means l:h< = r:h>."""

    SOURCE = (
        "state s { extract(g, 1); select(h[0:0]) { (0b0) => accept (0b1) => t } } "
        "state t { extract(h, 16); goto reject }"
    )

    def check(self, phi_extra):
        aut = parse_source(self.SOURCE)
        config = SolverConfig(backend="internal", timeout=60)
        start = time.monotonic()
        res = check_equivalence(aut, "s", aut, "s", phi_extra=phi_extra, config=config)
        return res, time.monotonic() - start

    @staticmethod
    def quantified(left, right):
        x = var("x", 16)
        return Or((Not(Eq(hdr(left, LEFT, 16), x)), Eq(hdr(right, RIGHT, 16), x)))

    def test_decided_in_one_context(self):
        res, elapsed = self.check(self.quantified("l:h", "r:h"))
        assert res.verdict == EQUIVALENT, res.reason
        assert elapsed < 1.0
        plain, _ = self.check(Eq(hdr("l:h", LEFT, 16), hdr("r:h", RIGHT, 16)))
        assert plain.verdict == EQUIVALENT
        # both decide their final check in a context; only one needs instances
        assert res.stats.contexts == plain.stats.contexts
        assert res.stats.instances > plain.stats.instances == 0

    def test_a_dump_changes_no_verdict(self, monkeypatch, tmp_path):
        """Dumping each query costs one more context per query, not a walk
        over x's valuations, and each dumped script answers under
        ``parseq-smt`` as the engine decided."""
        answers = []
        decide = parseq.engine.decide_entailment

        def recorded(rel, goal, aut, config):
            entailed = decide(rel, goal, aut, config)
            if goal.body != TOP:
                answers.append(entailed)
            return entailed

        monkeypatch.setattr(parseq.engine, "decide_entailment", recorded)
        aut = parse_source(self.SOURCE)
        config = SolverConfig(timeout=3, dump_dir=str(tmp_path))
        res = check_equivalence(
            aut, "s", aut, "s", phi_extra=self.quantified("l:h", "r:h"), config=config
        )
        assert res.verdict == EQUIVALENT, res.reason
        tokens = []
        for f in sorted(tmp_path.glob("*_query.smt2")):
            out = io.StringIO()
            assert run_script(f.read_text(), out) == 0
            tokens.append(out.getvalue().strip())
        assert tokens == ["unsat" if entailed else "sat" for entailed in answers]
        assert "unsat" in tokens

    def test_unknown_header_is_named(self):
        for phi in (self.quantified("h", "h"), Eq(hdr("h", LEFT, 16), hdr("h", RIGHT, 16))):
            res, _ = self.check(phi)
            assert res.verdict == INCONCLUSIVE
            assert res.reason == "InternalError: unknown header 'h'"


class TestCounters:
    def test_contexts_are_the_guards_holding_one(self, monkeypatch, internal_config):
        relations = []

        class Recorded(GuardRelation):
            __slots__ = ()

            def __init__(self, t1, t2):
                super().__init__(t1, t2)
                relations.append(self)

        monkeypatch.setattr(parseq.engine, "GuardRelation", Recorded)
        a1, a2 = load_fixture("ipopt_generic"), load_fixture("ipopt_timestamp")
        res = check_equivalence(
            a1, "parse_0", a2, "parse_0", config=internal_config, leaps=False
        )
        assert res.verdict == EQUIVALENT
        holding = sum(rel.context is not None for rel in relations)
        assert res.stats.contexts == holding >= 1
        assert f"contexts={holding} " in res.stats.summary()

    def test_closed_solves_are_the_wide_closed_decisions(self, monkeypatch, internal_config):
        wide = []
        real = parseq.smt.valid_closed

        def counting(body, config):
            if sum(var_widths(body).values()) > parseq.smt.INSTANCE_VAR_BITS:
                wide.append(body)
            return real(body, config)

        monkeypatch.setattr(parseq.smt, "valid_closed", counting)
        res = check_equivalence(
            load_fixture("sloppy"), "parse_eth", load_fixture("strict"), "parse_eth",
            config=internal_config,
        )
        assert res.verdict == NOT_EQUIVALENT
        assert res.stats.closed_solves == len(wide) > 0
        assert f"closed_solves={len(wide)} " in res.stats.summary()

    def test_simulation_refutes_without_translating(self, monkeypatch, internal_config):
        # to_fol_bv and check_sat serve --dump-smt, the other backends and
        # tests; the internal backend simulates, then blasts in contexts
        calls = []
        for name in ("to_fol_bv", "check_sat"):
            monkeypatch.setattr(parseq.smt, name, lambda *a, name=name, **k: calls.append(name))
        res = check_equivalence(
            load_fixture("mpls_ref"), "q1", load_fixture("mpls_vec"), "q3",
            config=internal_config, leaps=False,
        )
        assert res.verdict == EQUIVALENT and calls == []
        assert 0 < res.stats.refuted <= res.stats.extends
        assert f"refuted={res.stats.refuted} " in res.stats.summary()

    def test_solver_calls_are_the_contexts_queries(self, monkeypatch, internal_config):
        calls = []
        real = parseq.smt.GuardContext.entails

        def counting(self, rel, conclusion, deadline):
            calls.append(conclusion)
            return real(self, rel, conclusion, deadline)

        monkeypatch.setattr(parseq.smt.GuardContext, "entails", counting)
        res = check_equivalence(
            load_fixture("mpls_ref"), "q1", load_fixture("mpls_vec"), "q3",
            config=internal_config, leaps=False,
        )
        assert res.verdict == EQUIVALENT and res.stats.refuted > 0
        assert res.stats.solver_calls == len(calls) > 0
        assert f"solver_calls={len(calls)} " in res.stats.summary()

    def test_entailments_do_not_simplify_obligations(self, monkeypatch, internal_config):
        # wp simplifies each obligation once, where it makes it
        obligations, simplified = [], []
        decide, simplify = parseq.engine.decide_entailment, parseq.smt.simplify

        def recording_decide(rel, goal, aut, config):
            obligations.append(goal.body)
            obligations.extend(r.body for r in rel)
            return decide(rel, goal, aut, config)

        def counting_simplify(phi):
            simplified.append(phi)
            return simplify(phi)

        monkeypatch.setattr(parseq.engine, "decide_entailment", recording_decide)
        monkeypatch.setattr(parseq.smt, "simplify", counting_simplify)
        a1, a2 = load_fixture("ipopt_generic"), load_fixture("ipopt_timestamp")
        res = check_equivalence(
            a1, "parse_0", a2, "parse_0", config=internal_config, leaps=False
        )
        assert res.verdict == EQUIVALENT and res.stats.instances > 0
        # the premise instances are simplified, the obligations are not
        assert simplified
        made = {id(phi) for phi in obligations}
        assert sum(id(phi) in made for phi in simplified) == 0


class TestRepeatedChecks:
    def test_second_check_compares_no_automata(self, monkeypatch, internal_config):
        # Lookup tables belong to each automaton, so a check on a freshly
        # loaded pair equal to an earlier one never compares automata.
        def check_fresh_pair():
            res = check_equivalence(
                load_fixture("mpls_ref_small"), "q1",
                load_fixture("mpls_vec_small"), "q3",
                config=internal_config,
            )
            assert res.verdict == EQUIVALENT

        check_fresh_pair()
        calls = []
        eq = Automaton.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(Automaton, "__eq__", counting_eq)
        check_fresh_pair()
        assert len(calls) == 0


class TestSharedSimulation:
    def test_each_body_is_simulated_once_per_check(self, monkeypatch, internal_config):
        """Equal bodies share one Body, however often they were built; the
        check simulates each once as a goal and once as a premise, and
        every guard that queries it still checks its buffer reads."""
        simulated, queried = Counter(), Counter()
        simulate_body = parseq.smt.simulate_body
        simulation = GuardRelation.simulation

        def counted(body, aut, premise):
            simulated[body, premise] += 1
            return simulate_body(body, aut, premise)

        def query(rel, body, aut, premise=False):
            queried[body, rel.t1, rel.t2] += 1
            return simulation(rel, body, aut, premise)

        monkeypatch.setattr(parseq.smt, "simulate_body", counted)
        monkeypatch.setattr(GuardRelation, "simulation", query)
        res = check_equivalence(
            load_fixture("mpls_ref"), "q1", load_fixture("mpls_vec"), "q3",
            config=internal_config, leaps=False,
        )
        assert res.verdict == EQUIVALENT
        # 34 (body, role) pairs; a table keyed by object simulates one of
        # them 4 times
        assert len(simulated) > 30 and max(simulated.values()) == 1
        # 28 distinct bodies, queried at 812 (body, guard) pairs, 18 of them
        # at more than one guard; closed bodies are decided as they are made
        guards = Counter(body for body, _, _ in queried)
        assert set(guards) == {body for body, _ in simulated}
        assert sum(n > 1 for n in guards.values()) > 15 and len(queried) > 10 * len(guards)
