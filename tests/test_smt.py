"""Entailment pipeline: filtering, bitvector translation, backends."""

import math
from collections import Counter

import pytest

import parseq.smt
from _gen import (
    random_bit_expr,
    random_bits,
    random_entailment,
    random_formula,
    random_guard,
    random_wide_guard,
)
from parseq.core import Automaton, Configuration, Extract, Goto, State, Store
from parseq.confrel import (
    BOT,
    LEFT,
    RIGHT,
    TOP,
    And,
    Bits,
    Bottom,
    Eq,
    Guarded,
    Not,
    Or,
    Template,
    Var,
    buf,
    cat,
    denotes,
    eval_bit_expr,
    hdr,
    holds,
    lit,
    simplify,
    valuations,
    var,
    var_widths,
)
from parseq.lanes import LANES, SIM_VAR_BITS, Bodies, lane_bits, sat_name, simulate, simulate_body
from parseq.smt import (
    INSTANCE_VAR_BITS,
    Blaster,
    FilteredEntailment,
    GuardRelation,
    InternalError,
    SolverConfig,
    SolverFailure,
    _falsifying_valuation,
    check_sat,
    closed,
    decide_by_enumeration,
    decide_entailment,
    fold,
    serialize_smtlib,
    template_filter,
    to_fol_bv,
)


def tiny_automaton():
    return Automaton(
        (("h", 2),),
        (("Q0", State((Extract("h"),), Goto("accept"))),),
    )


T0 = Template("Q0", 0)
T1 = Template("Q0", 1)


class TestTemplateFilter:
    def test_keeps_matching_guards_only(self):
        g = Guarded(T0, T1, TOP)
        rel = [
            Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("0"))),
            Guarded(T1, T0, BOT),
            Guarded(T0, T0, BOT),
        ]
        ent = template_filter(rel, g)
        assert ent.premises == (rel[0].body,)
        assert ent.conclusion == TOP

    def test_no_matches_leaves_conclusion_alone(self):
        ent = template_filter([], Guarded(T0, T1, BOT))
        assert ent.premises == ()
        assert ent.conclusion == BOT


class TestTranslation:
    def test_premiseless_query_is_negated_conclusion(self):
        aut = tiny_automaton()
        ent = FilteredEntailment(T0, T0, (), TOP)
        out = to_fol_bv(ent, aut)
        assert len(out) == 1
        assert isinstance(out[0], Not)

    def test_zero_width_buffer_never_declared(self):
        aut = tiny_automaton()
        ent = FilteredEntailment(T0, T0, (), Eq(buf(LEFT, 0), buf(RIGHT, 0)))
        text = serialize_smtlib(to_fol_bv(ent, aut))
        assert "buf" not in text

    def test_premise_variables_are_expanded(self):
        # forall x. buf> = x  is unsatisfiable as a premise, so anything follows
        aut = tiny_automaton()
        ent = FilteredEntailment(
            T0, T1, (Eq(buf(RIGHT, 1), var("x")),), BOT
        )
        assert not check_sat(to_fol_bv(ent, aut))  # unsat == entailment valid
        assert decide_by_enumeration(ent, aut)

    def test_wide_premise_variable_expands_like_its_bits(self):
        # forall x:3. buf> = x  is unsatisfiable, like  forall a b c. buf> = a++b++c
        aut = Automaton(
            (("h", 4),),
            (("Q0", State((Extract("h"),), Goto("accept"))),),
        )
        t = Template("Q0", 3)
        wide = FilteredEntailment(t, t, (Eq(buf(RIGHT, 3), var("x", 3)),), BOT)
        split = FilteredEntailment(
            t, t, (Eq(buf(RIGHT, 3), var("a") + var("b") + var("c")),), BOT
        )
        for ent in (wide, split):
            assert not check_sat(to_fol_bv(ent, aut))
            assert decide_by_enumeration(ent, aut)

    def test_wide_premise_query_stays_small(self):
        # forall x:16. buf>[0:15] = x  is false; the query holds the few
        # instances a context needs to see it, not one per valuation
        aut = Automaton(
            (("h", 32),),
            (("Q0", State((Extract("h"),), Goto("accept"))),),
        )
        t = Template("Q0", 16)
        ent = FilteredEntailment(t, t, (Eq(buf(RIGHT, 16).slice(0, 15), var("x", 16)),), BOT)
        out = to_fol_bv(ent, aut)
        assert len(out) <= 4
        assert not check_sat(out)

    def test_wide_premise_entails_false_exactly(self, internal_config):
        # forall x:16. buf>[0:15] = x  is false; keeping x free would make
        # the premise satisfiable and the entailment fail
        aut = Automaton(
            (("h", 32),),
            (("Q0", State((Extract("h"),), Goto("accept"))),),
        )
        t = Template("Q0", 16)
        rel = GuardRelation(t, t)
        rel.append(Guarded(t, t, Eq(buf(RIGHT, 16).slice(0, 15), var("x", 16))))
        assert decide_entailment(rel, Guarded(t, t, BOT), aut, internal_config)
        assert rel.context.instances == 2

    def test_serialization_is_deterministic(self):
        aut = tiny_automaton()
        ent = FilteredEntailment(
            T1,
            T1,
            (Eq(buf(LEFT, 1), buf(RIGHT, 1)),),
            Eq(buf(LEFT, 1).slice(0, 0), buf(RIGHT, 1).slice(0, 0)),
        )
        a = serialize_smtlib(to_fol_bv(ent, aut), comment="probe")
        b = serialize_smtlib(to_fol_bv(ent, aut), comment="probe")
        assert a == b
        assert a.startswith("; probe\n(set-logic QF_BV)")

    def test_golden_smtlib_layout(self):
        aut = tiny_automaton()
        ent = FilteredEntailment(
            T1,
            T1,
            (Eq(buf(LEFT, 1), buf(RIGHT, 1)),),
            Eq(buf(LEFT, 1).slice(0, 0), buf(RIGHT, 1).slice(0, 0)),
        )
        assert serialize_smtlib(to_fol_bv(ent, aut)) == (
            "(set-logic QF_BV)\n"
            "(declare-const bufL (_ BitVec 1))\n"
            "(declare-const bufR (_ BitVec 1))\n"
            "(assert (= bufL bufR))\n"
            "(assert (not (= bufL bufR)))\n"
            "(check-sat)\n"
        )


class TestEnumeration:
    def test_slice_entailment_from_equality(self):
        # buf< = buf>  entails  buf<[0:0] = buf>[0:0]  at 2-bit buffers
        aut = Automaton(
            (("h", 3),),
            (("Q0", State((Extract("h"),), Goto("accept"))),),
        )
        t = Template("Q0", 2)
        ent = FilteredEntailment(
            t,
            t,
            (Eq(buf(LEFT, 2), buf(RIGHT, 2)),),
            Eq(buf(LEFT, 2).slice(0, 0), buf(RIGHT, 2).slice(0, 0)),
        )
        assert decide_by_enumeration(ent, aut)
        flipped = FilteredEntailment(
            t,
            t,
            (Eq(buf(LEFT, 2).slice(0, 0), buf(RIGHT, 2).slice(0, 0)),),
            Eq(buf(LEFT, 2), buf(RIGHT, 2)),
        )
        assert not decide_by_enumeration(flipped, aut)


def decide_as_the_engine(ent, aut, config):
    """``decide_entailment`` on a filtered entailment, its formulas
    simplified as the engine makes them."""
    t1, t2 = ent.t1, ent.t2
    rel = [Guarded(t1, t2, simplify(p)) for p in ent.premises]
    return decide_entailment(rel, Guarded(t1, t2, simplify(ent.conclusion)), aut, config)


class TestDualPath:
    def test_internal_matches_enumeration_on_500_cases(self, rng, internal_config):
        for i in range(500):
            ent, aut = random_entailment(rng)
            want = decide_by_enumeration(ent, aut)
            assert decide_as_the_engine(ent, aut, internal_config) == want, i


class TestDecideEntailment:
    def test_bottom_premise_entails_anything(self, enum_config):
        aut = tiny_automaton()
        rel = [Guarded(T0, T1, BOT)]
        goal = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        assert decide_entailment(rel, goal, aut, enum_config)

    def test_reflexive(self, internal_config):
        aut = tiny_automaton()
        g = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        assert decide_entailment([g], g, aut, internal_config)

    def test_top_goal_without_solver(self, internal_config):
        aut = tiny_automaton()
        rel = GuardRelation(T0, T0)
        assert decide_entailment(rel, Guarded(T0, T0, TOP), aut, internal_config)
        assert rel.refuted == rel.solver_calls == 0 and rel.context is None

    def test_config_rejects_an_unknown_backend(self):
        for backend in ("subprocess", "z3", "Internal", ""):
            with pytest.raises(ValueError, match="unknown backend"):
                SolverConfig(backend=backend)

    @pytest.mark.parametrize("timeout", [math.nan, 0, -1.0])
    def test_config_rejects_a_timeout_that_is_not_positive(self, timeout):
        """NaN would turn every deadline off: no time is ever past it."""
        with pytest.raises(ValueError, match="not a positive number"):
            SolverConfig(timeout=timeout)

    def test_dump_dir_receives_queries(self, tmp_path, internal_config):
        aut = tiny_automaton()
        internal_config.dump_dir = str(tmp_path)
        g = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        decide_entailment([], g, aut, internal_config)
        files = list(tmp_path.glob("*_query.smt2"))
        assert len(files) == 1
        assert files[0].read_text().startswith(";")


class TestBlaster:
    def test_comparing_with_a_literal_adds_no_iff_variables(self):
        bl = Blaster()
        eq = Eq(var("x", 4), lit("0101"))
        gate = bl.formula(eq)
        assert bl.sat.nvars == 1 + 4 + 1  # the constant, x, one and gate
        assert bl.formula(eq) == gate  # the gate is shared
        assert bl.sat.nvars == 6

    def test_a_slice_allocates_only_the_bits_it_reads(self):
        bl = Blaster()
        bl.formula(Eq(var("buf", 64).slice(3, 4), lit("10")))
        assert bl.sat.nvars == 1 + 2 + 1  # the constant, two bits, one and gate
        assert len(bl.term(var("buf", 64))) == 64

    def test_trivial_gates_fold(self):
        bl = Blaster()
        t = bl.true_lit
        a = bl.var_bits("a", 1)[0]
        assert bl.formula(Eq(var("a"), var("a"))) == t
        assert bl.formula(And((Eq(var("a"), lit("1")), Not(Eq(var("a"), lit("1")))))) == -t
        assert bl._and([a, t, a]) == a
        assert bl.sat.nvars == 2


class TestSimulation:
    def test_refutations_agree_with_enumeration(self, rng, internal_config):
        """No goal the simulation refutes is entailed, over premises within
        and above SIM_VAR_BITS and premises that read no configuration bit."""
        refuted = 0
        for case in range(500):
            if case % 10 == 9:
                aut, t1, t2, wide, formula = random_wide_guard(rng)
                premises = [wide]
            else:
                aut, t1, t2, formula = random_guard(rng)
                premises = []
                if case % 10 >= 6:
                    premises.append(random_formula(rng, {}, {LEFT: 0, RIGHT: 0}, ["y0", "y1"]))
            rel = GuardRelation(t1, t2, (Guarded(t1, t2, p) for p in premises))
            for step in range(5):
                goal = Guarded(t1, t2, formula())
                fresh = FilteredEntailment(t1, t2, tuple(r.body for r in rel), goal.body)
                before = rel.refuted
                entailed = decide_entailment(rel, goal, aut, internal_config)
                if rel.refuted > before:
                    assert not decide_by_enumeration(fresh, aut), (case, step)
                    refuted += 1
                if not entailed or rng.random() < 0.3:
                    rel.append(goal)
        assert refuted > 400

    def test_strict_as_the_solver(self, internal_config):
        # at an empty guard every lane is alive, and the simulation would
        # refute each of these goals if its bases fitted the guard
        aut = tiny_automaton()
        rel = GuardRelation(T0, T1)
        assert not decide_entailment(rel, Guarded(T0, T1, Eq(hdr("h", LEFT, 2), lit("01"))), aut, internal_config)
        assert rel.refuted == 1
        bad = [
            (Eq(hdr("nope", LEFT, 2), lit("01")), "unknown header 'nope'"),
            (Eq(hdr("h", LEFT, 3), lit("011")), "read at width 3, not 2"),
            (Eq(buf(RIGHT, 2), lit("11")), "buf> read at bit 1, beyond its 1 bit"),
        ]
        for body, message in bad:
            with pytest.raises(InternalError, match=message):
                decide_entailment(rel, Guarded(T0, T1, body), aut, internal_config)
        assert rel.refuted == 1 and rel.context is None


class TestGuardContext:
    def test_agrees_with_a_fresh_query_at_every_step(self, rng, internal_config):
        contexts = 0
        for case in range(120):
            aut, t1, t2, formula = random_guard(rng)
            rel = GuardRelation(t1, t2)
            for step in range(6):
                goal = Guarded(t1, t2, formula())
                fresh = FilteredEntailment(t1, t2, tuple(r.body for r in rel), goal.body)
                want = not check_sat(to_fol_bv(fresh, aut))
                assert decide_entailment(rel, goal, aut, internal_config) == want, (case, step)
                if not want or rng.random() < 0.3:
                    rel.append(goal)
            contexts += rel.context is not None
        assert contexts > 60

    def test_first_query_keeps_no_solver(self, internal_config):
        aut = tiny_automaton()
        rel = GuardRelation(T0, T1)
        g = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        assert not decide_entailment(rel, g, aut, internal_config)
        assert rel.context is None
        rel.append(g)
        assert decide_entailment(rel, g, aut, internal_config)
        assert rel.context is not None

    def test_a_goal_joining_as_premise_is_not_blasted_again(self, monkeypatch, internal_config):
        """No formula is blasted twice in a context."""
        blasted = []
        formula = Blaster.formula
        monkeypatch.setattr(Blaster, "formula", lambda bl, f: blasted.append(f) or formula(bl, f))
        aut = tiny_automaton()
        rel = GuardRelation(T0, T1)
        rel.append(Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1"))))
        early = Guarded(T0, T1, Eq(hdr("h", LEFT, 2), lit("01")))
        assert not decide_entailment(rel, early, aut, internal_config)
        assert rel.refuted == 1 and rel.context is None and blasted == []
        rel.append(early)
        # means h<[1:1] = 1; its 5 variable bits leave no lane alive, so
        # every later goal reaches the context
        x = var("x", 5)
        rel.append(Guarded(T0, T1, Or((Not(Eq(x, lit("00000"))), Eq(hdr("h", LEFT, 2).slice(1, 1), lit("1"))))))
        joining = Guarded(T0, T1, Eq(hdr("h", LEFT, 2), lit("00")))
        assert not decide_entailment(rel, joining, aut, internal_config)
        rel.append(joining)
        weaker = Guarded(T0, T1, Eq(hdr("h", LEFT, 2).slice(0, 0), lit("0")))
        assert decide_entailment(rel, weaker, aut, internal_config)
        # the premises that joined before the context are blasted when it
        # is built, a goal that joins as a premise reuses its literal, and
        # the pending premise needed no instance
        assert blasted == [rel[0].body, early.body, joining.body, weaker.body]
        assert rel.refuted == 1 and rel.context.instances == 0

    def test_goal_variables_may_differ_in_width(self, internal_config):
        aut = tiny_automaton()
        rel = GuardRelation(T0, T1)
        rel.append(Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1"))))
        wide = Guarded(T0, T1, Eq(var("v0", 2), hdr("h", LEFT, 2)))
        narrow = Guarded(T0, T1, Eq(var("v0"), buf(RIGHT, 1)))
        assert not decide_entailment(rel, wide, aut, internal_config)
        assert not decide_entailment(rel, narrow, aut, internal_config)

    def test_timeout_is_a_solver_failure(self):
        aut = tiny_automaton()
        config = SolverConfig(backend="internal", timeout=1e-9)
        rel = GuardRelation(T0, T1)
        g = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        with pytest.raises(SolverFailure):
            decide_entailment(rel, g, aut, config)
        rel.append(g)
        with pytest.raises(SolverFailure):
            decide_entailment(rel, g, aut, config)

    def test_timeout_stops_the_expansion_of_a_wide_premise(self, tmp_path):
        # x meets no literal; its instance search, for the dump's fresh
        # context or the guard's own, stops at the deadline
        aut = tiny_automaton()
        wide = Guarded(T0, T1, Eq(var("x", 12), var("y", 12)))
        goal = Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1")))
        for dump_dir in (None, str(tmp_path)):
            config = SolverConfig(timeout=1e-9, dump_dir=dump_dir)
            with pytest.raises(SolverFailure):
                decide_entailment([wide], goal, aut, config)
        rel = GuardRelation(T0, T1)
        rel.append(wide)
        with pytest.raises(SolverFailure):
            decide_entailment(rel, goal, aut, SolverConfig(backend="internal", timeout=1e-9))

    def test_agrees_with_enumeration_above_eight_variable_bits(self, rng, internal_config):
        instances = 0
        for case in range(30):
            aut, t1, t2, wide, formula = random_wide_guard(rng)
            rel = GuardRelation(t1, t2)
            rel.append(Guarded(t1, t2, wide))
            for step in range(4):
                goal = Guarded(t1, t2, formula())
                fresh = FilteredEntailment(t1, t2, tuple(r.body for r in rel), goal.body)
                want = decide_by_enumeration(fresh, aut)
                assert decide_entailment(rel, goal, aut, internal_config) == want, (case, step)
                if not want or rng.random() < 0.3:
                    rel.append(goal)
            instances += rel.context.instances
        assert instances > 0


def _random_lanes(s):
    """A segment's lanes as simulation reads them, at any guard."""
    return lane_bits(sat_name(s.base), s.hi + 1)[s.lo : s.hi + 1]


def _per_valuation_premise_lanes(p):
    """The reference for a premise's lanes: one simulation per valuation
    of its variables, none when it has more than SIM_VAR_BITS."""
    if sum(var_widths(p).values()) > SIM_VAR_BITS:
        return 0
    out = (1 << LANES) - 1
    for v in valuations(p):

        def at(s):
            if type(s.base) is not Var:
                return _random_lanes(s)
            return [(1 << LANES) - 1 if c == "1" else 0 for c in v[s.base.name][s.lo : s.hi + 1]]

        out &= simulate(p, at)
    return out


def _formula_with_variables(rng, aut, t1, t2, names):
    """A formula at the guard over one-bit variables ``names``, or'ed with
    an equation of a variable of up to three bits half of the time."""
    sizes = dict(aut.headers)
    buflens = {LEFT: t1.buflen, RIGHT: t2.buflen}
    phi = random_formula(rng, sizes, buflens, names, depth=3)
    if rng.random() < 0.5:
        w = rng.randint(1, 3)
        phi = Or((Eq(var("w", w), random_bit_expr(rng, sizes, buflens, [], w)), phi))
    return simplify(phi)


class TestBitParallelPasses:
    def test_body_lanes_match_the_per_valuation_reference(self, rng):
        """One simulation over 2^n + 1 blocks gives a premise the lanes of
        one simulation per valuation, and a goal the lanes of a plain one;
        a goal's own pass leaves the premise lanes unmade."""
        widths = set()
        for case in range(300):
            aut, t1, t2, _ = random_guard(rng)
            names = ["y0", "y1", "y2", "y3", "y4"][: rng.randint(0, 5)]
            p = _formula_with_variables(rng, aut, t1, t2, names)
            goal, premise = simulate_body(p, aut, premise=True)
            goal_only, unmade = simulate_body(p, aut, premise=False)
            assert premise == _per_valuation_premise_lanes(p), case
            assert goal == goal_only == simulate(p, _random_lanes), case
            n = sum(var_widths(p).values())
            assert unmade == (None if 0 < n <= SIM_VAR_BITS else premise), case
            widths.add(n)
        assert set(range(SIM_VAR_BITS + 3)) <= widths

    @pytest.mark.parametrize("cap", [0, 2, INSTANCE_VAR_BITS])
    def test_instance_valuation_falsifies_exactly(self, monkeypatch, rng, cap):
        """The valuation falsifies the premise at the configuration, it is
        None exactly when every valuation satisfies the premise, and within
        the cap it is the first falsifying one in the order of
        ``valuations``; above it, SAT finds one."""
        monkeypatch.setattr(parseq.smt, "INSTANCE_VAR_BITS", cap)
        falsified = wider = 0
        for case in range(150):
            if case % 3 == 2:
                aut, t1, t2, p, _ = random_wide_guard(rng)
                p = simplify(p)
            else:
                aut, t1, t2, _ = random_guard(rng)
                p = _formula_with_variables(rng, aut, t1, t2, ["y0", "y1", "y2", "y3"])
            sizes = dict(aut.headers)
            cl = Configuration(t1.state, Store.of({h: random_bits(rng, w) for h, w in sizes.items()}),
                               random_bits(rng, t1.buflen))
            cr = Configuration(t2.state, Store.of({h: random_bits(rng, w) for h, w in sizes.items()}),
                               random_bits(rng, t2.buflen))

            def bits(s):
                return eval_bit_expr(Bits((s,), s.hi - s.lo + 1), cl, cr, {})

            got = _falsifying_valuation(p, var_widths(p), bits, None)
            first = next((v for v in valuations(p) if not holds(p, cl, cr, v)), None)
            if first is None:
                assert got is None, case
                continue
            assert got is not None and not holds(p, cl, cr, got), case
            assert {x: len(b) for x, b in got.items()} == var_widths(p), case
            n = sum(var_widths(p).values())
            if n <= cap:
                assert got == first, case
            falsified += 1
            wider += n > cap
        assert falsified > 40 and wider > 10


class TestSharedSimulation:
    def test_a_shared_simulation_still_checks_each_guard(self, internal_config):
        """A body simulated at one guard is checked again at the next: its
        buffer reads must fit each guard it is queried at."""
        aut = tiny_automaton()
        wide, narrow = GuardRelation(T1, T1), GuardRelation(T0, T0)
        bodies = wide.bodies = narrow.bodies = Bodies()
        body = Eq(buf(RIGHT, 1), lit("1"))
        assert not decide_entailment(wide, Guarded(T1, T1, body), aut, internal_config)
        assert list(bodies) == [body]
        with pytest.raises(InternalError, match="beyond its 0 bit"):
            decide_entailment(narrow, Guarded(T0, T0, body), aut, internal_config)

    def test_equal_bodies_built_apart_share_one_body(self, monkeypatch, internal_config):
        """The table keys by value: copies of one body, each built as its
        own object and queried at two guards, are simulated once per
        role, a closed one is decided once, and each guard still checks
        the buffer reads."""
        simulated, decided = Counter(), []
        simulate_real, valid_real = parseq.smt.simulate_body, parseq.smt.valid_closed

        def counted_simulation(body, aut, premise):
            simulated[body, premise] += 1
            return simulate_real(body, aut, premise)

        def counted_decision(body, config):
            decided.append(body)
            return valid_real(body, config)

        monkeypatch.setattr(parseq.smt, "simulate_body", counted_simulation)
        monkeypatch.setattr(parseq.smt, "valid_closed", counted_decision)
        aut, bodies = tiny_automaton(), Bodies()

        def apart():  # a new object each time, reading bit 0 of the right buffer
            return Or((Eq(buf(RIGHT, 1), var("v0")), Eq(hdr("h", LEFT, 2), lit("01"))))

        assert apart() is not apart() and apart() == apart()
        for t1 in (T0, T1):
            rel = GuardRelation(t1, T1)
            rel.bodies = bodies
            assert not decide_entailment(rel, Guarded(t1, T1, apart()), aut, internal_config)
            rel.append(Guarded(t1, T1, apart()))
            goal = Eq(hdr("h", RIGHT, 2), lit("10"))
            assert not decide_entailment(rel, Guarded(t1, T1, goal), aut, internal_config)
        assert set(simulated.values()) == {1} and len(simulated) == 3
        for t1 in (T0, T1):
            g = Guarded(t1, T1, Or((Eq(var("v0"), lit("1")), Eq(var("v0"), lit("0")))))
            assert fold(g, bodies, internal_config) is None
        assert len(decided) == 1 and bodies.folded == 2 and len(bodies) == 3
        narrow = GuardRelation(T1, T0)
        narrow.bodies = bodies
        with pytest.raises(InternalError, match="beyond its 0 bit"):
            decide_entailment(narrow, Guarded(T1, T0, apart()), aut, internal_config)


def random_closed(rng, bits):
    """A closed body over one-bit variables v0 … v(bits-1), or over the
    slices of one ``bits``-bit variable: either a random formula, or one
    that reads every bit, ``!(all bits = c) | F``, valid exactly when F
    holds where the bits are c."""
    if rng.random() < 0.5:
        names = [f"v{i}" for i in range(bits)]
        every = cat(var(x) for x in names)
        f = random_formula(rng, {}, {LEFT: 0, RIGHT: 0}, names, depth=3)
    else:
        every = var("w", bits)
        parts = []
        for _ in range(rng.randint(1, 4)):
            lo = rng.randrange(bits)
            hi = rng.randrange(lo, min(bits, lo + 3))
            parts.append(Eq(every.slice(lo, hi), lit(random_bits(rng, hi - lo + 1))))
        f = rng.choice([And, Or])(tuple(Not(p) if rng.random() < 0.5 else p for p in parts))
    if rng.random() < 0.3:
        return f
    return Or((Not(Eq(every, lit(random_bits(rng, bits)))), f))


class TestClosedBodies:
    NOWHERE = Configuration("Q0", Store(()), "")

    def test_closed_reads_no_configuration_bit(self):
        assert closed(Eq(var("x", 2), lit("01"))) and closed(BOT) and closed(TOP)
        assert not closed(Eq(var("x", 1), buf(LEFT, 1)))
        assert not closed(Or((Eq(var("x", 1), lit("1")), Eq(hdr("h", RIGHT, 1), lit("1")))))

    @pytest.mark.parametrize("backend", ["internal", "enum"])
    def test_fold_agrees_with_enumeration(self, rng, backend):
        """Each closed body, narrow or wider than ``INSTANCE_VAR_BITS``,
        is dropped exactly when it holds under every valuation, and
        otherwise made false at its guard."""
        bodies, config = Bodies(), SolverConfig(backend=backend)
        seen = {True: 0, False: 0}
        widths = [rng.randint(1, 8) for _ in range(120)] + [INSTANCE_VAR_BITS, 11, 12] * 3
        for i, bits in enumerate(widths):
            body = random_closed(rng, bits)
            for phi in {body, simplify(body)}:
                want = denotes(phi, self.NOWHERE, self.NOWHERE)
                if type(phi) is not Bottom:
                    seen[want] += 1
                g = Guarded(T0, T1, phi)
                assert fold(g, bodies, config) == (None if want else Guarded(T0, T1, BOT)), (i, phi)
        assert seen[True] > 20 and seen[False] > 20
        wide = [phi for phi in bodies if sum(var_widths(phi).values()) > INSTANCE_VAR_BITS]
        assert len({denotes(phi, self.NOWHERE, self.NOWHERE) for phi in wide}) == 2

    def test_each_body_is_decided_once(self, monkeypatch, internal_config):
        decided = []
        real = parseq.smt.valid_closed

        def counted(body, config):
            decided.append(body)
            return real(body, config)

        monkeypatch.setattr(parseq.smt, "valid_closed", counted)
        bodies = Bodies()
        valid = Or((Eq(var("v0"), lit("1")), Eq(var("v0"), lit("0"))))
        false = Eq(var("v0"), lit("1"))
        open_ = Eq(var("v0"), buf(LEFT, 1))
        for t in (T0, T1, T0):
            assert fold(Guarded(t, T1, valid), bodies, internal_config) is None
            assert fold(Guarded(t, T1, false), bodies, internal_config) == Guarded(t, T1, BOT)
            g = Guarded(t, T1, open_)
            assert fold(g, bodies, internal_config) is g
            g = Guarded(t, T1, BOT)
            assert fold(g, bodies, internal_config) is g
        assert decided == [valid, false] and bodies.folded == 6

    @pytest.mark.parametrize("backend", ["internal", "enum"])
    def test_sat_decisions_are_counted(self, backend):
        """``closed_solves`` counts the closed bodies decided by a SAT
        search: those wider than ``INSTANCE_VAR_BITS``, outside enum, once
        per body."""
        bodies, config = Bodies(), SolverConfig(backend=backend)
        for bits in (INSTANCE_VAR_BITS, INSTANCE_VAR_BITS + 1):
            body = Not(Eq(var("w", bits), lit("0" * bits)))
            for t in (T0, T1):
                assert fold(Guarded(t, T1, body), bodies, config) == Guarded(t, T1, BOT)
        assert bodies.folded == 4
        assert bodies.closed_solves == (backend == "internal")

    def test_a_false_conjunct_entails_every_goal_at_once(self, monkeypatch, internal_config):
        aut = tiny_automaton()
        rel = GuardRelation(T0, T1)
        rel.append(Guarded(T0, T1, Eq(buf(RIGHT, 1), lit("1"))))
        rel.append(Guarded(T0, T1, BOT))
        monkeypatch.setattr(parseq.smt, "simulate_body", None)
        for body in (Eq(buf(RIGHT, 1), lit("0")), Eq(hdr("h", LEFT, 2), var("x", 2))):
            assert decide_entailment(rel, Guarded(T0, T1, body), aut, internal_config)
        assert rel.refuted == rel.solver_calls == 0 and rel.context is None
