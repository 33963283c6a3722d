"""Weakest preconditions: the one-sided and paired correctness lemmas.

The lemma tests enumerate every configuration of small generated
automata and check the biconditional between "all successors satisfy
the formula" and "the precondition holds here", so they are exact
oracles rather than spot checks.
"""

import itertools
from collections import Counter

import pytest

import parseq.engine
import parseq.reach
import parseq.wp
from _gen import chain_pair, random_automaton, random_formula, random_guard, random_wide_guard
from conftest import load_fixture
from parseq import parse_source
from parseq.core import (
    ACCEPT,
    REJECT,
    RESULTS,
    Configuration,
    Store,
    disjoint_sum,
    multi_step,
    step,
)
from parseq.confrel import (
    BOT,
    LEFT,
    RIGHT,
    TOP,
    T_ACCEPT,
    T_REJECT,
    Eq,
    Guarded,
    Template,
    Top,
    Var,
    lit,
    replace,
    simplify,
    var,
    denotes,
    template_of,
    templates_of,
    var_widths,
    variables,
)
from parseq.engine import check_equivalence
from parseq.reach import (
    TemplatePair,
    all_template_pairs,
    leap_size,
    predecessors,
    reach_fixpoint,
)
from parseq.smt import GuardRelation, SolverConfig, decide_entailment
from parseq.wp import READ, FreshnessError, canonical_vars, template_chain, wp, wp_side


def all_configs(aut):
    names = [q for q, _ in aut.states] + list(RESULTS)
    sizes = dict(aut.headers)
    total = sum(sizes.values())
    out = []
    for q in names:
        blens = range(aut.opsize_of(q)) if q not in RESULTS else [0]
        for bits in itertools.product("01", repeat=total):
            w = "".join(bits)
            pos = 0
            store = {}
            for h in sizes:
                store[h], pos = w[pos : pos + sizes[h]], pos + sizes[h]
            for bl in blens:
                for bb in itertools.product("01", repeat=bl):
                    out.append(Configuration(q, Store.of(store), "".join(bb)))
    return out


class TestWpSideCases:
    def test_fresh_collision_raises(self, rng):
        aut = random_automaton(rng, max_states=1)
        q = aut.states[0][0]
        phi = Eq(var("x0"), lit("1"))
        with pytest.raises(FreshnessError):
            wp_side(phi, LEFT, Template(q, 0), Template(q, 1), "x0", aut)

    def test_unrelated_templates_give_top(self, rng):
        aut = random_automaton(rng, max_states=1)
        q = aut.states[0][0]
        # buffering edge must advance the same state's buffer by one
        if aut.opsize_of(q) >= 2:
            psi = wp_side(BOT, LEFT, Template(q, 0), Template(ACCEPT, 0), "x", aut)
            assert psi == TOP

    def test_results_rewind_only_to_reject(self, rng):
        aut = random_automaton(rng, max_states=1)
        q = aut.states[0][0]
        assert wp_side(BOT, LEFT, Template(ACCEPT, 0), Template(q, 0), "x", aut) == TOP
        psi = wp_side(BOT, LEFT, Template(ACCEPT, 0), Template(REJECT, 0), "x", aut)
        assert psi == BOT


class TestTemplateChain:
    def test_buffering_chain(self, rng):
        for _ in range(10):
            aut = random_automaton(rng)
            q = aut.states[0][0]
            size = aut.opsize_of(q)
            if size < 2:
                continue
            chain = template_chain(Template(q, 0), size - 1, Template(q, size - 1), aut)
            assert chain == [Template(q, i) for i in range(size)]

    def test_overshoot_raises(self, rng):
        aut = random_automaton(rng)
        q = aut.states[0][0]
        size = aut.opsize_of(q)
        with pytest.raises(ValueError):
            template_chain(Template(q, 0), size + 1, Template(q, 0), aut)

    def test_impossible_endpoint_is_none(self, rng):
        aut = random_automaton(rng)
        q = aut.states[0][0]
        size = aut.opsize_of(q)
        if size >= 2:
            assert template_chain(Template(q, 0), 1, Template(ACCEPT, 0), aut) is None


class TestSingleSideLemma:
    def test_biconditional_exhaustive(self, rng):
        """For every c at t_src: [every one-bit successor matching t_dst
        satisfies phi] iff [c satisfies wp_side(phi) for all read bits]."""
        checked = 0
        for _ in range(50):
            aut = random_automaton(rng, max_states=2, max_header_bits=2)
            sizes = dict(aut.headers)
            configs = all_configs(aut)
            templates = sorted({template_of(c) for c in configs}, key=str)
            for t_src, t_dst in itertools.product(templates, templates):
                cr = rng.choice(configs)
                phi = random_formula(
                    rng, sizes, {LEFT: t_dst.buflen, RIGHT: len(cr.buffer)}, ["y0"]
                )
                psi = wp_side(phi, LEFT, t_src, t_dst, "xf", aut)
                assert "xf" not in variables(phi)
                for cl in configs:
                    if template_of(cl) != t_src:
                        continue
                    lhs = all(
                        template_of(step(cl, b, aut)) != t_dst
                        or denotes(phi, step(cl, b, aut), cr)
                        for b in "01"
                    )
                    assert lhs == denotes(psi, cl, cr), (t_src, t_dst, cl, cr)
                    checked += 1
        assert checked > 1000


class TestPairedLemma:
    @pytest.mark.parametrize("leaps", [True, False])
    def test_biconditional_exhaustive(self, rng, leaps):
        """For every pair (c1,c2): [all leap-length words lead into the
        guarded formula] iff [every produced precondition holds at (c1,c2)]."""
        for _ in range(50):
            aut = random_automaton(rng, max_states=2, max_header_bits=2)
            sizes = dict(aut.headers)
            configs = all_configs(aut)
            templates = sorted({template_of(c) for c in configs}, key=str)
            names = [q for q, _ in aut.states]
            reach = all_template_pairs(aut, names, names)
            t1, t2 = rng.choice(templates), rng.choice(templates)
            psig = Guarded(
                t1,
                t2,
                random_formula(rng, sizes, {LEFT: t1.buflen, RIGHT: t2.buflen}, ["y0"]),
            )
            wps = wp(psig, predecessors(reach, aut, leaps), aut, leaps)
            sample = rng.sample(configs, min(20, len(configs)))
            for c1 in sample:
                for c2 in sample:
                    k = leap_size(template_of(c1), template_of(c2), aut) if leaps else 1
                    lhs = all(
                        psig.denotes(
                            multi_step(c1, "".join(w), aut),
                            multi_step(c2, "".join(w), aut),
                        )
                        for w in itertools.product("01", repeat=k)
                    )
                    rhs = all(g.denotes(c1, c2) for g in wps)
                    assert lhs == rhs, (leaps, psig, c1, c2)

    def test_outputs_are_guarded_by_reach_pairs(self, rng):
        aut = random_automaton(rng)
        names = [q for q, _ in aut.states]
        reach = all_template_pairs(aut, names, names)
        t1 = Template(names[0], 0)
        psig = Guarded(t1, t1, BOT)
        for g in wp(psig, predecessors(reach, aut), aut):
            assert any(p.left == g.t1 and p.right == g.t2 for p in reach.pairs)


class TestWideRead:
    def test_biconditional_exhaustive(self, rng):
        """For every c at t_src and every k up to the bits left before the
        transition: [every k-bit successor matching t_dst satisfies phi]
        iff [c satisfies wp_side(phi, k) for all values of the k-bit read]."""
        checked = 0
        for _ in range(30):
            aut = random_automaton(rng, max_states=2, max_header_bits=2)
            sizes = dict(aut.headers)
            configs = all_configs(aut)
            templates = sorted({template_of(c) for c in configs}, key=str)
            for t_src, t_dst in itertools.product(templates, templates):
                if t_src.state in RESULTS:
                    k = rng.randint(1, 2)
                else:
                    k = rng.randint(1, aut.opsize_of(t_src.state) - t_src.buflen)
                cr = rng.choice(configs)
                phi = random_formula(
                    rng, sizes, {LEFT: t_dst.buflen, RIGHT: len(cr.buffer)}, ["y0"]
                )
                psi = wp_side(phi, LEFT, t_src, t_dst, "xf", aut, k=k)
                words = ["".join(w) for w in itertools.product("01", repeat=k)]
                for cl in configs:
                    if template_of(cl) != t_src:
                        continue
                    lhs = all(
                        template_of(multi_step(cl, w, aut)) != t_dst
                        or denotes(phi, multi_step(cl, w, aut), cr)
                        for w in words
                    )
                    assert lhs == denotes(psi, cl, cr), (t_src, t_dst, k, cl, cr)
                    checked += 1
        assert checked > 500

    def test_overlong_read_raises(self, rng):
        aut = random_automaton(rng)
        q = aut.states[0][0]
        size = aut.opsize_of(q)
        with pytest.raises(ValueError):
            wp_side(BOT, LEFT, Template(q, 0), Template(q, 0), "x", aut, k=size + 1)

    def test_preconditions_read_one_bit_variables(self, rng):
        for _ in range(30):
            aut = random_automaton(rng)
            sizes = dict(aut.headers)
            names = [q for q, _ in aut.states]
            reach = all_template_pairs(aut, names, names)
            p = rng.choice(reach.sorted())
            buflens = {LEFT: p.left.buflen, RIGHT: p.right.buflen}
            body = random_formula(rng, sizes, buflens, ["y0"])
            for g in wp(Guarded(p.left, p.right, body), predecessors(reach, aut), aut):
                assert set(var_widths(g.body).values()) <= {1}


def _wide_pair(bits: int, select: str, pattern: str, right: str):
    """One bits-wide extract against two half-width extracts; each side
    selects ``select`` (of h, or of a on the right) against ``pattern``."""
    one = parse_source(
        f"state q {{ extract(h, {bits}); "
        f"select(h{select}) {{ ({pattern}) => accept _ => reject }} }}"
    )
    two = parse_source(
        f"state q {{ extract(a, {bits // 2}); extract(b, {bits // 2}); "
        f"select({right}) {{ ({pattern}) => accept _ => reject }} }}"
    )
    return one, two


def _summed(one, two):
    """The summed automaton, its two start templates and their reach set."""
    total, left, right = disjoint_sum(one, two)
    t1, t2 = Template(left.states["q"], 0), Template(right.states["q"], 0)
    return total, t1, t2, reach_fixpoint({TemplatePair(t1, t2)}, total)


class TestWideLeaps:
    INTERNAL = SolverConfig(backend="internal")

    def test_4096_bit_pair_is_equivalent(self):
        one, two = _wide_pair(4096, "[0:0]", "0b0", "a[0:0]")
        res = check_equivalence(one, "q", two, "q", config=self.INTERNAL)
        assert res.verdict == "Equivalent", res.reason

    def test_1024_bit_select_splits_every_bit(self):
        one, two = _wide_pair(2048, "[0:1023]", "0b" + "10" * 512, "a")
        res = check_equivalence(one, "q", two, "q", config=self.INTERNAL)
        assert res.verdict == "Equivalent", res.reason
        # the precondition of "left accepts, right rejects" reads the 1024
        # selected bits of the shared 2048-bit leap, one variable per bit
        total, _, _, reach = _summed(one, two)
        psig = Guarded(T_ACCEPT, T_REJECT, BOT)
        (g,) = wp(psig, predecessors(reach, total), total)
        widths = var_widths(g.body)
        assert len(widths) == 1024 and set(widths.values()) == {1}

    def test_split_bit_names_must_be_fresh(self):
        one, two = _wide_pair(8, "[0:0]", "0b0", "a[0:0]")
        total, _, _, reach = _summed(one, two)
        body = Eq(var(READ), lit("1"))
        psig = Guarded(T_ACCEPT, T_REJECT, body)
        with pytest.raises(FreshnessError):
            wp(psig, predecessors(reach, total), total)

    def test_split_bit_names_must_be_fresh_in_a_guards_body(self):
        """A Body that a guard made first, for an equal body built apart,
        is still checked for freshness when wp meets it."""
        one, two = _wide_pair(8, "[0:0]", "0b0", "a[0:0]")
        total, _, _, reach = _summed(one, two)
        preds = predecessors(reach, total)
        rel = GuardRelation(T_ACCEPT, T_REJECT)
        rel.bodies = preds.bodies
        goal = Guarded(T_ACCEPT, T_REJECT, Eq(var(READ), lit("1")))
        assert not decide_entailment(rel, goal, total, self.INTERNAL)
        assert list(preds.bodies) == [goal.body]
        psig = Guarded(T_ACCEPT, T_REJECT, Eq(var(READ), lit("1")))
        with pytest.raises(FreshnessError):
            wp(psig, preds, total)

    def test_leap_draws_one_fresh_name_per_predecessor(self):
        one, _ = _wide_pair(4096, "[0:0]", "0b0", "a[0:0]")
        total, t1, t2, reach = _summed(one, one)
        assert leap_size(t1, t2, total) == 4096
        psig = Guarded(T_ACCEPT, T_REJECT, BOT)
        preds = predecessors(reach, total)
        (g,) = wp(psig, preds, total)
        assert len(preds[TemplatePair(psig.t1, psig.t2)]) == 1
        assert variables(g.body) == {"v0"}


def reference_wp(psig, preds, aut, leaps=True):
    """``wp`` by the one-side transformer: the right side rewound, then
    the left, simplified and renamed canonically, with vacuous pairs
    dropped. ``wp_side`` wants a fresh read, so the left side reads "l",
    which then becomes the right side's read "r"."""
    out = []
    for pair in preds.get(TemplatePair(psig.t1, psig.t2), ()):
        k = leap_size(pair.left, pair.right, aut) if leaps else 1
        phi = wp_side(psig.body, RIGHT, pair.right, psig.t2, "r", aut, k=k)
        phi = wp_side(phi, LEFT, pair.left, psig.t1, "l", aut, k=k)
        phi = replace(
            phi, lambda s: var("r", k).slice(s.lo, s.hi) if s.base == Var("l", k) else None
        )
        phi = simplify(phi)
        if not isinstance(phi, Top):
            out.append(Guarded(pair.left, pair.right, canonical_vars(phi)))
    return out


class TestOneWalk:
    """``wp`` rewinds both sides in one simplifying substitution and one
    renaming; it equals the one-side reference exactly."""

    @pytest.mark.parametrize("leaps", [True, False])
    def test_matches_the_one_side_reference(self, rng, leaps):
        compared = 0
        for i in range(300):
            if i % 3:
                total, t1, t2, formula = random_guard(rng)
                body = formula()
            else:  # a body with a 9- to 12-bit variable
                total, t1, t2, body, _ = random_wide_guard(rng)
            names = [q for q, _ in total.states]
            preds = predecessors(all_template_pairs(total, names, names), total, leaps)
            psig = Guarded(t1, t2, body)
            got = wp(psig, preds, total, leaps)
            assert got == reference_wp(psig, preds, total, leaps), (leaps, psig)
            compared += len(got)
        assert compared > 50

    def test_matches_the_one_side_reference_on_a_4096_bit_leap(self):
        one, two = _wide_pair(4096, "[0:0]", "0b0", "a[0:0]")
        total, _, _, reach = _summed(one, two)
        preds = predecessors(reach, total)
        for t1, t2 in [(T_ACCEPT, T_REJECT), (T_REJECT, T_ACCEPT)]:
            psig = Guarded(t1, t2, BOT)
            got = wp(psig, preds, total)
            assert got and got == reference_wp(psig, preds, total)

    def test_names_are_canonical_one_bit_variables(self, rng):
        total, t1, t2, body, _ = random_wide_guard(rng)
        names = [q for q, _ in total.states]
        preds = predecessors(all_template_pairs(total, names, names), total)
        for g in wp(Guarded(t1, t2, body), preds, total):
            assert canonical_vars(g.body) == g.body
            assert set(var_widths(g.body).values()) <= {1}


class TestPredecessorIndex:
    @pytest.mark.parametrize("leaps", [True, False])
    @pytest.mark.parametrize("use_reach", [True, False])
    def test_index_matches_template_chain_scan(self, rng, leaps, use_reach):
        """Every pair's predecessors are, in sorted order, exactly the
        pairs whose forced template chains end at it."""
        for _ in range(20):
            aut = random_automaton(rng)
            names = [q for q, _ in aut.states]
            if use_reach:
                seed = TemplatePair(Template(names[0], 0), Template(names[-1], 0))
                reach = reach_fixpoint({seed}, aut, leaps=leaps)
            else:
                reach = all_template_pairs(aut, names, names)
            preds = predecessors(reach, aut, leaps)
            templates = templates_of(aut)
            for t1, t2 in itertools.product(templates, templates):
                expected = []
                for p in reach.sorted():
                    k = leap_size(p.left, p.right, aut) if leaps else 1
                    if (
                        template_chain(p.left, k, t1, aut) is not None
                        and template_chain(p.right, k, t2, aut) is not None
                    ):
                        expected.append(p)
                assert preds.get(TemplatePair(t1, t2), []) == expected


class TestCompiledStepRelation:
    """A check builds its step relation once: ``predecessors`` reads the
    successors ``reach_fixpoint`` computed, and each side's rewinds from a
    source template are built in one pass and shared by every edge that
    uses them."""

    @pytest.mark.parametrize(
        "left, q1, right, q2, leaps",
        [
            ("mpls_ref", "q1", "mpls_vec", "q3", False),
            ("ipopt_generic", "parse_0", "ipopt_timestamp", "parse_0", True),
        ],
    )
    def test_each_side_rewind_is_built_once_per_check(
        self, monkeypatch, internal_config, left, q1, right, q2, leaps
    ):
        built = Counter()
        rewinds = parseq.wp.rewinds

        def counted(side, t_src, x, k, aut):
            built[side, t_src, k] += 1
            return rewinds(side, t_src, x, k, aut)

        monkeypatch.setattr(parseq.wp, "rewinds", counted)
        res = check_equivalence(
            load_fixture(left), q1, load_fixture(right), q2,
            config=internal_config, leaps=leaps,
        )
        assert res.verdict == "Equivalent", res.reason
        assert len(built) > 10
        assert max(built.values()) == 1, built.most_common(3)

    def test_targets_of_one_source_share_one_operation(self, monkeypatch, internal_config):
        """A transition runs its operation once for all its targets, so
        the rewinds of one (side, t_src, k) share one header map."""
        built = []
        predecessors = parseq.engine.predecessors

        def kept(reach, aut, leaps=True):
            built.append(predecessors(reach, aut, leaps))
            return built[-1]

        monkeypatch.setattr(parseq.engine, "predecessors", kept)
        res = check_equivalence(
            load_fixture("ipopt_generic"), "parse_0", load_fixture("ipopt_timestamp"), "parse_0",
            config=internal_config, leaps=True,
        )
        assert res.verdict == "Equivalent", res.reason
        (preds,) = built
        shared = [table for table in preds.rewinds.values() if len(table) >= 2]
        assert len(shared) > 2
        for table in shared:
            assert len({id(hdrs) for _, hdrs, _ in table.values()}) == 1, table

    @pytest.mark.parametrize("leaps", [True, False])
    def test_rewinds_grow_with_the_operation_not_the_automaton(self, monkeypatch, leaps):
        """A rewind maps only the headers its operation writes, so on the
        chain family the header references ``wp`` builds grow at most
        linearly in the number of headers, not with headers x rewinds."""
        built = Counter()
        hdr = parseq.wp.hdr

        for n in (20, 40):
            def counted(name, side, width, n=n):
                built[n] += 1
                return hdr(name, side, width)

            monkeypatch.setattr(parseq.wp, "hdr", counted)
            res = check_equivalence(*chain_pair(n), leaps=leaps)
            monkeypatch.undo()
            assert res.verdict == "Equivalent", res.reason
        assert built[40] <= 2 * built[20], built

    @pytest.mark.parametrize("leaps", [True, False])
    def test_predecessors_reuse_the_fixpoint_successors(self, monkeypatch, rng, leaps):
        calls = []
        successors = parseq.reach.successors

        def counted(p, aut, leaps=True):
            calls.append(p)
            return successors(p, aut, leaps)

        for _ in range(10):
            aut = random_automaton(rng)
            names = [q for q, _ in aut.states]
            seed = TemplatePair(Template(names[0], 0), Template(names[-1], 0))
            reach = reach_fixpoint({seed}, aut, leaps=leaps)
            monkeypatch.setattr(parseq.reach, "successors", counted)
            preds = predecessors(reach, aut, leaps)
            monkeypatch.undo()
            assert calls == []
            fresh = predecessors(all_template_pairs(aut, names, names), aut, leaps)
            assert all(preds[q] == [p for p in fresh[q] if p in reach] for q in preds)

    def test_result_keeps_no_successors(self, internal_config):
        res = check_equivalence(
            load_fixture("mpls_ref"), "q1", load_fixture("mpls_vec"), "q3",
            config=internal_config,
        )
        assert res.reach._succ is None


class TestUnchangedBodies:
    def test_single_bit_steps_hand_on_the_same_body(self, monkeypatch, internal_config):
        """A buffering step below every bit a body reads leaves it alone:
        wp hands on the canonical form kept in the body's Body, without a
        walk (``subst``). Equal bodies share that Body, so the form handed
        on is the first equal body's object."""
        same = equal = total = walks = 0
        step, subst = parseq.engine.wp, parseq.wp.subst

        def counted(psig, preds, aut, leaps=True):
            nonlocal same, equal, total
            out = step(psig, preds, aut, leaps)
            total += len(out)
            same += sum(g.body is psig.body for g in out)
            equal += sum(g.body == psig.body for g in out)
            return out

        def walk(*args):
            nonlocal walks
            walks += 1
            return subst(*args)

        monkeypatch.setattr(parseq.engine, "wp", counted)
        monkeypatch.setattr(parseq.wp, "subst", walk)
        res = check_equivalence(
            load_fixture("mpls_ref"), "q1", load_fixture("mpls_vec"), "q3",
            config=internal_config, leaps=False,
        )
        assert res.verdict == "Equivalent", res.reason
        # 759 outputs equal their obligation's body, 746 of them the same
        # object; 67 outputs take a walk, and without the shortcut all do
        assert total == 819 and equal >= 759 and same >= 746 and walks < 100
