"""Concrete automaton semantics: stepping, typing, disjoint sums."""

import pytest

from _gen import random_automaton, random_bits
from parseq.core import (
    ACCEPT,
    REJECT,
    Assign,
    Automaton,
    Case,
    Concat,
    Configuration,
    ExactPat,
    Extract,
    Goto,
    HdrRef,
    Lit,
    Select,
    Slice,
    State,
    Store,
    TypeError_,
    Wildcard,
    accepts,
    disjoint_sum,
    eval_expr,
    eval_transition,
    exec_op,
    multi_step,
    opsize,
    select_targets,
    slice_bits,
    step,
    typecheck,
    width_of,
)


def two_state():
    """h is 2 bits; Q0 branches on it, Q1 copies a slice and accepts."""
    return Automaton(
        (("h", 2), ("g", 1)),
        (
            (
                "Q0",
                State(
                    (Extract("h"),),
                    Select(
                        (HdrRef("h"),),
                        (
                            Case((ExactPat("11"),), "Q1"),
                            Case((ExactPat("00"),), ACCEPT),
                        ),
                    ),
                ),
            ),
            (
                "Q1",
                State(
                    (Extract("g"), Assign("g", Slice(HdrRef("h"), 0, 0))),
                    Goto(ACCEPT),
                ),
            ),
        ),
    )


class TestExpressions:
    def test_widths(self):
        aut = two_state()
        assert width_of(HdrRef("h"), aut.sizes) == 2
        assert width_of(Lit("0101"), aut.sizes) == 4
        assert width_of(Slice(HdrRef("h"), 0, 1), aut.sizes) == 2
        assert width_of(Concat(HdrRef("h"), HdrRef("g")), aut.sizes) == 3

    def test_eval(self):
        s = Store.of({"h": "10", "g": "1"})
        assert eval_expr(HdrRef("h"), s) == "10"
        assert eval_expr(Slice(HdrRef("h"), 1, 1), s) == "0"
        assert eval_expr(Concat(Lit("0"), HdrRef("g")), s) == "01"

    def test_slice_clamps_on_raw_input(self):
        assert slice_bits("abc", 1, 5) == "bc"
        assert slice_bits("", 0, 3) == ""

    def test_lit_must_be_bits(self):
        with pytest.raises(ValueError):
            Lit("012")


class TestOps:
    def test_exec_op_extract_then_assign(self):
        aut = two_state()
        s, rest = exec_op(
            aut.state("Q1").op, Store.of({"h": "10", "g": "0"}), "1", aut, strict=True
        )
        assert rest == ""
        assert s.get("g") == "1"  # assignment overwrites the extracted bit

    def test_opsize_counts_only_extracts(self):
        aut = two_state()
        assert opsize(aut.state("Q0").op, aut) == 2
        assert opsize(aut.state("Q1").op, aut) == 1

    def test_select_targets_includes_reject(self):
        aut = two_state()
        assert select_targets(aut.state("Q0").trans) == {"Q1", ACCEPT, REJECT}
        assert select_targets(aut.state("Q1").trans) == {ACCEPT}

    def test_transition_first_match_wins(self):
        tz = Select(
            (HdrRef("g"),),
            (Case((Wildcard(),), "A"), Case((ExactPat("1"),), "B")),
        )
        assert eval_transition(tz, Store.of({"g": "1"})) == "A"

    def test_transition_fall_through_rejects(self):
        tz = Select((HdrRef("g"),), (Case((ExactPat("1"),), "A"),))
        assert eval_transition(tz, Store.of({"g": "0"})) == REJECT


class TestStepping:
    def test_buffering_below_opsize(self):
        aut = two_state()
        c = Configuration("Q0", Store.zeros(aut), "")
        c = step(c, "1", aut)
        assert (c.state, c.buffer) == ("Q0", "1")

    def test_transition_consumes_buffer(self):
        aut = two_state()
        c = multi_step(Configuration("Q0", Store.zeros(aut), ""), "11", aut)
        assert (c.state, c.buffer) == ("Q1", "")
        assert c.store.get("h") == "11"

    def test_accept_and_reject_step_to_reject(self):
        aut = two_state()
        for q in (ACCEPT, REJECT):
            c = step(Configuration(q, Store.zeros(aut), ""), "0", aut)
            assert (c.state, c.buffer) == (REJECT, "")

    def test_is_accepting_needs_empty_buffer(self):
        s = Store.of({})
        assert Configuration(ACCEPT, s, "").is_accepting
        assert not Configuration(ACCEPT, s, "0").is_accepting
        assert not Configuration(REJECT, s, "").is_accepting

    def test_accepts_whole_words(self):
        aut = two_state()
        z = Store.zeros(aut)
        assert accepts("Q0", z, "00", aut)
        assert accepts("Q0", z, "111", aut)  # 11 -> Q1, then g:=h[0]
        assert not accepts("Q0", z, "01", aut)
        assert not accepts("Q0", z, "0", aut)  # stuck mid-state

    def test_buffer_invariant(self, rng):
        for _ in range(20):
            aut = random_automaton(rng)
            q0 = aut.states[0][0]
            c = Configuration(q0, Store.zeros(aut), "")
            for b in random_bits(rng, 24):
                c = step(c, b, aut)
                if c.state not in (ACCEPT, REJECT):
                    assert len(c.buffer) < aut.opsize_of(c.state)
                else:
                    assert c.buffer == ""

    def test_multi_step_composes(self, rng):
        aut = random_automaton(rng)
        q0 = aut.states[0][0]
        w = random_bits(rng, 11)
        c = Configuration(q0, Store.zeros(aut), "")
        stepped = c
        for b in w:
            stepped = step(stepped, b, aut)
        assert multi_step(c, w, aut) == stepped


class TestTypecheck:
    def test_clean_automaton(self):
        assert typecheck(two_state()) == []

    def test_bad_slice_bounds(self):
        aut = Automaton(
            (("h", 2),),
            (("Q0", State((Extract("h"), Assign("h", Slice(HdrRef("h"), 1, 0))), Goto(ACCEPT))),),
        )
        assert typecheck(aut)

    def test_pattern_width_mismatch(self):
        aut = Automaton(
            (("h", 2),),
            (
                (
                    "Q0",
                    State(
                        (Extract("h"),),
                        Select((HdrRef("h"),), (Case((ExactPat("111"),), ACCEPT),)),
                    ),
                ),
            ),
        )
        assert typecheck(aut)

    def test_unknown_target(self):
        aut = Automaton(
            (("h", 1),),
            (("Q0", State((Extract("h"),), Goto("nowhere"))),),
        )
        assert typecheck(aut)

    def test_assign_width_mismatch(self):
        aut = Automaton(
            (("h", 2),),
            (("Q0", State((Extract("h"), Assign("h", Lit("1"))), Goto(ACCEPT))),),
        )
        assert typecheck(aut)

    def test_state_with_no_extract(self):
        aut = Automaton((("h", 1),), (("Q0", State((), Goto(ACCEPT))),))
        assert typecheck(aut)  # opsize 0 breaks the buffer invariant

    def test_extract_of_unknown_header(self):
        # construction builds the lookup tables and must not reject this
        aut = Automaton((("h", 1),), (("Q0", State((Extract("g"),), Goto(ACCEPT))),))
        assert any("'g'" in e for e in typecheck(aut))


class TestDisjointSum:
    def test_renamings_are_disjoint_and_total(self):
        a = two_state()
        total, left, right = disjoint_sum(a, a)
        assert set(left.states.values()) & set(right.states.values()) == set()
        assert set(left.headers.values()) & set(right.headers.values()) == set()
        assert len(dict(total.states)) == 4
        assert len(dict(total.headers)) == 4
        assert typecheck(total) == []

    def test_sum_preserves_language(self, rng):
        a1 = random_automaton(rng)
        a2 = random_automaton(rng)
        total, left, right = disjoint_sum(a1, a2)
        q1 = a1.states[0][0]
        for _ in range(40):
            w = random_bits(rng, rng.randrange(10))
            assert accepts(q1, Store.zeros(a1), w, a1) == accepts(
                left.states[q1],
                Store.zeros(total),
                w,
                total,
            )
            q2 = a2.states[0][0]
            assert accepts(q2, Store.zeros(a2), w, a2) == accepts(
                right.states[q2],
                Store.zeros(total),
                w,
                total,
            )
