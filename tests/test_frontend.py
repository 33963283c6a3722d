"""Surface syntax: parsing, inference, printing, relation files."""

import pytest

from _gen import random_automaton
from conftest import ALL_FIXTURES, load_fixture
from parseq.core import ACCEPT, Goto, Select, Wildcard, disjoint_sum, typecheck
from parseq.confrel import BOT, TOP, Eq, Guarded, Implies
from parseq.frontend import (
    Diagnostic,
    parse_relation,
    parse_source,
    pretty_print,
)


MPLS_STYLE = """
# two-state reference parser
state q1 {
  extract(mpls, 4);
  select(mpls[0:0]) {
    (0b0) => q1
    (0b1) => q2
  }
}
state q2 {
  extract(udp, 2);
  goto accept
}
"""


class TestParsing:
    def test_reference_shape(self):
        aut = parse_source(MPLS_STYLE)
        assert dict(aut.headers) == {"mpls": 4, "udp": 2}
        assert [q for q, _ in aut.states] == ["q1", "q2"]
        assert isinstance(aut.state("q1").trans, Select)
        assert isinstance(aut.state("q2").trans, Goto)
        assert typecheck(aut) == []

    def test_literal_forms(self):
        aut = parse_source(
            """
            state s {
              extract(h, 8);
              select(h) {
                (0x5a) => accept
                (0b00000000) => reject
                (00000001) => accept
              }
            }
            """
        )
        pats = [c.patterns[0].bits for c in aut.state("s").trans.cases]
        assert pats == ["01011010", "00000000", "00000001"]

    def test_bare_bitstring_keeps_leading_zeros(self):
        aut = parse_source(
            "state s { extract(h, 4); select(h) { (0001) => accept } }"
        )
        assert aut.state("s").trans.cases[0].patterns[0].bits == "0001"

    def test_wildcard_and_multi_expr_select(self):
        aut = parse_source(
            """
            state s {
              extract(a, 1);
              extract(b, 1);
              select(a, b) { (0, 0) => s (1, _) => accept }
            }
            """
        )
        cases = aut.state("s").trans.cases
        assert isinstance(cases[1].patterns[1], Wildcard)

    def test_assignment_width_inference(self):
        aut = parse_source(
            """
            state s {
              extract(a, 2);
              c := a ++ a;
              goto accept
            }
            state t {
              extract(c, 4);
              goto accept
            }
            """
        )
        assert dict(aut.headers)["c"] == 4

    def test_inconsistent_extract_widths(self):
        with pytest.raises(Diagnostic) as e:
            parse_source(
                "state s { extract(h, 8); goto t } state t { extract(h, 16); goto accept }"
            )
        assert "h" in str(e.value)

    def test_diagnostics_carry_positions(self):
        with pytest.raises(Diagnostic) as e:
            parse_source("state s {\n  extract(h, 2)\n  goto accept\n}")
        assert e.value.line >= 2

    def test_reserved_state_names(self):
        with pytest.raises(Diagnostic):
            parse_source("state accept { extract(h, 1); goto reject }")

    def test_unknown_target_is_diagnosed(self):
        with pytest.raises(Diagnostic):
            parse_source("state s { extract(h, 1); goto nowhere }")

    def test_empty_source_rejected(self):
        with pytest.raises(Diagnostic):
            parse_source("# nothing here\n")


class TestPrettyPrint:
    def test_fixture_round_trips(self):
        for name in ALL_FIXTURES:
            aut = load_fixture(name)
            assert parse_source(pretty_print(aut)) == aut

    def test_idempotent(self):
        for name in ALL_FIXTURES:
            text = pretty_print(load_fixture(name))
            assert pretty_print(parse_source(text)) == text

    def test_generated_round_trips(self, rng):
        # the parser records headers in first-use order and cannot see
        # headers no state ever touches, so compare up to those
        hits = 0
        for _ in range(60):
            aut = random_automaton(rng)
            try:
                back = parse_source(pretty_print(aut))
            except Diagnostic:
                # width inference cannot recover a header that is assigned
                # but never extracted; such automata have no surface form
                continue
            assert set(back.headers) <= set(aut.headers)
            assert back.states == aut.states
            hits += 1
        assert hits >= 30


class TestRelationFiles:
    def _renamings(self):
        left = load_fixture("mpls_ref_small")
        right = load_fixture("mpls_vec_small")
        total, lmap, rmap = disjoint_sum(left, right)
        return lmap, rmap, total.sizes

    def test_init_and_pairs(self):
        lmap, rmap, sizes = self._renamings()
        phi, extras = parse_relation(
            "init: left.mpls = right.old\n"
            "pair q1 0 q3 0: left.buf = right.buf\n"
            "pair q2 1 q4 0: true\n",
            lmap.states,
            rmap.states,
            lmap.headers,
            rmap.headers,
            sizes,
        )
        assert isinstance(phi, Eq)
        assert len(extras) == 2
        assert all(isinstance(g, Guarded) for g in extras)
        assert extras[0].t1.state == lmap.states["q1"]
        assert extras[0].t2.state == rmap.states["q3"]

    def test_formula_syntax(self):
        lmap, rmap, sizes = self._renamings()
        phi, _ = parse_relation(
            "init: !(left.mpls = 0b1) => (right.old[0:0] = 0b0 && true)\n",
            lmap.states,
            rmap.states,
            lmap.headers,
            rmap.headers,
            sizes,
        )
        assert isinstance(phi, Implies)

    def test_unknown_names_are_diagnosed(self):
        lmap, rmap, sizes = self._renamings()
        with pytest.raises(Diagnostic):
            parse_relation(
                "pair nosuch 0 q3 0: true\n",
                lmap.states,
                rmap.states,
                lmap.headers,
                rmap.headers,
                sizes,
            )
        with pytest.raises(Diagnostic):
            parse_relation(
                "init: left.nosuch = 0b1\n",
                lmap.states,
                rmap.states,
                lmap.headers,
                rmap.headers,
                sizes,
            )
