"""Surface syntax: parsing, inference, printing, relation files."""

import pytest

from _gen import random_automaton
from conftest import ALL_FIXTURES, load_fixture
import parseq.frontend
from parseq import fixture_path
from parseq.core import ACCEPT, Goto, Select, Wildcard, disjoint_sum, typecheck
from parseq.confrel import BOT, TOP, Eq, Guarded, Implies
from parseq.frontend import (
    Diagnostic,
    parse_relation,
    parse_source,
    pretty_print,
    tokenize,
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


# What a re-spaced source puts between two tokens.
GAPS = ["", " ", "\t", "\n", "\r\n", "  \n\t", "# é $ %\n", " #\n", "\n# a comment\n  "]


def _respaced(text: str, rng) -> str:
    """``text``'s tokens with random whitespace and comments between them,
    never nothing where a name or number token meets another."""
    out = [rng.choice(GAPS)]
    word = False
    for tok in filter(None, tokenize(text)):
        if word and (tok[0].isalnum() or tok[0] == "_"):
            out.append(rng.choice(GAPS[1:]))
        else:
            out.append(rng.choice(GAPS))
        out.append(tok)
        word = tok[-1].isalnum() or tok[-1] == "_"
    out.append(rng.choice(GAPS + ["# a comment with no newline"]))
    return "".join(out)


class TestLexing:
    def test_respaced_sources_parse_alike(self, rng):
        sources = []
        for name in ALL_FIXTURES:
            with open(fixture_path(name)) as fh:
                sources.append(fh.read())
        for _ in range(60):
            text = pretty_print(random_automaton(rng))
            try:
                parse_source(text)
            except Diagnostic:
                continue  # no surface form; see test_generated_round_trips
            sources.append(text)
        assert len(sources) >= len(ALL_FIXTURES) + 30
        for text in sources:
            aut = parse_source(text)
            for _ in range(3):
                assert parse_source(_respaced(text, rng)) == aut


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
        return lmap, rmap, total

    def test_init_and_pairs(self):
        lmap, rmap, total = self._renamings()
        phi, extras = parse_relation(
            "init: left.mpls = right.old\n"
            "pair q1 0 q3 0: left.buf = right.buf\n"
            "pair q2 1 q4 0: true\n",
            lmap.states,
            rmap.states,
            lmap.headers,
            rmap.headers,
            total,
        )
        assert isinstance(phi, Eq)
        assert len(extras) == 2
        assert all(isinstance(g, Guarded) for g in extras)
        assert extras[0].t1.state == lmap.states["q1"]
        assert extras[0].t2.state == rmap.states["q3"]

    def test_formula_syntax(self):
        lmap, rmap, total = self._renamings()
        phi, _ = parse_relation(
            "init: !(left.mpls = 0b1) => (right.old[0:0] = 0b0 && true)\n",
            lmap.states,
            rmap.states,
            lmap.headers,
            rmap.headers,
            total,
        )
        assert isinstance(phi, Implies)

    def test_unknown_names_are_diagnosed(self):
        lmap, rmap, total = self._renamings()
        with pytest.raises(Diagnostic):
            parse_relation(
                "pair nosuch 0 q3 0: true\n",
                lmap.states,
                rmap.states,
                lmap.headers,
                rmap.headers,
                total,
            )
        with pytest.raises(Diagnostic):
            parse_relation(
                "init: left.nosuch = 0b1\n",
                lmap.states,
                rmap.states,
                lmap.headers,
                rmap.headers,
                total,
            )


# Every Diagnostic that parse_source (with its tokenizer and _infer_sizes)
# and parse_relation raise: the input, then the exact message, line and
# column. Line and column are 0 where the diagnostic has no position.
SOURCE_DIAGNOSTICS = [
    ("state s { extract(h, 1); goto accept } $", "unexpected character '$'", 1, 40),
    ("state s { extract(h, 1); select(h) { 2 => accept } }", "not a bitvector literal: '2'", 1, 38),
    ("state s {\n  extract(h, 2)\n  goto accept\n}", "expected ';', found 'goto'", 3, 3),
    ("state s { extract(h, 1); goto accept", "expected '}', found 'end of file'", 1, 37),
    ("state s { extract(goto, 1); goto accept }", "expected a header name, found 'goto'", 1, 19),
    ("state { extract(h, 1); goto accept }", "expected a state name, found '{'", 1, 7),
    ("state s { extract(h, x); goto accept }", "expected a number, found 'x'", 1, 22),
    ("state s { extract(h, 2); select(h[0:y]) { _ => accept } }", "expected a number, found 'y'", 1, 37),
    ("state a { extract(h,", "expected a number, found 'end of file'", 1, 21),
    ("state s { extract(h, 1); g := ; goto accept }", "expected an expression, found ';'", 1, 31),
    ("state s { extract(h, 1); select(h) { 0b1 => 0b1 } }", "expected a state name, found '0b1'", 1, 45),
    ("state a { extract(h, 8); goto", "expected a state name, found 'end of file'", 1, 30),
    ("state s { extract(h, 1); }", "expected 'goto' or 'select' to end the state", 1, 26),
    ("state accept { extract(h, 1); goto reject }", "'accept' is reserved", 1, 7),
    ("state s { extract(h, 1); goto accept } goto", "expected 'state', found 'goto'", 1, 40),
    ("# nothing here\n", "a source file needs at least one state", 1, 1),
    (
        "state s { extract(h, 8); goto t }\nstate t {\n  extract(h, 16); goto accept }",
        "header 'h' extracted at width 16, previously 8", 3, 11,
    ),
    (
        "state s { extract(h, 1); g := k; goto accept }",
        "cannot infer a width for header 'g' (never extracted, and its assignment's width is unknown)",
        1, 26,
    ),
    ("state s { extract(h, 1); select(k) { _ => accept } }", "header 'k' is read but never extracted or assigned", 0, 0),
    ("state s { extract(h, 1); goto nowhere }", "state 's': goto to undeclared state 'nowhere'", 0, 0),
    # how the lexer counts lines and columns, and which characters it takes
    ("state s { extract(h, 1); goto accept }\r\n$", "unexpected character '$'", 2, 1),
    ("\tstate s { extract(h, 1); goto nowhere2 } goto", "expected 'state', found 'goto'", 1, 43),
    ("state s { extract(h, 1); goto accépt }", "unexpected character 'é'", 1, 34),
    ("state s { extract(h, ²); goto accept }", "unexpected character '²'", 1, 22),
    ("state s { extract(h, 1); select(h) { 0x => accept } }", "expected '=>', found 'x'", 1, 39),
    ("state s { extract(h, 1); g := h + h; goto accept }", "unexpected character '+'", 1, 33),
]

# Sources the lexer takes as they are, each with the pretty-printed
# automaton it parses to.
ACCEPTED_SOURCES = [
    (
        "state s { extract(h, 1); goto accept } # é $ %\n",
        "state s {\n  extract(h, 1);\n  goto accept\n}\n",
    ),
    (
        "state s { extract(h, 1); goto accept }\n# no newline after this comment",
        "state s {\n  extract(h, 1);\n  goto accept\n}\n",
    ),
    (
        "state s { extract(h, 4); select(h) { 0xF => accept } }",
        "state s {\n  extract(h, 4);\n  select(h) {\n    0b1111 => accept\n  }\n}\n",
    ),
    (
        "state s{extract(h,2);select(h[0:0]++h[1:1]){0b10=>accept _=>reject}}",
        "state s {\n  extract(h, 2);\n  select(h[0:0] ++ h[1:1]) {\n"
        "    0b10 => accept\n    _ => reject\n  }\n}\n",
    ),
]

RELATION_DIAGNOSTICS = [
    ("init: left.mpls = right.old %", "unexpected character '%'", 1, 29),
    ("init: left.mpls = 0b1 2", "expected 'init' or 'pair', found '2'", 1, 23),
    ("init: left.nosuch = 0b1", "unknown header 'nosuch' on the left side", 1, 12),
    ("init: right.mpls = 0b1", "unknown header 'mpls' on the right side", 1, 13),
    ("init: left.mpls = ", "expected a bit expression, found 'end of file'", 1, 19),
    ("init: left.mpls 0b1", "expected '=', found '0b1'", 1, 17),
    ("init left.mpls = 0b1", "expected ':', found 'left'", 1, 6),
    ("pair nosuch 0 q3 0: true", "unknown left state 'nosuch'", 1, 6),
    ("pair q1 0 nosuch 0: true", "unknown right state 'nosuch'", 1, 11),
    ("pair q1 x q3 0: true", "expected a number, found 'x'", 1, 9),
    ("pair 1 0 q3 0: true", "expected a left state name, found '1'", 1, 6),
    ("init: true\nrule q1 0 q3 0: true", "expected 'init' or 'pair', found 'rule'", 2, 1),
    ("init: left.mpls[0:z] = 0b1", "expected a number, found 'z'", 1, 19),
    ("init: left.mpls[3:1] = 0b1", "slice [3:1] out of range for width 1", 1, 16),
    ("init: left.mpls[200:210] = 0b1", "slice [200:210] out of range for width 1", 1, 16),
    ("init: left.buf[0:0] = 0b1", "slice [0:0] out of range for width 0", 1, 15),
    (
        "pair q1 7 q3 0: left.buf[6:6] = 0b1",
        "buffer length 7 is not below the 1-bit operation of state 'q1'", 1, 9,
    ),
    ("pair q1 0 q3 2: true", "buffer length 2 is not below the 2-bit operation of state 'q3'", 1, 14),
]


def _diagnosed(e: Diagnostic) -> tuple:
    where = f"{e.line}:{e.col}: " if e.line else ""
    assert str(e) == where + e.message
    return e.message, e.line, e.col


class TestGoldenDiagnostics:
    @pytest.mark.parametrize("text, message, line, col", SOURCE_DIAGNOSTICS)
    def test_source(self, text, message, line, col):
        with pytest.raises(Diagnostic) as e:
            parse_source(text)
        assert _diagnosed(e.value) == (message, line, col)

    @pytest.mark.parametrize("text, printed", ACCEPTED_SOURCES)
    def test_accepted(self, text, printed):
        assert pretty_print(parse_source(text)) == printed

    @pytest.mark.parametrize("text, message, line, col", RELATION_DIAGNOSTICS)
    def test_relation(self, text, message, line, col):
        total, lmap, rmap = disjoint_sum(load_fixture("mpls_ref_small"), load_fixture("mpls_vec_small"))
        with pytest.raises(Diagnostic) as e:
            parse_relation(text, lmap.states, rmap.states, lmap.headers, rmap.headers, total)
        assert _diagnosed(e.value) == (message, line, col)

    def test_a_discarded_diagnostic_scans_nothing(self, monkeypatch):
        # The relation parser backtracks over "(" by discarding a Diagnostic;
        # only a diagnostic whose position is read scans the source again.
        scans = []
        real = parseq.frontend._TOKEN_RE

        class Counting:
            findall = real.findall

            def finditer(self, text):
                scans.append(text)
                return real.finditer(text)

        monkeypatch.setattr(parseq.frontend, "_TOKEN_RE", Counting())
        total, lmap, rmap = disjoint_sum(load_fixture("mpls_ref_small"), load_fixture("mpls_vec_small"))
        args = lmap.states, rmap.states, lmap.headers, rmap.headers, total
        init, _ = parse_relation("init: (left.mpls ++ left.mpls) = 0b01", *args)
        assert init != TOP and scans == []
        with pytest.raises(Diagnostic) as e:
            parse_relation("init: (left.mpls = 0b1", *args)
        assert scans == []
        assert _diagnosed(e.value) == ("expected ')', found '='", 1, 18) and len(scans) == 1
