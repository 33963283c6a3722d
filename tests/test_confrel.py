"""Relation formulas: evaluation, substitution, simplification, rendering."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import random_automaton, random_bit_expr, random_bits, random_formula
from parseq.core import ACCEPT, Configuration, Store, slice_bits
from parseq.confrel import (
    BOT,
    LEFT,
    RIGHT,
    TOP,
    And,
    Eq,
    Guarded,
    Implies,
    Not,
    Or,
    Template,
    buf,
    denotes,
    eval_bit_expr,
    hdr,
    holds,
    lit,
    render,
    render_bit_expr,
    render_guarded,
    simplify,
    template_of,
    templates_of,
    var,
    variables,
)
from parseq.wp import canonical_vars


CL = Configuration("q", Store.of({"h": "1010"}), "011")
CR = Configuration("p", Store.of({"h": "0001"}), "1")


class TestEval:
    def test_buf_refs_pick_sides(self):
        assert eval_bit_expr(buf(LEFT, 3), CL, CR, {}) == "011"
        assert eval_bit_expr(buf(RIGHT, 1), CL, CR, {}) == "1"

    def test_header_slice_concat(self):
        e = hdr("h", LEFT, 4).slice(1, 2) + hdr("h", RIGHT, 4)
        assert eval_bit_expr(e, CL, CR, {}) == "010001"

    def test_variable_lookup(self):
        assert eval_bit_expr(var("x"), CL, CR, {"x": "1"}) == "1"

    def test_holds_connectives(self):
        eq = Eq(buf(RIGHT, 1), lit("1"))
        assert holds(eq, CL, CR, {})
        assert not holds(Not(eq), CL, CR, {})
        assert holds(Implies(BOT, BOT), CL, CR, {})
        assert holds(And((TOP, eq)), CL, CR, {})
        assert not holds(Or((BOT,)), CL, CR, {})

    def test_denotes_quantifies_variables(self):
        # closed formula: denotes == holds under the empty valuation
        eq = Eq(buf(RIGHT, 1), lit("1"))
        assert denotes(eq, CL, CR) == holds(eq, CL, CR, {})
        # x = 0 fails at the valuation x=1
        assert not denotes(Eq(var("x"), lit("0")), CL, CR)
        assert denotes(Eq(var("x"), var("x")), CL, CR)


class TestVariables:
    def test_collection(self):
        phi = Implies(Eq(var("a"), lit("0")), Eq(var("b") + var("a"), lit("01")))
        assert variables(phi) == {"a", "b"}

    def test_rename_preserves_meaning(self):
        phi = Eq(var("a") + var("b"), lit("10"))
        psi = canonical_vars(phi)
        assert variables(psi) == {"v0", "v1"}
        assert denotes(phi, CL, CR) == denotes(psi, CL, CR)

    def test_canonical_vars_is_stable(self):
        phi = Eq(var("x9") + var("x3"), var("x3") + var("x9"))
        canon = canonical_vars(phi)
        assert variables(canon) == {"v0", "v1"}
        assert canonical_vars(canon) == canon

    def test_canonical_vars_identifies_alpha_equivalent(self):
        a = Eq(var("x0"), lit("1"))
        b = Eq(var("x7"), lit("1"))
        assert canonical_vars(a) == canonical_vars(b)

    def test_instantiate_vars(self):
        phi = Eq(var("a") + var("b"), lit("10"))
        assert holds(phi, CL, CR, {"a": "1", "b": "0"})
        assert not holds(phi, CL, CR, {"a": "0", "b": "1"})

    def test_canonical_preserves_denotation_on_random_formulas(self, rng):
        for _ in range(50):
            aut = random_automaton(rng, max_states=1, max_header_bits=2)
            sizes = dict(aut.headers)
            phi = random_formula(rng, sizes, {LEFT: 1, RIGHT: 0}, ["p", "q", "r"])
            cl = Configuration("A", _random_store(rng, sizes), random_bits(rng, 1))
            cr = Configuration("B", _random_store(rng, sizes), "")
            assert denotes(phi, cl, cr) == denotes(canonical_vars(phi), cl, cr)


def _random_store(rng, sizes):
    return Store.of({h: random_bits(rng, sz) for h, sz in sizes.items()})


class TestWideVariables:
    """A 3-bit variable means what three 1-bit variables side by side mean."""

    @staticmethod
    def shapes(x):
        return [
            Eq(x, hdr("h", LEFT, 4).slice(0, 2)),
            Implies(Eq(x, lit("011")), Eq(x, buf(LEFT, 3))),
            Or((Eq(x.slice(0, 0), lit("0")), Eq(x.slice(0, 0), lit("1")))),
            Not(Eq(x.slice(1, 2) + buf(RIGHT, 1), lit("101"))),
        ]

    def wide_and_split(self):
        split = var("a") + (var("b") + var("c"))
        return self.shapes(var("x", 3)), self.shapes(split)

    def test_denotes(self):
        wide, split = self.wide_and_split()
        got = [denotes(phi, CL, CR) for phi in wide]
        assert got == [denotes(phi, CL, CR) for phi in split]
        assert got == [False, True, True, False]

    def test_instantiate_vars(self):
        for wide, split in zip(*self.wide_and_split()):
            for bits in itertools.product("01", repeat=3):
                w = holds(wide, CL, CR, {"x": "".join(bits)})
                assert w == holds(split, CL, CR, dict(zip("abc", bits)))

    def test_renaming_keeps_widths(self):
        # canonical names are one bit wide: a 3-bit variable becomes three
        phi = Eq(var("x7", 3) + var("x2"), hdr("h", LEFT, 4))
        v = [var(f"v{i}") for i in range(4)]
        assert canonical_vars(phi) == Eq(v[0] + v[1] + v[2] + v[3], hdr("h", LEFT, 4))
        x = var("x", 3)
        phi = Eq(x.slice(1, 2), var("y") + x.slice(2, 2))
        assert canonical_vars(phi) == Eq(v[0] + v[1], v[2] + v[1])
        assert (var("x", 3) + var("y")).width == 4


class TestGuards:
    def test_guarded_vacuous_on_other_templates(self):
        g = Guarded(Template("q", 3), Template("other", 0), BOT)
        assert g.denotes(CL, CR)  # CR is in state p, guard does not apply
        g2 = Guarded(Template("q", 3), Template("p", 1), BOT)
        assert not g2.denotes(CL, CR)

    def test_template_of_results_have_empty_buffer(self):
        c = Configuration(ACCEPT, Store.of({}), "")
        assert template_of(c) == Template(ACCEPT, 0)

    def test_templates_of_enumerates_buffer_lengths(self, rng):
        aut = random_automaton(rng)
        ts = templates_of(aut)
        for t in ts:
            if t.state not in (ACCEPT, "reject"):
                assert 0 <= t.buflen < aut.opsize_of(t.state)


class TestSimplify:
    def test_constant_folds(self):
        assert simplify(Eq(lit("01"), lit("01"))) == TOP
        assert simplify(Eq(lit("01"), lit("10"))) == BOT
        assert simplify(Implies(BOT, BOT)) == TOP
        assert simplify(Not(Not(TOP))) == TOP
        assert simplify(And((TOP, TOP))) == TOP
        assert simplify(Or((BOT, BOT))) == BOT

    def test_static_width_mismatch_is_false(self):
        assert simplify(Eq(hdr("h", LEFT, 2), lit("1"))) == BOT

    def test_zero_width_buffer_vanishes(self):
        phi = Eq(buf(LEFT, 0) + lit("10"), buf(RIGHT, 2))
        assert phi == Eq(lit("10"), buf(RIGHT, 2))
        assert simplify(phi) == phi

    def test_preserves_denotation(self, rng):
        for _ in range(200):
            aut = random_automaton(rng, max_states=1, max_header_bits=3)
            sizes = dict(aut.headers)
            buflens = {LEFT: rng.randrange(3), RIGHT: rng.randrange(3)}
            phi = random_formula(rng, sizes, buflens, ["x", "y"])
            psi = simplify(phi)
            for _ in range(8):
                cl = Configuration("A", _random_store(rng, sizes), random_bits(rng, buflens[LEFT]))
                cr = Configuration("B", _random_store(rng, sizes), random_bits(rng, buflens[RIGHT]))
                for val in itertools.product("01", repeat=2):
                    v = dict(zip(("x", "y"), val))
                    assert holds(phi, cl, cr, v) == holds(psi, cl, cr, v)


class TestSimplifyIdempotent:
    A = Eq(buf(LEFT, 1), lit("1"))
    B = Eq(buf(RIGHT, 1), lit("0"))

    def test_flattened_conjunction_drops_duplicates(self):
        assert simplify(And((self.A, And((self.A, self.B))))) == And((self.A, self.B))

    def test_flattened_disjunction_drops_duplicates(self):
        assert simplify(Or((self.A, Or((self.A, self.B))))) == Or((self.A, self.B))

    def test_simplify_twice_is_simplify_once(self, rng):
        for _ in range(300):
            aut = random_automaton(rng, max_states=1, max_header_bits=3)
            sizes = dict(aut.headers)
            buflens = {LEFT: rng.randrange(3), RIGHT: rng.randrange(3)}
            phi = random_formula(rng, sizes, buflens, ["x", "y"], depth=3)
            once = simplify(phi)
            assert simplify(once) == once, render(phi)


class TestRender:
    def test_deterministic_and_readable(self):
        g = Guarded(
            Template("q2", 40),
            Template("q5", 32),
            Eq(buf(LEFT, 40).slice(0, 31), buf(RIGHT, 32)),
        )
        assert render_guarded(g) == "[<q2,40> <q5,32>] buf<[0:31] = buf>"

    def test_render_connectives(self):
        phi = Implies(Not(Eq(var("x"), lit("1"))), BOT)
        text = render(phi)
        assert "x" in text and "false" in text
        assert render(phi) == text  # stable


def _random_setting(r):
    """Header sizes, buffer widths, and a configuration pair and valuation
    of the variables x and y that fit them."""
    sizes = {"h0": r.randint(1, 3), "h1": r.randint(1, 3)}
    buflens = {LEFT: r.randrange(4), RIGHT: r.randrange(4)}
    cl = Configuration("A", _random_store(r, sizes), random_bits(r, buflens[LEFT]))
    cr = Configuration("B", _random_store(r, sizes), random_bits(r, buflens[RIGHT]))
    return sizes, buflens, cl, cr, {"x": random_bits(r, 1), "y": random_bits(r, 1)}


class TestNormalForm:
    """Bit expressions are flat segment tuples whose width is stored."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_stored_width_is_the_evaluated_width(self, r):
        sizes, buflens, cl, cr, v = _random_setting(r)
        e = random_bit_expr(r, sizes, buflens, ["x", "y"], r.randint(1, 4), depth=3)
        for _ in range(3):  # slices and concatenations
            lo, hi = r.randrange(6), r.randrange(6)
            other = random_bit_expr(r, sizes, buflens, ["x"], r.randint(1, 3))
            bits = eval_bit_expr(e, cl, cr, v)
            if not lo <= hi < e.width:
                with pytest.raises(ValueError, match="out of range"):
                    e.slice(lo, hi)
            else:
                assert eval_bit_expr(e.slice(lo, hi), cl, cr, v) == slice_bits(bits, lo, hi)
                if r.random() < 0.5:
                    bits, e = slice_bits(bits, lo, hi), e.slice(lo, hi)
            bits, e = bits + eval_bit_expr(other, cl, cr, v), e + other
            assert eval_bit_expr(e, cl, cr, v) == bits
            assert e.width == len(bits)
            segs = e.segs
            assert all(seg for seg in segs)
            assert not any(type(a) is str and type(b) is str for a, b in zip(segs, segs[1:]))

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_simplify_preserves_holds_and_is_idempotent(self, r):
        sizes, buflens, cl, cr, v = _random_setting(r)
        phi = random_formula(r, sizes, buflens, ["x", "y"], depth=3)
        once = simplify(phi)
        assert holds(once, cl, cr, v) == holds(phi, cl, cr, v)
        assert simplify(once) == once

    def test_slice_of_a_concatenation_is_a_tuple_slice(self):
        e = buf(LEFT, 4) + var("x", 4) + lit("01") + lit("1")
        assert e.segs[-1] == "011" and e.width == 11
        assert e.slice(2, 5) == buf(LEFT, 4).slice(2, 3) + var("x", 4).slice(0, 1)
        assert e.slice(6, 10) == var("x", 4).slice(2, 3) + lit("011")
        for expr, lo, hi in ((e, 6, 99), (e, 5, 4), (e, -1, 3), (lit(""), 0, 3)):
            with pytest.raises(ValueError, match="out of range"):
                expr.slice(lo, hi)

    def test_long_concatenation_needs_no_recursion(self):
        e = lit("")
        for i in range(4096):
            e = e + var(f"v{i}")
        assert e.width == 4096 and len(e.segs) == 4096
        assert render_bit_expr(e).count(" ++ ") == 4095
        assert render(Eq(e, e.slice(0, 4095))) == render(Eq(e, e))
