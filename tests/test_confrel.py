"""Relation formulas: evaluation, substitution, simplification, rendering."""

import itertools

import pytest

from _gen import random_automaton, random_bits, random_formula
from parseq.core import ACCEPT, Configuration, Store
from parseq.confrel import (
    BOT,
    LEFT,
    RIGHT,
    TOP,
    And,
    BConcat,
    BHdrRef,
    BLit,
    BSlice,
    BufLenIs,
    BufRef,
    Eq,
    Guarded,
    Implies,
    Not,
    NotPure,
    Or,
    StateIs,
    Template,
    Var,
    WidthContext,
    canonical_vars,
    denotes,
    eval_bit_expr,
    guard,
    holds,
    instantiate_vars,
    is_pure,
    render,
    render_guarded,
    rename_vars,
    simplify,
    template_of,
    templates_of,
    variables,
)


CL = Configuration("q", Store.of({"h": "1010"}), "011")
CR = Configuration("p", Store.of({"h": "0001"}), "1")


class TestEval:
    def test_buf_refs_pick_sides(self):
        assert eval_bit_expr(BufRef(LEFT), CL, CR, {}) == "011"
        assert eval_bit_expr(BufRef(RIGHT), CL, CR, {}) == "1"

    def test_header_slice_concat(self):
        e = BConcat(BSlice(BHdrRef("h", LEFT), 1, 2), BHdrRef("h", RIGHT))
        assert eval_bit_expr(e, CL, CR, {}) == "010001"

    def test_variable_lookup(self):
        assert eval_bit_expr(Var("x"), CL, CR, {"x": "1"}) == "1"

    def test_holds_connectives(self):
        eq = Eq(BufRef(RIGHT), BLit("1"))
        assert holds(eq, CL, CR, {})
        assert not holds(Not(eq), CL, CR, {})
        assert holds(Implies(BOT, BOT), CL, CR, {})
        assert holds(And((TOP, eq)), CL, CR, {})
        assert not holds(Or((BOT,)), CL, CR, {})

    def test_holds_state_and_buflen(self):
        assert holds(StateIs("q", LEFT), CL, CR, {})
        assert not holds(StateIs("q", RIGHT), CL, CR, {})
        assert holds(BufLenIs(3, LEFT), CL, CR, {})
        assert not holds(BufLenIs(3, RIGHT), CL, CR, {})

    def test_denotes_quantifies_variables(self):
        # closed formula: denotes == holds under the empty valuation
        eq = Eq(BufRef(RIGHT), BLit("1"))
        assert denotes(eq, CL, CR) == holds(eq, CL, CR, {})
        # x = 0 fails at the valuation x=1
        assert not denotes(Eq(Var("x"), BLit("0")), CL, CR)
        assert denotes(Eq(Var("x"), Var("x")), CL, CR)


class TestVariables:
    def test_collection(self):
        phi = Implies(Eq(Var("a"), BLit("0")), Eq(BConcat(Var("b"), Var("a")), BLit("01")))
        assert variables(phi) == {"a", "b"}

    def test_rename_preserves_meaning(self):
        phi = Eq(BConcat(Var("a"), Var("b")), BLit("10"))
        psi = rename_vars(phi, {"a": "u", "b": "w"})
        assert variables(psi) == {"u", "w"}
        assert denotes(phi, CL, CR) == denotes(psi, CL, CR)

    def test_canonical_vars_is_stable(self):
        phi = Eq(BConcat(Var("x9"), Var("x3")), BConcat(Var("x3"), Var("x9")))
        canon = canonical_vars(phi)
        assert variables(canon) == {"v0", "v1"}
        assert canonical_vars(canon) == canon

    def test_canonical_vars_identifies_alpha_equivalent(self):
        a = Eq(Var("x0"), BLit("1"))
        b = Eq(Var("x7"), BLit("1"))
        assert canonical_vars(a) == canonical_vars(b)

    def test_instantiate_vars(self):
        phi = Eq(BConcat(Var("a"), Var("b")), BLit("10"))
        inst = instantiate_vars(phi, {"a": "1", "b": "0"})
        assert variables(inst) == set()
        assert holds(inst, CL, CR, {})

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
            Eq(x, BSlice(BHdrRef("h", LEFT), 0, 2)),
            Implies(Eq(x, BLit("011")), Eq(x, BufRef(LEFT))),
            Or((Eq(BSlice(x, 0, 0), BLit("0")), Eq(BSlice(x, 0, 0), BLit("1")))),
            Not(Eq(BConcat(BSlice(x, 1, 2), BufRef(RIGHT)), BLit("101"))),
        ]

    def wide_and_split(self):
        split = BConcat(Var("a"), BConcat(Var("b"), Var("c")))
        return self.shapes(Var("x", 3)), self.shapes(split)

    def test_denotes(self):
        wide, split = self.wide_and_split()
        got = [denotes(phi, CL, CR) for phi in wide]
        assert got == [denotes(phi, CL, CR) for phi in split]
        assert got == [False, True, True, False]

    def test_instantiate_vars(self):
        for wide, split in zip(*self.wide_and_split()):
            for bits in itertools.product("01", repeat=3):
                w = instantiate_vars(wide, {"x": "".join(bits)})
                s = instantiate_vars(split, dict(zip("abc", bits)))
                assert variables(w) == set()
                assert holds(w, CL, CR, {}) == holds(s, CL, CR, {})
        phi = Eq(Var("x", 3), BufRef(LEFT))
        assert instantiate_vars(phi, {"x": "011"}) == Eq(BLit("011"), BufRef(LEFT))

    def test_renaming_keeps_widths(self):
        phi = Eq(BConcat(Var("x7", 3), Var("x2")), BHdrRef("h", LEFT))
        assert canonical_vars(phi) == Eq(BConcat(Var("v0", 3), Var("v1")), BHdrRef("h", LEFT))
        assert WidthContext().width(Var("x", 3)) == 3


class TestGuards:
    def test_guard_rejects_impure_bodies(self):
        t = Template("q", 0)
        with pytest.raises(NotPure):
            guard(t, t, StateIs("q", LEFT))
        with pytest.raises(NotPure):
            guard(t, t, And((TOP, BufLenIs(0, RIGHT))))

    def test_is_pure(self):
        assert is_pure(Implies(Eq(Var("x"), BLit("0")), TOP))
        assert not is_pure(Not(StateIs("q", LEFT)))

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
        ctx = WidthContext({}, {LEFT: 0, RIGHT: 0})
        assert simplify(Eq(BLit("01"), BLit("01")), ctx) == TOP
        assert simplify(Eq(BLit("01"), BLit("10")), ctx) == BOT
        assert simplify(Implies(BOT, BOT), ctx) == TOP
        assert simplify(Not(Not(TOP)), ctx) == TOP
        assert simplify(And((TOP, TOP)), ctx) == TOP
        assert simplify(Or((BOT, BOT)), ctx) == BOT

    def test_static_width_mismatch_is_false(self):
        ctx = WidthContext({"h": 2}, {LEFT: 0, RIGHT: 0})
        assert simplify(Eq(BHdrRef("h", LEFT), BLit("1")), ctx) == BOT

    def test_zero_width_buffer_vanishes(self):
        ctx = WidthContext({}, {LEFT: 0, RIGHT: 2})
        phi = Eq(BConcat(BufRef(LEFT), BLit("10")), BufRef(RIGHT))
        assert simplify(phi, ctx) == Eq(BLit("10"), BufRef(RIGHT))

    def test_preserves_denotation(self, rng):
        for _ in range(200):
            aut = random_automaton(rng, max_states=1, max_header_bits=3)
            sizes = dict(aut.headers)
            buflens = {LEFT: rng.randrange(3), RIGHT: rng.randrange(3)}
            phi = random_formula(rng, sizes, buflens, ["x", "y"])
            ctx = WidthContext(sizes, buflens)
            psi = simplify(phi, ctx)
            for _ in range(8):
                cl = Configuration("A", _random_store(rng, sizes), random_bits(rng, buflens[LEFT]))
                cr = Configuration("B", _random_store(rng, sizes), random_bits(rng, buflens[RIGHT]))
                for val in itertools.product("01", repeat=2):
                    v = dict(zip(("x", "y"), val))
                    assert holds(phi, cl, cr, v) == holds(psi, cl, cr, v)


class TestSimplifyIdempotent:
    A = Eq(BufRef(LEFT), BLit("1"))
    B = Eq(BufRef(RIGHT), BLit("0"))
    CTX = WidthContext({}, {LEFT: 1, RIGHT: 1})

    def test_flattened_conjunction_drops_duplicates(self):
        assert simplify(And((self.A, And((self.A, self.B)))), self.CTX) == And(
            (self.A, self.B)
        )

    def test_flattened_disjunction_drops_duplicates(self):
        assert simplify(Or((self.A, Or((self.A, self.B)))), self.CTX) == Or(
            (self.A, self.B)
        )

    def test_simplify_twice_is_simplify_once(self, rng):
        for _ in range(300):
            aut = random_automaton(rng, max_states=1, max_header_bits=3)
            sizes = dict(aut.headers)
            buflens = {LEFT: rng.randrange(3), RIGHT: rng.randrange(3)}
            ctx = WidthContext(sizes, buflens)
            phi = random_formula(rng, sizes, buflens, ["x", "y"], depth=3)
            once = simplify(phi, ctx)
            assert simplify(once, ctx) == once, render(phi)


class TestRender:
    def test_deterministic_and_readable(self):
        g = Guarded(
            Template("q2", 0),
            Template("q5", 0),
            Eq(BSlice(BufRef(LEFT), 0, 31), BufRef(RIGHT)),
        )
        assert render_guarded(g) == "[<q2,0> <q5,0>] buf<[0:31] = buf>"

    def test_render_connectives(self):
        phi = Implies(Not(Eq(Var("x"), BLit("1"))), BOT)
        text = render(phi)
        assert "x" in text and "false" in text
        assert render(phi) == text  # stable
