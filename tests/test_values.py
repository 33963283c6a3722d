"""Value semantics of parseq's plain classes, the kinds of formula every
evaluator takes, and what importing parseq loads."""

import os
import subprocess
import sys
from typing import get_args

import pytest

import parseq
from parseq.confrel import (
    LEFT,
    And,
    BHdrRef,
    Bottom,
    BufRef,
    Eq,
    Formula,
    Guarded,
    Implies,
    Not,
    Or,
    Template,
    Top,
    Var,
    buf,
    holds,
    lit,
    ref,
    render,
    replace,
)
from parseq.core import (
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
    Record,
    Renaming,
    Select,
    Slice,
    State,
    Store,
    Wildcard,
)
from parseq.engine import Entry, Result, Stats, Witness
from parseq.lanes import lane_bits, sat_name, simulate
from parseq.oracle import Distinguisher
from parseq.reach import ReachSet, TemplatePair
from parseq.smt import Blaster, FilteredEntailment, SolverConfig, _smt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(parseq.__file__)))


def _eq():
    return Eq(buf(LEFT, 2), lit("01"))


def _template():
    return Template("q", 1)


def _automaton():
    trans = Select((Slice(HdrRef("h"), 0, 0),), (Case((ExactPat("1"),), "accept"),))
    state = State((Extract("h"),), trans)
    return Automaton((("h", 2),), (("q", state),))


def _store():
    return Store((("h", "01"),))


# Each builds a new instance, fields included, on every call.
VALUES = {
    HdrRef: lambda: HdrRef("h"),
    Lit: lambda: Lit("01"),
    Slice: lambda: Slice(HdrRef("h"), 0, 1),
    Concat: lambda: Concat(HdrRef("h"), Lit("1")),
    ExactPat: lambda: ExactPat("01"),
    Wildcard: Wildcard,
    Extract: lambda: Extract("h"),
    Assign: lambda: Assign("h", Lit("01")),
    Goto: lambda: Goto("accept"),
    Case: lambda: Case((ExactPat("1"), Wildcard()), "q"),
    Select: lambda: Select((HdrRef("h"),), (Case((ExactPat("1"),), "q"),)),
    State: lambda: State((Extract("h"),), Goto("accept")),
    Automaton: _automaton,
    Store: _store,
    Configuration: lambda: Configuration("q", _store(), "1"),
    BufRef: lambda: BufRef(LEFT),
    BHdrRef: lambda: BHdrRef("h", LEFT, 2),
    Var: lambda: Var("x", 3),
    Bottom: Bottom,
    Top: Top,
    Eq: _eq,
    Implies: lambda: Implies(_eq(), Not(_eq())),
    And: lambda: And((_eq(), Top())),
    Or: lambda: Or((_eq(), Bottom())),
    Not: lambda: Not(_eq()),
    Template: _template,
    Guarded: lambda: Guarded(_template(), Template("p", 0), _eq()),
    TemplatePair: lambda: TemplatePair(_template(), Template("p", 0)),
}
# records that nothing compares or hashes: equal only to themselves
IDENTITY = {
    Distinguisher, FilteredEntailment, ReachSet, Entry, Renaming,
    Stats, Witness, Result, SolverConfig,
}


def _all_records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_records(sub)


class TestValueSemantics:
    def test_every_record_is_covered(self):
        assert set(_all_records()) == set(VALUES) | IDENTITY

    @pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
    def test_equal_fields_are_equal_and_hash_equal(self, cls):
        a, b = VALUES[cls](), VALUES[cls]()
        assert type(a) is cls
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert not hasattr(a, "__dict__")
        assert repr(a).startswith(f"{cls.__name__}(")

    def test_the_others_compare_by_identity(self):
        a, b = Stats(), Stats()
        assert a == a and a != b and len({a, b}) == 2

    @pytest.mark.parametrize(
        "a, b",
        [
            (Top(), Bottom()),
            (And((_eq(), Top())), Or((_eq(), Top()))),
            (BufRef("<"), Var("<")),
            (HdrRef("h"), Extract("h")),
            (Lit("01"), ExactPat("01")),
        ],
        ids=lambda x: type(x).__name__,
    )
    def test_equal_fields_of_two_classes_are_unequal(self, a, b):
        assert a != b and b != a
        assert not a == b
        assert len({a, b}) == 2

    def test_unequal_fields_are_unequal(self):
        assert Var("x", 1) != Var("x", 2)
        assert Template("q", 0) != Template("q", 1)
        assert Implies(_eq(), Top()) != Implies(Top(), _eq())

    def test_automaton_equality_ignores_lookup_tables(self):
        a, b = _automaton(), _automaton()
        a.sizes["extra"] = 9
        a.state_map.clear()
        a._opsizes.clear()
        assert a == b and hash(a) == hash(b)
        assert "sizes" not in repr(a) and "state_map" not in repr(a)

    def test_lit_checks_its_bits(self):
        with pytest.raises(ValueError):
            Lit("2")

    def test_defaults_are_fresh(self):
        assert Renaming().states is not Renaming().states
        assert Renaming().headers is not Renaming().headers
        assert Witness().entries is not Witness().entries
        assert Result("Equivalent").stats is not Result("Equivalent").stats

    def test_defaults_are_unchanged(self):
        assert Var("x").width == 1
        assert SolverConfig().timeout == 60.0
        assert SolverConfig().backend == "internal"
        assert SolverConfig().dump_dir is None
        assert Result("Equivalent").reason == "" and Result("Equivalent").witness is None
        assert Stats().iterations == 0 and Stats().wall_time == 0.0


def _evaluators():
    """Each evaluator of formulas, by name, as a function of one formula."""
    conf = Configuration("q", _store(), "01")
    bits = lambda s: lane_bits(sat_name(s.base), s.hi + 1)[s.lo : s.hi + 1]
    as_vars = lambda s: ref(Var(sat_name(s.base), 8), 8).slice(s.lo, s.hi)
    return {
        "holds": lambda f: holds(f, conf, conf, {}),
        "render": render,
        "simulate": lambda f: simulate(f, bits),
        "Blaster.formula": Blaster(lambda s: (sat_name(s.base), 8)).formula,
        "_smt": lambda f: _smt(replace(f, as_vars)),
    }


class TestClosedWorld:
    """Every evaluator takes every kind of formula, and nothing else."""

    @pytest.mark.parametrize("cls", get_args(Formula), ids=lambda c: c.__name__)
    def test_every_evaluator_takes_every_formula(self, cls):
        for evaluate in _evaluators().values():
            evaluate(VALUES[cls]())

    @pytest.mark.parametrize("name", list(_evaluators()))
    def test_each_evaluator_rejects_a_non_formula(self, name):
        with pytest.raises(TypeError):
            _evaluators()[name](_template())


class TestImportFootprint:
    def test_a_check_loads_no_module_it_does_not_use(self):
        """``-S`` skips ``site``, whose ``.pth`` files may import any of these."""
        unused = [
            "dataclasses", "inspect", "subprocess", "shutil", "json", "importlib.resources",
            "parseq.oracle",
        ]
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "import parseq, parseq.engine, parseq.frontend; "
            f"print([m for m in {unused!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_oracle_names_load_on_first_use(self):
        code = (
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "import parseq; before = 'parseq.oracle' in sys.modules; "
            "from parseq import oracle_equivalent, distinguishing_word; "
            "from parseq import *; "
            "print(before, oracle_equivalent.__module__, "
            "all(name in globals() for name in parseq.__all__))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == ["False", "parseq.oracle", "True"]
