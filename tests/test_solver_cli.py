"""The bundled SMT-LIB solver: parsing and end-to-end agreement."""

import io
import os
import subprocess
import sys
import tracemalloc

import pytest

import parseq.engine
from _gen import random_entailment
from conftest import load_fixture
from parseq.confrel import Eq, Top, lit, var
from parseq.engine import EQUIVALENT, check_equivalence
from parseq.smt import SolverConfig, check_sat, serialize_smtlib, to_fol_bv
from parseq.solver_cli import Script, main, parse_sexps, run_script, tokenize


def run(text):
    out = io.StringIO()
    code = run_script(text, out=out)
    return code, out.getvalue().strip()


class TestScripts:
    def test_trivial(self):
        assert run("(assert true)(check-sat)")[1] == "sat"
        assert run("(assert false)(check-sat)")[1] == "unsat"

    def test_declarations_and_equality(self):
        text = (
            "(set-logic QF_BV)"
            "(declare-const a (_ BitVec 2))"
            "(declare-const b (_ BitVec 2))"
            "(assert (= a b))"
            "(assert (not (= a #b01)))"
            "(check-sat)"
        )
        assert run(text)[1] == "sat"

    def test_extract_and_concat(self):
        text = (
            "(declare-const a (_ BitVec 4))"
            "(assert (= a (concat #b10 #b01)))"
            "(assert (= ((_ extract 3 2) a) #b10))"
            "(check-sat)"
        )
        assert run(text)[1] == "sat"
        contradiction = text.replace("extract 3 2) a) #b10", "extract 3 2) a) #b01")
        assert run(contradiction)[1] == "unsat"

    def test_wide_constant_under_extract_and_concat(self):
        decl = "(declare-const x (_ BitVec 3))"
        fits = "(assert (= (concat ((_ extract 2 1) x) #b1) #b101))"
        clash = "(assert (= x #b011))"
        script = Script()
        for cmd in parse_sexps(tokenize(decl + fits + clash)):
            script.run_command(cmd, io.StringIO())
        x = var("x", 3)
        assert script.assertions == [
            Eq(x.slice(0, 1) + lit("1"), lit("101")),
            Eq(x, lit("011")),
        ]
        assert check_sat(script.assertions[:1]) and not check_sat(script.assertions)
        assert run(decl + fits + "(check-sat)")[1] == "sat"
        assert run(decl + fits + clash + "(check-sat)")[1] == "unsat"

    def test_hex_literals(self):
        text = "(declare-const a (_ BitVec 8))(assert (= a #x5a))(check-sat)"
        assert run(text)[1] == "sat"
        text = "(assert (= #x5a #b01011010))(check-sat)"
        assert run(text)[1] == "sat"

    def test_implication_right_fold(self):
        assert run("(assert (=> true false true))(check-sat)")[1] == "sat"
        assert run("(assert (not (=> false true)))(check-sat)")[1] == "unsat"

    def test_unparseable_input_reports_unknown(self):
        code, out = run("(assert (bvadd x y))(check-sat)")
        assert out == "unknown"

    @pytest.mark.parametrize(
        "text",
        [
            # read as false, an ill-sorted equation made the negated query
            # unsat: "valid"
            "(declare-const x (_ BitVec 2))(assert (= x #b1))(check-sat)",
            "(declare-const x (_ BitVec 0))(check-sat)",
            "(declare-const x (_ BitVec 1))(declare-const x (_ BitVec 1))(check-sat)",
            "(assert (= #b #b))(check-sat)",
            "(assert (= #x #x))(check-sat)",
            "(assert " + "(not " * 5000 + "true" + ")" * 5000 + ")(check-sat)",
        ],
        ids=["ill-sorted", "zero-width", "redeclared", "empty-bin", "empty-hex", "deep"],
    )
    def test_ill_formed_script_is_rejected(self, capsys, text):
        assert run(text) == (1, "unknown")
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_is_rejected(self, capsys, tmp_path):
        assert main([str(tmp_path / "missing.smt2")]) == 1
        out, err = capsys.readouterr()
        assert out == "unknown\n" and err.startswith("error: cannot read ")

    def test_a_wide_declaration_costs_only_the_bits_read(self):
        text = (
            "(declare-const x (_ BitVec 10000000))"
            "(assert (= ((_ extract 0 0) x) #b1))(check-sat)"
        )
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            answer = run(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer == (0, "sat")
        assert peak < 1 << 20

    def test_comments_and_options_ignored(self):
        text = "; header\n(set-option :produce-models true)(assert true)(check-sat)\n(exit)"
        assert run(text)[1] == "sat"


class TestAgreement:
    def test_round_trip_matches_in_process_blaster(self, rng):
        for _ in range(40):
            ent, aut = random_entailment(rng)
            assertions = to_fol_bv(ent, aut)
            text = serialize_smtlib(assertions)
            _, token = run(text)
            assert token == ("sat" if check_sat(assertions) else "unsat")

    def test_dumped_queries_answer_as_the_engine_decided(self, monkeypatch, tmp_path):
        """Each ``--dump-smt`` script is unsat exactly when the engine found
        its entailment valid: the one place the engine's decisions meet an
        independent SMT-LIB checker."""
        answers = []
        decide = parseq.engine.decide_entailment

        def recorded(rel, goal, aut, config):
            entailed = decide(rel, goal, aut, config)
            if not isinstance(goal.body, Top):
                answers.append(entailed)
            return entailed

        monkeypatch.setattr(parseq.engine, "decide_entailment", recorded)
        res = check_equivalence(
            load_fixture("mpls_ref_small"), "q1", load_fixture("mpls_vec_small"), "q3",
            config=SolverConfig(dump_dir=str(tmp_path)),
        )
        assert res.verdict == EQUIVALENT
        tokens = [run(f.read_text())[1] for f in sorted(tmp_path.glob("*_query.smt2"))]
        assert tokens == ["unsat" if entailed else "sat" for entailed in answers]
        assert {"sat", "unsat"} <= set(tokens)

    def test_console_entry_point(self):
        # the child imports parseq from where this process found it
        src = os.path.dirname(os.path.dirname(os.path.abspath(parseq.engine.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "parseq.solver_cli"],
            input="(assert false)(check-sat)",
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.strip() == "unsat"
