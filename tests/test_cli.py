"""Command-line interface: exit codes, outputs, artifact files."""

import io
import json
import os
import re

import pytest

import parseq.engine
import parseq.sat
import parseq.smt
from parseq import fixture_path
from parseq.cli import main
from parseq.smt import SolverFailure
from parseq.solver_cli import run_script


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_equivalent_pair_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "internal",
        )
        assert code == 0
        assert out.startswith("Equivalent")
        assert "iterations=" in out

    def test_inequivalent_pair_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("sloppy_small"), "parse_eth",
            fixture_path("strict_small"), "parse_eth",
            "--solver", "internal",
        )
        assert code == 1
        assert out.startswith("NotEquivalent")

    def test_solver_enum_flag(self, capsys, monkeypatch):
        real, calls = parseq.smt.decide_by_enumeration, []

        def counting(ent, aut):
            calls.append(ent)
            return real(ent, aut)

        monkeypatch.setattr(parseq.smt, "decide_by_enumeration", counting)
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "enum",
        )
        assert code == 0
        assert calls and f"solver_calls={len(calls)} " in out

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "nosuch",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 3
        assert "nosuch" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "check", "/nonexistent.p4a", "q1",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 3
        assert "error:" in err

    def test_bad_subcommand_exits_three(self, capsys):
        assert run(capsys, "frobnicate")[0] == 3

    def test_witness_files(self, capsys, tmp_path):
        text_path = tmp_path / "rel.txt"
        code, _, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "internal",
            "--witness", str(text_path),
        )
        assert code == 0
        assert text_path.read_text().startswith(";")
        json_path = tmp_path / "rel.json"
        run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "internal",
            "--witness", str(json_path),
        )
        doc = json.loads(json_path.read_text())
        assert doc["meta"]["verdict"] == "Equivalent"
        assert doc["relation"]

    def test_dump_smt_writes_queries(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "internal",
            "--dump-smt", str(tmp_path),
        )
        assert code == 0
        dumps = sorted(tmp_path.glob("*_query.smt2"))
        assert dumps
        assert dumps[0].name == "0001_query.smt2"

    def test_enum_dump_smt_writes_each_query(self, capsys, monkeypatch, tmp_path):
        """Under --solver enum each query is dumped too, and each dumped
        script answers as enumeration did."""
        real, answers = parseq.smt.decide_by_enumeration, []

        def recorded(ent, aut):
            answers.append(real(ent, aut))
            return answers[-1]

        monkeypatch.setattr(parseq.smt, "decide_by_enumeration", recorded)
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "enum",
            "--dump-smt", str(tmp_path),
        )
        assert code == 0
        dumps = sorted(tmp_path.glob("*_query.smt2"))
        assert len(dumps) == int(re.search(r"solver_calls=(\d+)", out).group(1)) == len(answers) > 10
        tokens = []
        for f in dumps:
            text = io.StringIO()
            run_script(f.read_text(), out=text)
            tokens.append(text.getvalue().strip())
        assert tokens == ["unsat" if entailed else "sat" for entailed in answers]
        assert {"sat", "unsat"} <= set(tokens)

    def test_nan_timeout_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--timeout", "nan",
        )
        assert code == 3
        assert "--timeout" in err

    def test_inconclusive_exits_two(self, capsys, monkeypatch):
        def unknown(solver):
            raise SolverFailure("solver returned unknown")

        monkeypatch.setattr(parseq.sat.Solver, "solve", unknown)
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 2
        assert out.startswith("Inconclusive: SolverFailure: solver returned unknown")

    @pytest.mark.parametrize("name", ["z3", "cvc4", "boolector"])
    def test_no_verdict_depends_on_path(self, capsys, monkeypatch, tmp_path, name):
        """An SMT solver on PATH takes no part in a check: here a fake one
        that answers every query sat."""
        fake = tmp_path / name
        fake.write_text("#!/bin/sh\necho sat\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 0
        assert out.startswith("Equivalent")

    @pytest.mark.parametrize("flags", [["--solver", "z3"], ["--solver-path", "/bin/false"]])
    def test_external_solvers_are_usage_errors(self, capsys, flags):
        code, _, err = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            *flags,
        )
        assert code == 3
        assert flags[0] in err

    def test_internal_solver_timeout_exits_two(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--solver", "internal", "--timeout", "1e-9",
        )
        assert code == 2
        assert out.startswith("Inconclusive: SolverFailure")


    def test_internal_exception_exits_two(self, capsys, monkeypatch):
        def broken_wp(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(parseq.engine, "wp", broken_wp)
        code, out, _ = run(
            capsys,
            "check",
            fixture_path("sloppy_small"), "parse_eth",
            fixture_path("strict_small"), "parse_eth",
            "--solver", "internal",
        )
        assert code == 2
        assert out.startswith("Inconclusive: RecursionError")

    def test_uncaught_exception_exits_two(self, capsys, monkeypatch):
        def broken_check(*args, **kwargs):
            raise RuntimeError("probe")

        monkeypatch.setattr(parseq.engine, "check_equivalence", broken_check)
        code, _, err = run(
            capsys,
            "check",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 2
        assert err.startswith("error:") and "probe" in err


    def test_1200_bit_leap_is_equivalent(self, capsys, tmp_path):
        one = tmp_path / "one.p4a"
        two = tmp_path / "two.p4a"
        one.write_text(
            "state q { extract(h, 1200); "
            "select(h[0:0]) { (0b0) => accept (0b1) => reject } }\n"
        )
        two.write_text(
            "state q { extract(a, 600); extract(b, 600); "
            "select(a[0:0]) { (0b0) => accept (0b1) => reject } }\n"
        )
        code, out, _ = run(
            capsys, "check", str(one), "q", str(two), "q", "--solver", "internal"
        )
        assert code == 0
        assert out.startswith("Equivalent")


class TestOtherCommands:
    def test_diagnostics_name_their_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.p4a"
        bad.write_text("state s {\n  extract(h, 2)\n  goto accept\n}\n")
        code, _, err = run(capsys, "check", fixture_path("mpls_ref_small"), "q1", str(bad), "s")
        assert code == 3 and err == f"error: {bad}:3:3: expected ';', found 'goto'\n"
        unplaced = tmp_path / "unplaced.p4a"
        unplaced.write_text("state s { extract(h, 1); select(k) { _ => accept } }\n")
        code, _, err = run(capsys, "simulate", str(unplaced), "s", "1")
        assert code == 3
        assert err == f"error: {unplaced}: header 'k' is read but never extracted or assigned\n"
        rel = tmp_path / "rel.txt"
        rel.write_text("init: true\ninit: left.nope = 0b1\n")
        code, _, err = run(
            capsys,
            "check-rel",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            str(rel),
        )
        assert code == 3 and err == f"error: {rel}:2:12: unknown header 'nope' on the left side\n"

    def test_check_rel_rejects_a_slice_out_of_range(self, capsys, tmp_path):
        # clamped, left.ether[3:1] would read as "" and make init false
        rel = tmp_path / "rel.txt"
        rel.write_text("init: left.ether[3:1] = 0b1\n")
        code, out, err = run(
            capsys,
            "check-rel",
            fixture_path("sloppy"), "parse_eth",
            fixture_path("strict"), "parse_eth",
            str(rel),
        )
        assert code == 3 and out == ""
        assert err == f"error: {rel}:1:17: slice [3:1] out of range for width 112\n"

    def test_check_rel_rejects_a_pair_past_its_operation(self, capsys, tmp_path):
        # no configuration of the 1-bit state q1 holds 7 buffered bits, so
        # the obligation could never apply
        rel = tmp_path / "rel.txt"
        rel.write_text("pair q1 7 q3 0: left.buf[6:6] = 0b1\n")
        code, out, err = run(
            capsys,
            "check-rel",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            str(rel),
        )
        assert code == 3 and out == ""
        assert err == (
            f"error: {rel}:1:9: buffer length 7 is not below the 1-bit operation of state 'q1'\n"
        )

    def test_simulate(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", fixture_path("mpls_ref_small"), "q1", "1101",
        )
        assert code == 0
        assert "state:" in out and "accepting" in out

    def test_simulate_bad_packet(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", fixture_path("mpls_ref_small"), "q1", "10a1",
        )
        assert code == 3

    def test_oracle_agrees_with_check(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            "--cap", "24",
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "oracle",
            fixture_path("sloppy_small"), "parse_eth",
            fixture_path("strict_small"), "parse_eth",
            "--cap", "18",
        )
        assert code == 1
        assert "word:" in out

    def test_oracle_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "oracle",
            fixture_path("vlan"), "parse_eth",
            fixture_path("vlan"), "parse_eth",
        )
        assert code == 3

    def test_dump_reach(self, capsys):
        code, out, _ = run(
            capsys,
            "dump-reach",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
        )
        assert code == 0
        assert "<" in out and ">" in out

    def test_check_rel(self, capsys, tmp_path):
        rel = tmp_path / "rel.txt"
        rel.write_text("init: true\n")
        code, out, _ = run(
            capsys,
            "check-rel",
            fixture_path("mpls_ref_small"), "q1",
            fixture_path("mpls_vec_small"), "q3",
            str(rel),
            "--solver", "internal",
        )
        assert code == 0
