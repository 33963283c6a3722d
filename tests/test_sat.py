"""The bundled CDCL solver against a brute-force truth table."""

import itertools
import random
import time

import pytest

from parseq.sat import Solver, SolverFailure


def brute_force(n_vars, clauses):
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses
        ):
            return True
    return False


def satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def pigeonhole(s, pigeons, holes):
    # p[i][j]: pigeon i sits in hole j
    p = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for i in range(pigeons):
        s.add_clause(p[i])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                s.add_clause([-p[i1][j], -p[i2][j]])


def random_cnf(rng, max_vars=6, max_clauses=14):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, 3)
        clause = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(width)]
        clauses.append(clause)
    return n, clauses


class TestSolver:
    def test_empty_is_sat(self):
        assert Solver().solve()

    def test_unit_conflict(self):
        s = Solver()
        v = s.new_var()
        s.add_clause([v])
        s.add_clause([-v])
        assert not s.solve()

    def test_model_satisfies_formula(self):
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        clauses = [[a, b], [-a, c], [-b, -c], [a, -b]]
        for cl in clauses:
            s.add_clause(cl)
        assert s.solve()
        m = s.model()
        assert all(any(m[abs(l)] == (l > 0) for l in cl) for cl in clauses)

    def test_agrees_with_truth_table(self, rng):
        for trial in range(150):
            n, clauses = random_cnf(rng)
            s = Solver()
            for _ in range(n):
                s.new_var()
            for cl in clauses:
                s.add_clause(cl)
            got = s.solve()
            assert got == brute_force(n, clauses), (trial, n, clauses)
            if got:
                m = s.model()
                assert all(
                    any(m[abs(l)] == (l > 0) for l in cl) for cl in clauses
                )

    def test_pigeonhole_3_into_2_unsat(self):
        s = Solver()
        pigeonhole(s, 3, 2)
        assert not s.solve()

    def test_literal_of_unknown_variable_is_refused(self):
        s = Solver()
        s.new_var()
        with pytest.raises(ValueError):
            s.add_clause([1, -2])

    def test_decisions_follow_activity_then_lower_variable(self, rng):
        s = Solver()
        n = 12
        for _ in range(n):
            s.new_var()
        for _ in range(20):
            s._bump(rng.randint(1, n))
        want = sorted(range(1, n + 1), key=lambda v: (-s.activity[v], v))
        assert [abs(s._decide()) for _ in range(n)] == want
        assert s._decide() is None


class TestIncremental:
    def test_resolving_after_a_new_clause(self):
        # a second solve() once started from the previous model's trail and
        # read this satisfiable formula as unsat
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve()
        s.add_clause([a])
        assert s.solve()
        assert s.model()[a]

    def test_assumptions_agree_with_truth_table(self, rng):
        for trial in range(150):
            n, clauses = random_cnf(rng)
            s = Solver()
            for _ in range(n):
                s.new_var()
            for cl in clauses:
                s.add_clause(cl)
            for _ in range(4):
                assumed = [rng.choice([-1, 1]) * v
                           for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
                s.assumptions = assumed
                got = s.solve()
                units = [[lit] for lit in assumed]
                assert got == brute_force(n, clauses + units), (trial, clauses, assumed)
                if got:
                    assert satisfies(s.model(), clauses + units)
            s.assumptions = []
            assert s.solve() == brute_force(n, clauses)

    def test_clauses_added_between_calls_agree_with_a_fresh_solver(self, rng):
        for trial in range(100):
            n, clauses = random_cnf(rng, max_clauses=20)
            s = Solver()
            for _ in range(n):
                s.new_var()
            for k, cl in enumerate(clauses):
                s.add_clause(cl)
                if rng.random() < 0.5:
                    continue
                fresh = Solver()
                for _ in range(n):
                    fresh.new_var()
                for c in clauses[: k + 1]:
                    fresh.add_clause(c)
                got = s.solve()
                assert got == fresh.solve() == brute_force(n, clauses[: k + 1]), trial
                if got:
                    assert satisfies(s.model(), clauses[: k + 1])

    def test_deadline_raises_and_leaves_the_solver_usable(self):
        s = Solver()
        pigeonhole(s, 6, 5)
        s.deadline = time.monotonic() + 1e-9
        with pytest.raises(SolverFailure):
            s.solve()
        assert not s.trail_lim  # back at level 0
        s.deadline = None
        assert not s.solve()
