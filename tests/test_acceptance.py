"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion prints a single summary line directly to the real stdout
so the verdicts are visible in the pytest log regardless of capture.
"""

import itertools
import random
import time

import conftest
from _gen import random_automaton, random_entailment, random_formula, random_pair
from conftest import ALL_FIXTURES, FIXTURE_PAIRS, load_fixture
from parseq.core import Configuration, Store, accepts, multi_step, step
from parseq.confrel import LEFT, Guarded, denotes, template_of
from parseq.engine import EQUIVALENT, INCONCLUSIVE, NOT_EQUIVALENT, check_equivalence
from parseq.oracle import distinguishing_word, enumerate_configs, oracle_equivalent
from parseq.reach import TemplatePair, all_template_pairs, leap_size, predecessors, sigma_side, successors
from parseq import sat
from parseq.smt import SolverConfig, SolverFailure, decide_by_enumeration
from parseq.wp import wp, wp_side
from test_smt import decide_as_the_engine
from test_wp import all_configs


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {detail}"


ENUM = SolverConfig(backend="enum")
INTERNAL = SolverConfig(backend="internal")


def test_criterion_1_oracle_agreement():
    """Engine verdict equals the brute-force oracle on 200 random pairs."""
    rng = random.Random(42)
    start = time.monotonic()
    agreements = 0
    for i in range(200):
        a1, q1, a2, q2 = random_pair(rng)
        got = check_equivalence(a1, q1, a2, q2, config=ENUM).verdict
        want = EQUIVALENT if oracle_equivalent(a1, q1, a2, q2, cap=24) else NOT_EQUIVALENT
        if got != want:
            report(1, False, f"pair {i}: engine {got}, oracle {want}")
        agreements += 1
    elapsed = time.monotonic() - start
    report(
        1,
        agreements == 200 and elapsed < 300,
        f"engine agrees with the oracle on {agreements}/200 random pairs "
        f"in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_positive_fixtures():
    """MPLS, IP-rearrangement and VLAN-self checks all come back Equivalent."""
    cases = [
        ("mpls_ref", "q1", "mpls_vec", "q3"),
        ("ip_ref", "parse_ip", "ip_combined", "parse_combined"),
        ("vlan", "parse_eth", "vlan", "parse_eth"),
    ]
    times = []
    for lf, lq, rf, rq in cases:
        start = time.monotonic()
        res = check_equivalence(load_fixture(lf), lq, load_fixture(rf), rq, config=INTERNAL)
        elapsed = time.monotonic() - start
        times.append(f"{lf} vs {rf} {elapsed:.2f}s")
        if res.verdict != EQUIVALENT or elapsed >= 60:
            report(2, False, f"{lf} vs {rf}: {res.verdict} in {elapsed:.1f}s")
    report(2, True, "; ".join(f"Equivalent: {t}" for t in times))


def test_criterion_3_negative_fixtures():
    """Lenient vs strict ethernet parsers differ, and the oracle proves it."""
    res = check_equivalence(
        load_fixture("sloppy"), "parse_eth", load_fixture("strict"), "parse_eth",
        config=INTERNAL,
    )
    if res.verdict != NOT_EQUIVALENT:
        report(3, False, f"full-size verdict {res.verdict}")
    left = load_fixture("sloppy_small")
    right = load_fixture("strict_small")
    d = distinguishing_word(left, "parse_eth", right, "parse_eth", cap=18)
    ok = d is not None and accepts("parse_eth", d.s1, d.word, left) != accepts(
        "parse_eth", d.s2, d.word, right
    )
    report(
        3,
        ok,
        f"NotEquivalent; shrunken variant distinguished by word {d.word!r}, "
        "confirmed by the interpreter",
    )


def test_criterion_4_wp_lemmas():
    """Both weakest-precondition lemmas, exhaustively on 50 automata."""
    rng = random.Random(4)
    single = paired = 0
    for _ in range(50):
        aut = random_automaton(rng, max_states=2, max_header_bits=2)
        sizes = dict(aut.headers)
        configs = all_configs(aut)
        templates = sorted({template_of(c) for c in configs}, key=str)
        # one-sided lemma
        t_src, t_dst = rng.choice(templates), rng.choice(templates)
        cr = rng.choice(configs)
        phi = random_formula(rng, sizes, {LEFT: t_dst.buflen, ">": len(cr.buffer)}, ["y0"])
        psi = wp_side(phi, LEFT, t_src, t_dst, "xf", aut)
        for cl in configs:
            if template_of(cl) != t_src:
                continue
            lhs = all(
                template_of(step(cl, b, aut)) != t_dst
                or denotes(phi, step(cl, b, aut), cr)
                for b in "01"
            )
            if lhs != denotes(psi, cl, cr):
                report(4, False, f"one-sided lemma fails at {cl}")
            single += 1
        # paired lemma, with and without leaps
        names = [q for q, _ in aut.states]
        reach = all_template_pairs(aut, names, names)
        for leaps in (True, False):
            t1, t2 = rng.choice(templates), rng.choice(templates)
            psig = Guarded(
                t1, t2, random_formula(rng, sizes, {LEFT: t1.buflen, ">": t2.buflen}, ["y0"])
            )
            wps = wp(psig, predecessors(reach, aut, leaps), aut, leaps)
            sample = rng.sample(configs, min(16, len(configs)))
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
                    if lhs != all(g.denotes(c1, c2) for g in wps):
                        report(4, False, f"paired lemma fails at {c1}, {c2}")
                    paired += 1
    report(4, True, f"50 automata, {single} one-sided and {paired} paired checks, 0 counterexamples")


def test_criterion_5_leap_equivalence():
    """Leap and single-bit modes agree; leaps extend strictly less on MPLS."""
    mpls_delta = None
    for lf, lq, rf, rq, want in FIXTURE_PAIRS:
        a1, a2 = load_fixture(lf), load_fixture(rf)
        with_leaps = check_equivalence(a1, lq, a2, rq, config=INTERNAL, leaps=True)
        without = check_equivalence(a1, lq, a2, rq, config=INTERNAL, leaps=False)
        if with_leaps.verdict != without.verdict:
            report(5, False, f"{lf} vs {rf}: leap {with_leaps.verdict} != {without.verdict}")
        if lf == "mpls_ref":
            mpls_delta = (with_leaps.stats.extends, without.stats.extends)
    rng = random.Random(5)
    for i in range(100):
        a1, q1, a2, q2 = random_pair(rng)
        v1 = check_equivalence(a1, q1, a2, q2, config=ENUM, leaps=True).verdict
        v2 = check_equivalence(a1, q1, a2, q2, config=ENUM, leaps=False).verdict
        if v1 != v2:
            report(5, False, f"random pair {i}: leap {v1} != single-bit {v2}")
    ok = mpls_delta is not None and mpls_delta[0] < mpls_delta[1]
    report(
        5,
        ok,
        f"verdicts agree on {len(FIXTURE_PAIRS)} fixture pairs and 100 random pairs; "
        f"MPLS extends {mpls_delta[0]} with leaps vs {mpls_delta[1]} without",
    )


def test_criterion_6_reach_soundness():
    """Template successors cover real steps; pruning never changes verdicts."""
    stepped = leapt = 0
    rng = random.Random(6)
    for name in ALL_FIXTURES:
        aut = load_fixture(name)
        small = sum(sz for _, sz in aut.headers) + max(
            (aut.opsize_of(q) - 1 for q, _ in aut.states), default=0
        ) <= 16
        if small:
            configs = list(enumerate_configs(aut, cap=16))
        else:
            configs = _sampled_configs(rng, aut, 40)
        for c in configs:
            succ = sigma_side(template_of(c), 1, aut)
            for b in "01":
                if template_of(step(c, b, aut)) not in succ:
                    report(6, False, f"{name}: step escapes sigma_side at {c}")
                stepped += 1
        pairs = (
            [(c1, c2) for c1 in configs for c2 in configs]
            if small and len(configs) <= 40
            else [(rng.choice(configs), rng.choice(configs)) for _ in range(200)]
        )
        for c1, c2 in pairs:
            p = TemplatePair(template_of(c1), template_of(c2))
            k = leap_size(p.left, p.right, aut)
            succ = successors(p, aut, True)
            words = (
                ["".join(w) for w in itertools.product("01", repeat=k)]
                if k <= 4
                else ["".join(rng.choice("01") for _ in range(k)) for _ in range(4)]
            )
            for w in words:
                q = TemplatePair(
                    template_of(multi_step(c1, w, aut)),
                    template_of(multi_step(c2, w, aut)),
                )
                if q not in succ:
                    report(6, False, f"{name}: leap escapes successors at {p}")
                leapt += 1
    for i in range(25):
        a1, q1, a2, q2 = random_pair(rng)
        pruned = check_equivalence(a1, q1, a2, q2, config=ENUM, use_reach=True)
        full = check_equivalence(a1, q1, a2, q2, config=ENUM, use_reach=False)
        if pruned.verdict != full.verdict or not pruned.reach.pairs <= full.reach.pairs:
            report(6, False, f"random pair {i}: pruning changed the outcome")
    report(
        6,
        True,
        f"{stepped} single steps and {leapt} leaps stay inside the abstraction; "
        "--no-reach agrees on 25 random pairs while visiting a superset",
    )


def _sampled_configs(rng, aut, n):
    sizes = dict(aut.headers)
    out = []
    names = [q for q, _ in aut.states]
    for _ in range(n):
        q = rng.choice(names)
        store = Store.of(
            {h: "".join(rng.choice("01") for _ in range(sz)) for h, sz in sizes.items()}
        )
        bl = rng.randrange(aut.opsize_of(q))
        out.append(Configuration(q, store, "".join(rng.choice("01") for _ in range(bl))))
    zero = Store.of({h: "0" * sz for h, sz in sizes.items()})
    out.append(Configuration("accept", zero, ""))
    out.append(Configuration("reject", zero, ""))
    return out


def test_criterion_7_smt_dual_path(monkeypatch):
    """The engine's decision path and enumeration agree; solver trouble is
    never a verdict."""
    rng = random.Random(7)
    for i in range(500):
        ent, aut = random_entailment(rng)
        want = decide_by_enumeration(ent, aut)
        if decide_as_the_engine(ent, aut, INTERNAL) != want:
            report(7, False, f"entailment {i}: solver path disagrees")
    # a solver that fails or crashes must never produce a verdict
    reasons = []
    for exc in (SolverFailure("solver returned unknown"), RuntimeError("segfault")):

        def broken(solver, exc=exc):
            raise exc

        monkeypatch.setattr(sat.Solver, "solve", broken)
        res = check_equivalence(
            load_fixture("mpls_ref_small"), "q1",
            load_fixture("mpls_vec_small"), "q3",
            config=INTERNAL,
        )
        reasons.append(res.reason if res.verdict == INCONCLUSIVE else res.verdict)
    ok = reasons == ["SolverFailure: solver returned unknown", "RuntimeError: segfault"]
    report(
        7,
        ok,
        "500 entailments agree between the engine's solver path and enumeration; "
        "a failing or crashing solver yields Inconclusive" + ("" if ok else f": {reasons}"),
    )


def test_criterion_8_ip_options():
    """The shrunken variable-length option parsers check out as equivalent."""
    start = time.monotonic()
    res = check_equivalence(
        load_fixture("ipopt_generic"), "parse_0",
        load_fixture("ipopt_timestamp"), "parse_0",
        config=INTERNAL,
    )
    elapsed = time.monotonic() - start
    ok = res.verdict == EQUIVALENT and elapsed < 600
    report(8, ok, f"{res.verdict} in {elapsed:.1f}s (< 600s)")
