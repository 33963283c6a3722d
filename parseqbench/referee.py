"""Correctness checks made apart from the engine: the fixtures' stated
answers, the concrete interpreter and the brute-force oracle.

Each function returns a list of problems; an empty list means the
verdicts were confirmed.
"""

from __future__ import annotations

import random
import time

from parseq import fixture_path, load
from parseq.core import RESULTS, Configuration, Store, accepts, step
from parseq.engine import check_equivalence
from parseq.frontend import parse_source
from parseq.oracle import distinguishing_word
from parseq.smt import SolverConfig

from inputs import EQUIVALENT, NOT_EQUIVALENT, ORACLE_CAP, ORACLE_SIZED, pair_name, random_pairs

SAMPLES_PER_SIDE = 8
MAX_PACKET_BITS = 4096


class OracleClock:
    """Total time spent in the oracle, which is reported as its own layer."""

    def __init__(self):
        self.seconds = 0.0

    def distinguishing_word(self, a1, q1, a2, q2):
        t0 = time.perf_counter()
        try:
            return distinguishing_word(a1, q1, a2, q2, cap=ORACLE_CAP)
        finally:
            self.seconds += time.perf_counter() - t0


def random_store(aut, rng: random.Random) -> Store:
    return Store.of({h: "".join(rng.choice("01") for _ in range(sz)) for h, sz in aut.headers})


def walk_to_accept(aut, q: str, store: Store, rng: random.Random, tries: int = 20):
    """A random packet that ``q`` accepts from ``store``: feed random bits
    until the parser accepts, starting over each time it rejects."""
    for _ in range(tries):
        c, bits = Configuration(q, store, ""), []
        while c.state not in RESULTS and len(bits) < MAX_PACKET_BITS:
            bits.append(rng.choice("01"))
            c = step(c, bits[-1], aut)
        if c.is_accepting:
            return "".join(bits)
    return None


def replay_fixture(pair, verdict: str, rng: random.Random) -> list[str]:
    """Seeded stores and packets under the interpreter. Packets are drawn
    by walking each side to accept, then also tried one bit shorter and
    one bit longer. An Equivalent verdict needs agreement on all of
    them; a NotEquivalent one needs a packet on which the sides differ.
    A side that random bits rarely lead to accept (strict.p4a accepts two
    Ethernet types out of 65536) may draw none, so at least
    SAMPLES_PER_SIDE packets are required over both sides together."""
    l, lq, r, rq, _ = pair
    a1, a2 = load(fixture_path(l)), load(fixture_path(r))
    drawn = differ = 0
    for i in range(2 * SAMPLES_PER_SIDE):
        s1, s2 = random_store(a1, rng), random_store(a2, rng)
        w = walk_to_accept(a1, lq, s1, rng) if i % 2 == 0 else walk_to_accept(a2, rq, s2, rng)
        if w is None:
            continue
        drawn += 1
        for word in (w, w[:-1], w + "0"):
            if accepts(lq, s1, word, a1) != accepts(rq, s2, word, a2):
                differ += 1
                if verdict != NOT_EQUIVALENT:
                    return [f"{pair_name(pair)}: sides differ on packet {word} "
                            f"from stores {s1.to_dict()} / {s2.to_dict()}"]
    if drawn < SAMPLES_PER_SIDE:
        return [f"{pair_name(pair)}: only {drawn} accepted packets drawn"]
    if verdict == NOT_EQUIVALENT and differ == 0:
        return [f"{pair_name(pair)}: no sampled packet separates the sides"]
    return []


def confirm_fixtures(pairs, verdicts: dict, seed: int, leaps: bool, oracle: OracleClock):
    """``verdicts`` maps a pair's name to the one verdict all its checks
    gave (checks that disagreed with the stated answer were already
    counted as failed)."""
    problems = []
    rng = random.Random(seed)
    config = SolverConfig(backend="internal")
    for pair in pairs:
        name = pair_name(pair)
        if name not in verdicts:
            continue
        verdict = verdicts[name]
        problems += replay_fixture(pair, verdict, rng)
        l, lq, r, rq, _ = pair
        if name in ORACLE_SIZED:
            d = oracle.distinguishing_word(load(fixture_path(l)), lq, load(fixture_path(r)), rq)
            if (d is None) != (verdict != NOT_EQUIVALENT):
                problems.append(f"{name}: oracle disagrees with {verdict}")
        if not leaps:
            # Leap and single-bit stepping must decide alike.
            other = check_equivalence(
                load(fixture_path(l)), lq, load(fixture_path(r)), rq, config=config
            ).verdict
            if other != verdict:
                problems.append(f"{name}: single-bit {verdict}, with leaps {other}")
    return problems


def oracle_verdicts(seed: int, count: int, oracle: OracleClock):
    """The oracle's verdict for each random pair, each NotEquivalent one
    confirmed by replaying its distinguishing word in the interpreter."""
    out, problems = [], []
    for i, (ta, qa, tb, qb) in enumerate(random_pairs(seed, count)):
        a1, a2 = parse_source(ta), parse_source(tb)
        d = oracle.distinguishing_word(a1, qa, a2, qb)
        if d is not None and accepts(qa, d.s1, d.word, a1) == accepts(qb, d.s2, d.word, a2):
            problems.append(f"random pair {i}: oracle word {d.word!r} does not separate")
        out.append(EQUIVALENT if d is None else NOT_EQUIVALENT)
    return out, problems
