"""The benchmark's inputs: the bundled fixture pairs and a seeded
generator of small random parser pairs.

Random pairs are handed to the checker as `.p4a` source text, the form a
user writes, so every workload parses its inputs through the frontend.
"""

from __future__ import annotations

import random

from parseq.core import (
    Assign,
    Automaton,
    Case,
    Concat,
    ExactPat,
    Extract,
    Goto,
    HdrRef,
    Lit,
    Select,
    Slice,
    State,
    Wildcard,
    check,
)
from parseq.engine import EQUIVALENT, NOT_EQUIVALENT
from parseq.frontend import pretty_print

# (left fixture, left start, right fixture, right start, the verdict the
# fixtures' header comments state)
FIXTURE_PAIRS = [
    # mpls_vec.p4a: the second word "already belongs to the UDP header and
    # is stitched back in q5", so both read the same label stacks.
    ("mpls_ref", "q1", "mpls_vec", "q3", EQUIVALENT),
    # ip_combined.p4a: "UDP packets are then complete, TCP packets need one
    # more 32-bit suffix", the same packets ip_ref.p4a accepts.
    ("ip_ref", "parse_ip", "ip_combined", "parse_combined", EQUIVALENT),
    # A parser checked against itself.
    ("vlan", "parse_eth", "vlan", "parse_eth", EQUIVALENT),
    # sloppy.p4a assumes IPv6 for "any type field other than IPv4";
    # strict.p4a: "unknown type fields are rejected outright".
    ("sloppy", "parse_eth", "strict", "parse_eth", NOT_EQUIVALENT),
    # The oracle-sized variants keep the shapes, hence the verdicts.
    ("mpls_ref_small", "q1", "mpls_vec_small", "q3", EQUIVALENT),
    ("sloppy_small", "parse_eth", "strict_small", "parse_eth", NOT_EQUIVALENT),
    # ipopt_timestamp.p4a: "It consumes exactly the bits the generic parser
    # reads for that arm, so the accepted packets coincide."
    ("ipopt_generic", "parse_0", "ipopt_timestamp", "parse_0", EQUIVALENT),
]

# Left out of the single-bit workload: vlan/vlan takes 110-220 s and
# sloppy/strict 77 s per check there, longer than a whole run may last.
SINGLE_BIT_SKIPPED = {"vlan/vlan", "sloppy/strict"}

# Small enough for the brute-force oracle (store and buffer bits <= 24).
ORACLE_SIZED = {"mpls_ref_small/mpls_vec_small", "sloppy_small/strict_small"}
ORACLE_CAP = 24


def pair_name(pair) -> str:
    return f"{pair[0]}/{pair[2]}"


# ---------------------------------------------------------------------------
# Random pairs: at most 3 states, at most 2 headers of at most 4 bits in
# total, selects on 1- or 2-bit expressions.


def _bits(rng: random.Random, width: int) -> str:
    return "".join(rng.choice("01") for _ in range(width))


def _expr(rng: random.Random, sizes: dict[str, int], width: int, depth: int = 2):
    """A well-typed expression of exactly ``width`` bits."""
    kinds = ["lit"]
    if any(sz == width for sz in sizes.values()):
        kinds.append("hdr")
    if any(sz >= width for sz in sizes.values()):
        kinds.append("slice")
    if depth > 0 and width >= 2:
        kinds.append("concat")
    kind = rng.choice(kinds)
    if kind == "hdr":
        return HdrRef(rng.choice([h for h, sz in sizes.items() if sz == width]))
    if kind == "slice":
        h = rng.choice([h for h, sz in sizes.items() if sz >= width])
        lo = rng.randrange(sizes[h] - width + 1)
        return Slice(HdrRef(h), lo, lo + width - 1)
    if kind == "concat":
        cut = rng.randint(1, width - 1)
        return Concat(
            _expr(rng, sizes, cut, depth - 1), _expr(rng, sizes, width - cut, depth - 1)
        )
    return Lit(_bits(rng, width))


def random_automaton(rng: random.Random, max_states: int = 3) -> Automaton:
    sizes = {"h0": rng.randint(1, 2)}
    if rng.random() < 0.5:
        sizes["h1"] = rng.randint(1, 2)
    names = [f"Q{i}" for i in range(rng.randint(1, max_states))]
    targets = names + ["accept", "reject"]
    states = []
    for name in names:
        op: list = [Extract(h) for h in rng.sample(list(sizes), rng.randint(1, len(sizes)))]
        if rng.random() < 0.4:
            h = rng.choice(list(sizes))
            op.insert(rng.randrange(len(op) + 1), Assign(h, _expr(rng, sizes, sizes[h])))
        if rng.random() < 0.5:
            trans = Goto(rng.choice(targets))
        else:
            widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            cases = tuple(
                Case(
                    tuple(
                        Wildcard() if rng.random() < 0.25 else ExactPat(_bits(rng, w))
                        for w in widths
                    ),
                    rng.choice(targets),
                )
                for _ in range(rng.randint(1, 3))
            )
            trans = Select(tuple(_expr(rng, sizes, w) for w in widths), cases)
        states.append([name, op, trans])
    # The DSL infers a header's width from its extracts, so every header
    # is extracted somewhere.
    extracted = {s.header for _, op, _ in states for s in op if isinstance(s, Extract)}
    for h in sizes:
        if h not in extracted:
            states[0][1].append(Extract(h))
    aut = Automaton(
        tuple(sizes.items()),
        tuple((name, State(tuple(op), trans)) for name, op, trans in states),
    )
    check(aut)
    return aut


def random_pairs(seed: int, count: int) -> list[tuple[str, str, str, str]]:
    """``count`` pairs (left source, left start, right source, right start).

    30% of the pairs compare a parser with itself from two start states,
    and 20% compare it with a parser of at most as many states, so that
    Equivalent verdicts occur alongside NotEquivalent ones.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a1 = random_automaton(rng)
        roll = rng.random()
        if roll < 0.3:
            a2, q2 = a1, rng.choice(a1.states)[0]
        elif roll < 0.5:
            a2 = random_automaton(rng, max_states=len(a1.states))
            q2 = a2.states[0][0]
        else:
            a2 = random_automaton(rng)
            q2 = rng.choice(a2.states)[0]
        q1 = rng.choice(a1.states)[0]
        out.append((pretty_print(a1), q1, pretty_print(a2), q2))
    return out
