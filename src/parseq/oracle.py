"""Ground-truth equivalence by explicit product-space search.

Small automata only: the oracle enumerates every pair of initial
stores and runs a breadth-first search over synchronous single-bit
steps, looking for a configuration pair with exactly one side
accepting. It referees the symbolic engine; it does not scale.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator, Optional

from .core import Automaton, Configuration, RESULTS, Record, Store, accepts, step

DEFAULT_CAP = 16


class CapExceeded(Exception):
    """The instance is over the configured bit budget."""


def _store_bits(aut: Automaton) -> int:
    return sum(sz for _, sz in aut.headers)


def _max_buffer_bits(aut: Automaton) -> int:
    return max((aut.opsize_of(q) - 1 for q, _ in aut.states), default=0)


def check_cap(a1: Automaton, a2: Automaton, cap: int) -> None:
    total = (
        _store_bits(a1)
        + _store_bits(a2)
        + _max_buffer_bits(a1)
        + _max_buffer_bits(a2)
    )
    if total > cap:
        raise CapExceeded(f"{total} bits exceeds oracle cap {cap}")


def enumerate_stores(aut: Automaton) -> Iterator[Store]:
    """Every store, in lexicographic header-value order."""
    names = [h for h, _ in aut.headers]
    sizes = aut.sizes
    for values in itertools.product(
        *(
            ["".join(bits) for bits in itertools.product("01", repeat=sizes[h])]
            for h in names
        )
    ):
        yield Store.of(dict(zip(names, values)))


def enumerate_configs(
    aut: Automaton, cap: int = DEFAULT_CAP
) -> Iterator[Configuration]:
    """Every valid configuration exactly once, deterministically ordered.

    Valid means the buffer is strictly shorter than the state's opsize,
    and empty in the result states.
    """
    if _store_bits(aut) + _max_buffer_bits(aut) > cap:
        raise CapExceeded(
            f"{_store_bits(aut) + _max_buffer_bits(aut)} bits "
            f"exceeds oracle cap {cap}"
        )
    state_names = [q for q, _ in aut.states] + list(RESULTS)
    for q in state_names:
        maxlen = 1 if q in RESULTS else aut.opsize_of(q)
        for s in enumerate_stores(aut):
            for n in range(maxlen):
                for bits in itertools.product("01", repeat=n):
                    yield Configuration(q, s, "".join(bits))


class Distinguisher(Record):
    """A concrete refutation: initial stores and a word on which exactly
    one side accepts."""

    __slots__ = ("s1", "s2", "word")

    def __init__(self, s1: Store, s2: Store, word: str):
        self.s1, self.s2, self.word = s1, s2, word


def distinguishing_word(
    a1: Automaton, q1: str, a2: Automaton, q2: str, cap: int = DEFAULT_CAP
) -> Optional[Distinguisher]:
    """Shortest separating word over all initial store pairs, or None.

    All store pairs share one BFS frontier, so the first mismatch found
    is globally length-minimal. The returned witness is re-checked
    against the concrete interpreter before being handed out.
    """
    check_cap(a1, a2, cap)
    Node = tuple[Configuration, Configuration]
    frontier: deque[tuple[Configuration, Configuration, str, Store, Store]] = deque()
    seen: set[Node] = set()
    for s1 in enumerate_stores(a1):
        for s2 in enumerate_stores(a2):
            c1 = Configuration(q1, s1, "")
            c2 = Configuration(q2, s2, "")
            if (c1, c2) not in seen:
                seen.add((c1, c2))
                frontier.append((c1, c2, "", s1, s2))
    while frontier:
        c1, c2, word, s1, s2 = frontier.popleft()
        if c1.is_accepting != c2.is_accepting:
            assert accepts(q1, s1, word, a1) != accepts(q2, s2, word, a2)
            return Distinguisher(s1, s2, word)
        for b in "01":
            n1, n2 = step(c1, b, a1), step(c2, b, a2)
            if (n1, n2) not in seen:
                seen.add((n1, n2))
                frontier.append((n1, n2, word + b, s1, s2))
    return None


def oracle_equivalent(
    a1: Automaton, q1: str, a2: Automaton, q2: str, cap: int = DEFAULT_CAP
) -> bool:
    """True iff the start states accept the same language for every pair
    of initial stores."""
    return distinguishing_word(a1, q1, a2, q2, cap=cap) is None
