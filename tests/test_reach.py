"""Template reachability: one-step and leap successor soundness."""

import itertools

from _gen import random_automaton, random_bits
from conftest import ALL_FIXTURES, load_fixture
from parseq.core import Configuration, RESULTS, Store, multi_step, step
from parseq.confrel import Template, template_of
from parseq.reach import (
    ReachSet,
    TemplatePair,
    all_template_pairs,
    leap_size,
    reach_fixpoint,
    sigma_side,
    successors,
)


def _sample_configs(rng, aut, per_state=4):
    sizes = dict(aut.headers)
    out = []
    for q, _ in aut.states:
        for bl in range(aut.opsize_of(q)):
            for _ in range(per_state):
                store = Store.of({h: random_bits(rng, sz) for h, sz in sizes.items()})
                out.append(Configuration(q, store, random_bits(rng, bl)))
    store = Store.of({h: "0" * sz for h, sz in sizes.items()})
    out.append(Configuration("accept", store, ""))
    out.append(Configuration("reject", store, ""))
    return out


class TestSigma:
    def test_one_step_soundness_on_fixtures(self, rng):
        """The template of any one-bit successor is predicted by sigma_side."""
        for name in ALL_FIXTURES:
            aut = load_fixture(name)
            for c in _sample_configs(rng, aut, per_state=2):
                succ = sigma_side(template_of(c), 1, aut)
                for b in "01":
                    assert template_of(step(c, b, aut)) in succ, (name, c)

    def test_leap_soundness_on_fixtures(self, rng):
        """Leap successors of a template pair cover all real leap steps."""
        for name in ALL_FIXTURES:
            aut = load_fixture(name)
            configs = _sample_configs(rng, aut, per_state=1)
            for c1 in configs[:6]:
                for c2 in configs[:6]:
                    p = TemplatePair(template_of(c1), template_of(c2))
                    k = leap_size(p.left, p.right, aut)
                    succ = successors(p, aut, True)
                    words = (
                        ["".join(w) for w in itertools.product("01", repeat=k)]
                        if k <= 6
                        else [random_bits(rng, k) for _ in range(8)]
                    )
                    for w in words:
                        q = TemplatePair(
                            template_of(multi_step(c1, w, aut)),
                            template_of(multi_step(c2, w, aut)),
                        )
                        assert q in succ, (name, p, w)

    def test_leap_size_bounds(self, rng):
        aut = random_automaton(rng)
        for q, _ in aut.states:
            for bl in range(aut.opsize_of(q)):
                t = Template(q, bl)
                k = leap_size(t, Template("accept", 0), aut)
                assert 1 <= k <= aut.opsize_of(q) - bl
        # both sides in results: single-bit fallback
        assert leap_size(Template("accept", 0), Template("reject", 0), aut) == 1


class TestFixpoint:
    def test_contains_seed_and_is_deterministic(self, rng):
        aut = random_automaton(rng)
        q0 = aut.states[0][0]
        seed = TemplatePair(Template(q0, 0), Template(q0, 0))
        r1 = reach_fixpoint({seed}, aut)
        r2 = reach_fixpoint({seed}, aut)
        assert seed in r1
        assert r1.pairs == r2.pairs

    def test_closed_under_sigma_leap(self, rng):
        for _ in range(10):
            aut = random_automaton(rng)
            q0 = aut.states[0][0]
            seed = TemplatePair(Template(q0, 0), Template(q0, 0))
            r = reach_fixpoint({seed}, aut)
            for p in r.pairs:
                assert successors(p, aut, True) <= r.pairs

    def test_single_bit_mode_refines_differently(self, rng):
        aut = random_automaton(rng)
        q0 = aut.states[0][0]
        seed = TemplatePair(Template(q0, 0), Template(q0, 0))
        r = reach_fixpoint({seed}, aut, leaps=False)
        for p in r.pairs:
            for left in sigma_side(p.left, 1, aut):
                for right in sigma_side(p.right, 1, aut):
                    assert TemplatePair(left, right) in r.pairs

    def test_subset_of_all_pairs(self, rng):
        aut = random_automaton(rng)
        names = [q for q, _ in aut.states]
        full = all_template_pairs(aut, names, names)
        q0 = names[0]
        r = reach_fixpoint({TemplatePair(Template(q0, 0), Template(q0, 0))}, aut)
        assert r.pairs <= full.pairs

    def test_sorted_dump_is_stable(self, rng):
        aut = random_automaton(rng)
        q0 = aut.states[0][0]
        r = reach_fixpoint({TemplatePair(Template(q0, 0), Template(q0, 0))}, aut)
        assert r.dump() == r.dump()
        keys = [(str(p.left), str(p.right)) for p in r.sorted()]
        assert keys == sorted(keys)
