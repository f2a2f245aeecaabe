"""Integer action tables against their definitional oracles: the table-based
``verify_action`` must agree with the item-by-item ``apply`` version, and
``orbits`` with brute-force group orbits (finite groups) or with the fibers
over the base (translations), on fixtures and on random, windowed and
deliberately broken actions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labgraphs import fixtures as fx
from labgraphs.action import (EDGE, LETTER, VERTEX, FiniteAction, verify_action)
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.skew import SkewSpec, TranslationAction, skew_product

from helpers import (fish4_swap_action, loop_swap_action, orbits_bruteforce,
                     translation_fibers, trivial_action,
                     verify_action_exhaustive)

KINDS = (VERTEX, EDGE, LETTER)


def broken_range_action():
    """Vertices swapped, edges fixed: ranges move and edges do not."""
    lg = fx.fish4()
    ident = ({"v": "v", "w": "w"}, {e.eid: e.eid for e in lg.graph.edges},
             {"0": "0", "1": "1"})
    broken = ({"v": "w", "w": "v"}, {e.eid: e.eid for e in lg.graph.edges},
              {"0": "0", "1": "1"})
    return FiniteAction(CyclicGroup(2), lg, {0: ident, 1: broken})


FIXTURES = {
    "skewz": lambda: TranslationAction(fx.skewz()),
    "nofd": lambda: TranslationAction(fx.nofd()),
    "fdok": fx.fdok_action,
    "gt510": lambda: fx.gt510()[0],
    "trivial": lambda: trivial_action(fx.fish()),
    "fish4-swap": fish4_swap_action,
    "loop-swap": loop_swap_action,
    "broken-range": broken_range_action,
}


def random_z_action(rng: random.Random) -> TranslationAction:
    """Translation on a random integer skew product over a narrow window.
    Half of them draw cocycle values up to 9, wider than any window here,
    so the layers of a fiber have gaps."""
    base = fx.random_valid_labeled_graph(rng, max_vertices=3, max_letters=2,
                                         extra_edges=2)
    reach = rng.choice((2, 9))
    c = {e.eid: rng.randint(-reach, reach) for e in base.graph.edges}
    d = {e.eid: rng.randint(-reach, reach) for e in base.graph.edges}
    lo = rng.randint(-3, 1)
    window = Window(lo, lo + rng.randint(0, 3))
    return TranslationAction(
        skew_product(SkewSpec(base, IntegerGroup(), c, d), window))


def wide_z_action(rng: random.Random) -> TranslationAction:
    """Translation over a window of half-width 6 to 10, so the scope runs
    up to -20..20, with cocycle values up to 15: the layers of a fiber
    have gaps."""
    base = fx.random_valid_labeled_graph(rng, max_vertices=3, max_letters=2,
                                         extra_edges=2)
    c = {e.eid: rng.randint(-15, 15) for e in base.graph.edges}
    d = {e.eid: rng.randint(-15, 15) for e in base.graph.edges}
    half = rng.randint(6, 10)
    lo = rng.randint(-2 * half, 0)
    window = Window(lo, lo + 2 * half)
    return TranslationAction(
        skew_product(SkewSpec(base, IntegerGroup(), c, d), window))


def broken_z_action(rng: random.Random,
                    build=random_z_action) -> TranslationAction:
    """A windowed translation with the (base item, layer) coordinates of one
    item overwritten by those of another item of its kind, or of two items
    swapped."""
    while True:
        action = build(rng)
        skew = action.skew
        pairs = rng.choice((skew.vertex_pair, skew.edge_pair, skew.letter_pair))
        if len(pairs) >= 2:
            break
    x, y = rng.sample(sorted(pairs), 2)
    if rng.random() < 0.5:
        pairs[x] = pairs[y]
    else:
        pairs[x], pairs[y] = pairs[y], pairs[x]
    return TranslationAction(skew)


def random_finite_translation(rng: random.Random) -> TranslationAction:
    return fx.random_translation_action(rng, label_consistent=rng.random() < 0.5)


def _generating_set(group) -> list:
    gens, reached = [], {group.identity}
    for g in group.elements():
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = group.op(s, a)
                    if b not in reached:
                        reached.add(b)
                        nxt.append(b)
            frontier = nxt
    return gens


def random_generated_action(rng: random.Random) -> FiniteAction:
    """A raw finite action over opaque ids, rebuilt from the triples of a
    generating set."""
    finite = fx.anonymize_action(random_finite_translation(rng), rng)
    gens = _generating_set(finite.group)
    return FiniteAction.from_generators(
        finite.group, finite.graph, {g: finite.maps[g] for g in gens})


def broken_finite_action(rng: random.Random) -> FiniteAction:
    """A raw finite action with one map entry changed, or two swapped."""
    finite = fx.anonymize_action(random_finite_translation(rng), rng)
    maps = {g: tuple(dict(m) for m in t) for g, t in finite.maps.items()}
    g = rng.choice(sorted(maps, key=repr))
    mapping = rng.choice([m for m in maps[g] if len(m) >= 2])
    x, y = rng.sample(sorted(mapping), 2)
    if rng.random() < 0.5:
        mapping[x] = mapping[y]
    else:
        mapping[x], mapping[y] = mapping[y], mapping[x]
    return FiniteAction(finite.group, finite.graph, maps)


BUILDERS = {
    "z": random_z_action,
    "z-broken": broken_z_action,
    "finite-translation": random_finite_translation,
    "from-generators": random_generated_action,
    "finite-broken": broken_finite_action,
}


def assert_agrees_with_oracles(action) -> None:
    assert verify_action(action) == verify_action_exhaustive(action)
    for kind in KINDS:
        if isinstance(action, TranslationAction):
            assert action.orbits(kind) == translation_fibers(action, kind)
        if action.group.is_finite:
            assert action.orbits(kind) == orbits_bruteforce(action, kind)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_agree_with_the_oracles(name):
    assert_agrees_with_oracles(FIXTURES[name]())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_random_actions_agree_with_the_oracles(builder, seed):
    assert_agrees_with_oracles(BUILDERS[builder](random.Random(seed)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_tables_match_apply(builder, seed):
    action = BUILDERS[builder](random.Random(seed))
    for g in action.scope_elements():
        for kind, row in zip(KINDS, action.table(g)):
            items = action.carrier(kind)
            assert len(row) == len(items) + 1 and row[-1] == -1
            assert [items[j] if j >= 0 else None for j in row[:-1]] == [
                action.apply(g, kind, x) for x in items]


def test_broken_variants_exercise_every_law():
    """The broken builders are not vacuous: together they violate every
    law that verify_action checks, windowed and finite."""
    seen = {name: set() for name in ("z-broken", "finite-broken")}
    for name in seen:
        for seed in range(150):
            report = verify_action(BUILDERS[name](random.Random(seed)))
            seen[name] |= {law for law, _ in report.failures}
    laws = {"injectivity", "range equivariance", "source equivariance",
            "label compatibility", "homomorphism"}
    assert seen["finite-broken"] >= laws | {"identity acts as identity"}
    assert seen["z-broken"] >= laws


def test_wide_windows_agree_with_the_oracle():
    """On wide windows the ends of the scope cut the slices of most h
    short; the reports must equal the oracle's, failure order included.
    The broken cases fail the homomorphism law at two or more h, and at
    both ends g = -span and g = span of the scope, where the slices of
    the g with g + h in the scope begin and end."""
    hs, ends = set(), set()
    for seed in range(20, 40):
        rng = random.Random(seed)
        if seed % 2:
            action = broken_z_action(rng, wide_z_action)
        else:
            action = wide_z_action(rng)
        report = verify_action(action)
        assert report == verify_action_exhaustive(action)
        span = action.interval_span()
        for law, (g, h, *_) in report.failures:
            if law == "homomorphism":
                hs.add(h)
                if abs(g) == span:
                    ends.add(g // span)
    assert len(hs) >= 2
    assert ends == {-1, 1}


def test_orbits_of_valid_finite_actions_are_group_orbits():
    rng = random.Random(77)
    for _ in range(30):
        action = random_generated_action(rng)
        for kind in KINDS:
            true_orbits = {tuple(sorted({action.apply(g, kind, x)
                                         for g in action.group.elements()}))
                           for x in action.carrier(kind)}
            assert set(action.orbits(kind)) == true_orbits
