"""Integer action tables against their definitional oracles: the table-based
``verify_action`` must agree with the item-by-item ``apply`` version, and
``orbits`` with brute-force group orbits (finite groups) or with the fibers
over the base (translations), on fixtures and on random, windowed and
deliberately broken actions."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labgraphs import action as action_module
from labgraphs import fixtures as fx
from labgraphs.action import (EDGE, LETTER, MAX_TRIPLES, VERTEX, FiniteAction,
                              homomorphism_triples, verify_action)
from labgraphs.errors import SearchSpaceExceeded, VerificationError
from labgraphs.graph import DirectedGraph
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.gross_tucker import (check_equivariance,
                                    identity_layer_sections, reconstruct)
from labgraphs.labeled import LabeledGraph
from labgraphs.skew import SkewSpec, TranslationAction, skew_product

from helpers import (equivariance_oracle, fish4_swap_action,
                     interior_vertices_by_definition, loop_swap_action,
                     orbits_bruteforce, translation_fibers, trivial_action,
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


def pullback_z_action(rng: random.Random) -> TranslationAction:
    """Translation on the skew product a reconstruction builds over the
    quotient, whose layers are the scope elements that move a section into
    the window: with cocycle values wider than the window, the layers of a
    fiber have gaps."""
    return TranslationAction(reconstruct(random_z_action(rng)).skew)


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
    "z-pullback": pullback_z_action,
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


def assert_tables_match_apply(action, elements) -> None:
    for g in elements:
        for kind, row in zip(KINDS, action.table(g)):
            items = action.carrier(kind)
            assert len(row) == len(items) + 1 and row[-1] == -1
            assert [items[j] if j >= 0 else None for j in row[:-1]] == [
                action.apply(g, kind, x) for x in items]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_tables_match_apply(builder, seed):
    """On integer windows the elements run three past the scope at both
    ends, where most images leave the materialization."""
    action = BUILDERS[builder](random.Random(seed))
    span = action.interval_span()
    elements = (action.scope_elements() if span is None
                else range(-span - 3, span + 4))
    assert_tables_match_apply(action, elements)


def huge_cocycle_action() -> TranslationAction:
    """A one-loop base with c = 10**12 over the window -3..3."""
    base = LabeledGraph(DirectedGraph(["v"], [("e", "v", "v")]), {"e": "a"})
    spec = SkewSpec(base, IntegerGroup(), {"e": 10 ** 12}, {"e": 0})
    return TranslationAction(skew_product(spec, Window(-3, 3)))


def test_huge_cocycle_tables_and_reconstruction():
    """A cocycle value of 10**12 puts the halo of a one-vertex window
    10**12 layers away from it; the tables and the reconstruction must not
    cost in proportion to that distance."""
    start = time.perf_counter()
    action = huge_cocycle_action()
    assert_tables_match_apply(action, action.scope_elements())
    rec = reconstruct(action, identity_layer_sections(action))
    assert time.perf_counter() - start < 0.5
    assert dict(rec.c) == {"e": 10 ** 12} and dict(rec.d) == {"e": 0}


def _distinct_cocycle_cycle(n: int) -> TranslationAction:
    """A cycle of n vertices whose cocycle values are all distinct and
    10**6 apart: every vertex fiber holds the window and its own halo."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    base = LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: "a" for eid, _, _ in edges})
    c = {eid: 10 ** 6 * i for i, (eid, _, _) in enumerate(edges)}
    spec = SkewSpec(base, IntegerGroup(), c, {eid: 0 for eid in c})
    return TranslationAction(skew_product(spec, Window(-3, 3)))


def _sparse_layer_loops(n: int) -> TranslationAction:
    """n one-loop fibers, each with 5 layers of its own, 100 apart."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", v, v) for i, v in enumerate(vertices)]
    base = LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: "a" for eid, _, _ in edges})
    spec = SkewSpec(base, IntegerGroup(), {eid: 1 for eid, _, _ in edges},
                    {eid: 0 for eid, _, _ in edges})
    layers = {v: tuple(100 * i + k for k in range(5))
              for i, v in enumerate(vertices)}
    return TranslationAction(skew_product(spec, layers=layers))


GRID_CASES = {
    "distinct-cocycles": lambda: _distinct_cocycle_cycle(60),
    "sparse-layers": lambda: _sparse_layer_loops(60),
    **{f"wide-{seed}": lambda seed=seed: wide_z_action(random.Random(seed))
       for seed in range(10)},
}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_size_follows_the_carrier(name):
    """Fibers that share few layers must not inflate the layer grid: each
    kind holds at most two slots per item and one per fiber, and the slot
    maps of its distinct fiber shapes at most one entry per item, however
    many distinct layers the carrier has.  The tables are checked on a few
    short and long translations, since the scope of the sparse layers
    runs to thousands of elements."""
    action = GRID_CASES[name]()
    _, _, grids = action._grid
    for kind, (flat, entries, _, _) in zip(KINDS, grids):
        items = action.carrier(kind)
        assert len(flat) <= (2 * len(items)
                             + len(translation_fibers(action, kind)))
        assert len(entries) <= len(items)
    assert_tables_match_apply(
        action, [*range(-8, 9), 100, -100, 10 ** 6, -10 ** 6])


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


# -- the reconstruction's equivariance check ------------------------------------


RECONSTRUCTION_CASES = {
    "narrow": random_z_action,
    "wide": wide_z_action,
    "pullback": pullback_z_action,
    "finite-translation": random_finite_translation,
    "from-generators": random_generated_action,
}


def comparison_maps(rec):
    return (rec.iso.vertex_map, rec.iso.edge_map, rec.iso.alphabet_map)


def broken_maps(maps, rng: random.Random):
    """The comparison maps with one image overwritten by another of its
    kind, or two images swapped; unchanged when no kind has two items."""
    maps = [dict(m) for m in maps]
    candidates = [m for m in maps if len(m) >= 2]
    if not candidates:
        return maps
    mapping = rng.choice(candidates)
    x, y = rng.sample(sorted(mapping), 2)
    if rng.random() < 0.5:
        mapping[x] = mapping[y]
    else:
        mapping[x], mapping[y] = mapping[y], mapping[x]
    return maps


def assert_equivariance_agrees(action, skew, maps):
    """``check_equivariance`` returns the oracle's count when the oracle
    finds no mismatch, and otherwise raises with the oracle's witness."""
    count, witness = equivariance_oracle(action, skew, maps)
    if witness is None and count > 0:
        assert check_equivariance(action, skew, maps) == count
        return None
    with pytest.raises(VerificationError) as info:
        check_equivariance(action, skew, maps)
    assert info.value.witness == witness
    return witness


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(RECONSTRUCTION_CASES)),
       st.integers(0, 2 ** 32 - 1))
def test_equivariance_agrees_with_the_oracle(case, seed):
    """Integer windows run the item-major check and finite groups the
    element-by-element one; both count what the apply-based oracle counts
    and name its first witness, on the reconstruction's maps and on
    broken copies of them."""
    rng = random.Random(seed)
    action = RECONSTRUCTION_CASES[case](rng)
    rec = reconstruct(action)
    maps = comparison_maps(rec)
    assert equivariance_oracle(action, rec.skew, maps) == (
        rec.equivariance_checked, None)
    assert_equivariance_agrees(action, rec.skew, broken_maps(maps, rng))


def test_huge_cocycle_equivariance_agrees_with_the_oracle():
    """The vertex fiber of the pullback holds the window and a halo 10**12
    layers away, so its layers are sparse."""
    action = huge_cocycle_action()
    rec = reconstruct(action, identity_layer_sections(action))
    maps = comparison_maps(rec)
    assert equivariance_oracle(action, rec.skew, maps) == (
        rec.equivariance_checked, None)
    witnesses = {assert_equivariance_agrees(
        action, rec.skew, broken_maps(maps, random.Random(seed)))
        for seed in range(20)}
    assert len(witnesses - {None}) >= 2


def test_broken_comparison_maps_fail_where_the_oracle_does():
    """Broken maps are caught on every kind, at several g and on both
    scope shapes, with the oracle's witness."""
    kinds, elements, shapes = set(), set(), set()
    for seed in range(60):
        rng = random.Random(seed)
        case = sorted(RECONSTRUCTION_CASES)[seed % len(RECONSTRUCTION_CASES)]
        action = RECONSTRUCTION_CASES[case](rng)
        rec = reconstruct(action)
        witness = assert_equivariance_agrees(
            action, rec.skew, broken_maps(comparison_maps(rec), rng))
        if witness is not None:
            g, kind, _ = witness
            kinds.add(kind)
            shapes.add(action.interval_span() is None)
            if action.interval_span() is not None:
                elements.add(g)
    assert kinds == set(KINDS)
    assert len(elements) >= 3
    assert shapes == {False, True}


def test_interior_vertices_match_their_definition():
    """Counting the materialized edges that enter a window vertex gives the
    vertices whose every base in-edge has its source layer materialized,
    on the skew products of every builder, the layer-grid cases, the
    fixtures and the reconstructions."""
    skews = [fx.skewz(), fx.nofd(), huge_cocycle_action().skew,
             *(case().skew for case in GRID_CASES.values())]
    for seed in range(40):
        for name, build in sorted(RECONSTRUCTION_CASES.items()):
            action = build(random.Random(seed))
            if isinstance(action, TranslationAction):
                skews.append(action.skew)
            skews.append(reconstruct(action).skew)
    for skew in skews:
        assert skew.interior_vertices == interior_vertices_by_definition(skew)
    assert any(skew.interior_vertices != skew.window_vertices
               for skew in skews)


# -- the work cap of verify_action ---------------------------------------------


def _carrier_size(action) -> int:
    return sum(len(action.carrier(kind)) for kind in KINDS)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_triples_are_the_pairs_checked_times_the_carrier(builder, seed):
    action = BUILDERS[builder](random.Random(seed))
    report = verify_action(action)
    assert homomorphism_triples(action) == (report.pairs_checked
                                            * _carrier_size(action))


def _widest_window_under(spec, lo: int, cap: int) -> int:
    """The largest w whose window lo..lo+w counts at most ``cap``
    triples, by bisection (the count grows with the width)."""
    def triples(width):
        return homomorphism_triples(
            TranslationAction(skew_product(spec, Window(lo, lo + width))))
    low, high = 0, 1
    while triples(high) <= cap:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if triples(mid) <= cap else (low, mid)
    return low


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(10 ** 3, 2 * 10 ** 5))
def test_windows_just_under_and_over_the_cap(seed, cap):
    """With the cap set to ``cap``, the widest window under it verifies,
    and one layer more is refused before any table is built, naming the
    cap and the count."""
    rng = random.Random(seed)
    base = fx.random_valid_labeled_graph(rng, max_vertices=3, max_letters=2,
                                         extra_edges=2)
    c = {e.eid: rng.randint(-4, 4) for e in base.graph.edges}
    d = {e.eid: rng.randint(-4, 4) for e in base.graph.edges}
    spec = SkewSpec(base, IntegerGroup(), c, d)
    lo = rng.randint(-5, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action_module, "MAX_TRIPLES", cap)
        width = _widest_window_under(spec, lo, cap)
        under = TranslationAction(skew_product(spec, Window(lo, lo + width)))
        report = verify_action(under)
        assert report.ok
        assert report.pairs_checked * _carrier_size(under) <= cap
        over = TranslationAction(
            skew_product(spec, Window(lo, lo + width + 1)))
        triples = homomorphism_triples(over)
        assert triples > cap
        with pytest.raises(SearchSpaceExceeded,
                           match=f"{triples} .* MAX_TRIPLES = {cap}$"):
            verify_action(over)
        assert not over._tables


def test_skewz_windows_at_the_cap():
    """The cap itself: the widest skewz window under it verifies (about a
    second), and one layer more is refused without a table."""
    spec = fx.skewz_spec()
    width = _widest_window_under(spec, 0, MAX_TRIPLES)
    assert verify_action(
        TranslationAction(skew_product(spec, Window(0, width)))).ok
    over = TranslationAction(skew_product(spec, Window(0, width + 1)))
    with pytest.raises(SearchSpaceExceeded, match="MAX_TRIPLES"):
        verify_action(over)
    assert not over._tables
