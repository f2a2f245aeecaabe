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
from labgraphs.action import (EDGE, LETTER, MAX_TRIPLES, VERTEX, ActionReport,
                              FiniteAction, homomorphism_pairs,
                              homomorphism_triples, is_free, verify_action)
from labgraphs.errors import SearchSpaceExceeded, VerificationError
from labgraphs.graph import DirectedGraph, Edge
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.gross_tucker import (check_equivariance,
                                    identity_layer_sections, reconstruct)
from labgraphs.labeled import LabeledGraph
from labgraphs.skew import SkewSpec, TranslationAction, skew_product

from helpers import (equivariance_oracle, fish4_swap_action,
                     interior_vertices_by_definition, is_free_exhaustive,
                     loop_swap_action, orbits_bruteforce, translation_fibers,
                     trivial_action, verify_action_exhaustive)

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
    "huge-cocycle": lambda: huge_cocycle_action(),
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


def rewired_z_action(rng: random.Random,
                     build=random_z_action) -> TranslationAction:
    """A windowed translation whose materialized graph gives one edge
    another range or source, or swaps its label with an edge of another
    fiber, while the pair maps stay intact.  The tables are those of the
    intact translation, so only the edge offsets of the translation
    certificate tell it apart.  The edge's fiber holds a second, untouched
    edge, which the scope moves onto it, so the change breaks a law."""
    while True:
        skew = build(rng).skew
        fibers: dict[str, list[str]] = {}
        for eid, (base, _) in skew.edge_pair.items():
            fibers.setdefault(base, []).append(eid)
        crowded = sorted(eid for eids in fibers.values() if len(eids) >= 2
                         for eid in eids)
        if crowded:
            break
    eid = rng.choice(crowded)
    lg = skew.graph
    edges = {e.eid: e for e in lg.graph.edges}
    labeling = dict(lg.labeling)
    e = edges[eid]
    others = sorted(f for f in labeling if labeling[f] != labeling[eid]
                    and skew.edge_pair[f][0] != skew.edge_pair[eid][0])
    change = rng.choice(("range", "source", "label") if others
                        else ("range", "source"))
    if change == "label":
        other = rng.choice(others)
        labeling[eid], labeling[other] = labeling[other], labeling[eid]
    elif change == "range":
        edges[eid] = Edge(eid, e.src, rng.choice(
            [v for v in lg.vertices if v != e.dst]))
    else:
        edges[eid] = Edge(eid, rng.choice(
            [v for v in lg.vertices if v != e.src]), e.dst)
    skew.graph = LabeledGraph(DirectedGraph(lg.vertices, edges.values()),
                              labeling)
    return TranslationAction(skew)


def aliased_z_action(rng: random.Random,
                     build=random_z_action) -> TranslationAction:
    """A windowed translation whose id map also lists the top item of a
    fiber one layer above it, while the pair maps stay intact.  The tables
    then hold that item where the fiber's line holds -1, past the fiber's
    layers.  The fiber also holds the layer below the top, and the
    translation by 1 moves both of its top two items onto the top item,
    so injectivity fails."""
    while True:
        action = build(rng)
        skew = action.skew
        candidates = []
        for ids in (skew.vertex_id, skew.edge_id, skew.letter_id):
            top: dict[str, int] = {}
            for base, t in ids:
                top[base] = max(top.get(base, t), t)
            candidates += [(ids, base, t) for base, t in top.items()
                           if (base, t - 1) in ids]
        if candidates and action.interval_span() >= 1:
            break
    ids, base, t = rng.choice(candidates)
    ids[(base, t + 1)] = ids[(base, t)]
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_actions_read_the_graph_core(builder, seed):
    """An action's carriers and positions are those of its graph's core,
    not copies."""
    action = BUILDERS[builder](random.Random(seed))
    core = action.graph.core
    for k, kind in enumerate(KINDS):
        assert action.carrier(kind) is core.carriers[k]
        assert action.index(kind) is core.positions[k]


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


# -- the translation certificate ----------------------------------------------


INTEGER_BUILDERS = {
    "z": random_z_action,
    "z-broken": broken_z_action,
    "z-rewired": rewired_z_action,
    "z-aliased": aliased_z_action,
    "pullback": pullback_z_action,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(INTEGER_BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_integer_reports_equal_the_oracle(builder, seed):
    """Whether the certificate holds or the scans run, the report of an
    integer action equals the apply-based oracle's, failures and their
    order included.  Wide windows, whose oracle takes about 0.3 s each,
    are compared in ``test_wide_windows_agree_with_the_oracle`` and
    ``test_rewired_edges_are_refused_by_their_offsets``."""
    action = INTEGER_BUILDERS[builder](random.Random(seed))
    assert verify_action(action) == verify_action_exhaustive(action)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("builder", ["z-aliased", "z-broken", "z-rewired"])
def test_broken_integer_actions_are_refused(builder, seed):
    """Every broken integer action fails a law, so the certificate must
    refuse it, and the scans name the oracle's failures: coordinates
    shared or swapped (z-broken), an edge rewired (z-rewired), and an item
    listed at a second layer (z-aliased)."""
    action = INTEGER_BUILDERS[builder](random.Random(seed))
    report = verify_action(action)
    assert not report.ok
    assert report == verify_action_exhaustive(action)


def _refuse_the_scans(*args):
    raise AssertionError("the witness scans ran on an intact translation")


INTACT_TRANSLATIONS = {
    "skewz": lambda: TranslationAction(fx.skewz()),
    "nofd": lambda: TranslationAction(fx.nofd()),
    "huge-cocycle": huge_cocycle_action,
    **{f"{name}-{seed}": lambda build=build, seed=seed: build(
        random.Random(seed))
       for name, build in (("z", random_z_action), ("wide", wide_z_action),
                           ("pullback", pullback_z_action))
       for seed in range(15)},
    **{name: case for name, case in GRID_CASES.items()
       if name.startswith("wide")},
}


@pytest.mark.parametrize("name", sorted(INTACT_TRANSLATIONS))
def test_intact_translations_skip_the_scans(name):
    """On an intact translation the certificate holds, so the witness
    scans never run and the report is the one they would give: no
    failure, every scope element, and every pair whose sum is in the
    scope.  Verifying, testing freeness and reconstructing read the
    action's columns only, so no per-element table is built."""
    action = INTACT_TRANSLATIONS[name]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action_module, "_homomorphism_interval", _refuse_the_scans)
        report = verify_action(action)
    assert report == ActionReport(True, (), len(action.scope_elements()),
                                  homomorphism_pairs(action), True)
    assert is_free(action)
    reconstruct(action)
    assert action._tables == {}


@pytest.mark.parametrize("seed", range(24))
def test_rewired_edges_are_refused_by_their_offsets(seed):
    """A rewired edge leaves the tables and the coordinates of the intact
    translation, so the placement and the lines of the certificate hold;
    only the edge offsets refuse it, and the scans name the oracle's
    failures.  One seed in four rewires a wide window."""
    build = wide_z_action if seed % 4 == 3 else random_z_action
    action = rewired_z_action(random.Random(seed), build)
    skew = action.skew
    intact = TranslationAction(skew_product(skew.spec, skew.window))
    for g in action.scope_elements():
        assert action.table(g) == intact.table(g)
    report = verify_action(action)
    assert not report.ok
    assert report == verify_action_exhaustive(action)


def test_rewired_edges_break_every_edge_law():
    laws = set()
    for seed in range(60):
        report = verify_action(rewired_z_action(random.Random(seed)))
        laws |= {law for law, _ in report.failures}
    assert laws >= {"range equivariance", "source equivariance",
                    "label compatibility"}


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


def test_sparse_layers_far_apart_are_refused():
    """The scope of a translation spans the numeric width of all layers:
    60 one-loop fibers 100 layers apart give span 5,904, whose triples are
    over the cap, so verify_action refuses them before building a table
    rather than checking thousands of elements that move nothing onto the
    carrier."""
    action = _sparse_layer_loops(60)
    assert action.interval_span() == 5904
    with pytest.raises(SearchSpaceExceeded, match="MAX_TRIPLES"):
        verify_action(action)
    assert action._tables == {}


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


# -- the item-major block of an integer window -----------------------------------


FREENESS_BUILDERS = {
    **BUILDERS,
    "z-wide": wide_z_action,
    "z-rewired": rewired_z_action,
    "z-aliased": aliased_z_action,
}


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("builder", sorted(FREENESS_BUILDERS))
def test_is_free_agrees_with_the_oracle(builder, seed):
    """``is_free`` gives the scope-order scan's verdict and witness, the
    least (g, kind, item) fixed by a non-identity g.  An aliased item is
    also listed one layer above itself, so g = 1 fixes it; freeness looks
    at vertices and letters only, so an aliased edge leaves it free."""
    action = FREENESS_BUILDERS[builder](random.Random(seed))
    check = is_free(action)
    assert check == is_free_exhaustive(action)
    if builder == "z-aliased":
        aliased = False
        for kind in (VERTEX, LETTER):
            pairs, ids = action._pairs(kind)
            aliased |= any(pairs[item] != key for key, item in ids.items())
        assert check.ok != aliased
        assert check.ok or check.witness[0] == 1


def test_is_free_finds_fixed_items_on_both_scopes():
    """The freeness cases are not vacuous: some integer and some finite
    actions fix an item."""
    finite = set()
    for builder in ("z-aliased", "finite-broken", "from-generators"):
        for seed in range(30):
            action = FREENESS_BUILDERS[builder](random.Random(seed))
            if not is_free(action):
                finite.add(action.group.is_finite)
    assert finite == {False, True}


def assert_columns_match_apply(action) -> None:
    """Item x's images over the scope sit at ``columns(kind)[x n + g +
    span]``, as the positions of ``apply``, -1 where it gives None, and the
    block ends with n slots of -1.  On a scope of more than 200 elements
    only the g that reach a layer of x's fiber are applied, and every other
    slot must hold -1; on smaller scopes the table of every scope element
    is the block's stride slice, -1 sentinel included
    (``test_tables_match_apply`` checks the tables up to three elements
    past the scope, where the layer grid builds them)."""
    span = action.interval_span()
    n = 2 * span + 1
    for kind in KINDS:
        items, index = action.carrier(kind), action.index(kind)
        cols = action.columns(kind)
        assert len(cols) == (len(items) + 1) * n
        assert cols[len(items) * n:] == [-1] * n
        pairs, ids = action._pairs(kind)
        fiber_layers: dict[str, list[int]] = {}
        for base, t in ids:
            fiber_layers.setdefault(base, []).append(t)
        for x, item in enumerate(items):
            column = cols[x * n:x * n + n]
            if n <= 200:
                elements = range(-span, span + 1)
            else:
                base, t = pairs[item]
                elements = [u - t for u in fiber_layers[base]
                            if abs(u - t) <= span]
                assert sum(j >= 0 for j in column) == len(elements)
            for g in elements:
                image = action.apply(g, kind, item)
                assert column[g + span] == (-1 if image is None
                                            else index[image])
    if n <= 200:
        for g in range(-span, span + 1):
            assert action.table(g) == tuple(action.columns(kind)[g + span::n]
                                            for kind in KINDS)


BLOCK_CASES = {
    "huge-cocycle": huge_cocycle_action,
    **GRID_CASES,
    **{f"{name}-{seed}": lambda build=build, seed=seed: build(
        random.Random(seed))
       for name, build in INTEGER_BUILDERS.items() for seed in range(12)},
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_columns_match_apply(name):
    assert_columns_match_apply(BLOCK_CASES[name]())
