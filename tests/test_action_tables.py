"""Actions' blocks of scope images against their definitional oracles: the
block-based ``verify_action`` must agree with the item-by-item ``apply``
version, and ``orbits`` with the brute-force components of the scope
images (finite groups, and kinds that are not placed) or with the fibers
over the base (placed kinds of integer windows), on fixtures and on
random, windowed, non-abelian and deliberately broken actions."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labgraphs import action as action_module
from labgraphs import fixtures as fx
from labgraphs import gross_tucker as gross_tucker_module
from labgraphs.action import (EDGE, LETTER, MAX_TRIPLES, VERTEX, ActionReport,
                              FiniteAction, find_fundamental_domain,
                              homomorphism_pairs, homomorphism_triples,
                              is_free, quotient, require_verified,
                              verify_action)
from labgraphs.errors import (PreconditionError, SearchSpaceExceeded,
                              VerificationError, WellDefinednessError)
from labgraphs.graph import DirectedGraph
from labgraphs.groups import (CyclicGroup, IntegerGroup, PermutationGroup,
                              TableGroup, Window)
from labgraphs.gross_tucker import (Reconstruction, check_equivariance,
                                    identity_layer_sections, reconstruct)
from labgraphs.labeled import LabeledGraph
from labgraphs.morphism import identity_maps, is_surjective, verify_morphism
from labgraphs.skew import SkewSpec, TranslationAction, skew_product

from helpers import (StringSkew, assert_same_skew, equivariance_oracle,
                     find_fundamental_domain_by_candidates, form_pairs,
                     fish4_swap_action, interior_vertices_by_definition,
                     is_free_exhaustive,
                     loop_swap_action, orbits_bruteforce, placed_by_lookup,
                     reconstruction_layers_by_scope,
                     reconstruction_tail_by_name,
                     translation_certified_by_lines, translation_fibers,
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
    swapped, in the action's positional view after its items are named
    and its ``located`` is built, which stays intact."""
    while True:
        action = build(rng)
        kind = rng.choice(KINDS)
        coords = action.coordinates(kind)
        if len(coords) >= 2:
            break
    action.located(kind)
    x, y = rng.sample(range(len(coords)), 2)
    if rng.random() < 0.5:
        coords[x] = coords[y]
    else:
        coords[x], coords[y] = coords[y], coords[x]
    return TranslationAction(action.skew)


def rewired_z_action(rng: random.Random,
                     build=random_z_action) -> TranslationAction:
    """A windowed translation whose core gives one edge another range or
    source, or swaps its label with an edge of another fiber, while its
    coordinates and ``located`` stay intact.  The block is that of the
    intact translation, so only the edge offsets of the translation
    certificate tell it apart.  The edge's fiber holds a second,
    untouched edge, which the scope moves onto it, so the change breaks
    a law.  The draws are made from the names in name order."""
    while True:
        action = build(rng)
        edge_pair = form_pairs(action.skew, EDGE)
        fibers: dict[str, list[str]] = {}
        for eid, (base, _) in edge_pair.items():
            fibers.setdefault(base, []).append(eid)
        crowded = sorted(eid for eids in fibers.values() if len(eids) >= 2
                         for eid in eids)
        if crowded:
            break
    eid = rng.choice(crowded)
    core = action.core
    vertices, edges, letters = core.carriers
    at, e = core.positions[0], core.positions[1][eid]
    labeling = dict(zip(edges, map(letters.__getitem__, core.lab)))
    others = sorted(f for f in labeling if labeling[f] != labeling[eid]
                    and edge_pair[f][0] != edge_pair[eid][0])
    change = rng.choice(("range", "source", "label") if others
                        else ("range", "source"))
    if change == "label":
        f = core.positions[1][rng.choice(others)]
        core.lab[e], core.lab[f] = core.lab[f], core.lab[e]
    elif change == "range":
        core.dst[e] = at[rng.choice(
            [v for v in sorted(vertices) if v != vertices[core.dst[e]]])]
    else:
        core.src[e] = at[rng.choice(
            [v for v in sorted(vertices) if v != vertices[core.src[e]]])]
    return TranslationAction(action.skew)


def aliased_z_action(rng: random.Random,
                     build=random_z_action) -> TranslationAction:
    """A windowed translation whose ``located`` also lists the top item of
    a fiber one layer above it, while its coordinates stay intact.  The
    block then holds that item where the fiber's line holds -1, past the
    fiber's layers.  The fiber also holds the layer below the top, and the
    translation by 1 moves both of its top two items onto the top item,
    so injectivity fails."""
    while True:
        action = build(rng)
        candidates = []
        for kind in KINDS:
            located = action.located(kind)
            top: dict[str, int] = {}
            for base, t in action.coordinates(kind):
                top[base] = max(top.get(base, t), t)
            candidates += [(located, base, t) for base, t in top.items()
                           if (base, t - 1) in located]
        if candidates and action.interval_span() >= 1:
            break
    located, base, t = rng.choice(candidates)
    located[(base, t + 1)] = located[(base, t)]
    return TranslationAction(action.skew)


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


def broken_finite_action(rng: random.Random,
                         build=random_finite_translation) -> FiniteAction:
    """A raw finite action with one map entry changed, or two swapped."""
    finite = fx.anonymize_action(build(rng), rng)
    maps = {g: tuple(dict(m) for m in t) for g, t in finite.maps.items()}
    g = rng.choice(sorted(maps, key=repr))
    mapping = rng.choice([m for m in maps[g] if len(m) >= 2])
    x, y = rng.sample(sorted(mapping), 2)
    if rng.random() < 0.5:
        mapping[x] = mapping[y]
    else:
        mapping[x], mapping[y] = mapping[y], mapping[x]
    return FiniteAction(finite.group, finite.graph, maps)


def non_free_finite_action(rng: random.Random) -> FiniteAction:
    """A cyclic group of order 2n acting through its quotient of order n,
    so the element n fixes every item: a valid action that is not free."""
    while True:
        action = fx.random_translation_action(rng, rng.random() < 0.5)
        if action.group.kind == "cyclic":
            break
    finite = fx.anonymize_action(action, rng)
    n = finite.group.n
    return FiniteAction(CyclicGroup(2 * n), finite.graph,
                        {g: finite.maps[g % n] for g in range(2 * n)})


def raw_finite_action(rng: random.Random) -> FiniteAction:
    """A free raw finite action over opaque ids, given by its element
    triples, over a cyclic, table or permutation group."""
    return fx.anonymize_action(random_finite_translation(rng), rng)


BUILDERS = {
    "z": random_z_action,
    "z-broken": broken_z_action,
    "z-pullback": pullback_z_action,
    "finite-translation": random_finite_translation,
    "finite-raw": raw_finite_action,
    "from-generators": random_generated_action,
    "finite-broken": broken_finite_action,
    "finite-non-free": non_free_finite_action,
}

#: The builders of actions of finite groups: free, not free and broken.
FINITE_BUILDERS = ["finite-broken", "finite-non-free", "finite-raw",
                   "finite-translation", "from-generators"]


def assert_agrees_with_oracles(action) -> None:
    assert verify_action(action) == verify_action_exhaustive(action)
    assert_orbits_agree(action)


def assert_orbits_agree(action) -> None:
    """``orbits`` against the brute-force components, except on a placed
    kind of an integer window, whose orbits are the fibers over the base
    (the scope elements need not link a fiber there).  Every item's orbit
    name is one name per orbit: on a placed kind of a translation the base
    item of the skew product's coordinates, otherwise the least item of
    the orbit."""
    for kind in KINDS:
        placed = placed_by_lookup(action, kind)
        if action.group.is_finite or not placed:
            assert action.orbits(kind) == orbits_bruteforce(action, kind)
        else:
            assert action.orbits(kind) == translation_fibers(action, kind)
        names = dict(zip(action.carrier(kind), action._orbit_names(kind)))
        bases = (dict(zip(action.carrier(kind), action.skew.coordinates(kind)))
                 if placed and isinstance(action, TranslationAction) else None)
        for members in action.orbits(kind):
            name = members[0] if bases is None else bases[members[0]][0]
            assert {names[x] for x in members} == {name}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_agree_with_the_oracles(name):
    assert_agrees_with_oracles(FIXTURES[name]())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_random_actions_agree_with_the_oracles(builder, seed):
    assert_agrees_with_oracles(BUILDERS[builder](random.Random(seed)))


def huge_cocycle_action() -> TranslationAction:
    """A one-loop base with c = 10**12 over the window -3..3."""
    base = LabeledGraph(DirectedGraph(["v"], [("e", "v", "v")]), {"e": "a"})
    spec = SkewSpec(base, IntegerGroup(), {"e": 10 ** 12}, {"e": 0})
    return TranslationAction(skew_product(spec, Window(-3, 3)))


def test_huge_cocycle_tables_and_reconstruction():
    """A cocycle value of 10**12 puts the halo of a one-vertex window
    10**12 layers away from it; the block of scope images and the
    reconstruction must not cost in proportion to that distance."""
    start = time.perf_counter()
    action = huge_cocycle_action()
    assert_columns_match_apply(action)
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


def _sparse_layer_loops(n: int, apart: int = 100) -> TranslationAction:
    """n one-loop fibers, each with 5 layers of its own, ``apart`` layers
    apart."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", v, v) for i, v in enumerate(vertices)]
    base = LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: "a" for eid, _, _ in edges})
    spec = SkewSpec(base, IntegerGroup(), {eid: 1 for eid, _, _ in edges},
                    {eid: 0 for eid, _, _ in edges})
    layers = {v: tuple(apart * i + k for k in range(5))
              for i, v in enumerate(vertices)}
    return TranslationAction(skew_product(spec, layers=layers))


#: Translations whose fibers share few layers: a halo far from the window
#: per vertex, fibers far apart, and wide windows.  Six loops 100 layers
#: apart give a scope of 1,009 elements, under the cap; sixty are refused
#: (``test_sparse_layers_far_apart_are_refused``).
SPARSE_CASES = {
    "distinct-cocycles": lambda: _distinct_cocycle_cycle(60),
    "sparse-layers": lambda: _sparse_layer_loops(6),
    **{f"wide-{seed}": lambda seed=seed: wide_z_action(random.Random(seed))
       for seed in range(10)},
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_actions_read_the_graph_core(builder, seed):
    """An action's carriers and positions are those of its own core, not
    copies: its graph's core for a ``FiniteAction``, and for a translation
    its skew product's, in form order, whose edge arrays are the form's
    own."""
    action = BUILDERS[builder](random.Random(seed))
    core = action.core
    if isinstance(action, TranslationAction):
        form = action.skew.form
        assert core is action.skew.core
        assert (core.src, core.dst, core.lab) == (form.src, form.dst, form.lab)
        assert all(a is b for a, b in zip(core[2:], form[2:]))
        assert core.carriers == action.skew.item_names
    else:
        assert core is action.graph.core
    for k, kind in enumerate(KINDS):
        assert action.carrier(kind) is core.carriers[k]
        assert action.index(kind) is core.positions[k]
        assert dict(zip(core.carriers[k], range(len(core.carriers[k])))) \
            == core.positions[k]


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


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("builder", sorted(INTEGER_BUILDERS))
def test_integer_orbits_agree_with_the_oracles(builder, seed):
    """The orbits of every integer builder, broken ones included: the
    fibers on a placed kind, the components of the scope images on a kind
    that is not placed."""
    assert_orbits_agree(INTEGER_BUILDERS[builder](random.Random(seed)))


def test_broken_builders_leave_kinds_unplaced():
    """The orbit oracles are not vacuous: the shared, swapped or aliased
    coordinates leave kinds unplaced, whose orbits come from the block,
    and some of those differ from the fibers."""
    unplaced = differ = 0
    for seed in range(40):
        for build in (broken_z_action, aliased_z_action):
            action = build(random.Random(seed))
            for k, kind in enumerate(KINDS):
                if not action._placed[k]:
                    unplaced += 1
                    differ += (action.orbits(kind)
                               != translation_fibers(action, kind))
    assert unplaced >= 40 and differ >= 10


#: Every builder of actions on an integer interval: intact, broken,
#: rewired, aliased, pullback, wide, sparse and huge-cocycle.
INTERVAL_BUILDERS = {
    **INTEGER_BUILDERS,
    "wide": wide_z_action,
    "sparse": lambda rng: SPARSE_CASES[rng.choice(sorted(SPARSE_CASES))](),
    "huge-cocycle": lambda rng: huge_cocycle_action(),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(INTERVAL_BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_map_certificate_never_passes_where_the_lines_fail(builder, seed):
    """The block of every interval action is the ``located`` lookup at
    (fiber, layer + g), so the block and the readers that skip it cannot
    drift apart; and the certificate read on ``located`` holds only where
    the one read against the block (its oracle) holds too."""
    action = INTERVAL_BUILDERS[builder](random.Random(seed))
    span = action.interval_span()
    for kind in KINDS:
        located = action.located(kind)
        assert action.columns(kind) == [
            located.get((q, t + g), -1) for q, t in action.coordinates(kind)
            for g in range(-span, span + 1)] + [-1] * (2 * span + 1)
    if action_module._translation_certified(action):
        assert translation_certified_by_lines(action)


def _refuse_the_scans(*args):
    raise AssertionError("the witness scans ran on an intact translation")


def _klein_table():
    return TableGroup([[i ^ j for j in range(4)] for i in range(4)])


INTACT_TRANSLATIONS = {
    "skewz": lambda: TranslationAction(fx.skewz()),
    "nofd": lambda: TranslationAction(fx.nofd()),
    "huge-cocycle": huge_cocycle_action,
    **{f"{name}-{seed}": lambda build=build, seed=seed: build(
        random.Random(seed))
       for name, build in (("z", random_z_action), ("wide", wide_z_action),
                           ("pullback", pullback_z_action))
       for seed in range(15)},
    **{name: case for name, case in SPARSE_CASES.items()
       if name.startswith("wide")},
    "fdok": fx.fdok_action,
    "fdok-finite": lambda: fx.fdok_action().as_finite_action(),
    **{f"{name}-{shape}-{seed}":
       lambda group=group, shape=shape, seed=seed: _free_finite(
           group(), shape, random.Random(seed))
       for name, group in (("Z3", lambda: CyclicGroup(3)),
                           ("Z5", lambda: CyclicGroup(5)),
                           ("S3", lambda: SMALL_GROUPS["S3"]),
                           ("D4", lambda: SMALL_GROUPS["D4"]),
                           ("table", _klein_table))
       for shape in ("translation", "finite", "raw") for seed in range(3)},
}


def _free_finite(group, shape: str, rng: random.Random):
    """The translation on a random skew product over ``group``, its
    element triples (``as_finite_action``), or an anonymized copy."""
    action = group_translation(group, rng)
    if shape == "finite":
        return action.as_finite_action()
    return fx.anonymize_action(action, rng) if shape == "raw" else action


@pytest.mark.parametrize("name", sorted(INTACT_TRANSLATIONS))
def test_intact_translations_skip_the_scans(name):
    """On an intact translation, over an integer window or a finite group,
    and on every free action of a finite group given by its element
    triples, the certificate holds, so the witness scans never run and
    the report is the one they would give: no failure, every scope
    element, and every pair whose product is in the scope.  Freeness and
    the reconstruction, its equivariance check included, read
    ``located`` too: a translation never builds its block of scope
    images."""
    action = INTACT_TRANSLATIONS[name]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action_module, "_homomorphism", _refuse_the_scans)
        mp.setattr(gross_tucker_module, "_equivariance_by_element",
                   _refuse_the_scans)
        report = verify_action(action)
        assert is_free(action)
        reconstruct(action)
    assert report == ActionReport(True, (), len(action.scope_elements()),
                                  homomorphism_pairs(action),
                                  action.interval_span() is not None)
    assert all(action._placed)
    if isinstance(action, TranslationAction):
        assert "_columns" not in action.__dict__


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("builder", FINITE_BUILDERS)
def test_finite_certificate_holds_exactly_on_free_actions(builder, seed):
    """On a finite group the certificate is complete: it holds exactly
    when the apply-based oracles find every law and freeness, so no free
    finite action is left to the scans, and no other action passes."""
    action = BUILDERS[builder](random.Random(seed))
    assert action_module._translation_certified(action) == (
        verify_action_exhaustive(action).ok and is_free_exhaustive(action).ok)


@pytest.mark.parametrize("seed", range(24))
def test_rewired_edges_are_refused_by_their_offsets(seed):
    """A rewired edge leaves the block and the coordinates of the intact
    translation, so the placement and the lines of the certificate hold;
    only the edge offsets refuse it, and the scans name the oracle's
    failures.  One seed in four rewires a wide window."""
    build = wide_z_action if seed % 4 == 3 else random_z_action
    action = rewired_z_action(random.Random(seed), build)
    skew = action.skew
    intact = TranslationAction(skew_product(skew.spec, skew.window))
    for kind in KINDS:
        assert action.columns(kind) == intact.columns(kind)
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
    "finite-raw": raw_finite_action,
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


def test_equivariance_into_an_action_unplaced_on_edges():
    """The offset certificate needs the action placed on every kind.  The
    finite form of fdok with 1 fixing the edge (e,1) is placed on vertices
    and letters; on edges the walk still gives every edge the coordinates
    of the translation, but (e,1) is not where they put it.  So the
    identity maps of the fdok skew product, which the offsets of those
    coordinates would certify, fail with the oracle's witness."""
    intact = fx.fdok_action()
    finite = intact.as_finite_action()
    maps = {g: tuple(dict(m) for m in t) for g, t in finite.maps.items()}
    maps[1][1]["(e,1)"] = "(e,1)"
    action = FiniteAction(finite.group, finite.graph, maps)
    assert action._placed == (True, False, True)
    assert None not in action.coordinates(EDGE)
    skew = intact.skew
    assert assert_equivariance_agrees(
        action, skew, identity_maps(skew.graph)) == (1, EDGE, "(e,1)")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(RECONSTRUCTION_CASES)),
       st.integers(0, 2 ** 32 - 1))
def test_equivariance_agrees_with_the_oracle(case, seed):
    """Integer windows try the offset certificate first, and broken maps
    there, like every map on a finite group, run the element-by-element
    scan; each counts what the apply-based oracle counts, and the scan
    names its first witness, on the reconstruction's maps and on broken
    copies of them."""
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
    on the skew products of every builder, the sparse-layer cases, the
    fixtures and the reconstructions."""
    skews = [fx.skewz(), fx.nofd(), huge_cocycle_action().skew,
             *(case().skew for case in SPARSE_CASES.values())]
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


def _unlisted(*args):
    raise AssertionError("the scope was listed")


def assert_certified_without_the_scope(action) -> ActionReport:
    """``verify_action``, ``is_free`` and ``reconstruct`` pass on
    ``action`` with its ``scope_elements`` patched to raise, and build no
    block: every certificate reads the items, never the scope.  Returns
    the report."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action, "scope_elements", _unlisted)
        report = verify_action(action)
        assert report.ok
        assert is_free(action)
        reconstruct(action)
    assert "_columns" not in action.__dict__
    return report


def assert_refused_by_the_count(check, action) -> None:
    """``check(action)`` raises :class:`SearchSpaceExceeded` naming the
    action's (g, h, item) triples and the cap in force, and builds no
    block."""
    triples, cap = homomorphism_triples(action), action_module.MAX_TRIPLES
    assert triples > cap
    with pytest.raises(SearchSpaceExceeded,
                       match=rf"{triples} \(g, h, item\) triples, over the "
                             rf"cap MAX_TRIPLES = {cap}$"):
        check(action)
    assert "_columns" not in action.__dict__


def swapped_vertex_copy(build) -> TranslationAction:
    """A fresh ``build()`` with the coordinates of its first two vertices
    swapped, as ``broken_z_action`` swaps two items: its vertices are no
    longer placed, so only the scans could judge it."""
    action = build()
    coords = action.coordinates(VERTEX)
    coords[0], coords[1] = coords[1], coords[0]
    return TranslationAction(action.skew)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(10 ** 3, 2 * 10 ** 5))
def test_windows_just_under_and_over_the_cap(seed, cap):
    """With the cap set to ``cap``, the widest window under it and one
    layer more both verify through the certificate, without a block.  On
    copies with one coordinate broken (``broken_z_action``) the
    certificate fails: the one under the cap is scanned, and the one over
    it is refused before its block is built, naming the cap and the
    count."""
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
        builds = [lambda rng, w=w: TranslationAction(
            skew_product(spec, Window(lo, lo + w))) for w in (width, width + 1)]
        under, over = (build(rng) for build in builds)
        report = verify_action(under)
        assert report.ok
        assert report.pairs_checked * _carrier_size(under) <= cap
        assert verify_action(over).ok
        assert homomorphism_triples(over) > cap
        assert "_columns" not in over.__dict__
        broken_under, broken_over = (broken_z_action(rng, build)
                                     for build in builds)
        verify_action(broken_under)
        assert "_columns" in broken_under.__dict__
        assert_refused_by_the_count(verify_action, broken_over)


def swapped_identity_maps(action: TranslationAction):
    """The identity maps of the action's graph with its first two
    vertices swapped: two layers of one fiber, so phi moves that fiber at
    two offsets and the offset certificate of ``check_equivariance``
    fails, leaving the scan to run."""
    maps = [dict(m) for m in identity_maps(action.graph)]
    x, y = action.carrier(VERTEX)[:2]
    maps[0][x], maps[0][y] = y, x
    return maps


def test_sparse_layers_far_apart_are_refused():
    """The scope of a translation spans the numeric width of all layers:
    60 one-loop fibers 100 layers apart give span 5,904, whose triples are
    over the cap.  The intact action is verified, found free and
    reconstructed by the certificates, which never list the scope.  A
    copy with two vertex coordinates swapped is refused before a block is
    built, rather than scanned over thousands of elements that move
    nothing onto the carrier, and so are broken maps in the equivariance
    scan."""
    action = _sparse_layer_loops(60)
    assert action.interval_span() == 5904
    assert_certified_without_the_scope(action)
    assert_refused_by_the_count(
        verify_action, swapped_vertex_copy(lambda: _sparse_layer_loops(60)))
    assert_refused_by_the_count(
        lambda action: check_equivariance(action, action.skew,
                                          swapped_identity_maps(action)),
        action)


def test_is_free_refuses_sparse_layers_far_apart():
    """``is_free`` reads the placement of the vertices and letters before
    the block: the intact sparse-layer action is free without its scope
    being listed, and a copy with two vertex coordinates swapped, which
    only the block can judge, is refused under the same cap as
    ``verify_action``, before the block is built."""
    action = _sparse_layer_loops(60)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action, "scope_elements", _unlisted)
        assert is_free(action)
    assert_refused_by_the_count(
        is_free, swapped_vertex_copy(lambda: _sparse_layer_loops(60)))
    assert_refused_by_the_count(
        lambda action: check_equivariance(action, action.skew,
                                          swapped_identity_maps(action)),
        action)


def test_layers_far_apart_are_refused_without_listing_the_scope(monkeypatch):
    """The cap counts an integer scope from its span.  On two fibers 10**9
    layers apart, the intact action is verified, found free and
    reconstructed without its scope of 2 * 10**9 + 9 elements being
    listed.  A copy with two vertex coordinates swapped is refused by
    ``verify_action`` and ``is_free``, and the swapped maps by the
    equivariance scan, by the count alone: ``scope_elements`` lists an
    interval through ``range``, which is patched to raise."""
    action = _sparse_layer_loops(2, apart=10 ** 9)
    assert action.interval_span() == 10 ** 9 + 4
    assert_certified_without_the_scope(action)
    maps = swapped_identity_maps(action)
    broken = swapped_vertex_copy(lambda: _sparse_layer_loops(2, apart=10 ** 9))
    monkeypatch.setattr(action_module, "range", _unlisted, raising=False)
    start = time.perf_counter()
    for check, target in ((verify_action, broken), (is_free, broken),
                          (lambda action: check_equivariance(
                              action, action.skew, maps), action)):
        assert_refused_by_the_count(check, target)
    assert time.perf_counter() - start < 0.5


def test_skewz_windows_at_the_cap():
    """The cap itself: the widest skewz window under it and one layer more
    both verify through the certificate, without a block.  With two
    vertex coordinates swapped, the one under the cap is scanned (about a
    second) and its failures named, and the one over it is refused by the
    count without a block."""
    spec = fx.skewz_spec()
    width = _widest_window_under(spec, 0, MAX_TRIPLES)
    builds = [lambda w=w: TranslationAction(skew_product(spec, Window(0, w)))
              for w in (width, width + 1)]
    for build in builds:
        action = build()
        assert verify_action(action).ok
        assert "_columns" not in action.__dict__
    under, over = map(swapped_vertex_copy, builds)
    assert not verify_action(under).ok
    assert_refused_by_the_count(verify_action, over)


#: Intact translations, each verified, found free and reconstructed by
#: the certificates alone, over integer windows and finite groups, with
#: fibers far apart among them.
CERTIFIED_TRANSLATIONS = {
    **{name: build for name, build in INTACT_TRANSLATIONS.items()
       if "finite" not in name and "raw" not in name},
    **SPARSE_CASES,
    "sparse-60": lambda: _sparse_layer_loops(60),
    "apart-10**9": lambda: _sparse_layer_loops(2, apart=10 ** 9),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_TRANSLATIONS))
def test_certificates_never_list_the_scope(name):
    """No certificate path lists the scope: with ``scope_elements``
    patched to raise, every intact translation verifies, with every scope
    element counted, is free and is reconstructed."""
    action = CERTIFIED_TRANSLATIONS[name]()
    assert isinstance(action, TranslationAction)
    report = assert_certified_without_the_scope(action)
    span = action.interval_span()
    assert report.elements_checked == (
        len(action.group.elements()) if span is None else 2 * span + 1)


# -- the item-major block of scope images ---------------------------------------


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
            coords = action.coordinates(kind)
            aliased |= any(coords[j] != key
                           for key, j in action.located(kind).items())
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
    """Item x's image under the p-th scope element sits at
    ``columns(kind)[x n + p]``, as the position of ``apply``'s image, -1
    where it gives None, and the block ends with n slots of -1.  On a
    scope of more than 200 elements (an integer interval, p = g + span)
    only the g that reach a layer of x's fiber are applied, and every
    other slot must hold -1."""
    scope = action.scope_elements()
    n, span = len(scope), action.interval_span()
    for kind in KINDS:
        items, index = action.carrier(kind), action.index(kind)
        cols = action.columns(kind)
        assert len(cols) == (len(items) + 1) * n
        assert cols[len(items) * n:] == [-1] * n
        if n > 200:
            coords = action.coordinates(kind)
            fiber_layers: dict[str, list[int]] = {}
            for base, t in action.located(kind):
                fiber_layers.setdefault(base, []).append(t)
        for x, item in enumerate(items):
            column = cols[x * n:x * n + n]
            if n <= 200:
                elements = enumerate(scope)
            else:
                base, t = coords[x]
                elements = [(u - t + span, u - t) for u in fiber_layers[base]
                            if abs(u - t) <= span]
                assert sum(j >= 0 for j in column) == len(elements)
            for p, g in elements:
                image = action.apply(g, kind, item)
                assert column[p] == (-1 if image is None else index[image])


BLOCK_CASES = {
    "huge-cocycle": huge_cocycle_action,
    **SPARSE_CASES,
    **{f"{name}-{seed}": lambda build=build, seed=seed: build(
        random.Random(seed))
       for name, build in [*INTEGER_BUILDERS.items(), *BUILDERS.items()]
       if name != "z-pullback" for seed in range(12)},
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_columns_match_apply(name):
    """Every builder, finite and integer, with the sparse-layer cases; the
    integer pullback builder is listed once, as ``pullback``."""
    assert_columns_match_apply(BLOCK_CASES[name]())


# -- non-abelian groups --------------------------------------------------------


#: Groups whose products g h and h g differ, with the trivial group, whose
#: scope holds the identity alone (it is not broken: a skew product over
#: it may have no two items of a kind to swap).
SMALL_GROUPS = {
    "S3": PermutationGroup(3, [(1, 0, 2), (1, 2, 0)]),
    "D4": PermutationGroup(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),
    "C1": CyclicGroup(1),
}


def group_translation(group, rng: random.Random) -> TranslationAction:
    """Translation on the skew product of a random base over ``group``,
    with cocycle values drawn from the whole group."""
    base = fx.random_valid_labeled_graph(rng, max_vertices=3, max_letters=2,
                                         extra_edges=2)
    elements = group.elements()
    c = {e.eid: rng.choice(elements) for e in base.graph.edges}
    d = {e.eid: rng.choice(elements) for e in base.graph.edges}
    return TranslationAction(skew_product(SkewSpec(base, group, c, d)))


GROUP_BUILDERS = {
    "translation": group_translation,
    "raw": lambda group, rng: fx.anonymize_action(
        group_translation(group, rng), rng),
    "raw-broken": lambda group, rng: broken_finite_action(
        rng, lambda rng: group_translation(group, rng)),
}

NONABELIAN_CASES = {
    f"{name}-{shape}-{seed}":
        lambda group=group, build=build, seed=seed: build(
            group, random.Random(seed))
    for name, group in SMALL_GROUPS.items()
    for shape, build in GROUP_BUILDERS.items() for seed in range(4)
    if name != "C1" or shape != "raw-broken"
}


@pytest.mark.parametrize("name", sorted(NONABELIAN_CASES))
def test_nonabelian_actions_agree_with_the_oracles(name):
    """On fixed seeds over S3, D4 and the trivial group, intact and with
    one map entry broken: the block matches ``apply``, and
    ``verify_action``, ``is_free`` and ``check_equivariance`` give their
    oracles' reports, counts and witnesses.  A product taken in the wrong
    order (h g for g h) would break these on S3 and D4."""
    action = NONABELIAN_CASES[name]()
    assert_columns_match_apply(action)
    report = verify_action(action)
    assert report == verify_action_exhaustive(action)
    assert is_free(action) == is_free_exhaustive(action)
    if report.ok:
        rec = reconstruct(action)
        maps = comparison_maps(rec)
        assert equivariance_oracle(action, rec.skew, maps) == (
            rec.equivariance_checked, None)
        for seed in range(4):
            assert_equivariance_agrees(
                action, rec.skew, broken_maps(maps, random.Random(seed)))


def test_nonabelian_cases_are_not_vacuous():
    """The intact cases verify, every broken case over S3 and D4 fails the
    homomorphism law, and the two groups do not commute."""
    for name, group in SMALL_GROUPS.items():
        elements = group.elements()
        commute = all(group.op(g, h) == group.op(h, g)
                      for g in elements for h in elements)
        assert commute == (name == "C1")
    for name, case in NONABELIAN_CASES.items():
        laws = {law for law, _ in verify_action(case()).failures}
        if "broken" in name:
            assert "homomorphism" in laws
        else:
            assert not laws


#: The actions of every shape that some test reconstructs.
LAYER_CASES = {
    **INTACT_TRANSLATIONS, **NONABELIAN_CASES,
    **{f"{name}-{seed}": lambda build=build, seed=seed: build(
        random.Random(seed))
       for name, build in RECONSTRUCTION_CASES.items() for seed in range(10)},
}


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_reconstruction_layers_equal_the_scope_scan(name):
    """The reconstruction reads its layers from the section's own fiber;
    they are the scope elements, in scope order, that ``apply`` moves the
    section into the lifting scope, on integer windows, finite groups
    (S3 and D4 among them) and raw finite actions."""
    action = LAYER_CASES[name]()
    if verify_action(action).ok and is_free(action):
        rec = reconstruct(action)
        assert rec.skew.layers == reconstruction_layers_by_scope(
            action, rec.quotient, rec.pack.eta0)


# -- the positional reconstruction against the checks by name -----------------


#: Every shape some test reconstructs, with the sparse-layer cases: integer
#: windows (narrow, wide, pullback, distant halos, sparse layers), finite
#: groups given by translation, by element triples, anonymized and by
#: generators, and S3, D4 and the trivial group.
POSITIONAL_CASES = {**LAYER_CASES, **SPARSE_CASES}


def _reconstructible(action) -> bool:
    return verify_action(action).ok and bool(is_free(action))


@pytest.mark.parametrize("name", sorted(POSITIONAL_CASES))
def test_positional_reconstruction_equals_the_checks_by_name(name):
    """``reconstruct`` checks its skew product and phi in positions; read
    afterwards, the skew product is the string oracle's, ``iso`` is the
    map the checks by name build, item for item in the same order, and
    ``verify_morphism`` on it and the public ``check_equivariance`` on
    its maps give the record's report and count."""
    action = POSITIONAL_CASES[name]()
    if not _reconstructible(action):
        return
    rec = reconstruct(action)
    iso, report, checked = reconstruction_tail_by_name(action, rec.skew,
                                                       rec.pack)
    assert rec.morphism_report == report == verify_morphism(rec.iso)
    assert rec.equivariance_checked == checked == check_equivariance(
        action, rec.skew, comparison_maps(rec))
    assert rec.iso == iso
    for got, want in zip(comparison_maps(rec), iso[2:]):
        assert list(got.items()) == list(want.items())
    assert_same_skew(rec.skew, StringSkew(rec.skew.spec, rec.skew.layers,
                                          rec.skew.window))


def row_tamper(lengths: list[int], rng: random.Random):
    """A function of (kind index, positions) that breaks one kind's
    positions of phi: one entry overwritten by another, two swapped, or
    two sent off the carrier (-1), so that the witness is the first of
    them; None when no kind has two items."""
    kinds = [k for k, n in enumerate(lengths) if n >= 2]
    if not kinds:
        return None
    k = rng.choice(kinds)
    i, j = rng.sample(range(lengths[k]), 2)
    mode = rng.choice(("overwrite", "swap", "drop"))

    def tamper(kind: int, row: list[int]) -> list[int]:
        if kind != k:
            return row
        row = list(row)
        if mode == "overwrite":
            row[i] = row[j]
        elif mode == "swap":
            row[i], row[j] = row[j], row[i]
        else:
            row[i] = row[j] = -1
        return row
    return tamper


def located_tamper(action, rng: random.Random):
    """``action.located`` with one kind's entry overwritten by another,
    two swapped, or one dropped; None when no kind has two items."""
    maps = [dict(action.located(kind)) for kind in KINDS]
    candidates = [m for m in maps if len(m) >= 2]
    if not candidates:
        return None
    mapping = rng.choice(candidates)
    x, y = rng.sample(sorted(mapping, key=repr), 2)
    mode = rng.choice(("overwrite", "swap", "drop"))
    if mode == "overwrite":
        mapping[x] = mapping[y]
    elif mode == "swap":
        mapping[x], mapping[y] = mapping[y], mapping[x]
    else:
        del mapping[x]
    return lambda kind: maps[KINDS.index(kind)]


def _outcome(run):
    """("raised", law, witness) for a :class:`VerificationError`, else
    ("ok", report, count, the three maps as item lists)."""
    try:
        result = run()
    except VerificationError as exc:
        return ("raised", exc.law, exc.witness)
    if isinstance(result, Reconstruction):
        iso, report, checked = (result.iso, result.morphism_report,
                                result.equivariance_checked)
    else:
        iso, report, checked = result
    return ("ok", report, checked, [list(m.items()) for m in iso[2:]])


def outcomes_with_rows(action, tamper) -> tuple[tuple, tuple]:
    """The outcomes of ``reconstruct`` with phi's positions passed through
    ``tamper`` on their way out of ``_comparison_row``, and of the checks
    by name with the same positions."""
    rec = reconstruct(action)
    row = gross_tucker_module._comparison_row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gross_tucker_module, "_comparison_row",
                   lambda action, k, coordinates, section: tamper(
                       k, row(action, k, coordinates, section)))
        got = _outcome(lambda: reconstruct(action))
    return got, _outcome(lambda: reconstruction_tail_by_name(
        action, rec.skew, rec.pack, tamper))


def tampered_outcomes(action, seed: str) -> list[tuple[tuple, tuple]]:
    """Pairs of outcomes, positional and by name, with phi's positions
    broken (:func:`row_tamper`) and then with ``located`` broken."""
    rng = random.Random(seed)
    rec = reconstruct(action)
    out = []
    tamper = row_tamper([len(c) for c in rec.skew.form.coordinates], rng)
    if tamper is not None:
        out.append(outcomes_with_rows(action, tamper))
    located = located_tamper(action, rng)
    if located is not None:
        action.located = located
        out.append((_outcome(lambda: reconstruct(action)),
                    _outcome(lambda: reconstruction_tail_by_name(
                        action, rec.skew, rec.pack))))
    return out


@pytest.mark.parametrize("name", sorted(POSITIONAL_CASES))
def test_tampered_reconstructions_fail_as_the_checks_by_name(name):
    """With phi's positions broken on their way out of
    ``_comparison_row``, or with the action's ``located`` broken, the
    positional checks raise what the checks by name raise, with the same
    witness, or pass with the same report, count and maps."""
    action = POSITIONAL_CASES[name]()
    if _reconstructible(action):
        for got, want in tampered_outcomes(action, f"{name}/0"):
            assert got == want


def test_tampered_reconstructions_are_not_vacuous():
    """Over a second break of every case, which must agree too, the
    breaks reach every check but equivariance (next test), and pass
    where the break leaves phi an equivariant isomorphism."""
    seen = set()
    for name in sorted(POSITIONAL_CASES):
        action = POSITIONAL_CASES[name]()
        if _reconstructible(action):
            for got, want in tampered_outcomes(action, f"{name}/1"):
                assert got == want, name
                seen.add(got[1].split(":")[0] if got[0] == "raised" else "ok")
    assert seen == {"ok", "comparison map leaves the carrier",
                    "reconstruction morphism law failed",
                    "reconstruction map is not bijective"}


@pytest.mark.parametrize("group, window, move", [
    (SMALL_GROUPS["S3"], None,
     lambda u: SMALL_GROUPS["S3"].op((1, 0, 2), u)),
    (IntegerGroup(), Window(0, 3), lambda u: 3 - u),
], ids=["S3", "Z on 0:3"])
def test_a_non_equivariant_isomorphism_fails_as_the_checks_by_name(
        group, window, move):
    """Over S3, and over the integers on a window, acting on two loops
    with their own letters, phi followed by a bijection ``move`` of the
    layers of one loop's fiber (left multiplication by a transposition,
    the reflection of 0..3) keeps the laws and bijectivity and breaks
    equivariance: the certificate fails, and the scan names the least
    witness, as by name.  On the window the scan also meets translations
    that leave the layers, which compare nothing."""
    base = LabeledGraph(DirectedGraph(["v0", "v1"], [("e0", "v0", "v0"),
                                                     ("e1", "v1", "v1")]),
                        {"e0": "a", "e1": "b"})
    flat = {"e0": group.identity, "e1": group.identity}
    action = TranslationAction(skew_product(SkewSpec(base, group, flat,
                                                     flat), window))
    fiber = ("v0", "e0", "a")

    def tamper(k: int, row: list[int]) -> list[int]:
        coords, located = action.coordinates(KINDS[k]), action.located(
            KINDS[k])
        return [located[p, move(u)] if p in fiber else j
                for j, (p, u) in zip(row, map(coords.__getitem__, row))]

    got, want = outcomes_with_rows(action, tamper)
    assert got == want
    assert got[:2] == ("raised", "maps are not equivariant")


# -- fundamental-domain search against the candidate loop ----------------------


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(0, 2 ** 32 - 1))
def test_domain_search_equals_the_candidate_loop(builder, seed):
    """The search on per-vertex label tables finds the same first domain
    after the same number of candidates as checking each candidate with
    ``is_fundamental_domain``."""
    action = BUILDERS[builder](random.Random(seed))
    assert (find_fundamental_domain(action)
            == find_fundamental_domain_by_candidates(action))


def test_domain_searches_cover_every_outcome():
    """On the fixtures and on fixed seeds of every builder the two searches
    agree, and between them they find a domain at the first candidate,
    find one later, and find none; the non-free and broken actions are
    among them."""
    actions = [(name, build()) for name, build in FIXTURES.items()]
    actions += [(name, build(random.Random(seed)))
                for name, build in BUILDERS.items()
                for seed in range(25)]
    outcomes = set()
    for name, action in actions:
        result = find_fundamental_domain(action)
        assert result == find_fundamental_domain_by_candidates(action), name
        if result.domain is None:
            outcomes.add("none")
        else:
            outcomes.add("first" if result.candidates_tried == 1 else "later")
        if name in ("finite-non-free", "finite-broken"):
            outcomes.add(f"{name} {'found' if result else 'none'}")
    assert outcomes == {"first", "later", "none", "finite-non-free found",
                        "finite-non-free none", "finite-broken found",
                        "finite-broken none"}


# -- quotients: one projection check --------------------------------------------


#: Every builder above, intact, broken, rewired, aliased, non-free, sparse
#: and non-abelian, with the fixtures.
QUOTIENT_BUILDERS = {
    **FREENESS_BUILDERS,
    "z-sparse": INTERVAL_BUILDERS["sparse"],
    "z-huge-cocycle": INTERVAL_BUILDERS["huge-cocycle"],
    **{f"{name}-{shape}": lambda rng, group=group, build=build: build(group, rng)
       for name, group in SMALL_GROUPS.items()
       for shape, build in GROUP_BUILDERS.items()
       if name != "C1" or shape != "raw-broken"},
    **{f"fixture-{name}": lambda rng, build=build: build()
       for name, build in FIXTURES.items()},
}


def orbit_triples(action) -> dict[tuple, dict[str, tuple]]:
    """Per edge orbit, the (source, range, label) orbits of each of its
    edges, read item by item through ``orbits``."""
    orbit = {kind: {x: members for members in action.orbits(kind)
                    for x in members} for kind in KINDS}
    lg = action.graph
    triples: dict = {}
    for e in lg.graph.edges:
        triples.setdefault(orbit[EDGE][e.eid], {})[e.eid] = (
            orbit[VERTEX][e.src], orbit[VERTEX][e.dst],
            orbit[LETTER][lg.labeling[e.eid]])
    return triples


def assert_quotient_checked(action) -> str:
    """``quotient`` returns a surjective morphism exactly when every edge
    orbit agrees on its end and label orbits, and otherwise raises
    ``WellDefinednessError`` naming two edges of one orbit that differ.
    Returns which of the two happened."""
    triples = orbit_triples(action)
    uniform = all(len(set(edges.values())) == 1 for edges in triples.values())
    try:
        quot = quotient(action)
    except WellDefinednessError as exc:
        assert not uniform
        first, second = exc.witness
        edges = next(edges for edges in triples.values() if first in edges)
        assert second in edges and edges[first] != edges[second]
        return "refused"
    assert uniform
    assert verify_morphism(quot.projection).ok
    assert is_surjective(quot.projection)
    return "built"


@pytest.mark.parametrize("builder", sorted(QUOTIENT_BUILDERS))
def test_quotient_checks_its_projection_once(builder):
    """The comparison of each edge's orbit triple with its orbit's is the
    projection's morphism check: what it lets through passes
    ``verify_morphism``, and what it refuses is not well defined."""
    for seed in range(15):
        assert_quotient_checked(QUOTIENT_BUILDERS[builder](random.Random(seed)))


def test_quotient_outcomes_are_not_vacuous():
    """Between them the builders give quotients that are built and orbits
    that are refused, and an action the laws refuse can still have a
    well-defined quotient."""
    outcomes = set()
    for name in ("fixture-broken-range", "finite-broken", "z-broken",
                 "z-rewired", "z-aliased", "finite-non-free", "z"):
        for seed in range(15):
            action = QUOTIENT_BUILDERS[name](random.Random(seed))
            outcome = assert_quotient_checked(action)
            outcomes.add((verify_action(action).ok, outcome))
    assert outcomes >= {(True, "built"), (False, "built"), (False, "refused")}


@pytest.mark.parametrize("builder", sorted(QUOTIENT_BUILDERS))
def test_require_verified_refuses_exactly_the_failed_actions(builder):
    for seed in range(15):
        action = QUOTIENT_BUILDERS[builder](random.Random(seed))
        report = verify_action(action)
        if report.ok:
            require_verified(action)
            continue
        with pytest.raises(PreconditionError, match="ACTION_NOT_VERIFIED") as info:
            require_verified(action)
        assert str(report.failures[0]) in str(info.value)
