"""Property-based invariants over randomly generated labeled graphs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from labgraphs.graph import DirectedGraph, paths_of_length, validate
from labgraphs.labeled import (LabeledGraph, is_left_resolving,
                               is_weakly_left_resolving, labeled_paths,
                               relative_range, representatives)

from helpers import weakly_left_resolving_bruteforce


@st.composite
def labeled_graphs(draw, max_vertices=5, max_edges=8, max_letters=3):
    nv = draw(st.integers(1, max_vertices))
    vertices = [f"v{i}" for i in range(nv)]
    ne = draw(st.integers(1, max_edges))
    nl = draw(st.integers(1, max_letters))
    edges = []
    labeling = {}
    for i in range(ne):
        src = draw(st.integers(0, nv - 1))
        dst = draw(st.integers(0, nv - 1))
        edges.append((f"e{i:02d}", vertices[src], vertices[dst]))
        labeling[f"e{i:02d}"] = f"a{draw(st.integers(0, nl - 1))}"
    return LabeledGraph(DirectedGraph(vertices, edges), labeling)


@st.composite
def graph_with_two_subsets(draw):
    lg = draw(labeled_graphs())
    subset = st.frozensets(st.sampled_from(list(lg.vertices)))
    return lg, draw(subset), draw(subset)


@settings(max_examples=150, deadline=None)
@given(graph_with_two_subsets())
def test_relative_range_distributes_over_unions(data):
    lg, set_a, set_b = data
    for n in (1, 2, 3):
        for word in labeled_paths(lg, n):
            assert relative_range(lg, set_a | set_b, word) == (
                relative_range(lg, set_a, word)
                | relative_range(lg, set_b, word))


@settings(max_examples=150, deadline=None)
@given(graph_with_two_subsets())
def test_relative_range_intersections_are_contained(data):
    lg, set_a, set_b = data
    for n in (1, 2, 3):
        for word in labeled_paths(lg, n):
            assert relative_range(lg, set_a & set_b, word) <= (
                relative_range(lg, set_a, word)
                & relative_range(lg, set_b, word))


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_composition_law_for_all_decompositions(lg):
    full = frozenset(lg.vertices)
    for word in labeled_paths(lg, 3):
        for cut in (1, 2):
            assert relative_range(lg, full, word) == relative_range(
                lg, relative_range(lg, full, word[:cut]), word[cut:])


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_left_resolving_implies_weakly_left_resolving(lg):
    if is_left_resolving(lg):
        assert is_weakly_left_resolving(lg)


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_fast_weak_check_agrees_with_definitional_oracle(lg):
    assert bool(is_weakly_left_resolving(lg)) == bool(
        weakly_left_resolving_bruteforce(lg))


@settings(max_examples=100, deadline=None)
@given(labeled_graphs())
def test_words_are_exactly_the_labels_of_paths(lg):
    for n in (1, 2):
        words = set(labeled_paths(lg, n))
        assert words == {lg.label_word(p) for p in paths_of_length(lg.graph, n)}
        for word in words:
            assert representatives(lg, word)


@settings(max_examples=100, deadline=None)
@given(labeled_graphs(), st.integers(0, 4), st.integers(0, 4))
def test_validity_monotone_under_edge_addition(lg, src_i, dst_i):
    g = lg.graph
    before = validate(g)
    src = g.vertices[src_i % len(g.vertices)]
    dst = g.vertices[dst_i % len(g.vertices)]
    bigger = DirectedGraph(g.vertices, list(g.edges) + [("zz_new", src, dst)])
    after = validate(bigger)
    for v in g.vertices:
        assert after.per_vertex[v].receives >= before.per_vertex[v].receives
        assert after.per_vertex[v].out_degree >= before.per_vertex[v].out_degree


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(max_vertices=3, max_edges=5, max_letters=2))
def test_morphism_functoriality_on_translation_automorphisms(lg):
    # compose two verified automorphisms of a finite skew product and
    # verify the composite
    from labgraphs.groups import CyclicGroup
    from labgraphs.morphism import compose, verify_morphism
    from labgraphs.skew import SkewSpec, one_cocycle, skew_product
    group = CyclicGroup(3)
    spec = SkewSpec(lg, group, one_cocycle(lg, group), one_cocycle(lg, group))
    validity = validate(lg.graph)
    if not validity.valid:
        return
    skew = skew_product(spec)
    from labgraphs.skew import left_translation
    action = left_translation(skew)
    finite = action.as_finite_action()
    f = finite.triple_morphism(1)
    g = finite.triple_morphism(2)
    assert verify_morphism(f).ok and verify_morphism(g).ok
    composite = compose(f, g)
    report = verify_morphism(composite)
    assert report.ok and report.isomorphism
    # f . g is the triple of 1 + 2 = 0, the identity
    assert composite.vertex_map == finite.maps[0][0]
