"""Skew products: structure equations, translation action, path and label
identifications, relabeling isomorphism, quotient round trip."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from labgraphs import fixtures as fx
from labgraphs import skew as skew_module
from labgraphs.action import (EDGE, LETTER, VERTEX, is_free, quotient,
                              verify_action)
from labgraphs.errors import (OutOfWindow, PreconditionError,
                              SearchSpaceExceeded, VerificationError)
from labgraphs.graph import DirectedGraph
from labgraphs.groups import (CyclicGroup, IntegerGroup, PermutationGroup,
                              Window)
from labgraphs.labeled import LabeledGraph, labeled_paths
from labgraphs.morphism import is_surjective, verify_morphism
from labgraphs.skew import (SkewLabeledGraph, SkewSpec,
                            identify_labeled_path, item_bound,
                            labeled_range, left_translation, lift_path,
                            one_cocycle, project_path, relabel_iso,
                            skew_product, translation_quotient)

from helpers import NAMED_VIEWS, StringSkew, assert_same_skew, form_pairs


class TestMaterialization:
    def test_skewz_matches_the_strip_picture(self):
        skew = fx.skewz(Window(0, 3))
        g = skew.graph
        # (e,n): (v,n) -> (v,n+1) labeled (1,n); (f,n): (v,n) -> (w,n+1)
        # and (g,n): (w,n) -> (v,n+1), both labeled (0,n)
        for n in range(0, 3):
            assert g.graph.edge(f"(e,{n})").dst == f"(v,{n + 1})"
            assert g.labeling[f"(e,{n})"] == f"(1,{n})"
            assert g.graph.edge(f"(f,{n})").dst == f"(w,{n + 1})"
            assert g.labeling[f"(f,{n})"] == f"(0,{n})"
            assert g.graph.edge(f"(g,{n})").dst == f"(v,{n + 1})"
            assert g.labeling[f"(g,{n})"] == f"(0,{n})"
        assert skew.boundary_edges == {"(e,3)", "(f,3)", "(g,3)"}
        assert skew.halo_vertices == {"(v,4)", "(w,4)"}

    def test_structure_equations_hold_edgewise(self):
        for skew in (fx.skewz(), fx.nofd(), fx.fdok()):
            spec = skew.spec
            group = spec.group
            vertex_pair = form_pairs(skew, VERTEX)
            letter_pair = form_pairs(skew, LETTER)
            for eid, (base_edge, layer) in form_pairs(skew, EDGE).items():
                e = spec.base.graph.edge(base_edge)
                edge = skew.graph.graph.edge(eid)
                assert vertex_pair[edge.src] == (e.src, layer)
                assert vertex_pair[edge.dst] == (
                    e.dst, group.op(layer, spec.c[base_edge]))
                assert letter_pair[skew.graph.labeling[eid]] == (
                    spec.base.labeling[base_edge],
                    group.op(layer, spec.d[base_edge]))

    def test_nofd_figure_labels(self):
        skew = fx.nofd(Window(-2, 3))
        # the loop at w lifted from layer n is labeled (1, n+2)
        for n in range(-2, 4):
            assert skew.graph.labeling[f"(h,{n})"] == f"(1,{n + 2})"
        assert skew.graph.labeling["(g,0)"] == "(0,-1)"

    def test_trivial_group_reproduces_base(self):
        base = fx.fish()
        group = CyclicGroup(1)
        skew = skew_product(SkewSpec(base, group, one_cocycle(base, group),
                                     one_cocycle(base, group)))
        assert len(skew.graph.vertices) == len(base.vertices)
        assert skew.boundary_edges == frozenset()
        quot, iso = translation_quotient(skew)
        assert quot.quotient == base

    def test_window_required_for_integers(self):
        with pytest.raises(PreconditionError):
            skew_product(fx.skewz_spec())

    def test_interior_validity(self):
        skew = fx.skewz(Window(0, 3))
        assert skew.interior_valid
        assert "(v,0)" not in skew.interior_vertices  # misses in-edges
        assert "(v,1)" in skew.interior_vertices

    def test_item_cap_on_each_side(self, monkeypatch):
        """A window whose bound equals MAX_ITEMS builds; with the cap one
        lower the same window is refused before anything is built."""
        spec = fx.skewz_spec()
        bound = item_bound(spec.base, {v: 10 for v in spec.base.vertices})
        monkeypatch.setattr(skew_module, "MAX_ITEMS", bound)
        lg = skew_product(spec, Window(0, 9)).graph
        assert len(lg.vertices) + len(lg.graph.edges) + len(lg.alphabet) <= bound
        monkeypatch.setattr(skew_module, "MAX_ITEMS", bound - 1)
        with pytest.raises(SearchSpaceExceeded,
                           match=f"up to {bound} .* MAX_ITEMS = {bound - 1}"):
            skew_product(spec, Window(0, 9))

    def test_item_bound_covers_halo_and_letters(self):
        """The bound holds when cocycles wider than the window put most
        edges on the boundary, and for full finite materializations."""
        rng = random.Random(5)
        for _ in range(40):
            base = fx.random_valid_labeled_graph(rng)
            c = {e.eid: rng.randint(-9, 9) for e in base.graph.edges}
            d = {e.eid: rng.randint(-9, 9) for e in base.graph.edges}
            lo = rng.randint(-3, 3)
            skew = skew_product(SkewSpec(base, IntegerGroup(), c, d),
                                Window(lo, lo + rng.randint(0, 4)))
            finite = fx.random_translation_action(rng, False).skew
            for built in (skew, finite):
                lg = built.graph
                counts = {v: len(ls) for v, ls in built.layers.items()}
                assert (len(lg.vertices) + len(lg.graph.edges)
                        + len(lg.alphabet)) <= item_bound(
                            built.spec.base, counts)


class TestLeftTranslation:
    def test_shifts_second_coordinate(self):
        action = left_translation(fx.skewz(Window(0, 3)))
        assert action.apply(1, "vertex", "(v,0)") == "(v,1)"
        assert action.apply(1, "edge", "(f,1)") == "(f,2)"
        assert action.apply(1, "letter", "(0,0)") == "(0,1)"
        assert action.apply(2, "vertex", "(v,3)") is None  # escapes

    def test_identity_element_acts_trivially(self):
        action = fx.fdok_action()
        for vid in action.graph.vertices:
            assert action.apply(0, "vertex", vid) == vid

    def test_finite_case_verified_exhaustively(self):
        report = verify_action(fx.fdok_action())
        assert report.ok and report.elements_checked == 2

    def test_translation_is_free(self):
        assert is_free(left_translation(fx.skewz()))
        assert is_free(fx.fdok_action())


class TestQuotientRoundTrip:
    def test_every_fixture_skew_quotients_to_its_base(self):
        for skew in (fx.skewz(), fx.nofd(), fx.fdok()):
            quot, iso = translation_quotient(skew)
            assert quot.quotient == skew.spec.base
            report = verify_morphism(iso)
            assert report.ok and report.isomorphism

    def test_fdok_also_through_the_generic_finite_pipeline(self):
        # re-express as a raw action so orbit naming cannot shortcut
        action = fx.fdok_action().as_finite_action()
        quot = quotient(action)
        base = fx.fish()
        # orbit ids are minimal representatives: map them onto the base
        skew = fx.fdok()
        vertex_pair, edge_pair, letter_pair = (
            form_pairs(skew, kind) for kind in (VERTEX, EDGE, LETTER))
        vmap = {q: vertex_pair[q][0] for q in quot.quotient.vertices}
        emap = {e.eid: edge_pair[e.eid][0] for e in quot.quotient.graph.edges}
        amap = {a: letter_pair[a][0] for a in quot.quotient.alphabet}
        from labgraphs.morphism import LabeledGraphMorphism
        iso = LabeledGraphMorphism(quot.quotient, base, vmap, emap, amap)
        report = verify_morphism(iso)
        assert report.ok and report.isomorphism


class TestPathLifting:
    def test_lift_ef_from_zero(self):
        skew = fx.skewz(Window(0, 3))
        base_path = fx.fish().graph.make_path(["e", "f"])
        lifted = lift_path(skew, base_path, 0)
        assert lifted.edges == ("(e,0)", "(f,1)")
        assert skew.graph.graph.path_dst(lifted) == "(w,2)"

    def test_single_edge(self):
        skew = fx.skewz(Window(0, 3))
        lifted = lift_path(skew, fx.fish().graph.make_path(["g"]), 2)
        assert lifted.edges == ("(g,2)",)

    def test_round_trip_on_all_short_paths(self):
        from labgraphs.graph import paths_of_length
        skew = fx.skewz(Window(0, 8))
        base = fx.fish().graph
        for n in range(1, 5):
            for path in paths_of_length(base, n):
                lifted = lift_path(skew, path, 1)
                back, layer = project_path(skew, lifted)
                assert back.edges == path.edges and layer == 1

    def test_escape_raises(self):
        skew = fx.skewz(Window(0, 2))
        path = fx.fish().graph.make_path(["e", "e", "e"])
        with pytest.raises(OutOfWindow):
            lift_path(skew, path, 1)

    def test_lift_bijection_on_window(self):
        # (path, layer) -> lift is injective and hits every materialized path
        skew = fx.skewz(Window(0, 5))
        base = fx.fish().graph
        from labgraphs.graph import paths_of_length
        for n in (1, 2, 3):
            seen = set()
            for path in paths_of_length(base, n):
                for layer in range(0, 6):
                    try:
                        lifted = lift_path(skew, path, layer)
                    except OutOfWindow:
                        continue
                    assert lifted.edges not in seen
                    seen.add(lifted.edges)
            for skew_path in paths_of_length(skew.graph.graph, n):
                assert skew_path.edges in seen


class TestIdentification:
    def test_word_00_from_zero(self):
        assert identify_labeled_path(fx.skewz_spec(), ("0", "0"), 0) == (
            ("0", 0), ("0", 1))

    def test_single_letter(self):
        assert identify_labeled_path(fx.skewz_spec(), ("0",), 5) == (("0", 5),)

    def test_precondition_on_c(self):
        base = fx.fish()
        group = IntegerGroup()
        spec = SkewSpec(base, group, {"e": 1, "f": 0, "g": 1},
                        one_cocycle(base, group))
        with pytest.raises(PreconditionError) as info:
            identify_labeled_path(spec, ("0",), 0)
        assert "c" in str(info.value)

    def test_precondition_on_d(self):
        base = fx.fish()
        group = IntegerGroup()
        spec = SkewSpec(base, group, {e.eid: 1 for e in base.graph.edges},
                        {"e": 0, "f": 1, "g": 1})
        with pytest.raises(PreconditionError) as info:
            identify_labeled_path(spec, ("0",), 0)
        assert "identity" in str(info.value)

    def test_matches_lifted_representatives(self):
        spec = fx.skewz_spec()
        skew = skew_product(spec, Window(-2, 8))
        from labgraphs.labeled import representatives
        for n in (1, 2, 3):
            for word in labeled_paths(spec.base, n):
                identified = identify_labeled_path(spec, word, 0)
                expected_ids = tuple(f"({a},{g})" for a, g in identified)
                for rep in representatives(spec.base, word):
                    lifted = lift_path(skew, rep, 0)
                    got = tuple(skew.graph.labeling[eid]
                                for eid in lifted.edges)
                    assert got == expected_ids


class TestLabeledRange:
    def test_word_10(self):
        assert labeled_range(fx.skewz_spec(), ("1", "0"), 0) == (
            frozenset({"w"}), 2)

    def test_single_letter_base_case(self):
        spec = fx.skewz_spec()
        assert labeled_range(spec, ("0",), 3) == (frozenset({"v", "w"}), 4)

    @pytest.mark.parametrize("g", [0, 3])
    def test_empty_word_is_refused(self, g):
        """The empty word identifies no labeled path, so it has no range,
        as :func:`identify_labeled_path` and ``relative_range`` say."""
        with pytest.raises(PreconditionError, match="ZERO_LENGTH_PATH"):
            labeled_range(fx.skewz_spec(), (), g)

    def test_oracle_equality_on_window(self):
        # compare against direct relative range on the materialization
        spec = fx.skewz_spec()
        window = Window(-6, 10)
        skew = skew_product(spec, window)
        from labgraphs.labeled import range_and_source
        for n in range(1, 5):
            for word in labeled_paths(spec.base, n):
                base_range, shift = labeled_range(spec, word, 0)
                skew_word = tuple(
                    f"({a},{g})" for a, g in
                    identify_labeled_path(spec, word, 0))
                direct, _ = range_and_source(skew.graph, skew_word)
                expected = {f"({v},{shift})" for v in base_range}
                assert direct == expected


class TestRelabelIso:
    def _skews(self, d1, d2, window=Window(-6, 6)):
        base = fx.fish()
        group = IntegerGroup()
        c = {e.eid: 1 for e in base.graph.edges}
        s1 = skew_product(SkewSpec(base, group,
                                   c, {e.eid: d1 for e in base.graph.edges}),
                          window)
        s2 = skew_product(SkewSpec(base, group,
                                   c, {e.eid: d2 for e in base.graph.edges}),
                          window)
        return s1, s2

    def test_equal_twists_give_identity(self):
        s1, s2 = self._skews(0, 0)
        iso = relabel_iso(s1, s2)
        assert all(iso.alphabet_map[a] == a for a in s1.graph.alphabet)
        assert all(iso.vertex_map[v] == v for v in s1.graph.vertices)

    def test_shift_by_five(self):
        s1, s2 = self._skews(0, 5)
        iso = relabel_iso(s1, s2)
        assert iso.alphabet_map["(0,0)"] == "(0,5)"
        assert iso.alphabet_map["(1,-3)"] == "(1,2)"
        report = verify_morphism(iso)
        assert report.ok and report.isomorphism

    def test_precondition_guard(self):
        base = fx.fish()
        group = IntegerGroup()
        c = {e.eid: 1 for e in base.graph.edges}
        s1 = skew_product(SkewSpec(base, group, c,
                                   {e.eid: 0 for e in base.graph.edges}),
                          Window(-2, 2))
        s2 = skew_product(SkewSpec(base, group, c,
                                   {"e": 0, "f": 1, "g": 2}), Window(-2, 2))
        with pytest.raises(PreconditionError):
            relabel_iso(s1, s2)

    def test_maps_go_through_the_equivariance_check(self, monkeypatch):
        """The letter map is checked against both translation actions: with
        the images of (0,0) and (1,0) swapped on the way into
        check_equivariance, relabel_iso refuses it."""
        from labgraphs import gross_tucker
        check = gross_tucker.check_equivariance

        def swapped(action, skew, maps):
            vertex_map, edge_map, alphabet_map = maps
            alphabet_map = dict(alphabet_map)
            alphabet_map["(0,0)"], alphabet_map["(1,0)"] = (
                alphabet_map["(1,0)"], alphabet_map["(0,0)"])
            return check(action, skew, (vertex_map, edge_map, alphabet_map))

        monkeypatch.setattr(gross_tucker, "check_equivariance", swapped)
        s1, s2 = self._skews(0, 5)
        with pytest.raises(VerificationError, match="not equivariant"):
            relabel_iso(s1, s2)

    def test_finite_group_case(self):
        base = fx.fish()
        group = CyclicGroup(2)
        c = {e.eid: 1 for e in base.graph.edges}
        s1 = skew_product(SkewSpec(base, group, c,
                                   {e.eid: 0 for e in base.graph.edges}))
        s2 = skew_product(SkewSpec(base, group, c,
                                   {e.eid: 1 for e in base.graph.edges}))
        iso = relabel_iso(s1, s2)
        assert verify_morphism(iso).isomorphism


class TestLeftResolvingInheritance:
    def test_base_left_resolving_implies_skew(self):
        import random
        from labgraphs.labeled import is_left_resolving
        rng = random.Random(77)
        checked = 0
        for _ in range(60):
            base = fx.random_valid_labeled_graph(rng)
            if not is_left_resolving(base):
                continue
            group = fx.random_finite_group(rng)
            c = {e.eid: rng.choice(group.elements())
                 for e in base.graph.edges}
            d = {e.eid: rng.choice(group.elements())
                 for e in base.graph.edges}
            skew = skew_product(SkewSpec(base, group, c, d))
            assert skew.left_resolving
            checked += 1
        assert checked > 5

    def test_converse_reported_not_asserted(self):
        skew = fx.skewz()
        assert isinstance(bool(skew.left_resolving_inherited), bool)


# -- the constructor against the string-building oracle -----------------------

#: Base ids, some holding the characters a skew id is built from.
BASE_IDS = ("v", "w", "v10", "v9", "a,b", "(x)", "x)", "(", ",", "p(q,r)")
S3 = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
D4 = PermutationGroup(4, [(1, 2, 3, 0), (3, 2, 1, 0)])
@st.composite
def skew_cases(draw):
    """A base labeled graph over ``BASE_IDS`` (not necessarily valid),
    cocycles and per-vertex layers in a drawn order: integer windows,
    gapped integer layers, sparse layers 10**12 apart, and full or partial
    materializations over Z/n, S3 and D4."""
    shape = draw(st.sampled_from(
        ["window", "gapped", "sparse", "cyclic", "S3", "D4"]))
    vertices = draw(st.lists(st.sampled_from(BASE_IDS), min_size=1,
                             max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    rows = draw(st.lists(st.tuples(ends, ends, st.sampled_from(BASE_IDS)),
                         min_size=1, max_size=6))
    eids = draw(st.lists(st.sampled_from(BASE_IDS), min_size=len(rows),
                         max_size=len(rows), unique=True))
    base = LabeledGraph(
        DirectedGraph(vertices, [(e, s, t) for e, (s, t, _) in zip(eids, rows)]),
        {e: a for e, (_, _, a) in zip(eids, rows)})
    if shape in ("window", "gapped", "sparse"):
        group = IntegerGroup()
        values = st.integers(-3, 3)
        if shape == "sparse":
            values = st.sampled_from([0, 1, -2, 10 ** 12, -10 ** 12])
    else:
        group = {"cyclic": CyclicGroup(draw(st.integers(1, 5))),
                 "S3": S3, "D4": D4}[shape]
        values = st.sampled_from(group.elements())
    c = {e: draw(values) for e in eids}
    d = {e: draw(values) for e in eids}
    window = None
    if shape == "window":
        lo = draw(st.integers(-4, 2))
        window = Window(lo, lo + draw(st.integers(0, 5)))
        layers = {v: tuple(window.elements()) for v in vertices}
    else:
        if shape == "gapped":
            pool = list(range(-5, 6))
        elif shape == "sparse":
            pool = [-10 ** 12, -3, 0, 2, 10 ** 12, 10 ** 12 + 1]
        else:
            pool = list(group.elements())
        full = draw(st.booleans()) and shape not in ("gapped", "sparse")
        layers = {v: tuple(draw(st.permutations(pool)) if full else
                           draw(st.lists(st.sampled_from(pool), unique=True,
                                         max_size=len(pool))))
                  for v in vertices}
    return SkewSpec(base, group, c, d), layers, window


@settings(max_examples=300, deadline=None)
@given(skew_cases())
def test_constructor_matches_the_string_oracle(case):
    spec, layers, window = case
    assert_same_skew(SkewLabeledGraph(spec, layers, window),
                     StringSkew(spec, layers, window))


@pytest.mark.parametrize("seed", range(12))
def test_pullback_skews_match_the_string_oracle(seed):
    """The skew products ``reconstruct`` builds over ``_reconstruction_layers``
    pullbacks, on integer windows with the identity-layer and the default
    sections and on finite translations."""
    from labgraphs.gross_tucker import identity_layer_sections, reconstruct
    rng = random.Random(seed)
    base = fx.random_valid_labeled_graph(rng)
    c = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    d = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    w = rng.randint(2, 5)
    action = left_translation(skew_product(
        SkewSpec(base, IntegerGroup(), c, d), Window(-w, w)))
    finite = fx.random_translation_action(rng, seed % 2 == 0)
    for rec in (reconstruct(action, identity_layer_sections(action)),
                reconstruct(action), reconstruct(finite)):
        assert_same_skew(rec.skew, StringSkew(rec.skew.spec, rec.skew.layers,
                                              rec.skew.window))
    assert_same_skew(action.skew, StringSkew(action.skew.spec,
                                             action.skew.layers, Window(-w, w)))


#: The window verdicts, computed on first read.
VERDICTS = ("halo_vertices", "boundary_edges", "interior_vertices",
            "interior_valid")


@pytest.mark.parametrize("seed", range(6))
def test_reconstructions_leave_the_verdicts_unread(seed):
    """Neither ``reconstruct`` nor ``quotient`` reads a window verdict: on
    a windowed translation, a finite translation and an element-form
    action, neither the skew product acted on nor the pullback skew
    product of the reconstruction has computed one."""
    from labgraphs.gross_tucker import identity_layer_sections, reconstruct
    rng = random.Random(seed)
    base = fx.random_valid_labeled_graph(rng)
    c = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    d = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    spec = SkewSpec(base, IntegerGroup(), c, d)
    windowed = left_translation(skew_product(spec, Window(-3, 3)))
    finite = fx.random_translation_action(rng, seed % 2 == 0)
    raw = fx.anonymize_action(
        fx.random_translation_action(rng, seed % 2 == 1), rng)
    skews = [windowed.skew, finite.skew]
    for action in (windowed, finite, raw):
        skews.append(reconstruct(action).skew)
    skews.append(reconstruct(windowed, identity_layer_sections(windowed)).skew)
    fresh = left_translation(skew_product(spec, Window(-3, 3)))
    quotient(fresh)
    skews.append(fresh.skew)
    for skew in skews:
        assert not set(VERDICTS) & set(vars(skew)), skew
    # read afterwards, they are the string oracle's
    for skew in skews:
        assert_same_skew(skew, StringSkew(skew.spec, skew.layers, skew.window))


#: The fields of a quotient built on first read.
QUOTIENT_VIEWS = ("projection", "vertex_orbit", "edge_orbit", "letter_orbit",
                  "orbit_vertex_members", "orbit_edge_members",
                  "orbit_letter_members")


@pytest.mark.parametrize("seed", range(6))
def test_reconstructions_check_their_skew_product_unnamed(seed):
    """``reconstruct`` and ``reconstruct_label_consistent`` check the
    skew product over the quotient, and phi, in positions: afterwards
    none of its named views is built, nor the record's ``iso``, on a
    windowed translation, a finite translation and an element-form
    action.  The skew product acted on by a windowed translation
    reconstructed from its identity-layer sections is read by its
    coordinates: none of its named views is built, nor any field of the
    quotient built on first read.  Read afterwards, they are the string
    oracle's, the isomorphism verifies and so does the quotient's
    projection."""
    from labgraphs.gross_tucker import (identity_layer_sections, reconstruct,
                                        reconstruct_label_consistent)
    rng = random.Random(seed)
    base = fx.random_valid_labeled_graph(rng)
    c = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    d = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
    windowed = left_translation(skew_product(SkewSpec(base, IntegerGroup(),
                                                      c, d), Window(-3, 3)))
    finite = fx.random_translation_action(rng, True)
    raw = fx.anonymize_action(fx.random_translation_action(rng, False), rng)
    recs = [reconstruct(action) for action in (windowed, finite, raw)]
    recs += [reconstruct(windowed, identity_layer_sections(windowed)),
             reconstruct_label_consistent(finite)]
    acted = left_translation(skew_product(SkewSpec(base, IntegerGroup(),
                                                   c, d), Window(-3, 3)))
    recs.append(reconstruct(acted, identity_layer_sections(acted)))
    assert not set(NAMED_VIEWS) & set(vars(acted.skew))
    assert not set(QUOTIENT_VIEWS) & set(vars(recs[-1].quotient))
    for rec in recs:
        assert not set(NAMED_VIEWS) & set(vars(rec.skew)), rec.skew
        assert "iso" not in vars(rec)
    for rec in recs:
        skew = rec.skew
        assert_same_skew(skew, StringSkew(skew.spec, skew.layers, skew.window))
        assert verify_morphism(rec.iso) == rec.morphism_report
        assert rec.iso.source is skew.graph
    skew = acted.skew
    assert_same_skew(skew, StringSkew(skew.spec, skew.layers, skew.window))
    quot = quotient(acted)
    assert quot.projection.source is skew.graph
    assert verify_morphism(quot.projection).ok
    assert is_surjective(quot.projection)
    assert verify_morphism(acted.base_isomorphism(quot)).isomorphism


def test_a_repeated_layer_is_refused():
    spec = fx.skewz_spec()
    with pytest.raises(PreconditionError, match="DUPLICATE_LAYER"):
        SkewLabeledGraph(spec, {"v": (0, 1, 0), "w": (0,)}, None)


def _counting_element_str(monkeypatch, group_class) -> list:
    """Record the element of every ``element_str`` call on ``group_class``."""
    calls: list = []
    element_str = group_class.element_str
    monkeypatch.setattr(group_class, "element_str", lambda self, g: (
        calls.append(g) or element_str(self, g)))
    return calls


@pytest.mark.parametrize("seed", range(8))
def test_the_checks_on_a_translation_name_no_item(seed, monkeypatch):
    """``verify_action``, ``is_free`` and ``quotient`` on a windowed
    translation read its coordinates: no ``element_str`` call, no named
    view of the skew product and no field of the quotient built on first
    read.  Reconstructing it from its identity-layer sections formats
    only the names it returns and the images that ``apply`` confirms,
    with at most one ``element_str`` call per base vertex, edge and
    letter and none twice for one layer, and builds no named view of
    either skew product."""
    from labgraphs.gross_tucker import identity_layer_sections, reconstruct
    calls = _counting_element_str(monkeypatch, IntegerGroup)
    rng = random.Random(seed)
    for reach in (9, 2):
        base = fx.random_valid_labeled_graph(rng)
        c = {e.eid: rng.randint(-reach, reach) for e in base.graph.edges}
        d = {e.eid: rng.randint(-reach, reach) for e in base.graph.edges}
        acted = left_translation(skew_product(
            SkewSpec(base, IntegerGroup(), c, d),
            Window(-3, rng.randint(2, 4))))
        assert verify_action(acted).ok
        assert is_free(acted)
        quot = quotient(acted)
        assert calls == []
        assert not set(NAMED_VIEWS) & set(vars(acted.skew))
        assert not set(QUOTIENT_VIEWS) & set(vars(quot))
    # with cocycle values within the window, every identity layer is in it
    rec = reconstruct(acted, identity_layer_sections(acted))
    assert len(calls) <= (len(base.vertices) + len(base.graph.edges)
                          + len(base.alphabet))
    assert len(set(calls)) == len(calls)
    for skew in (acted.skew, rec.skew):
        assert not set(NAMED_VIEWS) & set(vars(skew)), skew
    assert not set(QUOTIENT_VIEWS) & set(vars(rec.quotient))
    assert (dict(rec.c), dict(rec.d)) == (c, d)


@pytest.mark.parametrize("seed", range(8))
def test_names_and_positions_agree_with_the_item_names(seed):
    """Before any name is built, ``name_at`` formats the name of each
    item alone and ``position`` reads a name back to its item: both agree
    with ``item_names`` on every item of every kind, over the integers
    and over S3, and ``position`` finds no item under a name of another
    kind or one that is spelled otherwise (KeyError)."""
    rng = random.Random(seed)
    group = rng.choice((IntegerGroup(),
                        PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])))
    base = fx.random_valid_labeled_graph(rng)
    elements = range(-3, 4) if not group.is_finite else group.elements()
    c = {e.eid: rng.choice(elements) for e in base.graph.edges}
    d = {e.eid: rng.choice(elements) for e in base.graph.edges}
    spec = SkewSpec(base, group, c, d)
    window = None if group.is_finite else Window(-2, 2)
    unnamed, named = skew_product(spec, window), skew_product(spec, window)
    for k, names in enumerate(named.item_names):
        assert [unnamed.name_at(k, j) for j in range(len(names))] == \
            list(names)
    fresh = skew_product(spec, window)
    for k, names in enumerate(named.item_names):
        assert [fresh.position(k, name) for name in names] == \
            list(range(len(names)))
        for other in (((k + 1) % 3, names[0]), (k, names[0][:-1] + " )")):
            with pytest.raises(KeyError):
                fresh.position(*other)
    assert not set(NAMED_VIEWS) & (set(vars(unnamed)) | set(vars(fresh)))


SPELLINGS = ["(w, 2)", "(w,+2)", "(w,02)", "(w,2 )", "(w,2", "w,2)", "(w)",
             "(x,2)", "(w,2.0)", "(w,1_2)"]


@pytest.mark.parametrize("named", [False, True], ids=["unnamed", "named"])
@pytest.mark.parametrize("spelled", SPELLINGS)
def test_a_section_item_is_named_only_as_the_skew_names_it(spelled, named):
    """A section item of a translation is found only under its own name:
    ``(w, 2)``, ``(w,+2)`` and the other spellings of the item (w,2) are
    unknown items, whether or not the items were named before."""
    from labgraphs.gross_tucker import SectionPack, reconstruct
    action, pack = fx.gt510()
    if named:
        action.core
    with pytest.raises(PreconditionError) as info:
        reconstruct(action, SectionPack({"v": "(v,0)", "w": spelled},
                                        pack.etaA))
    assert str(info.value) == (f"BAD_SECTION: vertex section hits unknown "
                               f"item {spelled!r}")


def test_letter_edge_and_permutation_items_are_named_only_one_way():
    """Letter and edge sections are looked up as vertex sections are, and
    over S3 a layer is its dot-joined one-line form: a leading zero, a
    space, a sign or a trailing dot makes an unknown item, while the
    section by the skew's own names reconstructs."""
    from labgraphs.gross_tucker import (SectionPack, identity_layer_sections,
                                        reconstruct)
    action, pack = fx.gt510()
    eta1 = {"e": "(e,0)", "f": "(f,0)", "g": "(g,2)"}
    for what, spelled, bad in (
            ("letter", "(0, 0)",
             SectionPack(pack.eta0, {"0": "(0, 0)", "1": "(1,0)"})),
            ("edge", "(f,+0)",
             SectionPack(pack.eta0, pack.etaA, {**eta1, "f": "(f,+0)"}))):
        with pytest.raises(PreconditionError) as info:
            reconstruct(action, bad)
        assert str(info.value) == (f"BAD_SECTION: {what} section hits "
                                   f"unknown item {spelled!r}")
    assert reconstruct(action, SectionPack(pack.eta0, pack.etaA, eta1)).c \
        == {"e": 1, "f": -1, "g": 3}
    base = fx.fish()
    group = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
    s3 = left_translation(skew_product(SkewSpec(
        base, group, one_cocycle(base, group), one_cocycle(base, group))))
    sections = identity_layer_sections(s3)
    assert sections.eta0 == {"v": "(v,0.1.2)", "w": "(w,0.1.2)"}
    for spelled in ("(v,0.1.02)", "(v,0. 1.2)", "(v,0.1.2.)", "(v,+0.1.2)",
                    "(v,012)", "(v,)"):
        with pytest.raises(PreconditionError) as info:
            reconstruct(s3, SectionPack({**sections.eta0, "v": spelled},
                                        sections.etaA))
        assert str(info.value) == (f"BAD_SECTION: vertex section hits "
                                   f"unknown item {spelled!r}")
    assert reconstruct(s3, sections).morphism_report.isomorphism
