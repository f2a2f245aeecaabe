"""Skew products: structure equations, translation action, path and label
identifications, relabeling isomorphism, quotient round trip."""

import random

import pytest

from labgraphs import fixtures as fx
from labgraphs import skew as skew_module
from labgraphs.action import is_free, quotient, verify_action
from labgraphs.errors import (OutOfWindow, PreconditionError,
                              SearchSpaceExceeded, VerificationError)
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.labeled import labeled_paths
from labgraphs.morphism import verify_morphism
from labgraphs.skew import (SkewSpec, identify_labeled_path, item_bound,
                            labeled_range, left_translation, lift_path,
                            one_cocycle, project_path, relabel_iso,
                            skew_product, translation_quotient)


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
            for eid, (base_edge, layer) in skew.edge_pair.items():
                e = spec.base.graph.edge(base_edge)
                edge = skew.graph.graph.edge(eid)
                assert skew.vertex_pair[edge.src] == (e.src, layer)
                assert skew.vertex_pair[edge.dst] == (
                    e.dst, group.op(layer, spec.c[base_edge]))
                assert skew.letter_pair[skew.graph.labeling[eid]] == (
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
        vmap = {q: skew_pair for q in quot.quotient.vertices
                for skew_pair in [fx.fdok().vertex_pair[q][0]]}
        emap = {e.eid: fx.fdok().edge_pair[e.eid][0]
                for e in quot.quotient.graph.edges}
        amap = {a: fx.fdok().letter_pair[a][0] for a in quot.quotient.alphabet}
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
