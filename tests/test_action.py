"""Actions, freeness, quotients, path lifting, fundamental domains,
label consistency."""

import random

import pytest

from labgraphs import action as action_module
from labgraphs import fixtures as fx
from labgraphs.action import (FiniteAction, find_fundamental_domain,
                              has_unique_path_lifting, is_free,
                              is_fundamental_domain, is_label_consistent,
                              quotient, verify_action)
from labgraphs.errors import SearchSpaceExceeded, WellDefinednessError
from labgraphs.graph import DirectedGraph
from labgraphs.groups import CyclicGroup
from labgraphs.labeled import LabeledGraph
from labgraphs.morphism import LabeledGraphMorphism, verify_morphism


from helpers import fish4_swap_action, loop_swap_action, trivial_action


class TestVerifyAction:
    def test_translation_on_skew_window_passes(self):
        from labgraphs.skew import left_translation
        report = verify_action(left_translation(fx.skewz()))
        assert report.ok
        assert report.windowed

    def test_fdok_exhaustive(self):
        report = verify_action(fx.fdok_action())
        assert report.ok and not report.windowed
        assert report.elements_checked == 2

    def test_broken_range_equivariance_witnessed(self):
        lg = fx.fish4()
        group = CyclicGroup(2)
        ident = ({"v": "v", "w": "w"},
                 {e.eid: e.eid for e in lg.graph.edges},
                 {"0": "0", "1": "1"})
        # swap vertices but leave edges in place: ranges move, edges do not
        broken = ({"v": "w", "w": "v"},
                  {e.eid: e.eid for e in lg.graph.edges},
                  {"0": "0", "1": "1"})
        action = FiniteAction(group, lg, {0: ident, 1: broken})
        report = verify_action(action)
        assert not report.ok
        assert any("equivariance" in law for law, _ in report.failures)

    def test_from_generators_builds_whole_group(self):
        lg = fx.fish4()
        group = CyclicGroup(2)
        swap = ({"v": "w", "w": "v"},
                {"e": "h", "h": "e", "f": "g", "g": "f"},
                {"0": "0", "1": "1"})
        action = FiniteAction.from_generators(group, lg, {1: swap})
        assert verify_action(action).ok
        assert action.maps[0][0] == {"v": "v", "w": "w"}

    def test_permutation_group_generators(self):
        from labgraphs.graph import DirectedGraph
        from labgraphs.groups import PermutationGroup
        from labgraphs.labeled import LabeledGraph
        # three loops permuted alongside their vertices and letters
        g = DirectedGraph(["p0", "p1", "p2"],
                          [("l0", "p0", "p0"), ("l1", "p1", "p1"),
                           ("l2", "p2", "p2")])
        lg = LabeledGraph(g, {"l0": "a0", "l1": "a1", "l2": "a2"})
        group = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])

        def triple(perm):
            return ({f"p{i}": f"p{perm[i]}" for i in range(3)},
                    {f"l{i}": f"l{perm[i]}" for i in range(3)},
                    {f"a{i}": f"a{perm[i]}" for i in range(3)})

        action = FiniteAction.from_generators(
            group, lg, {p: triple(p) for p in group.generators})
        assert verify_action(action).ok
        assert len(action.maps) == 6
        assert not is_free(action)  # transpositions fix a point
        quot = quotient(action)
        assert set(quot.quotient.vertices) == {"p0"}

    def test_inconsistent_generators_rejected(self):
        lg = fx.fish4()
        group = CyclicGroup(2)
        not_involutive = ({"v": "w", "w": "v"},
                          {"e": "h", "h": "e", "f": "g", "g": "f"},
                          {"0": "1", "1": "0"})
        # squaring the alphabet part gives identity, fine; but squaring a
        # 4-cycle on Z/2 would clash -- use a triple that breaks the relation
        bad = ({"v": "w", "w": "v"},
               {"e": "f", "f": "e", "g": "h", "h": "g"},
               {"0": "0", "1": "1"})
        with pytest.raises(WellDefinednessError):
            FiniteAction.from_generators(CyclicGroup(3), lg, {1: bad})


class TestFreeness:
    def test_translation_actions_are_free(self):
        from labgraphs.skew import left_translation
        assert is_free(left_translation(fx.skewz()))
        assert is_free(fx.fdok_action())
        assert is_free(left_translation(fx.nofd()))

    def test_trivial_action_not_free(self):
        check = is_free(trivial_action(fx.fish()))
        assert not check
        assert check.witness == (1, "v")

    def test_vertex_free_but_letter_fixing_not_free(self):
        action = fish4_swap_action()
        assert verify_action(action).ok
        check = is_free(action)
        assert not check
        g, item = check.witness
        assert g == 1 and item in ("0", "1")  # alphabet clause


class TestQuotient:
    def test_fdok_quotient_is_fish(self):
        quot = quotient(fx.fdok_action())
        assert quot.quotient == fx.fish()

    def test_trivial_group_quotient_is_isomorphic_copy(self):
        action = trivial_action(fx.fish(), n=1)
        quot = quotient(action)
        report = verify_morphism(quot.projection)
        assert report.ok and report.isomorphism

    def test_orbit_ids_are_minimal_representatives(self):
        action = fish4_swap_action()
        quot = quotient(action)
        assert set(quot.quotient.vertices) == {"v"}
        assert {e.eid for e in quot.quotient.graph.edges} == {"e", "f"}

    def test_one_layer_window_keeps_fibers_whole(self):
        # Window(0, 0) has no non-identity scope element, yet the halo
        # vertices (v,1) and (w,1) lie in the orbits of (v,0) and (w,0)
        from labgraphs.groups import Window
        from labgraphs.skew import left_translation, skew_product
        action = left_translation(skew_product(fx.skewz().spec, Window(0, 0)))
        quot = quotient(action)
        assert quot.orbit_vertex_members == {"v": ("(v,0)", "(v,1)"),
                                             "w": ("(w,0)", "(w,1)")}
        assert quot.quotient == fx.skewz().spec.base
        found = find_fundamental_domain(action)
        assert found.domain == {"(v,0)", "(w,0)"}
        assert found.candidates_tried == 1

    def test_halo_beyond_the_window_joins_its_fiber(self):
        # c = 8 on a one-layer window: v has layers 0 and 8, one orbit
        from labgraphs.groups import IntegerGroup, Window
        from labgraphs.skew import SkewSpec, left_translation, skew_product
        base = LabeledGraph(DirectedGraph(["v"], [("e", "v", "v")]),
                            {"e": "a"})
        spec = SkewSpec(base, IntegerGroup(), {"e": 8}, {"e": 0})
        action = left_translation(skew_product(spec, Window(0, 0)))
        assert quotient(action).orbit_vertex_members == {
            "v": ("(v,0)", "(v,8)")}
        assert find_fundamental_domain(action).domain == {"(v,0)"}

    def test_projection_verified(self):
        quot = quotient(fx.fdok_action())
        assert verify_morphism(quot.projection).ok


class TestUniquePathLifting:
    def test_quotient_projection_of_free_actions(self):
        from labgraphs.skew import left_translation
        for action in (fx.fdok_action(), left_translation(fx.skewz()),
                       left_translation(fx.nofd())):
            quot = quotient(action)
            assert has_unique_path_lifting(quot.projection,
                                           scope=action.lifting_scope())

    def test_missing_sheet_gives_zero_lifts(self):
        # a two-to-one cover with one edge removed over one sheet
        skew = fx.fdok()
        lg = skew.graph
        kept = [e for e in lg.graph.edges if e.eid != "(f,0)"]
        reduced = LabeledGraph(
            DirectedGraph(lg.vertices, kept),
            {e.eid: lg.labeling[e.eid] for e in kept})
        base = fx.fish()
        projection = LabeledGraphMorphism(
            reduced, base,
            {vid: skew.vertex_pair[vid][0] for vid in reduced.vertices},
            {e.eid: skew.edge_pair[e.eid][0] for e in kept},
            {lid: skew.letter_pair[lid][0] for lid in reduced.alphabet})
        assert verify_morphism(projection).ok
        check = has_unique_path_lifting(projection)
        assert not check
        vertex, edge, lifts = check.witness
        assert vertex == "(v,0)" and edge == "f" and lifts == ()

    def test_non_free_action_quotient_fails(self):
        action = loop_swap_action()
        assert verify_action(action).ok
        assert not is_free(action)
        quot = quotient(action)
        check = has_unique_path_lifting(quot.projection)
        assert not check
        _, _, lifts = check.witness
        assert len(lifts) == 2


class TestFundamentalDomain:
    def test_fdok_identity_layer(self):
        action = fx.fdok_action()
        assert is_fundamental_domain(action, ["(v,0)", "(w,0)"]).ok

    def test_nofd_paper_domain_fails_clause_b(self):
        from labgraphs.skew import left_translation
        action = left_translation(fx.nofd())
        report = is_fundamental_domain(action, ["(v,0)", "(w,1)"])
        assert not report.ok and report.transversal
        labels = {(action.graph.labeling[e1], action.graph.labeling[e2])
                  for clause, e1, e2 in report.violations if clause == "b"}
        assert ("(1,0)", "(1,3)") in labels or ("(1,3)", "(1,0)") in labels

    def test_missing_orbit_fails_transversal_clause(self):
        action = fx.fdok_action()
        report = is_fundamental_domain(action, ["(v,0)"])
        assert not report.ok
        assert not report.transversal
        assert report.witness[0] == "transversal"

    def test_doubled_orbit_fails_transversal_clause(self):
        action = fx.fdok_action()
        report = is_fundamental_domain(action, ["(v,0)", "(v,1)", "(w,0)"])
        assert not report.transversal

    def test_find_on_fdok(self):
        result = find_fundamental_domain(fx.fdok_action())
        assert result.domain == frozenset({"(v,0)", "(w,0)"})

    def test_find_none_on_nofd_window(self):
        from labgraphs.skew import left_translation
        result = find_fundamental_domain(left_translation(fx.nofd()))
        assert result.domain is None
        assert result.candidates_tried == 49

    def test_trivial_group_domain_is_vertex_set(self):
        action = trivial_action(fx.fish(), n=1)
        result = find_fundamental_domain(action)
        assert result.domain == frozenset({"v", "w"})

    def test_translates_of_domain_are_transversals(self):
        action = fx.fdok_action()
        result = find_fundamental_domain(action)
        for g in action.group.elements():
            translate = [action.apply(g, "vertex", v) for v in result.domain]
            report = is_fundamental_domain(action, translate)
            assert report.transversal

    def test_cap_enforced(self, monkeypatch):
        from labgraphs.skew import left_translation
        monkeypatch.setattr(action_module, "MAX_TRANSVERSALS", 10)
        with pytest.raises(SearchSpaceExceeded):
            find_fundamental_domain(left_translation(fx.nofd()))


class TestLabelConsistency:
    def test_constant_cocycle(self):
        lg = fx.fish()
        result = is_label_consistent(lg, {"e": 1, "f": 1, "g": 1})
        assert result and result.factoring == {"0": 1, "1": 1}

    def test_forced_clash(self):
        result = is_label_consistent(fx.fish(), {"e": 1, "f": 0, "g": 1})
        assert not result
        assert set(result.witness) == {"f", "g"}

    def test_reconstruction_cocycle_values_clash(self):
        # the derived cocycle (1, -1, 3) cannot factor: f and g share 0
        result = is_label_consistent(fx.fish(), {"e": 1, "f": -1, "g": 3})
        assert not result and set(result.witness) == {"f", "g"}

    def test_invariant_under_alphabet_permutation(self):
        lg = fx.fish()
        relabeled = LabeledGraph(lg.graph, {"e": "x", "f": "y", "g": "y"})
        for cocycle in ({"e": 1, "f": 1, "g": 1}, {"e": 2, "f": 5, "g": 5},
                        {"e": 0, "f": 1, "g": 2}):
            assert bool(is_label_consistent(lg, cocycle)) == bool(
                is_label_consistent(relabeled, cocycle))

    def test_random_translation_actions_are_free_with_upl(self):
        rng = random.Random(1234)
        for _ in range(200):
            action = fx.random_translation_action(rng, label_consistent=False)
            assert is_free(action)
            quot = quotient(action)
            assert has_unique_path_lifting(quot.projection,
                                           scope=action.lifting_scope())
