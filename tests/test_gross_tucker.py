"""Sections, derived cocycles, and the verified reconstruction."""

import itertools
import random

import pytest

from labgraphs import fixtures as fx
from labgraphs.action import VERTEX, quotient
from labgraphs.errors import (LiftFailure, NoFundamentalDomain,
                              NonFreeWitness, PreconditionError,
                              VerificationError)
from labgraphs.gross_tucker import (SectionPack, _solve_translate,
                                    default_etaA, derive_cocycles,
                                    derive_eta1, identity_layer_sections,
                                    reconstruct, reconstruct_label_consistent)
from labgraphs.graph import DirectedGraph
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.labeled import LabeledGraph
from labgraphs.morphism import compose, inverse, verify_morphism
from labgraphs.skew import SkewSpec, left_translation, skew_product


def gt510_full_pack():
    action, pack = fx.gt510()
    quot = quotient(action)
    eta1 = derive_eta1(action, quot, pack.eta0)
    return action, quot, SectionPack(pack.eta0, pack.etaA, eta1)


class TestDeriveEta1:
    def test_worked_example_sections(self):
        _, _, pack = gt510_full_pack()
        assert pack.eta1 == {"e": "(e,0)", "f": "(f,0)", "g": "(g,2)"}

    def test_trivial_group(self):
        base = fx.fish()
        group = CyclicGroup(1)
        from labgraphs.skew import SkewSpec, one_cocycle
        action = left_translation(skew_product(
            SkewSpec(base, group, one_cocycle(base, group),
                     one_cocycle(base, group))))
        quot = quotient(action)
        eta0 = {v: f"({v},0)" for v in base.vertices}
        eta1 = derive_eta1(action, quot, eta0)
        assert eta1 == {e.eid: f"({e.eid},0)" for e in base.graph.edges}

    def test_fdok_sections_land_in_domain(self):
        action = fx.fdok_action()
        quot = quotient(action)
        domain = {"(v,0)", "(w,0)"}
        eta0 = {"v": "(v,0)", "w": "(w,0)"}
        eta1 = derive_eta1(action, quot, eta0)
        lg = action.graph
        for q_edge, lifted in eta1.items():
            assert lg.graph.edge(lifted).src in domain

    def test_lift_failure_when_lifts_are_not_unique(self):
        from helpers import loop_swap_action
        action = loop_swap_action()  # fixes the vertex, swaps two loops
        quot = quotient(action)
        with pytest.raises(LiftFailure) as info:
            derive_eta1(action, quot, {"v": "v"})
        assert len(info.value.witness[2]) == 2  # two lifts


class TestDeriveCocycles:
    def test_worked_example_c(self):
        action, quot, pack = gt510_full_pack()
        c, _ = derive_cocycles(action, quot, pack)
        assert c == {"e": 1, "f": -1, "g": 3}

    def test_worked_example_d(self):
        action, quot, pack = gt510_full_pack()
        _, d = derive_cocycles(action, quot, pack)
        assert d["f"] == 0 and d["g"] == 2
        assert d["e"] == 0

    def test_twist_witness_inequality(self):
        # d separates the two edges carrying the same quotient label
        action, quot, pack = gt510_full_pack()
        _, d = derive_cocycles(action, quot, pack)
        assert quot.quotient.labeling["f"] == quot.quotient.labeling["g"]
        assert d["f"] != d["g"]

    def test_each_value_is_confirmed_by_apply(self, monkeypatch):
        """A reconstruction confirms each value of c on vertices and of d
        on letters with the action's ``apply``, by name, once per
        quotient edge and kind."""
        from labgraphs.skew import TranslationAction
        calls = []
        apply = TranslationAction.apply

        def counting(self, g, kind, item):
            calls.append(kind)
            return apply(self, g, kind, item)

        monkeypatch.setattr(TranslationAction, "apply", counting)
        action, pack = fx.gt510()
        rec = reconstruct(action, pack)
        edges = len(rec.quotient.quotient.graph.edges)
        assert sorted(calls) == ["letter"] * edges + ["vertex"] * edges

    @pytest.mark.parametrize("lie", [("v", 1), ("w", 2)],
                             ids=["layer", "fiber"])
    def test_the_solver_checks_the_coordinates_it_reads(self, lie):
        """The element moving (v,0) onto (v,2) is read off their
        coordinates and then checked with ``apply``: coordinates that lie
        about the target's layer or fiber give no element, and the solver
        refuses as on a non-free action.  The items are named, through
        ``index``, before the coordinates lie."""
        action, _ = fx.gt510()
        index = action.index(VERTEX)
        action.coordinates(VERTEX)[index["(v,2)"]] = lie
        with pytest.raises(NonFreeWitness) as info:
            _solve_translate(action, VERTEX, "(v,0)", index["(v,2)"])
        assert info.value.args[0] == ("0 elements move '(v,0)' to '(v,2)'; "
                                      "the action cannot be free")
        assert info.value.witness == ("(v,0)", "(v,2)", ())


class TestReconstruct:
    def test_gt510_verifies_on_window(self):
        action, pack = fx.gt510(Window(-4, 6))
        rec = reconstruct(action, pack)
        assert rec.morphism_report.isomorphism
        assert rec.equivariance_checked > 0
        assert rec.c == {"e": 1, "f": -1, "g": 3}
        assert rec.d == {"e": 0, "f": 0, "g": 2}
        # the quotient is the original two-vertex graph
        assert rec.quotient.quotient == fx.fish()
        # sectioned away from a fundamental domain, c cannot factor
        assert rec.c_factoring is None

    def test_fdok_exhaustive(self):
        rec = reconstruct(fx.fdok_action())
        assert rec.morphism_report.isomorphism
        assert rec.equivariance_checked > 0

    def test_trivial_group(self):
        base = fx.fish()
        group = CyclicGroup(1)
        from labgraphs.skew import SkewSpec, one_cocycle
        action = left_translation(skew_product(
            SkewSpec(base, group, one_cocycle(base, group),
                     one_cocycle(base, group))))
        rec = reconstruct(action)
        assert rec.morphism_report.isomorphism
        assert all(g == 0 for g in rec.c.values())
        assert all(g == 0 for g in rec.d.values())

    def test_identity_sections_recover_the_original_cocycles(self):
        # skew spec -> translation -> quotient -> reconstruct round trip
        for spec_fn, window in ((fx.skewz_spec, Window(-3, 5)),
                                (fx.fdok_spec, None),
                                (fx.nofd_spec, Window(-4, 4))):
            spec = spec_fn()
            action = left_translation(skew_product(spec, window))
            rec = reconstruct(action, identity_layer_sections(action))
            assert rec.c == dict(spec.c)
            assert rec.d == dict(spec.d)
            assert rec.morphism_report.isomorphism

    def test_gapped_window_keeps_each_fiber_one_orbit(self):
        # c = 8 exceeds the window width, so the layers of v are -3..3 and
        # the halo 5..11: a gap that +-1 steps alone cannot cross
        base = LabeledGraph(DirectedGraph(["v"], [("e", "v", "v")]),
                            {"e": "a"})
        spec = SkewSpec(base, IntegerGroup(), {"e": 8}, {"e": 0})
        action = left_translation(skew_product(spec, Window(-3, 3)))
        assert len(quotient(action).orbit_vertex_members["v"]) == 14
        rec = reconstruct(action, identity_layer_sections(action))
        assert rec.c == {"e": 8} and rec.d == {"e": 0}
        assert rec.morphism_report.isomorphism

    def test_raw_finite_action_roundtrip(self):
        rng = random.Random(5150)
        for _ in range(20):
            action = fx.anonymize_action(
                fx.random_translation_action(rng, label_consistent=False), rng)
            rec = reconstruct(action)
            assert rec.morphism_report.isomorphism
            assert rec.equivariance_checked > 0

    def test_an_empty_action_is_refused(self):
        """On the empty graph equivariance compares nothing, so the
        reconstruction refuses instead of passing vacuously."""
        from helpers import trivial_action
        empty = LabeledGraph(DirectedGraph([], []), {})
        with pytest.raises(VerificationError) as info:
            reconstruct(trivial_action(empty, n=1))
        assert info.value.law == "equivariance could not be exercised"

    def test_rejects_unverified_or_non_free(self):
        from helpers import trivial_action
        with pytest.raises(PreconditionError) as info:
            reconstruct(trivial_action(fx.fish()))
        assert info.value.name == "NOT_FREE"


class TestReconstructLabelConsistent:
    def test_fdok(self):
        rec = reconstruct_label_consistent(fx.fdok_action())
        assert rec.label_consistent
        assert rec.c_factoring == {"0": 1, "1": 1}
        assert rec.d_factoring == {"0": 1, "1": 0}
        assert rec.domain == frozenset({"(v,0)", "(w,0)"})

    def test_nofd_paper_domain_rejected(self):
        action = left_translation(fx.nofd())
        with pytest.raises(NoFundamentalDomain):
            reconstruct_label_consistent(action, domain=["(v,0)", "(w,1)"])

    def test_nofd_search_exhausts(self):
        action = left_translation(fx.nofd())
        with pytest.raises(NoFundamentalDomain) as info:
            reconstruct_label_consistent(action)
        assert "49" in str(info.value)

    def test_fdok_every_fundamental_domain_gives_consistent_cocycles(self):
        from labgraphs.action import is_fundamental_domain
        action = fx.fdok_action()
        quot = quotient(action)
        orbits = [quot.orbit_vertex_members[v]
                  for v in quot.quotient.vertices]
        passing = 0
        for combo in itertools.product(*orbits):
            if is_fundamental_domain(action, combo).ok:
                passing += 1
                rec = reconstruct_label_consistent(action, domain=combo)
                assert rec.label_consistent
        assert passing >= 1


class TestSectionIndependence:
    def test_fdok_all_vertex_sections_equivalent(self):
        action = fx.fdok_action()
        quot = quotient(action)
        etaA = default_etaA(quot)
        orbits = [quot.orbit_vertex_members[v] for v in quot.quotient.vertices]
        recs = []
        for combo in itertools.product(*orbits):
            eta0 = dict(zip(quot.quotient.vertices, combo))
            recs.append(reconstruct(action, SectionPack(eta0, etaA)))
        assert len(recs) == 4
        for rec1, rec2 in itertools.combinations(recs, 2):
            # phi2^-1 . phi1 is an equivariant isomorphism between the
            # two reconstructions
            bridge = compose(inverse(rec2.iso), rec1.iso)
            report = verify_morphism(bridge)
            assert report.ok and report.isomorphism
            tau1 = left_translation(rec1.skew)
            tau2 = left_translation(rec2.skew)
            checked = 0
            for g in action.group.elements():
                for vid in rec1.skew.graph.vertices:
                    moved = tau1.apply(g, "vertex", vid)
                    if moved is None:
                        continue
                    rhs = tau2.apply(g, "vertex", bridge.vertex_map[vid])
                    if rhs is None:
                        continue
                    assert bridge.vertex_map[moved] == rhs
                    checked += 1
            assert checked > 0


class TestTheorem74Property:
    def test_hundred_random_free_actions_with_domains(self):
        rng = random.Random(74_74)
        violations = 0
        for _ in range(100):
            action = fx.anonymize_action(
                fx.random_translation_action(rng, label_consistent=True), rng)
            rec = reconstruct_label_consistent(action)
            if not rec.label_consistent:
                violations += 1
        assert violations == 0
