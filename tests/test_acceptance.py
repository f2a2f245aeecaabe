"""Acceptance suite: every criterion runs at its stated tolerance (exact
set/value equality throughout) and within its runtime budget, printing one
PASS/FAIL line per criterion.  Run with ``pytest -s`` to see the lines."""

import random
import time
from contextlib import contextmanager

import pytest

from labgraphs import fixtures as fx
from labgraphs.action import (find_fundamental_domain, is_fundamental_domain,
                              is_label_consistent, quotient)
from labgraphs.errors import NoFundamentalDomain
from labgraphs.groups import IntegerGroup, Window
from labgraphs.gross_tucker import (SectionPack, derive_cocycles, derive_eta1,
                                    reconstruct, reconstruct_label_consistent)
from labgraphs.labeled import (is_weakly_left_resolving, labeled_paths,
                               range_and_source)
from labgraphs.lattice import (relative_complement_closure,
                               smallest_accommodating)
from labgraphs.morphism import verify_morphism
from labgraphs.skew import (SkewSpec, identify_labeled_path, labeled_range,
                            left_translation, relabel_iso, skew_product,
                            translation_quotient)

from helpers import relettered, weakly_left_resolving_bruteforce


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds:.0f}s budget "
        f"({elapsed:.2f}s)")
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < "
          f"{budget_seconds:.0f}s): {description}")


def test_01_worked_reconstruction_values():
    with criterion(1, "worked example: sections and cocycles derived "
                      "exactly", 1.0):
        action, pack = fx.gt510()
        quot = quotient(action)
        eta1 = derive_eta1(action, quot, pack.eta0)
        assert eta1 == {"e": "(e,0)", "f": "(f,0)", "g": "(g,2)"}
        full = SectionPack(pack.eta0, pack.etaA, eta1)
        c, d = derive_cocycles(action, quot, full)
        assert c == {"e": 1, "f": -1, "g": 3}
        assert d["f"] == 0 and d["g"] == 2


def test_02_reconstruction_round_trip():
    with criterion(2, "reconstruction: verified equivariant isomorphism "
                      "(finite fixture exhaustively, integer fixture on "
                      "its window)", 5.0):
        rec = reconstruct(fx.fdok_action())
        assert rec.morphism_report.ok
        assert rec.morphism_report.isomorphism
        assert rec.equivariance_checked > 0

        action, pack = fx.gt510(Window(-4, 6))
        rec = reconstruct(action, pack)
        assert rec.morphism_report.ok
        assert rec.morphism_report.isomorphism
        assert rec.equivariance_checked > 0


def test_03_skew_quotients_recover_their_bases():
    with criterion(3, "quotient of left translation on every fixture skew "
                      "product is the base, via the verified canonical "
                      "map", 1.0):
        for skew in (fx.skewz(), fx.skewz(Window(-4, 6)), fx.nofd(),
                     fx.fdok()):
            quot, iso = translation_quotient(skew)
            assert quot.quotient == skew.spec.base
            report = verify_morphism(iso)
            assert report.ok and report.isomorphism


def test_04_no_fundamental_domain_fixture():
    with criterion(4, "the twisted four-edge fixture: the candidate "
                      "transversal fails clause (b) with labels (1,3) vs "
                      "(1,0) and the window search is exhausted", 10.0):
        action = left_translation(fx.nofd(Window(-3, 3)))
        report = is_fundamental_domain(action, ["(v,0)", "(w,1)"])
        assert not report.ok and report.transversal
        clause_b_labels = {
            frozenset((action.graph.labeling[e1], action.graph.labeling[e2]))
            for clause, e1, e2 in report.violations if clause == "b"}
        assert frozenset(("(1,0)", "(1,3)")) in clause_b_labels
        search = find_fundamental_domain(action)
        assert search.domain is None
        assert search.candidates_tried == 49
        with pytest.raises(NoFundamentalDomain):
            reconstruct_label_consistent(action)


def test_05_label_consistent_reconstruction_suite():
    with criterion(5, "label-consistent reconstruction on the finite "
                      "fixture and 100 random free actions with "
                      "fundamental domains: zero violations", 60.0):
        rec = reconstruct_label_consistent(fx.fdok_action())
        assert rec.c_factoring is not None and rec.d_factoring is not None
        assert is_label_consistent(rec.quotient.quotient, rec.c)
        assert is_label_consistent(rec.quotient.quotient, rec.d)

        rng = random.Random(741_001)
        violations = 0
        for _ in range(100):
            action = fx.anonymize_action(
                fx.random_translation_action(rng, label_consistent=True), rng)
            rec = reconstruct_label_consistent(action)
            if rec.c_factoring is None or rec.d_factoring is None:
                violations += 1
        assert violations == 0


def test_06_relabeling_isomorphism():
    with criterion(6, "relabeling between the 0-twist and 5-twist skew "
                      "products verifies as an equivariant isomorphism "
                      "on the window", 1.0):
        base = fx.fish()
        group = IntegerGroup()
        window = Window(-6, 6)
        c = {e.eid: 1 for e in base.graph.edges}
        skew0 = skew_product(SkewSpec(base, group, c,
                                      {e.eid: 0 for e in base.graph.edges}),
                             window)
        skew5 = skew_product(SkewSpec(base, group, c,
                                      {e.eid: 5 for e in base.graph.edges}),
                             window)
        iso = relabel_iso(skew0, skew5)  # raises on any law violation
        report = verify_morphism(iso)
        assert report.ok and report.isomorphism
        assert iso.alphabet_map["(0,0)"] == "(0,5)"


def test_07_identification_oracle_equality():
    with criterion(7, "path/label identification equals direct computation "
                      "on the materialized skew product for all words up "
                      "to length 4 and all interior layers", 10.0):
        spec = fx.skewz_spec()
        window = Window(-8, 8)
        skew = skew_product(spec, window)
        letters = set(skew.graph.alphabet)
        mismatches = 0
        comparisons = 0
        image_words = set()
        for n in range(1, 5):
            for word in labeled_paths(spec.base, n):
                for g in window.elements():
                    identified = identify_labeled_path(spec, word, g)
                    ids = tuple(f"({a},{h})" for a, h in identified)
                    if not all(i in letters for i in ids):
                        continue  # escapes the window: not an interior layer
                    comparisons += 1
                    assert ids not in image_words  # injectivity
                    image_words.add(ids)
                    base_range, shift = labeled_range(spec, word, g)
                    expected = {f"({v},{shift})" for v in base_range}
                    direct, _ = range_and_source(skew.graph, ids)
                    if direct != expected:
                        mismatches += 1
            # surjectivity onto the window words of this length
            for skew_word in labeled_paths(skew.graph, n):
                assert skew_word in image_words
        assert comparisons > 0
        assert mismatches == 0


def test_08_weak_resolving_reduction_oracle():
    with criterion(8, "singleton fast check equals the all-subsets "
                      "brute force on 1000 random labeled graphs: zero "
                      "mismatches", 120.0):
        rng = random.Random(800_800)
        mismatches = 0
        for _ in range(1000):
            lg = fx.random_labeled_graph(rng, max_vertices=5, max_edges=10,
                                         max_letters=3)
            fast = bool(is_weakly_left_resolving(lg))
            brute = bool(weakly_left_resolving_bruteforce(lg, max_word_len=4))
            if fast != brute:
                mismatches += 1
        assert mismatches == 0


def test_09_lattice_correctness():
    with criterion(9, "accommodating collection fixpoint: exact result, "
                      "order independence, closure containment, and the "
                      "relative-complement pathology witness", 10.0):
        fish = fx.fish()
        col = smallest_accommodating(fish)
        assert {frozenset(s) for s in col.sets()} == {
            frozenset({"v"}), frozenset({"w"}), frozenset({"v", "w"})}

        fixtures = (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph)
        for lg in fixtures:
            reference = set(smallest_accommodating(lg).members)
            for seed in (1, 2, 3, 4, 5):
                assert set(smallest_accommodating(
                    relettered(lg, seed)).members) == reference

        rng = random.Random(99)
        for lg in fixtures + tuple(fx.random_valid_labeled_graph(rng)
                                   for _ in range(25)):
            col = smallest_accommodating(lg)
            closed = relative_complement_closure(col)
            assert set(closed.members) >= set(col.members)

        # the witness: both sides of a strict pair in the small collection,
        # their difference only after closing under relative complements
        lg = fx.chain3()
        col = smallest_accommodating(lg)
        closed = relative_complement_closure(col)
        members = {frozenset(s) for s in col.sets()}
        closed_members = {frozenset(s) for s in closed.sets()}
        assert frozenset({"x", "y"}) in members
        assert frozenset({"y"}) in members
        assert frozenset({"x"}) not in members
        assert frozenset({"x"}) in closed_members
