"""Accommodating collections, relative-complement closure, normal forms,
and the set-level labeled-space report."""

import copy
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from labgraphs import fixtures as fx
from labgraphs import labeled, lattice
from labgraphs.errors import NotAMember, PreconditionError, SearchSpaceExceeded
from labgraphs.graph import DirectedGraph
from labgraphs.labeled import (LabeledGraph, is_weakly_left_resolving,
                               representatives)
from labgraphs.lattice import (MAX_MEMBERS, Factor, SetCollection,
                               labeled_space_report, normal_form,
                               relative_complement_closure,
                               smallest_accommodating)

from helpers import (distinct_letter_cycle, labeled_space_report_oracle,
                     relettered, shift_graph, smallest_accommodating_oracle,
                     worklist_closure)


def member_sets(col):
    return {frozenset(s) for s in col.sets()}


def one_loop():
    return LabeledGraph(DirectedGraph(["v"], [("e", "v", "v")]), {"e": "a"})


class TestSmallestAccommodating:
    def test_fish_collection(self):
        col = smallest_accommodating(fx.fish())
        assert member_sets(col) == {
            frozenset({"v"}), frozenset({"w"}), frozenset({"v", "w"})}

    def test_one_loop_one_letter(self):
        col = smallest_accommodating(one_loop())
        assert member_sets(col) == {frozenset({"v"})}

    def test_fixpoint_matches_exhaustive_oracle(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph):
            col = smallest_accommodating(lg)
            assert set(col.members) == set(smallest_accommodating_oracle(lg))

    def test_single_letter_reduction_covers_long_words(self):
        # every directly enumerated range r(w), |w| <= 5, is in the fixpoint
        from labgraphs.labeled import labeled_paths, representatives
        for lg in (fx.fish(), fx.fish4(), fx.chain3()):
            col = smallest_accommodating(lg)
            for n in range(1, 6):
                for w in labeled_paths(lg, n):
                    mask = 0
                    for p in representatives(lg, w):
                        mask |= lg.mask_of([lg.graph.path_dst(p)])
                    assert mask in col.derivations

    def test_order_independent(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph):
            reference = set(smallest_accommodating(lg).members)
            for seed in (1, 2, 3, 4, 5):
                shuffled = smallest_accommodating(relettered(lg, seed))
                assert set(shuffled.members) == reference

    def test_requires_valid_graph(self):
        lg = LabeledGraph(DirectedGraph(["v", "w"], [("e", "v", "w")]),
                          {"e": "a"})
        with pytest.raises(PreconditionError):
            smallest_accommodating(lg)

    def test_minimality_members_regrow(self):
        # removing any member and re-closing grows the collection back
        for lg in (fx.fish(), fx.fish4(), fx.chain3()):
            col = smallest_accommodating(lg)
            seeds = {lg.range_mask(lg.full_mask(), (a,)) for a in lg.alphabet}
            for member in col.members:
                if member in seeds:
                    continue
                regrown = worklist_closure(
                    lg, [(m, col.derivations[m]) for m in col.members
                         if m != member], rel_complements=False)
                assert member in regrown

    def test_derivations_reevaluate(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3()):
            col = smallest_accommodating(lg)
            for mask in col.members:
                assert _evaluate(col, mask) == mask

    def test_claimed_closures_match_recheck(self):
        col = smallest_accommodating(fx.fish4())
        status = col.closure_status()
        for law in col.claimed_closures:
            assert status[law]


def _evaluate(col, mask):
    expr = col.derivations[mask]
    lg = col.lg
    assert all(m in col.derivations for m in expr[1:] if isinstance(m, int))
    if expr[0] == "range":
        return lg.range_mask(lg.full_mask(), expr[1])
    if expr[0] == "step":
        return lg.range_mask(_evaluate(col, expr[1]), (expr[2],))
    left, right = _evaluate(col, expr[1]), _evaluate(col, expr[2])
    return {"and": left & right, "or": left | right,
            "diff": left & ~right}[expr[0]]


class TestRelativeComplementClosure:
    def test_fish_unchanged(self):
        col = smallest_accommodating(fx.fish())
        closed = relative_complement_closure(col)
        assert member_sets(closed) == member_sets(col)

    def test_chain3_gains_the_difference(self):
        lg = fx.chain3()
        col = smallest_accommodating(lg)
        assert frozenset({"x"}) not in member_sets(col)
        closed = relative_complement_closure(col)
        assert frozenset({"x"}) in member_sets(closed)
        # the pathology: both sides of the strict pair live in the small
        # collection but their difference only in the closure
        assert frozenset({"x", "y"}) in member_sets(col)
        assert frozenset({"y"}) in member_sets(col)

    def test_superset_and_idempotent(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph):
            col = smallest_accommodating(lg)
            closed = relative_complement_closure(col)
            assert member_sets(closed) >= member_sets(col)
            again = relative_complement_closure(closed)
            assert member_sets(again) == member_sets(closed)

    def test_closure_status_all_laws(self):
        closed = relative_complement_closure(smallest_accommodating(fx.chain3()))
        assert all(closed.closure_status().values())


class TestNormalForm:
    def test_fish_singleton_w(self):
        lg = fx.fish()
        closed = relative_complement_closure(smallest_accommodating(lg))
        nf = normal_form(closed, ["w"])
        assert nf.evaluate(lg) == {"w"}
        assert nf.render() == "r(10)"

    def test_plain_ranges_are_single_leaves(self):
        lg = fx.fish()
        closed = relative_complement_closure(smallest_accommodating(lg))
        nf = normal_form(closed, ["v"])
        assert nf.evaluate(lg) == {"v"}
        assert len(nf.terms) == 1 and len(nf.terms[0]) == 1
        assert nf.terms[0][0].beta is None

    def test_every_member_reevaluates(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph):
            closed = relative_complement_closure(smallest_accommodating(lg))
            for mask in closed.members:
                nf = normal_form(closed, mask)
                assert nf.evaluate_mask(lg) == mask

    def test_strict_containment_in_factors(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3()):
            closed = relative_complement_closure(smallest_accommodating(lg))
            full = lg.full_mask()
            for mask in closed.members:
                for term in normal_form(closed, mask).terms:
                    for factor in term:
                        if factor.beta is not None:
                            alpha = lg.range_mask(full, factor.alpha)
                            beta = lg.range_mask(full, factor.beta)
                            assert beta & alpha == beta and beta != alpha

    def test_non_member_rejected(self):
        lg = fx.chain3()
        col = smallest_accommodating(lg)
        with pytest.raises(NotAMember):
            normal_form(col, ["x"])

    def test_difference_of_unnested_ranges(self):
        # {v0} = r(a0) \ r(a1), and r(a1) = {v1, v2} is not inside
        # r(a0) = {v0, v2}
        lg = LabeledGraph(
            DirectedGraph(["v0", "v1", "v2"],
                          [("e00", "v0", "v2"), ("e01", "v1", "v2"),
                           ("e02", "v2", "v1"), ("e03", "v1", "v0")]),
            {"e00": "a1", "e01": "a0", "e02": "a1", "e03": "a0"})
        rc = relative_complement_closure(smallest_accommodating(lg))
        nf = normal_form(rc, {"v0"})
        assert nf.evaluate(lg) == {"v0"}
        assert _evaluate_by_paths(lg, nf) == {"v0"}

    @pytest.mark.parametrize("mask", [-1, 0, 1 << 10])
    def test_out_of_range_mask_rejected(self, mask):
        closed = relative_complement_closure(smallest_accommodating(fx.fish()))
        with pytest.raises(NotAMember):
            normal_form(closed, mask)

    def test_weak_left_resolving_checked_once_per_graph(self, monkeypatch):
        calls = []
        check = labeled.is_weakly_left_resolving
        monkeypatch.setattr(labeled, "is_weakly_left_resolving",
                            lambda lg: calls.append(lg) or check(lg))
        lg = fx.fish4()
        closed = relative_complement_closure(smallest_accommodating(lg))
        for mask in closed.members:
            normal_form(closed, mask)
        labeled_space_report(lg, closed)
        assert len(calls) == 1

    def test_factor_rendering(self):
        assert Factor(("1", "0")).render() == "r(10)"
        assert Factor(("0",), ("1",)).render() == "r(0)\\r(1)"


class TestLabeledSpaceReport:
    def test_fish_report(self):
        lg = fx.fish()
        closed = relative_complement_closure(smallest_accommodating(lg))
        report = labeled_space_report(lg, closed)
        assert report.ok
        assert report.set_finite
        assert report.weakly_left_resolving
        assert report.label_counts[frozenset({"v"})] == 2  # letters 0 and 1
        assert report.label_counts[frozenset({"w"})] == 1
        assert report.ck1b_intersections_closed
        assert report.ck1b_unions_closed
        assert report.ck1b_differences_closed
        assert report.ck4

    def test_ck4_fails_on_a_step_row_missing_a_target(self):
        lg = fx.fish4()
        closed = relative_complement_closure(smallest_accommodating(lg))
        assert labeled_space_report(lg, closed).ck4
        step = [list(row) for row in lg._step]
        a, v = next((a, v) for a, row in enumerate(step)
                    for v, targets in enumerate(row) if targets)
        step[a][v] &= step[a][v] - 1  # drop the lowest target
        lg.__dict__["_step"] = step
        # The first member, in collection order, and its first letter whose
        # relative range differs from the fiber found by scanning the edges.
        expected = None
        for mask in closed.members:
            vs = lg.set_of(mask)
            for letter in lg.alphabet:
                fiber = {e.dst for e in lg.graph.edges
                         if e.src in vs and lg.labeling[e.eid] == letter}
                if fiber and lg.set_of(lg.range_mask(mask, (letter,))) != fiber:
                    expected = (vs, letter)
                    break
            if expected:
                break
        report = labeled_space_report(lg, closed)
        assert expected is not None
        assert not report.ck4
        assert report.ck4.note == "letter fiber mismatch"
        assert report.ck4.witness == expected

    def test_chain3_small_collection_flags_missing_differences(self):
        lg = fx.chain3()
        col = smallest_accommodating(lg)
        report = labeled_space_report(lg, col)
        # {x,y} > {y} are both ranges but their difference is missing
        assert not report.ck1b_differences_closed
        closed = relative_complement_closure(col)
        assert labeled_space_report(lg, closed).ck1b_differences_closed

    @pytest.mark.parametrize("bound", [0, -3])
    def test_word_bound_below_one_rejected(self, bound):
        lg = fx.fish()
        closed = relative_complement_closure(smallest_accommodating(lg))
        with pytest.raises(PreconditionError) as info:
            labeled_space_report(lg, closed, word_bound=bound)
        assert info.value.name == "WORD_BOUND_BELOW_ONE"

    def test_json_shape(self):
        lg = fx.fish()
        closed = relative_complement_closure(smallest_accommodating(lg))
        payload = labeled_space_report(lg, closed).to_json()
        assert payload["ok"] is True
        assert "empty_set_convention" in payload


class TestRandomGraphClosures:
    def test_fixpoint_equals_oracle_on_random_valid_graphs(self):
        rng = random.Random(31)
        for _ in range(40):
            lg = fx.random_valid_labeled_graph(rng)
            col = smallest_accommodating(lg)
            assert set(col.members) == set(smallest_accommodating_oracle(lg))

    def test_closures_match_worklist_oracle(self):
        # small random graphs, plus graphs with 3 letters and 3n edges on
        # 7 and 8 vertices, whose closures are mostly the whole power set
        rng = random.Random(11)
        graphs = [fx.random_valid_labeled_graph(rng, max_vertices=6)
                  for _ in range(150)]
        graphs += [_dense_valid_graph(rng, nv) for nv in (7, 7, 8, 8)]
        for lg in graphs:
            full = lg.full_mask()
            col = smallest_accommodating(lg)
            closed = relative_complement_closure(col)
            seeds = [(lg.range_mask(full, (a,)), ("range", (a,)))
                     for a in lg.alphabet]
            assert set(col.members) == set(
                worklist_closure(lg, seeds, rel_complements=False))
            assert set(closed.members) == set(worklist_closure(
                lg, [(m, col.derivations[m]) for m in col.members],
                rel_complements=True))
            for coll in (col, closed):
                assert set(coll.derivations) == set(coll.members)
                for mask in coll.members:
                    assert _evaluate(coll, mask) == mask

    def test_normal_forms_on_random_wlr_graphs(self):
        # every member of both closures of 1000 weakly left-resolving graphs
        rng = random.Random(7)
        graphs = 0
        while graphs < 1000:
            lg = fx.random_valid_labeled_graph(rng, max_vertices=6)
            if not is_weakly_left_resolving(lg):
                continue
            graphs += 1
            col = smallest_accommodating(lg)
            for coll in (col, relative_complement_closure(col)):
                for mask in coll.members:
                    nf = normal_form(coll, mask)
                    assert _evaluate_by_paths(lg, nf) == lg.set_of(mask)


def _evaluate_by_paths(lg, nf):
    """Value of a normal form from the endpoints of actual paths, never
    through the bitmask kernels it was built with."""
    def range_of(word):
        return {lg.graph.path_dst(p) for p in representatives(lg, word)}

    value = set()
    for term in nf.terms:
        part = set(lg.vertices)
        for factor in term:
            part &= range_of(factor.alpha)
            if factor.beta is not None:
                part -= range_of(factor.beta)
        value |= part
    return value


def _dense_valid_graph(rng, nv):
    """Valid graph on ``nv`` vertices with 3 letters and 3 * nv edges."""
    vertices = [f"v{i}" for i in range(nv)]
    edges = [(f"e{i}", v, rng.choice(vertices))
             for i, v in enumerate(vertices)]
    edges += [(f"e{nv + i}", rng.choice(vertices), v)
              for i, v in enumerate(vertices)]
    edges += [(f"e{i}", rng.choice(vertices), rng.choice(vertices))
              for i in range(2 * nv, 3 * nv)]
    return LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: f"a{rng.randrange(3)}" for eid, _, _ in edges})


class TestMemberCap:
    def test_sixteen_separated_vertices_fit(self):
        col = smallest_accommodating(distinct_letter_cycle(16))
        assert len(col) == MAX_MEMBERS - 1

    def test_accommodating_refuses_more_members(self):
        # 17 singleton ranges span 2^17 - 1 unions
        with pytest.raises(SearchSpaceExceeded):
            smallest_accommodating(distinct_letter_cycle(17))

    def test_relative_complement_closure_refuses_more_members(self):
        # 17 atoms, known before any member is listed
        lg = distinct_letter_cycle(17)
        full = lg.full_mask()
        ranges = {lg.range_mask(full, (a,)): ("range", (a,))
                  for a in lg.alphabet}
        col = SetCollection(lg, tuple(sorted(ranges)), ranges)
        with pytest.raises(SearchSpaceExceeded):
            relative_complement_closure(col)


def _range_seeds(lg):
    full = lg.full_mask()
    return [(lg.range_mask(full, (a,)), ("range", (a,))) for a in lg.alphabet]


def _values_in_order(coll):
    """Each member's value, evaluated from its derivation in insertion
    order; every mask a derivation refers to must be evaluated already."""
    lg = coll.lg
    values = {}
    for mask, expr in coll.derivations.items():
        if expr[0] == "range":
            value = lg.range_mask(lg.full_mask(), expr[1])
        elif expr[0] == "step":
            assert expr[1] in values
            value = lg.range_mask(values[expr[1]], (expr[2],))
        else:
            assert expr[1] in values and expr[2] in values
            left, right = values[expr[1]], values[expr[2]]
            value = {"and": left & right, "or": left | right,
                     "diff": left & ~right}[expr[0]]
        values[mask] = value
    return values


@st.composite
def closure_cases(draw):
    lg = fx.random_valid_labeled_graph(
        random.Random(draw(st.integers(0, 2 ** 32 - 1))), max_vertices=7)
    return lg, draw(st.none() | st.integers(0, 2 ** 16))


class TestListing:
    @settings(max_examples=200, deadline=None)
    @given(closure_cases())
    def test_derivations_refer_back_and_reevaluate(self, case):
        lg, seed = case
        if seed is not None:
            lg = relettered(lg, seed)
        col = smallest_accommodating(lg)
        closed = relative_complement_closure(col)
        assert set(col.members) == set(
            worklist_closure(lg, _range_seeds(lg), rel_complements=False))
        assert set(closed.members) == set(worklist_closure(
            lg, [(m, col.derivations[m]) for m in col.members],
            rel_complements=True))
        for coll in (col, closed):
            assert list(coll.members) == sorted(coll.derivations)
            values = _values_in_order(coll)
            assert all(value == mask for mask, value in values.items())

    @pytest.mark.parametrize("lg", [
        fx.fish4(), fx.chain3(), fx.fdok().graph, distinct_letter_cycle(4),
        shift_graph(5), *(fx.random_valid_labeled_graph(
            random.Random(seed), max_vertices=7) for seed in range(6))])
    def test_member_cap_boundary(self, monkeypatch, lg):
        col = smallest_accommodating(lg)
        closed = relative_complement_closure(col)
        monkeypatch.setattr(lattice, "MAX_MEMBERS", len(col))
        assert smallest_accommodating(lg).members == col.members
        monkeypatch.setattr(lattice, "MAX_MEMBERS", len(col) - 1)
        with pytest.raises(SearchSpaceExceeded):
            smallest_accommodating(lg)
        monkeypatch.setattr(lattice, "MAX_MEMBERS", len(closed))
        assert relative_complement_closure(col).members == closed.members
        monkeypatch.setattr(lattice, "MAX_MEMBERS", len(closed) - 1)
        with pytest.raises(SearchSpaceExceeded):
            relative_complement_closure(col)

    def test_closure_seeds_only_the_derived_sets(self):
        # the relative-complement closure of a collection whose listed
        # unions are dropped is the same ring
        for lg in (fx.chain3(), fx.fish4(), shift_graph(5)):
            col = smallest_accommodating(lg)
            derived = {m: d for m, d in col.derivations.items()
                       if d[0] != "or"}
            bare = SetCollection(lg, tuple(sorted(derived)), derived)
            assert (relative_complement_closure(bare).members
                    == relative_complement_closure(col).members)


CLOSURE_CHECKS = ("ck1b_intersections_closed", "ck1b_unions_closed",
                  "ck1b_differences_closed")


def _report_matches_oracle(lg, coll, word_bound=4):
    report = labeled_space_report(lg, coll, word_bound)
    oracle = labeled_space_report_oracle(lg, coll, word_bound)
    assert report.to_json() == oracle.to_json()
    for name in (*CLOSURE_CHECKS, "weakly_left_resolving", "ck4"):
        got, want = getattr(report, name), getattr(oracle, name)
        assert (got.ok, got.witness, got.note) == (want.ok, want.witness,
                                                   want.note), name
    assert report == oracle
    return report


class TestReportOracle:
    def test_random_graphs_both_closures(self):
        rng = random.Random(23)
        for _ in range(80):
            lg = fx.random_valid_labeled_graph(rng, max_vertices=6)
            col = smallest_accommodating(lg)
            for coll in (col, relative_complement_closure(col)):
                for bound in (1, 2, 4):
                    _report_matches_oracle(lg, coll, bound)

    def test_dropped_members_fail_the_closure_checks(self):
        failed = {name: 0 for name in CLOSURE_CHECKS}
        rng = random.Random(5)
        for _ in range(30):
            lg = fx.random_valid_labeled_graph(rng, max_vertices=5)
            closed = relative_complement_closure(smallest_accommodating(lg))
            for dropped in closed.members:
                coll = SetCollection(
                    closed.lg, tuple(m for m in closed.members if m != dropped),
                    closed.derivations, closed.claimed_closures)
                report = _report_matches_oracle(lg, coll)
                for name in CLOSURE_CHECKS:
                    failed[name] += not getattr(report, name)
        assert all(failed.values()), failed

    def test_silent_vertex_fails_ck4(self):
        # w receives an a-edge but emits nothing
        lg = LabeledGraph(DirectedGraph(["v", "w"], [("e", "v", "w"),
                                                     ("f", "v", "v")]),
                          {"e": "a", "f": "b"})
        ranges = dict(_range_seeds(lg))
        coll = SetCollection(lg, tuple(sorted(ranges)), ranges)
        report = _report_matches_oracle(lg, coll)
        assert report.ck4.note == "vertex emits no edge"
        assert report.ck4.witness == (frozenset({"w"}), "w")

    def test_corrupted_step_rows_fail_ck4(self):
        rng = random.Random(9)
        failures = 0
        for _ in range(20):
            lg = fx.random_valid_labeled_graph(rng, max_vertices=5)
            closed = relative_complement_closure(smallest_accommodating(lg))
            lg.range_table  # computed before any row is corrupted
            clean = lg._step
            for a, row in enumerate(clean):
                for v, targets in enumerate(row):
                    for corrupt in (targets & (targets - 1),
                                    targets | 1 << (len(row) - 1 - v)):
                        if corrupt == targets:
                            continue
                        step = [list(r) for r in clean]
                        step[a][v] = corrupt
                        lg.__dict__["_step"] = step
                        failures += not _report_matches_oracle(lg, closed).ck4
            lg.__dict__["_step"] = clean
        assert failures


@st.composite
def wide_report_cases(draw):
    """A sparse graph on 17 to 24 vertices, so the member masks span three
    decoder chunks while the range table stays small, and a collection of
    a few members: random masks and some of the range values."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    vertices = [f"v{i}" for i in range(rng.randint(17, 24))]
    edges = [(f"e{k}", v, rng.choice(vertices))
             for k, v in enumerate(vertices * 2) if rng.random() < 0.6]
    lg = LabeledGraph(DirectedGraph(vertices, edges),
                      {eid: rng.choice("abc") for eid, _, _ in edges})
    ranges = [value for value, _ in lg.range_table.ranges]
    members = {rng.randrange(1, lg.full_mask() + 1)
               for _ in range(rng.randint(0, 6))}
    members.update(rng.sample(ranges, min(len(ranges), rng.randint(0, 6))))
    members.add(lg.full_mask())
    derivations = {m: ("range", ()) for m in members}
    return lg, SetCollection(lg, tuple(sorted(members)), derivations)


class TestWideReports:
    @settings(max_examples=60, deadline=None)
    @given(wide_report_cases(), st.sampled_from([1, 2, 4]))
    def test_report_matches_oracle_across_chunks(self, case, bound):
        lg, coll = case
        report = _report_matches_oracle(lg, coll, bound)
        assert frozenset(lg.vertices) in report.label_counts


# -- closures held by their basis ------------------------------------------


def _basis_membership_matches_listing(lg):
    """Both closures of ``lg`` answer membership from their basis, one mask
    at a time and in batches, exactly as their listed members do, for every
    mask in [-2, 2^n + 3); the membership tests list nothing."""
    col = smallest_accommodating(lg)
    held = (col, relative_complement_closure(col))
    listed = (smallest_accommodating(lg), relative_complement_closure(col))
    masks = range(-2, lg.full_mask() + 4)
    for coll, other in zip(held, listed):
        members = sorted(other.derivations)
        assert list(other.members) == members
        one = [mask in coll for mask in masks]
        batch = [coll.holds([mask]) for mask in masks]
        assert not coll.holds(masks)
        assert coll.holds(members) and coll.holds(())
        assert not coll.holds([*members, lg.full_mask() + 1])
        assert coll.holds(range(1, lg.full_mask() + 1)) is (
            len(members) == lg.full_mask())
        assert not {"members", "derivations"} & set(vars(coll))
        assert one == batch == [mask in set(members) for mask in masks]
        # listed, the collection answers from its members, and the same
        assert one == [mask in other for mask in masks]
        assert list(coll.members) == members


class TestBasisMembership:
    def test_random_graphs_answer_as_their_members(self):
        rng = random.Random(29)
        for _ in range(300):
            _basis_membership_matches_listing(
                fx.random_valid_labeled_graph(rng, max_vertices=7))

    @settings(max_examples=150, deadline=None)
    @given(closure_cases())
    def test_basis_membership_matches_listing(self, case):
        lg, seed = case
        _basis_membership_matches_listing(
            lg if seed is None else relettered(lg, seed))

    def test_given_members_answer_membership(self):
        # a collection given its members answers from them, not from its
        # derivations or a basis
        lg = fx.chain3()
        closed = relative_complement_closure(smallest_accommodating(lg))
        dropped = closed.members[0]
        coll = SetCollection(lg, closed.members[1:], closed.derivations)
        assert dropped in closed and dropped not in coll
        assert all(m in coll for m in coll.members)
        assert coll.holds(coll.members) and not coll.holds(closed.members)
        with pytest.raises(NotAMember):
            normal_form(coll, dropped)

    def test_the_pipeline_lists_no_member(self):
        """The closures and the report leave every listing unbuilt; read
        afterwards, they are the ones a listing at construction gives and
        the label counts are the oracle's.  The label counts list the
        members and no derivation."""
        rng = random.Random(41)
        for _ in range(40):
            lg = fx.random_valid_labeled_graph(rng, max_vertices=7)
            col = smallest_accommodating(lg)
            closed = relative_complement_closure(col)
            report = labeled_space_report(lg, closed)
            for coll in (col, closed):
                assert not {"members", "derivations", "_member_set"} & set(
                    vars(coll))
            assert "label_counts" not in vars(report)
            assert report.to_json() == labeled_space_report_oracle(
                lg, closed).to_json()
            assert "derivations" not in vars(closed)
            for coll in (col, closed):
                assert list(coll.members) == sorted(coll.derivations)
                assert all(value == mask for mask, value
                           in _values_in_order(coll).items())

    def test_report_json_orders_label_counts_by_sorted_names(self):
        # the JSON rows follow the sorted vertex names, not the members'
        # mask order, in which {v00} and {v01} come before {v00, v01}
        lg = shift_graph(5)
        report = labeled_space_report(
            lg, relative_complement_closure(smallest_accommodating(lg)))
        rows = list(report.to_json()["label_counts"].items())
        by_names = sorted((sorted(k), v) for k, v
                          in report.label_counts.items())
        assert rows == [(",".join(names), v) for names, v in by_names]
        assert [key for key, _ in rows[:3]] == ["v00", "v00,v01",
                                                 "v00,v01,v02"]

    def test_copies_and_pickles_are_equal(self):
        for lg in (fx.fish4(), fx.chain3(), shift_graph(5)):
            col = smallest_accommodating(lg)
            closed = relative_complement_closure(col)
            report = labeled_space_report(lg, closed)
            for value in (col, closed, report):
                for again in (copy.copy(value), copy.deepcopy(value),
                              pickle.loads(pickle.dumps(value))):
                    assert type(again) is type(value)
                    assert again == value and value == again
            fresh = relative_complement_closure(smallest_accommodating(lg))
            assert pickle.loads(pickle.dumps(fresh)) == closed
            assert copy.copy(fresh) == fresh == closed
            assert labeled_space_report(lg, fresh) == report

    def test_report_of_another_graph_is_refused(self):
        closed = relative_complement_closure(smallest_accommodating(fx.fish()))
        with pytest.raises(PreconditionError) as info:
            labeled_space_report(fx.chain3(), closed)
        assert info.value.name == "FOREIGN_COLLECTION"
        # an equal graph built apart is the same graph
        assert labeled_space_report(fx.fish(), closed).ok
