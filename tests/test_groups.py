"""Group carriers and the window contract."""

import itertools
import math
import random
import time

import pytest

from labgraphs.errors import AxiomFailure, OutOfWindow, PreconditionError
from labgraphs.groups import (MAX_PERMUTATION_ENTRIES, MAX_TABLE_ORDER,
                              CyclicGroup, IntegerGroup, PermutationGroup,
                              TableGroup, Window, element_from_json,
                              element_to_json, make_group)


class TestCyclic:
    def test_cyclic_two_table(self):
        g = CyclicGroup(2)
        assert [[g.op(a, b) for b in (0, 1)] for a in (0, 1)] == [[0, 1], [1, 0]]

    def test_inverse(self):
        g = CyclicGroup(2)
        assert g.inv(1) == 1
        assert g.op(1, g.inv(1)) == g.identity


class TestIntegers:
    def test_lazy_elements(self):
        g = IntegerGroup()
        assert g.op(2, 3) == 5
        assert not g.is_finite
        with pytest.raises(PreconditionError):
            g.elements()

    def test_laws_on_random_triples(self):
        g = IntegerGroup()
        rng = random.Random(99)
        for _ in range(1000):
            a, b, c = (rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
            assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
            assert g.op(a, g.identity) == a
            assert g.op(g.inv(a), a) == g.identity


class TestTable:
    def test_klein_four_group(self):
        g = TableGroup([[i ^ j for j in range(4)] for i in range(4)])
        assert g.identity == 0
        assert all(g.op(a, a) == 0 for a in g.elements())

    def test_non_associative_table_rejected(self):
        # right-translation by row index, tweaked to break associativity
        table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(AxiomFailure) as info:
            TableGroup(table)
        assert info.value.witness is None or len(info.value.witness) == 3

    def test_missing_identity_rejected(self):
        with pytest.raises(AxiomFailure):
            TableGroup([[1, 1], [1, 1]])

    def test_relabeled_identity_accepted(self):
        # the identity need not be element 0
        g = TableGroup([[1, 0], [0, 1]])
        assert g.identity == 1

    def test_long_table_is_refused_before_its_rows_are_read(self):
        """No row of a table over the cap is read: these rows are not even
        iterable."""
        with pytest.raises(PreconditionError) as info:
            TableGroup([None] * (MAX_TABLE_ORDER + 1))
        assert str(info.value) == (
            f"GROUP_TOO_LARGE: the table has {MAX_TABLE_ORDER + 1} rows, "
            f"over the cap MAX_TABLE_ORDER = {MAX_TABLE_ORDER}")


class TestPermutation:
    def test_symmetric_group_on_three_points(self):
        g = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
        assert len(g.elements()) == 6
        assert g.identity == (0, 1, 2)
        a = (1, 0, 2)
        assert g.op(a, g.inv(a)) == g.identity

    def test_not_a_permutation_rejected(self):
        with pytest.raises(AxiomFailure):
            PermutationGroup(3, [(0, 0, 2)])

    def test_composition_order(self):
        g = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
        # op(a, b) applies b first
        a, b = (1, 0, 2), (1, 2, 0)
        assert g.op(a, b) == tuple(a[b[i]] for i in range(3))

    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_cyclic_shifts_close_to_their_degree(self, degree):
        shift = list(range(1, degree)) + [0] if degree else []
        g = PermutationGroup(degree, [shift])
        assert len(g.elements()) == max(degree, 1)
        assert g.elements() == tuple(sorted(
            tuple((i + k) % degree for i in range(degree))
            for k in range(max(degree, 1))))

    def test_symmetric_group_on_five_points(self):
        g = PermutationGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
        assert len(g.elements()) == 120
        assert set(g.elements()) == set(itertools.permutations(range(5)))

    def test_entries_at_the_cap_are_accepted(self):
        """The cyclic shift of degree d has order d, so d * d entries."""
        degree = math.isqrt(MAX_PERMUTATION_ENTRIES)
        shift = list(range(1, degree)) + [0]
        assert len(PermutationGroup(degree, [shift]).elements()) == degree

    def test_entries_over_the_cap_are_refused_early(self):
        """One shift of degree 6,000 would close to 6,000 permutations,
        36,000,000 entries; the closure stops where it passes the cap."""
        degree = 6000
        shift = list(range(1, degree)) + [0]
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as info:
            PermutationGroup(degree, [shift])
        assert time.perf_counter() - start < 0.5
        assert info.value.name == "GROUP_TOO_LARGE"
        passed = MAX_PERMUTATION_ENTRIES // degree + 1
        assert str(info.value) == (
            f"GROUP_TOO_LARGE: the closure of the generators holds at least "
            f"{passed} permutations of degree {degree}, {passed * degree} "
            f"entries, over the cap MAX_PERMUTATION_ENTRIES = "
            f"{MAX_PERMUTATION_ENTRIES}")


class TestMakeGroup:
    def test_round_trip_specs(self):
        for spec in ({"kind": "cyclic", "n": 3},
                     {"kind": "integers"},
                     {"kind": "table",
                      "table": [[i ^ j for j in range(4)] for i in range(4)]},
                     {"kind": "permutation", "degree": 3,
                      "generators": [[1, 0, 2]]}):
            g = make_group(spec)
            assert g.to_json() == spec or g.kind == spec["kind"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionError):
            make_group({"kind": "braid"})

    def test_element_json_round_trip(self):
        g = PermutationGroup(3, [(1, 0, 2)])
        a = (1, 0, 2)
        assert element_from_json(g, element_to_json(g, a)) == a
        z = IntegerGroup()
        assert element_from_json(z, element_to_json(z, -4)) == -4
        with pytest.raises(PreconditionError):
            element_from_json(CyclicGroup(2), 5)
        with pytest.raises(PreconditionError):
            element_from_json(z, True)


class TestWindow:
    def test_bounds(self):
        w = Window(-2, 2)
        assert -2 in w and 2 in w and 3 not in w
        assert list(w.elements()) == [-2, -1, 0, 1, 2]

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionError):
            Window(1, 0)

    def test_materialization_flags_boundary_escape(self):
        # z with window [-2,2]: an edge leaving layer 2 escapes and is
        # flagged, never silently dropped
        from labgraphs import fixtures as fx
        from labgraphs.skew import lift_path, skew_product
        skew = skew_product(fx.skewz_spec(), Window(-2, 2))
        assert "(e,2)" in skew.boundary_edges
        assert "(v,3)" in skew.halo_vertices
        path = fx.fish().graph.make_path(["e"])
        with pytest.raises(OutOfWindow):
            lift_path(skew, path, 3)
