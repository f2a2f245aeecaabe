"""Labelings, labeled path spaces, relative ranges, resolving checks."""

import itertools
import random

import pytest

from labgraphs import fixtures as fx
from labgraphs.errors import (NotALabeledPath, PreconditionError,
                              SearchSpaceExceeded)
from labgraphs.graph import DirectedGraph
from labgraphs.labeled import (BRUTEFORCE_MAX_VERTICES, LabeledGraph,
                               is_left_resolving,
                               is_weakly_left_resolving, label_set,
                               labeled_paths, range_and_source, relative_range,
                               representatives,
                               weakly_left_resolving_bruteforce)


def word(text):
    return tuple(text)


def collision_graph():
    """Two vertices with same-labeled edges into a common target: not
    weakly left-resolving (and valid)."""
    g = DirectedGraph(
        ["u1", "u2", "w"],
        [("e1", "u1", "w"), ("e2", "u2", "w"),
         ("r1", "w", "u1"), ("r2", "w", "u2")])
    return LabeledGraph(g, {"e1": "a", "e2": "a", "r1": "b", "r2": "c"})


def cycle(n):
    """The n-cycle v0 -> v1 -> ... -> v0 with every edge labeled a."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return LabeledGraph(DirectedGraph(vs, edges), {e[0]: "a" for e in edges})


class TestLabeledGraph:
    def test_alphabet_is_shrunk_to_image(self):
        lg = LabeledGraph(fx.fish().graph,
                          {"e": "1", "f": "0", "g": "0"},
                          alphabet=["0", "1", "2"])
        assert lg.alphabet == ("0", "1")
        assert lg.dropped_letters == ("2",)

    def test_partial_labeling_rejected(self):
        with pytest.raises(PreconditionError):
            LabeledGraph(fx.fish().graph, {"e": "1", "f": "0"})

    def test_letter_outside_alphabet_rejected(self):
        with pytest.raises(PreconditionError):
            LabeledGraph(fx.fish().graph,
                         {"e": "1", "f": "0", "g": "0"}, alphabet=["1"])


class TestCore:
    @pytest.mark.parametrize("seed", range(40))
    def test_core_is_read_off_the_edges(self, seed):
        """The carriers, positions and edge arrays of the core name the
        items of the graph, edge by edge, and the step masks are the
        endpoints of the a-labeled edges leaving each vertex."""
        lg = fx.random_labeled_graph(random.Random(seed), max_vertices=6,
                                     max_edges=12)
        core = lg.core
        assert core is lg.core
        assert core.carriers == (lg.vertices,
                                 tuple(e.eid for e in lg.graph.edges),
                                 lg.alphabet)
        for items, positions in zip(core.carriers, core.positions):
            assert sorted(positions.values()) == list(range(len(items)))
            assert all(items[positions[x]] == x for x in items)
        vertices, edges, letters = core.carriers
        assert [(edges[e], vertices[v], vertices[w], letters[a])
                for e, (v, w, a) in enumerate(zip(core.src, core.dst,
                                                  core.lab))] == [
            (e.eid, e.src, e.dst, lg.labeling[e.eid]) for e in lg.graph.edges]
        assert lg._step == [
            [lg.mask_of({e.dst for e in lg.graph.out_edges(v)
                         if lg.labeling[e.eid] == a})
             for v in lg.vertices]
            for a in lg.alphabet]


class TestLabeledPaths:
    def test_fish_length_one(self):
        assert set(labeled_paths(fx.fish(), 1)) == {word("0"), word("1")}

    def test_fish_length_two(self):
        assert set(labeled_paths(fx.fish(), 2)) == {
            word("11"), word("10"), word("00"), word("01")}

    def test_membership_decided_by_representatives(self):
        lg = fx.fish()
        for w in [word(a + b + c) for a in "01" for b in "01" for c in "01"]:
            in_space = w in set(labeled_paths(lg, 3))
            assert in_space == bool(representatives(lg, w))

    def test_zero_length_rejected(self):
        with pytest.raises(PreconditionError):
            labeled_paths(fx.fish(), 0)


class TestRepresentatives:
    def test_word_00(self):
        reps = representatives(fx.fish(), word("00"))
        assert {p.edges for p in reps} == {("f", "g"), ("g", "f")}

    def test_word_1(self):
        assert [p.edges for p in representatives(fx.fish(), word("1"))] == [("e",)]

    def test_loop_iteration(self):
        for k in (1, 2, 5):
            reps = representatives(fx.fish(), word("1" * k))
            assert [p.edges for p in reps] == [("e",) * k]

    def test_unrepresentable_word_is_empty(self):
        assert representatives(fx.fish(), word("2")) == ()


class TestRelativeRange:
    def test_from_v_with_zero(self):
        assert relative_range(fx.fish(), ["v"], word("0")) == {"w"}

    def test_from_everything_with_zero(self):
        assert relative_range(fx.fish(), ["v", "w"], word("0")) == {"v", "w"}

    def test_empty_source(self):
        assert relative_range(fx.fish(), [], word("0")) == frozenset()
        assert relative_range(fx.fish(), [], word("10")) == frozenset()

    def test_matches_definitional_enumeration(self):
        rng = random.Random(7)
        # the 70-cycle needs vertex masks wider than 64 bits
        graphs = itertools.chain(
            (fx.random_labeled_graph(rng) for _ in range(50)), [cycle(70)])
        for lg in graphs:
            vs = [v for v in lg.vertices if rng.random() < 0.5]
            for n in (1, 2, 3):
                for w in labeled_paths(lg, n) if lg.graph.edges else ():
                    direct = {lg.graph.path_dst(p)
                              for p in representatives(lg, w)
                              if lg.graph.path_src(p) in set(vs)}
                    assert relative_range(lg, vs, w) == direct

    def test_composition_law(self):
        lg = fx.fish()
        for w in labeled_paths(lg, 4):
            for cut in (1, 2, 3):
                head, tail = w[:cut], w[cut:]
                assert relative_range(lg, ["v"], w) == relative_range(
                    lg, relative_range(lg, ["v"], head), tail)


class TestRangeTable:
    def test_matches_path_enumeration(self):
        rng = random.Random(11)
        graphs = itertools.chain(
            (fx.fish(), fx.fish4(), fx.chain3()),
            (fx.random_labeled_graph(rng) for _ in range(40)))
        for lg in graphs:
            table = lg.range_table
            shortest = dict(table.ranges)
            assert len(shortest) == len(table.ranges)
            assert list(table.ranges) == sorted(
                table.ranges,
                key=lambda vw: (bin(vw[0]).count("1"), len(vw[1]), vw[1]))
            for value, w in table.ranges:
                assert lg.set_of(value) == range_and_source(lg, w)[0]
            # every realized word reaches a value of the table whose word is
            # shorter, or as long and no greater
            longest = max((len(w) for _, w in table.ranges), default=0)
            for n in range(1, longest + 2):
                for w in labeled_paths(lg, n) if lg.graph.edges else ():
                    value = lg.mask_of(range_and_source(lg, w)[0])
                    assert (len(shortest[value]), shortest[value]) <= (n, w)

    def test_atoms_group_vertices_by_the_ranges_holding_them(self):
        rng = random.Random(12)
        for lg in (fx.random_labeled_graph(rng) for _ in range(40)):
            table = lg.range_table
            seen = 0
            for atom, inside in table.atoms:
                assert atom and not atom & seen
                seen |= atom
                for i, v in enumerate(lg.vertices):
                    if atom >> i & 1:
                        assert inside == tuple(
                            k for k, (value, _) in enumerate(table.ranges)
                            if v in lg.set_of(value))
            in_some_range = 0
            for value, _ in table.ranges:
                in_some_range |= value
            assert seen == in_some_range
            assert len({inside for _, inside in table.atoms}) == len(table.atoms)


class TestRangeAndSource:
    def test_word_0(self):
        assert range_and_source(fx.fish(), word("0")) == (
            {"v", "w"}, {"v", "w"})

    def test_word_1(self):
        assert range_and_source(fx.fish(), word("1")) == ({"v"}, {"v"})

    def test_word_10(self):
        assert range_and_source(fx.fish(), word("10")) == ({"w"}, {"v"})

    def test_not_a_labeled_path(self):
        with pytest.raises(NotALabeledPath):
            range_and_source(fx.fish(), word("2"))


class TestLabelSet:
    def test_from_w(self):
        assert label_set(fx.fish(), ["w"], 1) == (word("0"),)

    def test_from_v(self):
        assert set(label_set(fx.fish(), ["v"], 1)) == {word("0"), word("1")}

    def test_empty(self):
        assert label_set(fx.fish(), [], 1) == ()


class TestLeftResolving:
    def test_fish(self):
        assert is_left_resolving(fx.fish())

    def test_second_loop_forces_collision(self):
        g = DirectedGraph(["v", "w"],
                          [("e", "v", "v"), ("e2", "v", "v"),
                           ("f", "v", "w"), ("g", "w", "v")])
        lg = LabeledGraph(g, {"e": "1", "e2": "1", "f": "0", "g": "0"})
        check = is_left_resolving(lg)
        assert not check
        vertex, e1, e2 = check.witness
        assert vertex == "v" and {e1, e2} == {"e", "e2"}

    def test_skew_window_inherits(self):
        skew = fx.skewz()
        assert is_left_resolving(skew.graph)
        assert skew.left_resolving_inherited


class TestWeaklyLeftResolving:
    def test_fish(self):
        assert is_weakly_left_resolving(fx.fish())
        assert weakly_left_resolving_bruteforce(fx.fish())

    def test_constructed_collision(self):
        lg = collision_graph()
        check = is_weakly_left_resolving(lg)
        assert not check
        letter, u1, u2 = check.witness
        assert letter == "a" and {u1, u2} == {"u1", "u2"}
        brute = weakly_left_resolving_bruteforce(lg)
        assert not brute
        w, set_a, set_b = brute.witness
        assert relative_range(lg, set_a & set_b, w) != (
            relative_range(lg, set_a, w) & relative_range(lg, set_b, w))

    def test_fast_check_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(120):
            lg = fx.random_labeled_graph(rng)
            assert bool(is_weakly_left_resolving(lg)) == bool(
                weakly_left_resolving_bruteforce(lg))

    def test_oracle_refuses_graphs_over_its_cap(self):
        assert weakly_left_resolving_bruteforce(cycle(BRUTEFORCE_MAX_VERTICES))
        with pytest.raises(SearchSpaceExceeded):
            weakly_left_resolving_bruteforce(cycle(16))

    def test_left_resolving_implies_weakly(self):
        rng = random.Random(5)
        seen = 0
        for _ in range(1000):
            lg = fx.random_labeled_graph(rng, max_vertices=6, max_edges=10,
                                         max_letters=3)
            if is_left_resolving(lg):
                seen += 1
                assert is_weakly_left_resolving(lg)
        assert seen > 10


class TestIntersectionDistributivity:
    def test_union_always_distributes(self):
        rng = random.Random(11)
        for _ in range(40):
            lg = fx.random_labeled_graph(rng)
            vs = list(lg.vertices)
            set_a = frozenset(v for v in vs if rng.random() < 0.5)
            set_b = frozenset(v for v in vs if rng.random() < 0.5)
            for n in (1, 2, 3):
                for w in labeled_paths(lg, n):
                    assert relative_range(lg, set_a | set_b, w) == (
                        relative_range(lg, set_a, w)
                        | relative_range(lg, set_b, w))

    def test_intersection_is_contained_and_tight_exactly_when_wlr(self):
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), collision_graph()):
            wlr = bool(is_weakly_left_resolving(lg))
            tight = True
            subsets = [frozenset(s) for s in _subsets(lg.vertices)]
            for set_a in subsets:
                for set_b in subsets:
                    for n in (1, 2, 3, 4):
                        for w in labeled_paths(lg, n):
                            lhs = relative_range(lg, set_a & set_b, w)
                            rhs = (relative_range(lg, set_a, w)
                                   & relative_range(lg, set_b, w))
                            assert lhs <= rhs
                            tight = tight and lhs == rhs
            assert tight == wlr


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]
