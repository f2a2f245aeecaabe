"""Directed graph carriers, validity and path enumeration."""

import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from labgraphs import fixtures as fx
from labgraphs import graph as graph_module
from labgraphs.errors import PreconditionError, SearchSpaceExceeded
from labgraphs.graph import (MAX_PATH_EDGES, DirectedGraph, Edge, Path,
                             paths_of_length, validate)
from labgraphs.labeled import label_set, labeled_paths


def path_ids(paths):
    return {p.edges for p in paths}


class TestConstruction:
    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(PreconditionError):
            DirectedGraph(["v"], [("e", "v", "v"), ("e", "v", "v")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(PreconditionError):
            DirectedGraph(["v"], [("e", "v", "w")])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from("uvw"),
                              st.sampled_from("uvw")), max_size=6))
    def test_the_first_error_in_id_order_is_named(self, edges):
        """Over the vertices u and v, the error raised is the first one a
        walk of the edges in stable id order meets: a repeated id, an
        unknown source, or an unknown target."""
        expected, seen = None, set()
        for eid, src, dst in sorted(edges, key=lambda e: e[0]):
            if eid in seen:
                expected = ("DUPLICATE_EDGE_ID", eid)
            elif src == "w":
                expected = ("UNKNOWN_VERTEX", f"edge {eid} src {src}")
            elif dst == "w":
                expected = ("UNKNOWN_VERTEX", f"edge {eid} dst {dst}")
            seen.add(eid)
            if expected:
                break
        if expected is None:
            graph = DirectedGraph(["v", "u"], edges)
            assert graph.vertices == ("u", "v")
            assert graph.edges == tuple(sorted(map(Edge._make, edges)))
            return
        with pytest.raises(PreconditionError) as info:
            DirectedGraph(["v", "u"], edges)
        assert str(info.value) == ": ".join(expected)

    def test_an_edge_equals_the_tuple_of_its_ids(self):
        e = Edge("e", "v", "w")
        assert e == ("e", "v", "w") and hash(e) == hash(("e", "v", "w"))
        assert (e.eid, e.src, e.dst) == ("e", "v", "w")
        assert Edge._many(["e"], ["v"], ["w"]) == (e,)

    def test_parallel_edges_and_loops_allowed(self):
        g = DirectedGraph(["v", "w"],
                          [("a", "v", "w"), ("b", "v", "w"), ("c", "w", "v"),
                           ("l", "v", "v")])
        assert len(g.edges) == 4
        assert g.edge("l").src == g.edge("l").dst == "v"

    def test_deterministic_order(self):
        g = DirectedGraph(["w", "v"], [("b", "v", "w"), ("a", "w", "v")])
        assert g.vertices == ("v", "w")
        assert [e.eid for e in g.edges] == ["a", "b"]

    def test_make_path_checks_composability(self):
        g = fx.fish().graph
        assert g.make_path(["e", "f"]).edges == ("e", "f")
        with pytest.raises(PreconditionError):
            g.make_path(["f", "e"])  # f ends at w, e starts at v

    def test_empty_path_rejected(self):
        with pytest.raises(PreconditionError):
            Path(())


class TestValidate:
    def test_fish_is_valid(self):
        report = validate(fx.fish().graph)
        assert report.valid
        assert report.per_vertex["v"].out_degree == 2
        assert report.per_vertex["w"].out_degree == 1
        assert report.per_vertex["v"].receives
        assert report.per_vertex["w"].receives

    def test_single_vertex_no_edges_invalid(self):
        report = validate(DirectedGraph(["v"], []))
        assert not report.valid
        assert report.offenders() == ("v",)
        assert not report.per_vertex["v"].receives
        assert report.per_vertex["v"].out_degree == 0

    def test_single_loop_valid(self):
        assert validate(DirectedGraph(["v"], [("e", "v", "v")])).valid

    def test_monotone_under_edge_addition(self):
        # adding an edge can only repair the flags at its endpoints
        base = [("e0", "v0", "v1"), ("e1", "v1", "v1")]
        before = validate(DirectedGraph(["v0", "v1", "v2"], base))
        after = validate(DirectedGraph(["v0", "v1", "v2"],
                                       base + [("e2", "v2", "v0")]))
        for v in ("v0", "v1", "v2"):
            assert after.per_vertex[v].receives >= before.per_vertex[v].receives
            assert after.per_vertex[v].out_degree >= before.per_vertex[v].out_degree


class TestPaths:
    def test_fish_length_one_is_edge_set(self):
        assert path_ids(paths_of_length(fx.fish().graph, 1)) == {
            ("e",), ("f",), ("g",)}

    def test_fish_length_two(self):
        assert path_ids(paths_of_length(fx.fish().graph, 2)) == {
            ("e", "e"), ("e", "f"), ("f", "g"), ("g", "e"), ("g", "f")}

    def test_fish_length_three_count(self):
        assert len(paths_of_length(fx.fish().graph, 3)) == 8

    def test_zero_length_rejected(self):
        with pytest.raises(PreconditionError):
            paths_of_length(fx.fish().graph, 0)

    def test_counts_match_adjacency_matrix_powers(self):
        # independent oracle: |paths of length n| equals the entry sum of
        # the n-th adjacency power
        for lg in (fx.fish(), fx.fish4(), fx.chain3(), fx.fdok().graph,
                   fx.skewz().graph):
            g = lg.graph
            idx = {v: i for i, v in enumerate(g.vertices)}
            n = len(g.vertices)
            adjacency = [[0] * n for _ in range(n)]
            for e in g.edges:
                adjacency[idx[e.src]][idx[e.dst]] += 1
            power = [row[:] for row in adjacency]
            for length in range(1, 7):
                expected = sum(sum(row) for row in power)
                assert len(paths_of_length(g, length)) == expected
                power = [[sum(power[i][k] * adjacency[k][j] for k in range(n))
                          for j in range(n)] for i in range(n)]

    def test_extension_recurrence(self):
        # |paths(n+1)| is the sum of out-degrees at path endpoints
        for lg in (fx.fish(), fx.fish4(), fx.chain3()):
            g = lg.graph
            for n in range(1, 6):
                paths = paths_of_length(g, n)
                expected = sum(len(g.out_edges(g.path_dst(p))) for p in paths)
                assert len(paths_of_length(g, n + 1)) == expected

    def test_deterministic_output_order(self):
        paths = paths_of_length(fx.fish().graph, 3)
        assert [p.edges for p in paths] == sorted(p.edges for p in paths)


def edge_ids_built(g, n):
    """The edge ids the enumeration of length n builds: the paths of each
    length k <= n times k, counted from the paths themselves."""
    return sum(k * len(paths_of_length(g, k)) for k in range(1, n + 1))


class TestPathCap:
    def test_fish_over_the_cap_is_refused_at_once(self):
        """fish has Fibonacci many paths: length 22 builds 4,003,393 edge
        ids, under the cap, and every longer length is refused before a
        path is built, however long."""
        assert 4_003_393 <= MAX_PATH_EDGES < 6_795_432
        g = fx.fish().graph
        for n in (23, 40, 10 ** 9):
            start = time.perf_counter()
            with pytest.raises(SearchSpaceExceeded,
                               match=f"MAX_PATH_EDGES = {MAX_PATH_EDGES}$"):
                paths_of_length(g, n)
            assert time.perf_counter() - start < 0.5

    def test_labeled_paths_and_label_sets_inherit_the_cap(self):
        lg = fx.fish()
        with pytest.raises(SearchSpaceExceeded):
            labeled_paths(lg, 40)
        with pytest.raises(SearchSpaceExceeded):
            label_set(lg, ["v"], 40)

    def test_a_cycle_stops_counting_early(self):
        """A cycle has three paths of every length: a length of 10**9 is
        refused after about 1,700 counted lengths, not 10**9."""
        g = DirectedGraph("abc", [("x", "a", "b"), ("y", "b", "c"),
                                  ("z", "c", "a")])
        start = time.perf_counter()
        with pytest.raises(SearchSpaceExceeded):
            paths_of_length(g, 10 ** 9)
        assert time.perf_counter() - start < 0.5

    def test_no_paths_of_a_long_length(self):
        g = DirectedGraph("abc", [("x", "a", "b"), ("y", "b", "c")])
        assert paths_of_length(g, 10 ** 9) == ()
        assert path_ids(paths_of_length(g, 2)) == {("x", "y")}

    @pytest.mark.parametrize("seed", range(30))
    def test_the_cap_sits_at_the_edge_ids_built(self, seed, monkeypatch):
        """With the cap at exactly the edge ids an enumeration builds, it
        runs and returns the same paths; one below, it is refused, also
        when the paths die out before length n."""
        rng = random.Random(seed)
        g = fx.random_labeled_graph(rng, max_vertices=4, max_edges=7).graph
        n = rng.randint(1, 6)
        expected = paths_of_length(g, n)
        built = edge_ids_built(g, n)
        monkeypatch.setattr(graph_module, "MAX_PATH_EDGES", built)
        assert paths_of_length(g, n) == expected
        monkeypatch.setattr(graph_module, "MAX_PATH_EDGES", built - 1)
        with pytest.raises(SearchSpaceExceeded, match=f" {built} edge ids"):
            paths_of_length(g, n)
