"""Finite directed multigraphs: carriers, validity, path enumeration."""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import FrozenRecord, PreconditionError, SearchSpaceExceeded


class Edge(NamedTuple):
    """An edge id with its source and target vertex ids.

    An edge is the tuple (eid, src, dst): it compares, orders and hashes
    as that tuple, so it equals a plain tuple of the same three ids."""

    eid: str
    src: str
    dst: str

    @classmethod
    def _many(cls, eids: Iterable[str], srcs: Iterable[str],
              dsts: Iterable[str]) -> tuple[Edge, ...]:
        """The edges of parallel id sequences.  Each is built by
        ``tuple.__new__``, as ``Edge(eid, src, dst)`` builds it, without a
        Python call per edge."""
        return tuple(map(tuple.__new__, repeat(cls), zip(eids, srcs, dsts)))


class Path(FrozenRecord):
    """A nonempty sequence of composable edge ids.

    Composability is a property of the ambient graph, so paths are built
    through :meth:`DirectedGraph.make_path` rather than directly.
    """

    __slots__ = _fields = ("edges",)
    edges: tuple[str, ...]

    def __init__(self, edges: tuple[str, ...]):
        if not edges:
            raise PreconditionError("EMPTY_PATH", "paths have length at least 1")
        object.__setattr__(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[str]:
        return iter(self.edges)


def _incident(vertices: tuple[str, ...], edges: tuple[Edge, ...],
              end: int) -> dict[str, tuple[Edge, ...]]:
    """Per vertex, the edges whose field ``end`` (1 the source, 2 the
    target) is that vertex, in edge order."""
    by_vertex: dict[str, list[Edge]] = {v: [] for v in vertices}
    for e in edges:
        by_vertex[e[end]].append(e)
    return {v: tuple(es) for v, es in by_vertex.items()}


def _raise_first_error(edges: list[Edge], vset: frozenset[str]) -> None:
    """Raise the first error of ``edges``, sorted by id: a repeated id, or
    an endpoint outside ``vset``, source before target."""
    seen: set[str] = set()
    for e in edges:
        if e.eid in seen:
            raise PreconditionError("DUPLICATE_EDGE_ID", e.eid)
        seen.add(e.eid)
        if e.src not in vset:
            raise PreconditionError("UNKNOWN_VERTEX", f"edge {e.eid} src {e.src}")
        if e.dst not in vset:
            raise PreconditionError("UNKNOWN_VERTEX", f"edge {e.eid} dst {e.dst}")


class DirectedGraph:
    """Immutable directed multigraph over opaque string ids.

    Parallel edges and loops are permitted.  Vertices and edges are stored
    in lexicographic id order so every traversal is reproducible.

    The constructor sorts its input and checks it by set sizes: unique
    edge ids and endpoints among the vertices.  Only input that fails is
    walked edge by edge, in id order, to name the first offending edge.
    Both the constructor and :meth:`_of_sorted` fill the graph through
    :meth:`_fill`.  The out-edges of every vertex are listed on the first
    call of :meth:`out_edges`, and the in-edges on the first call of
    :meth:`in_edges`: many graphs are never walked.
    """

    __slots__ = ("vertices", "edges", "_by_id", "_out", "_in", "_vset")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        normalized = [e if isinstance(e, Edge) else Edge(*e) for e in edges]
        normalized.sort(key=attrgetter("eid"))
        vertices = tuple(sorted(set(vertices)))
        vset = frozenset(vertices)
        if normalized:
            eids, srcs, dsts = zip(*normalized)
            if (len(set(eids)) < len(eids) or not vset.issuperset(srcs)
                    or not vset.issuperset(dsts)):
                _raise_first_error(normalized, vset)
        self._fill(vertices, tuple(normalized))

    @classmethod
    def _of_sorted(cls, vertices: tuple[str, ...],
                   edges: tuple[Edge, ...]) -> DirectedGraph:
        """The graph on ``vertices``, sorted and unique, and ``edges``,
        sorted by their unique ids, with endpoints among the vertices.
        Nothing is checked: the caller built the carriers so."""
        graph = cls.__new__(cls)
        graph._fill(vertices, edges)
        return graph

    def _fill(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        self.vertices = vertices
        self._vset = frozenset(vertices)
        self.edges = edges
        self._by_id: dict[str, Edge] = {e.eid: e for e in edges}
        self._out: dict[str, tuple[Edge, ...]] | None = None
        self._in: dict[str, tuple[Edge, ...]] | None = None

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._by_id

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        if self._out is None:
            self._out = _incident(self.vertices, self.edges, 1)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        if self._in is None:
            self._in = _incident(self.vertices, self.edges, 2)
        return self._in[v]

    def make_path(self, edge_ids: Iterable[str]) -> Path:
        ids = tuple(edge_ids)
        for eid in ids:
            if eid not in self._by_id:
                raise PreconditionError("UNKNOWN_EDGE", eid)
        for a, b in zip(ids, ids[1:]):
            if self._by_id[a].dst != self._by_id[b].src:
                raise PreconditionError(
                    "NOT_COMPOSABLE", f"{a} ends at {self._by_id[a].dst}, "
                    f"{b} starts at {self._by_id[b].src}")
        return Path(ids)

    def path_src(self, p: Path) -> str:
        return self._by_id[p.edges[0]].src

    def path_dst(self, p: Path) -> str:
        return self._by_id[p.edges[-1]].dst

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return (f"DirectedGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


class VertexValidity(NamedTuple):
    receives: bool   # r^{-1}(v) nonempty: some edge ends here
    out_degree: int  # #s^{-1}(v); must be >= 1 (finiteness is automatic)

    @property
    def ok(self) -> bool:
        return self.receives and self.out_degree >= 1


class ValidityReport(NamedTuple):
    per_vertex: Mapping[str, VertexValidity]

    @property
    def valid(self) -> bool:
        return all(v.ok for v in self.per_vertex.values())

    def offenders(self) -> tuple[str, ...]:
        return tuple(v for v in sorted(self.per_vertex) if not self.per_vertex[v].ok)

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "vertices": {
                v: {"receives": s.receives, "out_degree": s.out_degree, "ok": s.ok}
                for v, s in sorted(self.per_vertex.items())
            },
        }


def validate(graph: DirectedGraph) -> ValidityReport:
    """Row-finite/essential report: every vertex must receive at least one
    edge and emit at least one (and finitely many, automatic here)."""
    per = {
        v: VertexValidity(len(graph.in_edges(v)) > 0, len(graph.out_edges(v)))
        for v in graph.vertices
    }
    return ValidityReport(per)


def require_valid(graph: DirectedGraph, context: str) -> None:
    report = validate(graph)
    if not report.valid:
        raise PreconditionError(
            "INVALID_GRAPH",
            f"{context}: offending vertices {', '.join(report.offenders())}")


#: Most edge ids :func:`paths_of_length` may build: the paths of each
#: length k up to n times k, summed over k.  On ``fixtures/fish.json`` it
#: admits ``paths --n 22`` (75,025 paths, 4,003,393 edge ids; 1.2 s and
#: 74 MB on a 2-core x86 container, Python 3.11) and refuses ``--n 23``.
MAX_PATH_EDGES = 1 << 22


def paths_of_length(graph: DirectedGraph, n: int) -> tuple[Path, ...]:
    """All composable edge sequences of length ``n >= 1``, in lexicographic
    order of their edge-id tuples.  They are counted per end vertex first:
    over :data:`MAX_PATH_EDGES`, :class:`SearchSpaceExceeded` is raised
    before any is built, within sqrt(2 MAX_PATH_EDGES) lengths of any n."""
    if n < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "path length must be >= 1")
    ending = {v: len(graph.in_edges(v)) for v in graph.vertices}
    built = 0
    for k in range(1, n + 1):
        count = sum(ending.values())
        if not count:
            return ()
        built += count * k
        if built > MAX_PATH_EDGES:
            raise SearchSpaceExceeded(
                f"enumerating the paths of length {n} would build at least "
                f"{built} edge ids, over the cap MAX_PATH_EDGES = "
                f"{MAX_PATH_EDGES}")
        ending = {v: sum(ending[src] for _, src, _ in graph.in_edges(v))
                  for v in graph.vertices}
    frontier: list[tuple[str, ...]] = [(eid,) for eid, _, _ in graph.edges]
    for _ in range(n - 1):
        nxt = []
        for ids in frontier:
            _, _, tail = graph.edge(ids[-1])
            for eid, _, _ in graph.out_edges(tail):
                nxt.append(ids + (eid,))
        frontier = nxt
    return tuple(Path(ids) for ids in sorted(frontier))
