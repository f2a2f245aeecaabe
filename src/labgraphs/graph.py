"""Finite directed multigraphs: carriers, validity, path enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import PreconditionError, SearchSpaceExceeded


@dataclass(frozen=True, order=True)
class Edge:
    eid: str
    src: str
    dst: str


@dataclass(frozen=True)
class Path:
    """A nonempty sequence of composable edge ids.

    Composability is a property of the ambient graph, so paths are built
    through :meth:`DirectedGraph.make_path` rather than directly.
    """

    edges: tuple[str, ...]

    def __post_init__(self):
        if not self.edges:
            raise PreconditionError("EMPTY_PATH", "paths have length at least 1")

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[str]:
        return iter(self.edges)


class DirectedGraph:
    """Immutable directed multigraph over opaque string ids.

    Parallel edges and loops are permitted.  Vertices and edges are stored
    in lexicographic id order so every traversal is reproducible.
    """

    __slots__ = ("vertices", "edges", "_by_id", "_out", "_in", "_vset")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge | tuple]):
        self.vertices: tuple[str, ...] = tuple(sorted(set(vertices)))
        self._vset = frozenset(self.vertices)
        normalized = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            normalized.append(e)
        normalized.sort(key=lambda e: e.eid)
        seen: set[str] = set()
        for e in normalized:
            if e.eid in seen:
                raise PreconditionError("DUPLICATE_EDGE_ID", e.eid)
            seen.add(e.eid)
            if e.src not in self._vset:
                raise PreconditionError("UNKNOWN_VERTEX", f"edge {e.eid} src {e.src}")
            if e.dst not in self._vset:
                raise PreconditionError("UNKNOWN_VERTEX", f"edge {e.eid} dst {e.dst}")
        self.edges: tuple[Edge, ...] = tuple(normalized)
        self._by_id: dict[str, Edge] = {e.eid: e for e in self.edges}
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    def has_edge(self, eid: str) -> bool:
        return eid in self._by_id

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
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


@dataclass(frozen=True)
class VertexValidity:
    receives: bool   # r^{-1}(v) nonempty: some edge ends here
    out_degree: int  # #s^{-1}(v); must be >= 1 (finiteness is automatic)

    @property
    def ok(self) -> bool:
        return self.receives and self.out_degree >= 1


@dataclass(frozen=True)
class ValidityReport:
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
        ending = {v: sum(ending[e.src] for e in graph.in_edges(v))
                  for v in graph.vertices}
    frontier: list[tuple[str, ...]] = [(e.eid,) for e in graph.edges]
    for _ in range(n - 1):
        nxt = []
        for ids in frontier:
            tail = graph.edge(ids[-1]).dst
            for e in graph.out_edges(tail):
                nxt.append(ids + (e.eid,))
        frontier = nxt
    return tuple(Path(ids) for ids in sorted(frontier))
