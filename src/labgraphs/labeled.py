"""Labeled graphs: labelings, labeled path spaces, relative ranges and the
resolving properties, with the fast checks and their definitional oracles.

Vertex sets are integer bitmasks over the frozen vertex ordering: bit ``i``
stands for ``vertices[i]``.  Python integers have no fixed width, so a mask
covers any number of vertices.  Relative ranges sweep per-letter successor
masks one letter at a time (:meth:`LabeledGraph.range_mask`).  The
brute-force oracle builds its own word tables by walking actual paths and
scans every subset pair against them, so it stays independent of the fast
checks it is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import NotALabeledPath, PreconditionError, SearchSpaceExceeded
from .graph import DirectedGraph, Path, paths_of_length

Word = tuple[str, ...]


@dataclass(frozen=True)
class Check:
    """Boolean verdict with an optional witness for the failing case."""

    ok: bool
    witness: Any = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RangeTable:
    """The range values of a graph and the atoms they cut the vertices into.

    ``ranges`` holds ``(value, word)`` for every nonempty range value, with
    the shortest (then least) word reaching it, ordered by the value's size,
    then by word length, then by word.  ``atoms`` holds ``(mask, inside)``
    for each class of vertices lying in the same range values, ``inside``
    being the indices into ``ranges`` of those values, in table order.
    Vertices in no range value belong to no atom.
    """

    ranges: tuple[tuple[int, Word], ...]
    atoms: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class GraphCore:
    """The integer core of a labeled graph (:attr:`LabeledGraph.core`):
    its vertices, edge ids and letters in their frozen order, the position
    of each item in its carrier, and per edge the positions of its source,
    target and label.  Built once per graph and shared; callers must not
    mutate the dicts."""

    carriers: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]
    positions: tuple[dict[str, int], dict[str, int], dict[str, int]]
    src: tuple[int, ...]
    dst: tuple[int, ...]
    lab: tuple[int, ...]


class LabeledGraph:
    """A directed graph with a total edge labeling into a finite alphabet.

    The labeling is kept surjective: letters outside the image are dropped
    at construction and recorded in ``dropped_letters``.
    """

    __slots__ = ("graph", "alphabet", "labeling", "dropped_letters",
                 "__dict__")

    def __init__(self, graph: DirectedGraph, labeling: Mapping[str, str],
                 alphabet: Iterable[str] | None = None):
        self.graph = graph
        missing = [e.eid for e in graph.edges if e.eid not in labeling]
        if missing:
            raise PreconditionError(
                "PARTIAL_LABELING", f"unlabeled edges: {', '.join(missing)}")
        extra = sorted(set(labeling) - {e.eid for e in graph.edges})
        if extra:
            raise PreconditionError(
                "UNKNOWN_EDGE", f"labeling mentions unknown edges: {', '.join(extra)}")
        image = {labeling[e.eid] for e in graph.edges}
        if alphabet is None:
            dropped: tuple[str, ...] = ()
        else:
            declared = set(alphabet)
            outside = sorted(image - declared)
            if outside:
                raise PreconditionError(
                    "LETTER_NOT_IN_ALPHABET", ", ".join(outside))
            dropped = tuple(sorted(declared - image))
        self.alphabet: tuple[str, ...] = tuple(sorted(image))
        self.labeling: dict[str, str] = {e.eid: labeling[e.eid] for e in graph.edges}
        self.dropped_letters = dropped

    # -- basic accessors -------------------------------------------------

    def label(self, eid: str) -> str:
        return self.labeling[eid]

    def label_word(self, path: Path) -> Word:
        return tuple(self.labeling[eid] for eid in path.edges)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self.graph == other.graph and self.alphabet == other.alphabet
                and self.labeling == other.labeling)

    def __hash__(self) -> int:
        return hash((self.graph, self.alphabet, tuple(sorted(self.labeling.items()))))

    def __repr__(self) -> str:
        return (f"LabeledGraph({len(self.vertices)} vertices, "
                f"{len(self.graph.edges)} edges, alphabet {list(self.alphabet)})")

    # -- integer core and bitmask plumbing ---------------------------------

    @cached_property
    def core(self) -> GraphCore:
        # Tuples are built from lists: a short tuple built from a generator
        # is not taken from CPython's tuple free lists but joins them when
        # it dies, so those lists would grow with every graph built.
        edges = self.graph.edges
        carriers = (self.vertices, tuple([e.eid for e in edges]), self.alphabet)
        vpos, epos, apos = ({x: i for i, x in enumerate(items)}
                            for items in carriers)
        return GraphCore(carriers, (vpos, epos, apos),
                         tuple([vpos[e.src] for e in edges]),
                         tuple([vpos[e.dst] for e in edges]),
                         tuple([apos[self.labeling[e.eid]] for e in edges]))

    @cached_property
    def _step(self) -> list[list[int]]:
        """Per-letter successor masks: ``_step[a][v]`` is the set of
        endpoints of a-labeled edges leaving vertex ``v``."""
        core = self.core
        step = [[0] * len(self.vertices) for _ in self.alphabet]
        for v, w, a in zip(core.src, core.dst, core.lab):
            step[a][v] |= 1 << w
        return step

    @cached_property
    def weakly_left_resolving(self) -> Check:
        """The verdict of :func:`is_weakly_left_resolving`, computed once per
        graph."""
        return is_weakly_left_resolving(self)

    @cached_property
    def range_table(self) -> RangeTable:
        """Every nonempty range value r(w) with its shortest word, and the
        atoms those values cut the vertices into.

        A breadth-first search from the full mask, one letter at a time,
        since r(wa) = r(r(w), a).  Each level extends the previous one's
        words in order and letters come in alphabet order, so the first
        word that reaches a value is its shortest, and the least of those.
        """
        words: dict[int, Word] = {}
        level: list[tuple[int, Word]] = [(self.full_mask(), ())]
        while level:
            nxt = []
            for mask, word in level:
                for a in self.alphabet:
                    value = self.range_mask(mask, (a,))
                    if value and value not in words:
                        words[value] = word + (a,)
                        nxt.append((value, word + (a,)))
            level = nxt
        ranges = tuple(sorted(words.items(),
                              key=lambda vw: (vw[0].bit_count(), len(vw[1]),
                                              vw[1])))
        atoms: dict[tuple[int, ...], int] = {}
        for i in range(len(self.vertices)):
            inside = tuple(k for k, (value, _) in enumerate(ranges)
                           if value >> i & 1)
            if inside:
                atoms[inside] = atoms.get(inside, 0) | 1 << i
        return RangeTable(ranges, tuple((mask, inside)
                                        for inside, mask in atoms.items()))

    def mask_of(self, vertices: Iterable[str]) -> int:
        vi = self.core.positions[0]
        mask = 0
        for v in vertices:
            if v not in vi:
                raise PreconditionError("UNKNOWN_VERTEX", v)
            mask |= 1 << vi[v]
        return mask

    def set_of(self, mask: int) -> frozenset[str]:
        vs = self.vertices
        out = set()
        while mask:
            i = (mask & -mask).bit_length() - 1
            out.add(vs[i])
            mask &= mask - 1
        return frozenset(out)

    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    def word_indices(self, word: Word) -> tuple[int, ...] | None:
        """Letter indices for ``word``; None if a letter is unknown (such a
        word has no representative, so its relative range is empty)."""
        li = self.core.positions[2]
        try:
            return tuple(li[a] for a in word)
        except KeyError:
            return None

    def range_mask(self, mask: int, word: Word) -> int:
        """Relative range of ``mask`` along ``word``, one letter at a time."""
        idx = self.word_indices(word)
        if idx is None:
            return 0
        step = self._step
        for a in idx:
            row = step[a]
            out = 0
            while mask:
                v = (mask & -mask).bit_length() - 1
                out |= row[v]
                mask &= mask - 1
            mask = out
            if not mask:
                break
        return mask


# -- labeled path space ----------------------------------------------------


def labeled_paths(lg: LabeledGraph, n: int) -> tuple[Word, ...]:
    """All length-``n`` words realized by at least one path, sorted."""
    if n < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "labeled paths have length >= 1")
    words = {lg.label_word(p) for p in paths_of_length(lg.graph, n)}
    return tuple(sorted(words))


def representatives(lg: LabeledGraph, word: Word) -> tuple[Path, ...]:
    """All paths carrying ``word``, in lexicographic edge-id order.  Empty
    exactly when the word is not a labeled path of the graph."""
    if len(word) < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "words have length >= 1")
    g = lg.graph
    partial: list[tuple[str, ...]] = []
    for e in g.edges:
        if lg.labeling[e.eid] == word[0]:
            partial.append((e.eid,))
    for a in word[1:]:
        nxt = []
        for ids in partial:
            tail = g.edge(ids[-1]).dst
            for e in g.out_edges(tail):
                if lg.labeling[e.eid] == a:
                    nxt.append(ids + (e.eid,))
        partial = nxt
        if not partial:
            break
    return tuple(Path(ids) for ids in sorted(partial))


def relative_range(lg: LabeledGraph, vertices: Iterable[str], word: Word) -> frozenset[str]:
    """Endpoints of ``word``-labeled paths starting in ``vertices``,
    computed one letter at a time."""
    if len(word) < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "words have length >= 1")
    return lg.set_of(lg.range_mask(lg.mask_of(vertices), word))


def range_and_source(lg: LabeledGraph, word: Word) -> tuple[frozenset[str], frozenset[str]]:
    """(range, source) of a labeled path; fails if the word has no
    representative."""
    reps = representatives(lg, word)
    if not reps:
        raise NotALabeledPath(f"word {''.join(word)!r} has no representative")
    g = lg.graph
    return (frozenset(g.path_dst(p) for p in reps),
            frozenset(g.path_src(p) for p in reps))


def label_set(lg: LabeledGraph, vertices: Iterable[str], n: int) -> tuple[Word, ...]:
    """Words of length ``n`` whose source set meets ``vertices``."""
    if n < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "labeled paths have length >= 1")
    wanted = frozenset(vertices)
    for v in wanted:
        if not lg.graph.has_vertex(v):
            raise PreconditionError("UNKNOWN_VERTEX", v)
    out = set()
    for p in paths_of_length(lg.graph, n):
        if lg.graph.path_src(p) in wanted:
            out.add(lg.label_word(p))
    return tuple(sorted(out))


# -- resolving properties ----------------------------------------------------


def is_left_resolving(lg: LabeledGraph) -> Check:
    """No vertex may receive two distinct edges carrying the same label."""
    for v in lg.vertices:
        seen: dict[str, str] = {}
        for e in lg.graph.in_edges(v):
            a = lg.labeling[e.eid]
            if a in seen:
                return Check(False, (v, seen[a], e.eid))
            seen[a] = e.eid
    return Check(True)


def is_weakly_left_resolving(lg: LabeledGraph) -> Check:
    """Fast check: single-letter ranges of distinct single vertices are
    disjoint.  Equivalent to the all-subsets, all-words condition by
    induction on words; the equivalence is enforced against the
    definitional oracle in the test suite."""
    step = lg._step
    nv = len(lg.vertices)
    for ai, a in enumerate(lg.alphabet):
        row = step[ai]
        for i in range(nv):
            if not row[i]:
                continue
            for j in range(i + 1, nv):
                if row[i] & row[j]:
                    return Check(False, (a, lg.vertices[i], lg.vertices[j]))
    return Check(True)


#: Largest vertex count :func:`weakly_left_resolving_bruteforce` accepts.
#: Its subset-pair scan grows about fourfold per vertex: with two letters and
#: out-degree 2 it takes about 1.4 s at 10 vertices and 5.7 s at 11.
BRUTEFORCE_MAX_VERTICES = 10


def weakly_left_resolving_bruteforce(lg: LabeledGraph, max_word_len: int = 4) -> Check:
    """Definitional oracle: enumerate actual paths to build range tables,
    then test ``r(A & B, w) == r(A, w) & r(B, w)`` over every subset pair
    and every realized word up to ``max_word_len``.  Graphs with more than
    :data:`BRUTEFORCE_MAX_VERTICES` vertices raise
    :class:`SearchSpaceExceeded` before any table is built."""
    nv = len(lg.vertices)
    if nv > BRUTEFORCE_MAX_VERTICES:
        raise SearchSpaceExceeded(
            f"brute-force oracle takes at most {BRUTEFORCE_MAX_VERTICES} "
            f"vertices, got {nv}")
    vi, _, li = lg.core.positions
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for e in lg.graph.edges:
        out_adj[vi[e.src]].append((li[lg.labeling[e.eid]], vi[e.dst]))
    # tables[word][v] = endpoints of word-labeled paths starting at v, built
    # path by path and never through range_mask.
    tables: dict[tuple[int, ...], list[int]] = {}
    for v0 in range(nv):
        stack: list[tuple[int, tuple[int, ...]]] = [(v0, ())]
        while stack:
            v, word = stack.pop()
            if len(word) == max_word_len:
                continue
            for a, w in out_adj[v]:
                nw = word + (a,)
                row = tables.get(nw)
                if row is None:
                    row = tables[nw] = [0] * nv
                row[v0] |= 1 << w
                stack.append((w, nw))
    size = 1 << nv
    for word in sorted(tables):
        row = tables[word]
        # ranges of every subset, by dynamic programming over low bits
        ranges = [0] * size
        for m in range(1, size):
            low = m & -m
            ranges[m] = ranges[m ^ low] | row[low.bit_length() - 1]
        for mask_a in range(1, size):
            range_a = ranges[mask_a]
            for mask_b in range(mask_a + 1, size):
                if ranges[mask_a & mask_b] != range_a & ranges[mask_b]:
                    letters = tuple(lg.alphabet[i] for i in word)
                    return Check(False, (letters, lg.set_of(mask_a),
                                         lg.set_of(mask_b)))
    return Check(True)
