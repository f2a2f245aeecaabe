"""Labeled graphs: labelings, labeled path spaces, relative ranges and the
resolving properties.

Vertex sets are integer bitmasks over the frozen vertex ordering: bit ``i``
stands for ``vertices[i]``.  Python integers have no fixed width, so a mask
covers any number of vertices.  Relative ranges sweep per-letter successor
masks one letter at a time (:meth:`LabeledGraph.range_mask`).
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import NotALabeledPath, PreconditionError
from .graph import DirectedGraph, Path, paths_of_length

Word = tuple[str, ...]


class Check(NamedTuple):
    """Boolean verdict with an optional witness for the failing case."""

    ok: bool
    witness: Any = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


class RangeTable(NamedTuple):
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


class GraphCore(NamedTuple):
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
    at construction and recorded in ``dropped_letters``.  The constructor
    checks the labeling and fills the graph through :meth:`_fill`, as
    :meth:`_of_sorted` does for labelings built already in edge order.
    """

    __slots__ = ("graph", "alphabet", "labeling", "dropped_letters",
                 "__dict__")

    def __init__(self, graph: DirectedGraph, labeling: Mapping[str, str],
                 alphabet: Iterable[str] | None = None):
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
        self._fill(graph, {e.eid: labeling[e.eid] for e in graph.edges},
                   tuple(sorted(image)), dropped)

    @classmethod
    def _of_sorted(cls, graph: DirectedGraph, labeling: dict[str, str],
                   alphabet: tuple[str, ...]) -> LabeledGraph:
        """The labeled graph with ``labeling`` keyed by the edge ids of
        ``graph`` in edge order and ``alphabet`` its sorted image.  Nothing
        is checked: the caller built them so."""
        lg = cls.__new__(cls)
        lg._fill(graph, labeling, alphabet, ())
        return lg

    def _fill(self, graph: DirectedGraph, labeling: dict[str, str],
              alphabet: tuple[str, ...], dropped: tuple[str, ...]):
        self.graph = graph
        self.labeling = labeling
        self.alphabet = alphabet
        self.dropped_letters = dropped

    # -- basic accessors -------------------------------------------------

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
        # Tuples are built from lists: a short tuple built from an iterator
        # is not taken from CPython's tuple free lists but joins them when
        # it dies, so those lists would grow with every graph built.
        edges = self.graph.edges
        eids, srcs, dsts = zip(*edges) if edges else ((), (), ())
        carriers = (self.vertices, eids, self.alphabet)
        vpos, epos, apos = (dict(zip(items, range(len(items))))
                            for items in carriers)
        labels = map(self.labeling.__getitem__, eids)
        return GraphCore(carriers, (vpos, epos, apos),
                         tuple(list(map(vpos.__getitem__, srcs))),
                         tuple(list(map(vpos.__getitem__, dsts))),
                         tuple(list(map(apos.__getitem__, labels))))

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
        since r(wa) = r(r(w), a): a node steps to each letter's value by
        OR-ing its vertices' rows of :attr:`_step`.  Each level extends the
        previous one's words in order and letters come in alphabet order,
        so the first word that reaches a value is its shortest, and the
        least of those.
        """
        letters = list(zip(self.alphabet, self._step))
        words: dict[int, Word] = {}
        level: list[tuple[int, Word]] = [(self.full_mask(), ())]
        while level:
            nxt = []
            for mask, word in level:
                inside = _bits(mask)
                for a, row in letters:
                    value = 0
                    for v in inside:
                        value |= row[v]
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
        """The vertices of one mask, walked bit by bit.  Masks outside
        [0, :meth:`full_mask`] raise ``MASK_OUT_OF_RANGE``.  For many masks
        use :meth:`names_of`, whose independent oracle this is."""
        self._require_masks((mask,))
        vs = self.vertices
        out = set()
        while mask:
            i = (mask & -mask).bit_length() - 1
            out.add(vs[i])
            mask &= mask - 1
        return frozenset(out)

    def names_of(self, masks: Sequence[int], *,
                 frozen: bool = False) -> list:
        """Each mask's vertices, in vertex order as a tuple of names, or as
        a frozenset with ``frozen``.  The vertices are stored sorted, so
        vertex order is name order.

        The vertices are cut into chunks of :data:`CHUNK_BITS`; each
        chunk's table of the names of its 2^w subsets is built per call
        (:func:`chunk_tables`), and a mask's entries are joined.  Masks
        outside [0, :meth:`full_mask`] raise ``MASK_OUT_OF_RANGE``."""
        self._require_masks(masks)
        join = operator.or_ if frozen else operator.add
        unit = frozenset if frozen else tuple
        return fold_chunks(masks, chunk_tables(
            [unit((v,)) for v in self.vertices], unit(), join), join)

    def _require_masks(self, masks: Sequence[int]) -> None:
        full = self.full_mask()
        if masks and not 0 <= min(masks) <= max(masks) <= full:
            bad = next(m for m in masks if not 0 <= m <= full)
            raise PreconditionError(
                "MASK_OUT_OF_RANGE",
                f"mask {bad} is outside [0, {full}] for "
                f"{len(self.vertices)} vertices")

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


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


#: Width of the chunks :func:`chunk_tables` cuts a vertex order into.
CHUNK_BITS = 8
_CHUNK_LOW = (1 << CHUNK_BITS) - 1


def chunk_tables(values: Sequence[Any], empty: Any, join) -> list[list]:
    """Per chunk of :data:`CHUNK_BITS` consecutive ``values``, the table
    of the joins of its 2^w subsets: entry k of the table of the chunk
    starting at value i is ``empty`` joined with value i + j for each bit
    j of k, in increasing j.  No values give the one table [empty]."""
    tables = []
    for lo in range(0, len(values) or 1, CHUNK_BITS):
        table = [empty]
        for x in values[lo:lo + CHUNK_BITS]:
            table += [join(t, x) for t in table]
        tables.append(table)
    return tables


def fold_chunks(masks: Sequence[int], tables: list[list], join) -> list:
    """For each mask, its entries in the :func:`chunk_tables` ``tables``,
    joined in chunk order; one list pass per chunk.  Masks must lie in
    [0, 2^n) for n the number of values the tables were built from."""
    first, *rest = tables
    out = [first[m & _CHUNK_LOW] for m in masks]
    for shift, table in enumerate(rest, 1):
        shift *= CHUNK_BITS
        out = list(map(join, out,
                       [table[m >> shift & _CHUNK_LOW] for m in masks]))
    return out


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
    labeling = lg.labeling
    partial: list[tuple[str, ...]] = [(eid,) for eid, _, _ in g.edges
                                      if labeling[eid] == word[0]]
    for a in word[1:]:
        nxt = []
        for ids in partial:
            _, _, tail = g.edge(ids[-1])
            for eid, _, _ in g.out_edges(tail):
                if labeling[eid] == a:
                    nxt.append(ids + (eid,))
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
    """No vertex may receive two distinct edges carrying the same label.

    The graph is left-resolving iff the (target, label) pairs of its
    integer core are distinct, which one set over them decides.  Only a
    graph that fails is walked in edge order to name its witness
    (v, e, f): v is the least vertex, in vertex order, that receives two
    edges with one label; f is the first in-edge of v, in edge-id order,
    whose label an earlier in-edge carries, and e is the first in-edge of
    v with that label."""
    core = lg.core
    if len(set(zip(core.dst, core.lab))) == len(core.dst):
        return Check(True)
    first: dict[tuple[int, int], int] = {}
    clashes: dict[int, tuple[int, int]] = {}
    for i, pair in enumerate(zip(core.dst, core.lab)):
        j = first.setdefault(pair, i)
        if j != i and pair[0] not in clashes:
            clashes[pair[0]] = j, i
    v = min(clashes)
    j, i = clashes[v]
    eids = core.carriers[1]
    return Check(False, (lg.vertices[v], eids[j], eids[i]))


def is_weakly_left_resolving(lg: LabeledGraph) -> Check:
    """Single-letter ranges of distinct single vertices are disjoint: no
    vertex receives one letter from two sources.  Equivalent to the
    all-subsets, all-words condition by induction on words; the
    equivalence is enforced against the definitional oracle in the test
    suite.

    The graph passes iff the (target, label) pairs of its integer core
    are as many as its (target, label, source) triples, which two sets
    over them decide.  Only a graph that fails groups its sources by
    (label, target) to name its witness (a, u, v): over the groups of two
    or more sources, the least (a, u, v) with u and v the group's two
    least sources, in alphabet and vertex order."""
    core = lg.core
    triples = set(zip(core.dst, core.lab, core.src))
    if len(set(zip(core.dst, core.lab))) == len(triples):
        return Check(True)
    sources: dict[tuple[int, int], list[int]] = {}
    for w, a, v in triples:
        sources.setdefault((a, w), []).append(v)
    a, u, v = min((a, *sorted(vs)[:2])
                  for (a, _), vs in sources.items() if len(vs) > 1)
    return Check(False, (lg.alphabet[a], lg.vertices[u], lg.vertices[v]))
