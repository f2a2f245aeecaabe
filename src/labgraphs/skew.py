"""Skew product labeled graphs, their left translation action, path and
labeled-path identifications, and the relabeling isomorphism between two
label-consistent twists."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import eq, itemgetter
from typing import Mapping, NamedTuple, Sequence

from .action import (EDGE, KINDS, LETTER, FiniteAction, LabeledGraphAction,
                     QuotientLabeledGraph, is_label_consistent, quotient)
from .errors import (FrozenRecord, OutOfWindow, PreconditionError,
                     SearchSpaceExceeded, VerificationError)
from .graph import DirectedGraph, Edge, Path, require_valid
from .groups import Element, Group, Window, count_elements
from .labeled import Check, GraphCore, LabeledGraph, Word, is_left_resolving
from .morphism import LabeledGraphMorphism, identity_maps, verify_morphism


def one_cocycle(base: LabeledGraph, group: Group) -> dict[str, Element]:
    """The constant-identity cocycle; always label consistent."""
    return {e.eid: group.identity for e in base.graph.edges}


class SkewSpec(FrozenRecord):
    """Base labeled graph with a pair of edge cocycles into a group.

    The spec is the authoritative object for infinite skew products;
    materializations over windows are views of it.
    """

    _fields = ("base", "group", "c", "d")
    base: LabeledGraph
    group: Group
    c: Mapping[str, Element]
    d: Mapping[str, Element]

    def __init__(self, base: LabeledGraph, group: Group,
                 c: Mapping[str, Element], d: Mapping[str, Element]):
        for name, cocycle in (("c", c), ("d", d)):
            for e in base.graph.edges:
                if e.eid not in cocycle:
                    raise PreconditionError(
                        "PARTIAL_COCYCLE", f"{name} misses edge {e.eid}")
                if not group.contains(cocycle[e.eid]):
                    raise PreconditionError(
                        "BAD_ELEMENT", f"{name}({e.eid}) is not a group element")
        for name, value in zip(self._fields, (base, group, c, d)):
            object.__setattr__(self, name, value)

    @cached_property
    def c_factoring(self):
        return is_label_consistent(self.base, self.c)

    @cached_property
    def d_factoring(self):
        return is_label_consistent(self.base, self.d)

    def d_is_identity(self) -> bool:
        ident = self.group.identity
        return all(v == ident for v in self.d.values())


class SkewForm(NamedTuple):
    """The integer form of a skew product (:attr:`SkewLabeledGraph.form`):
    the (base item, layer) of each vertex, edge and letter, and per edge
    the positions of its source, target and label among them, as a
    :class:`~labgraphs.labeled.GraphCore` gives them for a named graph.
    The items run in the order of the form: the first ``window``
    vertices are the window's, base vertex by base vertex, and the halo
    vertices follow; the edges run base edge by base edge, each over the
    layers of its source; the halo vertices and the letters come in
    (base edge, layer) order of first appearance.  Each (base item,
    layer) is listed once per kind, so the translation on the form is
    placed by construction."""

    coordinates: tuple[list[tuple[str, Element]], ...]
    window: int
    src: list[int]
    dst: list[int]
    lab: list[int]


class SkewLabeledGraph:
    """A materialized skew product.

    Vertices are pairs (base vertex, layer); each vertex keeps its full
    out-edge fiber, so edges whose endpoint falls outside the layer
    assignment are retained with a boundary flag and their endpoint is
    added as a flagged halo vertex rather than dropped.

    The constructor builds only the integer form (:class:`SkewForm`), in
    one pass over the base's integer core times the layers of each
    edge's source.  Edge (e, g) goes from (s(e), g) to (r(e), g c(e)) and
    carries the letter (L(e), g d(e)): two group operations per edge.  A
    vertex whose layers repeat one raises ``DUPLICATE_LAYER``.  The skew
    product is left-resolving when the (target, label) positions of its
    edges are distinct; when they are not and the base is left-resolving,
    it raises :class:`VerificationError`.

    Every other view is built from the form the first time it is read,
    and all but ``graph`` keep the form's order.  The positional views
    are :meth:`coordinates`, the form's own lists, and :meth:`located`,
    the form position at each (base item, layer): the constructor's own
    maps for vertices and letters, and one built on first read for
    edges.  The translation action (:class:`TranslationAction`) is built
    on the form and these two views.  The named views are
    ``item_names``, ``window_vertices`` and ``core``, the
    :class:`~labgraphs.labeled.GraphCore` of the skew product in form
    order (its carriers are the names, its ``src``, ``dst`` and ``lab``
    the form's).  Every item is named ``(base id,layer)``, with one
    ``element_str`` call per distinct layer and one string per item,
    which the edges that share a target or a letter share.  No element
    string holds a comma, so a name splits at its last comma into
    exactly one pair, and two pairs never share a name; so
    :meth:`name_at` names one item and :meth:`position` finds one,
    without the others.  Only ``graph``, the labeled graph by name,
    sorts the names, as every labeled graph keeps its items in name
    order; the commands that print items read it, and so does
    ``left_resolving`` (whose witness names edges).
    :func:`~labgraphs.gross_tucker.reconstruct` checks the translation
    it is given and its own skew product on the form alone, so it names
    neither, but for the sections and the image of each cocycle value
    that ``apply`` confirms, unless a check fails.

    The window verdicts (``halo_vertices``, ``boundary_edges``,
    ``interior_vertices`` and ``interior_valid``) are computed from the
    form and the base's core the first time they are read, since
    only the ``properties``, ``skew`` and ``export-dot`` reports read
    them.  They are read from counts, not scans: a window vertex (x, g)
    is interior when the edges entering it are as many as the base edges
    entering x; it is valid, by :func:`~labgraphs.graph.validate`'s
    definition, when that count and the out-degree of x in the base are
    both nonzero, since (x, g) emits one edge per base edge leaving x.
    """

    def __init__(self, spec: SkewSpec, layers: Mapping[str, tuple[Element, ...]],
                 window: Window | None):
        self.spec = spec
        self.window = window
        self.layers = {v: tuple(ls) for v, ls in layers.items()}
        group, base = spec.group, spec.base
        core = base.core
        vertices, eids, letters = core.carriers
        fibers = [self.layers.get(x, ()) for x in vertices]
        for x, ls in zip(vertices, fibers):
            if len(set(ls)) < len(ls):
                raise PreconditionError(
                    "DUPLICATE_LAYER", f"vertex {x} lists a layer twice")

        # Lists with one entry per edge (e, g), edge-major: ``layer`` holds
        # g, ``ends`` (r(e), g c(e)) and ``labels`` (L(e), g d(e));
        # ``spread`` repeats a value of each base edge once per layer of
        # the edge's source.
        counts = [len(fibers[s]) for s in core.src]

        def spread(values):
            return list(chain.from_iterable(map(repeat, values, counts)))

        layer = list(chain.from_iterable(map(fibers.__getitem__, core.src)))
        c = spread([spec.c[e] for e in eids])
        d = spread([spec.d[e] for e in eids])
        ends = list(zip(spread([vertices[t] for t in core.dst]),
                        map(group.op, layer, c)))
        labels = list(zip(spread([letters[a] for a in core.lab]),
                          map(group.op, layer, d)))

        vertex_pairs = [(x, g) for x, ls in zip(vertices, fibers) for g in ls]
        window_size = len(vertex_pairs)
        # one int object per window position, shared by ``src`` and ``dst``
        positions = list(range(window_size))
        vertex_at = dict(zip(vertex_pairs, positions))
        vertex_pairs += [p for p in dict.fromkeys(ends) if p not in vertex_at]
        vertex_at.update(zip(vertex_pairs[window_size:], count(window_size)))
        letter_pairs = list(dict.fromkeys(labels))
        letter_at = dict(zip(letter_pairs, count()))
        starts = list(accumulate(map(len, fibers), initial=0))
        self.form = form = SkewForm(
            (vertex_pairs, list(zip(spread(eids), layer)), letter_pairs),
            window_size,
            list(chain.from_iterable(
                positions[starts[s]:starts[s + 1]] for s in core.src)),
            list(map(vertex_at.__getitem__, ends)),
            list(map(letter_at.__getitem__, labels)))
        # the edges' map is built on first read (:meth:`located`)
        self._located = [vertex_at, None, letter_at]
        # each layer's text and each item's name, once formatted
        self._texts: dict[Element, str] = {}
        self._found: tuple[dict[str, int], ...] = ({}, {}, {})

        if (len(set(zip(form.dst, form.lab))) < len(form.dst)
                and is_left_resolving(base)):
            raise VerificationError(
                "left-resolving must be inherited by the skew product",
                self.left_resolving.witness)

    #: A skew product that does not inherit a left-resolving base's
    #: left-resolving is refused at construction.
    left_resolving_inherited = Check(True)

    @cached_property
    def item_names(self) -> tuple[tuple[str, ...], ...]:
        """The name of each vertex, edge and letter of the form, in its
        order."""
        layers = set(map(itemgetter(1), chain.from_iterable(
            self.form.coordinates)))
        text = self._texts
        for g in layers - text.keys():
            text[g] = self.spec.group.element_str(g)
        return tuple(tuple([f"({q},{text[g]})" for q, g in pairs])
                     for pairs in self.form.coordinates)

    @cached_property
    def core(self) -> GraphCore:
        """The integer core of the skew product in form order: the
        carriers are :attr:`item_names`, the positions index them, and
        ``src``, ``dst`` and ``lab`` are the form's own lists."""
        names, form = self.item_names, self.form
        return GraphCore(names, tuple(dict(zip(items, range(len(items))))
                                      for items in names),
                         form.src, form.dst, form.lab)

    @cached_property
    def graph(self) -> LabeledGraph:
        """The skew product by name, its items in name order, from one
        sort of each kind's names."""
        vnames, enames, lnames = self.item_names
        form = self.form
        order = sorted(range(len(enames)), key=enames.__getitem__)
        ids = tuple(map(enames.__getitem__, order))
        srcs = map(vnames.__getitem__, map(form.src.__getitem__, order))
        dsts = map(vnames.__getitem__, map(form.dst.__getitem__, order))
        labels = map(lnames.__getitem__, map(form.lab.__getitem__, order))
        return LabeledGraph._of_sorted(
            DirectedGraph._of_sorted(tuple(sorted(vnames)),
                                     Edge._many(ids, srcs, dsts)),
            dict(zip(ids, labels)), tuple(sorted(lnames)))

    def coordinates(self, kind: str) -> list[tuple[str, Element]]:
        """The (base item, layer) of each item of ``kind``, in form order:
        the form's own list.  Callers must not mutate it."""
        return self.form.coordinates[KINDS.index(kind)]

    def located(self, kind: str) -> dict[tuple[str, Element], int]:
        """The form position of the item of ``kind`` at each (base item,
        layer), the inverse of :meth:`coordinates`.  Callers must not
        mutate it."""
        k = KINDS.index(kind)
        found = self._located[k]
        if found is None:
            pairs = self.form.coordinates[k]
            found = self._located[k] = dict(zip(pairs, range(len(pairs))))
        return found

    def name_at(self, k: int, j: int) -> str:
        """The name of the item at position ``j`` of the ``k``-th kind,
        from :attr:`item_names` once they are built, else formatted
        alone."""
        names = self.__dict__.get("item_names")
        if names is not None:
            return names[k][j]
        q, g = self.form.coordinates[k][j]
        text = self._texts.get(g)
        if text is None:
            text = self._texts[g] = self.spec.group.element_str(g)
        name = f"({q},{text})"
        self._found[k][name] = j
        return name

    def position(self, k: int, name: str) -> int:
        """The position of the item of the ``k``-th kind named ``name``;
        KeyError when there is none.  Once :attr:`item_names` are built
        they decide; otherwise the name is read back into coordinates,
        once: split at its last comma, its layer parsed
        (:meth:`~labgraphs.groups.Group.parse_element`), and the item
        :meth:`located` lists there is the one only if its name, formatted
        again (:meth:`name_at`), is ``name``."""
        if "item_names" in self.__dict__:
            return self.core.positions[k][name]
        j = self._found[k].get(name)
        if j is None:
            j = self._read(k, name)
            if j is None:
                raise KeyError(name)
        return j

    def _read(self, k: int, name) -> int | None:
        if not (isinstance(name, str) and name[:1] == "("
                and name[-1:] == ")" and "," in name):
            return None
        i = name.rfind(",")
        q, text = name[1:i], name[i + 1:-1]
        try:
            g = self.spec.group.parse_element(text)
        except ValueError:
            return None
        j = self.located(KINDS[k]).get((q, g))
        if j is None or self.name_at(k, j) != name:
            return None
        return j

    @cached_property
    def window_vertices(self) -> frozenset[str]:
        return frozenset(self.item_names[0][:self.form.window])

    @cached_property
    def left_resolving(self) -> Check:
        """:func:`~labgraphs.labeled.is_left_resolving` of the graph."""
        return is_left_resolving(self.graph)

    @cached_property
    def halo_vertices(self) -> frozenset[str]:
        """The vertices outside the layer assignment, each the target of
        a boundary edge."""
        return frozenset(self.item_names[0][self.form.window:])

    @cached_property
    def boundary_edges(self) -> frozenset[str]:
        """The edges whose target is a halo vertex."""
        form = self.form
        return frozenset(compress(self.item_names[1],
                                  map(form.window.__le__, form.dst)))

    @cached_property
    def interior_vertices(self) -> frozenset[str]:
        """The window vertices (x, g) that as many built edges enter as
        base edges enter x."""
        return frozenset(map(self.item_names[0].__getitem__, self._interior))

    @cached_property
    def _interior(self) -> list[int]:
        """The form positions of :attr:`interior_vertices`."""
        form, base = self.form, self.spec.base.core
        entering, in_degree = Counter(form.dst), Counter(base.dst)
        at = base.positions[0]
        return [i for i, (x, _) in enumerate(form.coordinates[0][:form.window])
                if entering[i] == in_degree[at[x]]]

    @cached_property
    def interior_valid(self) -> bool:
        """Whether every interior vertex is valid: its base vertex has
        nonzero in- and out-degree."""
        base, pairs = self.spec.base.core, self.form.coordinates[0]
        in_degree, out_degree = Counter(base.dst), Counter(base.src)
        at = base.positions[0]
        return all(in_degree[p] and out_degree[p] for p in {
            at[pairs[i][0]] for i in self._interior})

    def __repr__(self) -> str:
        w = str(self.window) if self.window else "all"
        return (f"SkewLabeledGraph({len(self.form.coordinates[0])} vertices, "
                f"window {w})")


#: Most vertices, edges and letters a materialization may hold.
#: :func:`skew_product` bounds the count from the base and the layer counts
#: before it builds anything, and raises :class:`SearchSpaceExceeded` above
#: the cap.  Just under it, ``quotient fixtures/skewz.json --window
#: 0:23830`` (bound 262,141, with 166,819 items built) peaks at
#: 60.1-60.3 MB and takes 0.24-0.36 s in-process through ``cli.main``:
#: building the form takes 0.14-0.17 s, the placement and the
#: translation certificate 0.05-0.09 s, and the quotient 0.03-0.04 s;
#: no item is named, and the skew product is never sorted by name
#: (shared 2-core x86 container, Python 3.11).
MAX_ITEMS = 1 << 18


def skew_product(spec: SkewSpec, window: Window | None = None,
                 layers: Mapping[str, tuple[Element, ...]] | None = None
                 ) -> SkewLabeledGraph:
    """Materialize the skew product: vertices (v, g), edges (e, g) from
    (s(e), g) to (r(e), g c(e)) labeled (L(e), g d(e)).

    Finite groups materialize fully; the integers need an explicit window
    (or a per-vertex layer assignment for pullback domains).  A
    materialization bounded to more than :data:`MAX_ITEMS` items raises
    :class:`SearchSpaceExceeded`.
    """
    require_valid(spec.base.graph, "skew base")
    if layers is None:
        if spec.group.is_finite:
            elements = spec.group.elements()
        elif window is None:
            raise PreconditionError(
                "WINDOW_REQUIRED",
                "integer skew products need an explicit window")
        else:
            elements = window.elements()
        counts = dict.fromkeys(spec.base.vertices, count_elements(elements))
    else:
        counts = {v: len(ls) for v, ls in layers.items()}
    bound = item_bound(spec.base, counts)
    if bound > MAX_ITEMS:
        raise SearchSpaceExceeded(
            f"the skew product may hold up to {bound} vertices, edges and "
            f"letters, over the cap MAX_ITEMS = {MAX_ITEMS}")
    if layers is None:
        layers = {v: tuple(elements) for v in spec.base.vertices}
    return SkewLabeledGraph(spec, layers, window)


def item_bound(base: LabeledGraph, counts: Mapping[str, int]) -> int:
    """An upper bound on the vertices, edges and letters of a
    materialization with ``counts[v]`` layers over base vertex v: each
    layer of a source gives one edge, and each edge adds at most one halo
    vertex and one letter."""
    edges = sum(counts.get(e.src, 0) for e in base.graph.edges)
    return sum(counts.values()) + 3 * edges


# -- left translation ----------------------------------------------------------


class TranslationAction(LabeledGraphAction):
    """Left translation g . (x, h) = (x, gh) on a materialized skew
    product; partial on windows.

    The action is built on the skew product's integer form
    (:attr:`SkewLabeledGraph.form`), and its positions are form
    positions, which :meth:`coordinates` and :meth:`located` (the skew's
    positional views) share.  An item is its (base item, layer), as in
    Gross--Tucker's derived graph on V x G, so the checks name none.
    Its ``core``, the items by name in form order, and its ``graph``,
    the skew product by name in name order, are built when something
    reads them: the commands that print items, the failure witnesses and
    the string oracles do.  :meth:`position` and :meth:`name_at` convert
    one item at a time.

    Translation moves the item at (q, t), over the base item q at layer
    t, to the item at (q, g t), and never across fibers, so every image
    is one :meth:`located` lookup: that one formula builds the block of
    any list of elements (:meth:`blocks`), on finite groups and integer
    windows alike."""

    def __init__(self, skew: SkewLabeledGraph):
        super().__init__(skew.spec.group, skew.form)
        self.skew = skew

    @property
    def core(self) -> GraphCore:
        return self.skew.core

    @property
    def graph(self) -> LabeledGraph:
        return self.skew.graph

    def position(self, kind: str, item: str) -> int:
        return self.skew.position(KINDS.index(kind), item)

    def name_at(self, kind: str, x: int) -> str:
        return self.skew.name_at(KINDS.index(kind), x)

    def sizes(self) -> list[int]:
        return list(map(len, self.skew.form.coordinates))

    def blocks(self, scope: Sequence[Element]) -> list[list[int]]:
        """The item-major block of each kind, in ``KINDS`` order, over the
        elements ``scope``: the image of item x under ``scope[p]`` sits at
        ``[x n + p]``, n = len(scope), as its position in the carrier or
        -1, and n slots of -1 close the block.  The layers g t over the g
        of ``scope`` are computed once per distinct layer t, and then
        each slot is one :meth:`located` lookup at (q, g t), so a halo
        10**12 layers from the window costs its own slots, never the
        distance."""
        op, n = self.group.op, len(scope)
        moved: dict[Element, list[Element]] = {}
        out = []
        for kind in KINDS:
            get = self.located(kind).get
            block: list[int] = []
            for q, t in self.coordinates(kind):
                layers = moved.get(t)
                if layers is None:
                    layers = moved[t] = [op(g, t) for g in scope]
                block += map(get, zip(repeat(q, n), layers), repeat(-1, n))
            out.append(block + [-1] * n)
        return out

    @cached_property
    def _columns(self) -> list[list[int]]:
        """:meth:`blocks` over :meth:`scope_elements`.  A kind's block
        holds (items + 1) n ints, about 4 / (3 n) of the action's (g, h,
        item) triples on an integer window, so the cap that
        :meth:`scope_elements` applies bounds the block too."""
        return self.blocks(self.scope_elements())

    def coordinates(self, kind: str) -> list[tuple[str, Element]]:
        return self.skew.coordinates(kind)

    def located(self, kind: str) -> dict[tuple[str, Element], int]:
        return self.skew.located(kind)

    @cached_property
    def _placed(self) -> tuple[bool, ...]:
        """Per kind, whether :meth:`located` is the exact inverse of
        :meth:`coordinates`, checked in positions: the block is the
        lookup of :meth:`located`, so this is the whole placement."""
        placed = []
        for kind in KINDS:
            coords, located = self.coordinates(kind), self.located(kind)
            placed.append(len(located) == len(coords) and all(
                map(eq, map(located.get, coords), range(len(coords)))))
        return tuple(placed)

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        skew, k = self.skew, KINDS.index(kind)
        q, h = skew.form.coordinates[k][skew.position(k, item)]
        j = skew.located(kind).get((q, self.group.op(g, h)))
        return None if j is None else skew.name_at(k, j)

    def interval_span(self) -> int | None:
        """The numeric width of all layers, max - min over every fiber;
        None for finite groups, whose scope is the whole group.  Fibers
        whose layers lie far apart give a scope of that width, which
        :meth:`scope_elements` refuses to list above ``MAX_TRIPLES``; the
        certificates never list it.  The layers of a skew product never
        change, so it is computed once."""
        return self._span

    @cached_property
    def _span(self) -> int | None:
        if self.group.is_finite:
            return None
        layers = [g for ls in self.skew.layers.values() for g in ls]
        return max(layers) - min(layers) if layers else 0

    def lifting_size(self) -> int:
        """The number of window vertices, which come first in the form."""
        return self.skew.form.window

    def base_isomorphism(self, quot: QuotientLabeledGraph
                         ) -> LabeledGraphMorphism:
        """The canonical isomorphism from the quotient onto the base, which
        names each orbit by its base item.  It is verified, never assumed:
        a quotient that is not the base raises :class:`VerificationError`."""
        iso = LabeledGraphMorphism(quot.quotient, self.skew.spec.base,
                                   *identity_maps(quot.quotient))
        report = verify_morphism(iso)
        if not report.isomorphism:
            raise VerificationError(
                "quotient of the translation action must equal the base",
                (report.witness, report.note))
        return iso

    def as_finite_action(self):
        """Materialize explicit per-element triples (finite groups only)."""
        if not self.group.is_finite:
            raise PreconditionError("INFINITE_GROUP",
                                    "only finite translations materialize")
        maps = {}
        for g in self.group.elements():
            maps[g] = tuple(
                {item: self.apply(g, kind, item) for item in self.carrier(kind)}
                for kind in KINDS)
        return FiniteAction(self.group, self.graph, maps)


def left_translation(skew: SkewLabeledGraph) -> TranslationAction:
    return TranslationAction(skew)


def translation_quotient(skew: SkewLabeledGraph
                         ) -> tuple[QuotientLabeledGraph, LabeledGraphMorphism]:
    """Quotient of the translation action together with the canonical
    isomorphism onto the base labeled graph (the skew/quotient round
    trip).  The isomorphism is verified, never assumed."""
    action = left_translation(skew)
    quot = quotient(action)
    return quot, action.base_isomorphism(quot)


# -- path identification ---------------------------------------------------------


def lift_path(skew: SkewLabeledGraph, path: Path, g: Element) -> Path:
    """The lift of a base path starting at layer ``g``: layer advances by
    the cocycle along the path.  Escaping the materialization raises."""
    spec, located = skew.spec, skew.located(EDGE)
    edges = skew.item_names[1]
    ids = []
    layer = g
    for eid in path.edges:
        j = located.get((eid, layer))
        if j is None:
            raise OutOfWindow(f"edge {eid} at layer "
                              f"{spec.group.element_str(layer)} is not materialized")
        ids.append(edges[j])
        layer = spec.group.op(layer, spec.c[eid])
    return skew.graph.graph.make_path(ids)


def project_path(skew: SkewLabeledGraph, path: Path) -> tuple[Path, Element]:
    """Inverse of :func:`lift_path`: strips layers, returns the base path
    and the starting layer."""
    coords, index = skew.coordinates(EDGE), skew.core.positions[1]
    pairs = [coords[index[eid]] for eid in path.edges]
    return skew.spec.base.graph.make_path([b for b, _ in pairs]), pairs[0][1]


def _require_identification_preconditions(spec: SkewSpec) -> None:
    if spec.c_factoring.factoring is None:
        raise PreconditionError(
            "NOT_LABEL_CONSISTENT",
            f"cocycle c does not factor through the labeling "
            f"(witness edges {spec.c_factoring.witness})")
    if not spec.d_is_identity():
        raise PreconditionError(
            "NOT_IDENTITY_COCYCLE",
            "the labeled-path identification requires d == identity")


def identify_labeled_path(spec: SkewSpec, word: Word,
                          g: Element) -> tuple[tuple[str, Element], ...]:
    """The skew labeled path identified with (word, g): letter i carries
    layer g C(word[:i]).  Requires label-consistent c and d == identity."""
    _require_identification_preconditions(spec)
    if len(word) < 1:
        raise PreconditionError("ZERO_LENGTH_PATH", "words have length >= 1")
    out = []
    layer = g
    factoring = spec.c_factoring.factoring
    for a in word:
        if a not in factoring:
            raise PreconditionError("UNKNOWN_LETTER", a)
        out.append((a, layer))
        layer = spec.group.op(layer, factoring[a])
    return tuple(out)


def labeled_range(spec: SkewSpec, word: Word,
                  g: Element) -> tuple[frozenset[str], Element]:
    """Range of the identified labeled path: (r(word), g C(word)), the
    layer past its last letter."""
    *_, (a, layer) = identify_labeled_path(spec, word, g)
    base_range = spec.base.set_of(
        spec.base.range_mask(spec.base.full_mask(), word))
    return base_range, spec.group.op(layer, spec.c_factoring.factoring[a])


# -- relabeling isomorphism -------------------------------------------------------


def relabel_iso(skew1: SkewLabeledGraph,
                skew2: SkewLabeledGraph) -> LabeledGraphMorphism:
    """Equivariant isomorphism between two skew products differing only in
    their (label consistent) second cocycle: identity on vertices and
    edges, (a, g) -> (a, g D1(a)^-1 D2(a)) on letters.  All laws are
    verified before the morphism is returned."""
    s1, s2 = skew1.spec, skew2.spec
    if s1.base != s2.base or s1.group != s2.group or dict(s1.c) != dict(s2.c):
        raise PreconditionError(
            "DIFFERENT_SKEW", "relabeling needs equal base, group and c")
    if skew1.layers != skew2.layers:
        raise PreconditionError(
            "DIFFERENT_SKEW", "relabeling needs equal materialization layers")
    d1 = s1.d_factoring.factoring
    d2 = s2.d_factoring.factoring
    if d1 is None:
        raise PreconditionError(
            "NOT_LABEL_CONSISTENT",
            f"first d is not label consistent (witness {s1.d_factoring.witness})")
    if d2 is None:
        raise PreconditionError(
            "NOT_LABEL_CONSISTENT",
            f"second d is not label consistent (witness {s2.d_factoring.witness})")
    group = s1.group

    located, letters = skew2.located(LETTER), skew2.item_names[2]
    alphabet_map = {}
    for lid, (a, h) in zip(skew1.item_names[2], skew1.coordinates(LETTER)):
        shift = group.op(group.inv(d1[a]), d2[a])
        j = located.get((a, group.op(h, shift)))
        if j is None:
            raise VerificationError(
                "relabeled letter is not materialized", (a, h))
        alphabet_map[lid] = letters[j]
    iso = LabeledGraphMorphism(skew1.graph, skew2.graph,
                               *identity_maps(skew1.graph)[:2], alphabet_map)
    report = verify_morphism(iso)
    if not report.ok:
        raise VerificationError("relabeling morphism law failed",
                                (report.witness, report.note))
    if not report.isomorphism:
        raise VerificationError("relabeling is not bijective", report.witness)

    # equivariance for the two translation actions, pointwise on the window
    from .gross_tucker import check_equivariance
    check_equivariance(TranslationAction(skew2), skew1,
                       (iso.vertex_map, iso.edge_map, iso.alphabet_map))
    return iso
