"""Skew product labeled graphs, their left translation action, path and
labeled-path identifications, and the relabeling isomorphism between two
label-consistent twists."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .action import (EDGE, KINDS, VERTEX, FiniteAction, LabeledGraphAction,
                     QuotientLabeledGraph, is_label_consistent, quotient)
from .errors import (OutOfWindow, PreconditionError, SearchSpaceExceeded,
                     VerificationError)
from .graph import DirectedGraph, Edge, Path, validate
from .groups import Element, Group, Window
from .labeled import Check, LabeledGraph, Word, is_left_resolving
from .morphism import LabeledGraphMorphism, identity_maps, verify_morphism


def one_cocycle(base: LabeledGraph, group: Group) -> dict[str, Element]:
    """The constant-identity cocycle; always label consistent."""
    return {e.eid: group.identity for e in base.graph.edges}


@dataclass(frozen=True)
class SkewSpec:
    """Base labeled graph with a pair of edge cocycles into a group.

    The spec is the authoritative object for infinite skew products;
    materializations over windows are views of it.
    """

    base: LabeledGraph
    group: Group
    c: Mapping[str, Element]
    d: Mapping[str, Element]

    def __post_init__(self):
        for name, cocycle in (("c", self.c), ("d", self.d)):
            for e in self.base.graph.edges:
                if e.eid not in cocycle:
                    raise PreconditionError(
                        "PARTIAL_COCYCLE", f"{name} misses edge {e.eid}")
                if not self.group.contains(cocycle[e.eid]):
                    raise PreconditionError(
                        "BAD_ELEMENT", f"{name}({e.eid}) is not a group element")

    @cached_property
    def c_factoring(self):
        return is_label_consistent(self.base, self.c)

    @cached_property
    def d_factoring(self):
        return is_label_consistent(self.base, self.d)

    def d_is_identity(self) -> bool:
        ident = self.group.identity
        return all(v == ident for v in self.d.values())

    def letter_cocycle(self, word: Word) -> Element:
        """Product of the label factoring C along a word; requires c to be
        label consistent."""
        factoring = self.c_factoring.factoring
        if factoring is None:
            raise PreconditionError(
                "NOT_LABEL_CONSISTENT",
                f"cocycle c does not factor through the labeling "
                f"(witness edges {self.c_factoring.witness})")
        acc = self.group.identity
        for a in word:
            if a not in factoring:
                raise PreconditionError("UNKNOWN_LETTER", a)
            acc = self.group.op(acc, factoring[a])
        return acc


def pair_id(base_id: str, element: Element, group: Group) -> str:
    return f"({base_id},{group.element_str(element)})"


class SkewLabeledGraph:
    """A materialized skew product.

    Vertices are pairs (base vertex, layer); each vertex keeps its full
    out-edge fiber, so edges whose endpoint falls outside the layer
    assignment are retained with a boundary flag and their endpoint is
    added as a flagged halo vertex rather than dropped.
    """

    def __init__(self, spec: SkewSpec, layers: Mapping[str, tuple[Element, ...]],
                 window: Window | None):
        self.spec = spec
        self.window = window
        self.layers = {v: tuple(ls) for v, ls in layers.items()}
        group = spec.group
        base = spec.base

        vertex_pair: dict[str, tuple[str, Element]] = {}
        vertex_id: dict[tuple[str, Element], str] = {}

        def ensure_vertex(x: str, g: Element) -> str:
            key = (x, g)
            vid = vertex_id.get(key)
            if vid is None:
                vid = pair_id(x, g, group)
                vertex_id[key] = vid
                vertex_pair[vid] = key
            return vid

        window_vertices = set()
        for x in base.vertices:
            for g in self.layers.get(x, ()):
                window_vertices.add(ensure_vertex(x, g))

        edges: list[Edge] = []
        labeling: dict[str, str] = {}
        edge_pair: dict[str, tuple[str, Element]] = {}
        edge_id: dict[tuple[str, Element], str] = {}
        letter_pair: dict[str, tuple[str, Element]] = {}
        boundary: set[str] = set()
        entering: dict[str, int] = {}
        layer_sets = {x: set(ls) for x, ls in self.layers.items()}
        for e in base.graph.edges:
            for g in self.layers.get(e.src, ()):
                eid = pair_id(e.eid, g, group)
                src = ensure_vertex(e.src, g)
                dst_layer = group.op(g, spec.c[e.eid])
                dst = ensure_vertex(e.dst, dst_layer)
                entering[dst] = entering.get(dst, 0) + 1
                if dst_layer not in layer_sets.get(e.dst, ()):
                    boundary.add(eid)
                letter_layer = group.op(g, spec.d[e.eid])
                letter = pair_id(base.labeling[e.eid], letter_layer, group)
                letter_pair[letter] = (base.labeling[e.eid], letter_layer)
                edges.append(Edge(eid, src, dst))
                labeling[eid] = letter
                edge_pair[eid] = (e.eid, g)
                edge_id[(e.eid, g)] = eid

        self.graph = LabeledGraph(
            DirectedGraph(vertex_pair.keys(), edges), labeling)
        self.vertex_pair = vertex_pair
        self.vertex_id = vertex_id
        self.edge_pair = edge_pair
        self.edge_id = edge_id
        self.letter_pair = letter_pair
        self.letter_id = {pair: lid for lid, pair in letter_pair.items()}
        self.window_vertices = frozenset(window_vertices)
        self.halo_vertices = frozenset(vertex_pair) - self.window_vertices
        self.boundary_edges = frozenset(boundary)

        # (x, g) is interior when every base edge e entering x has its
        # source layer g c(e)^-1 materialized; each such layer gives one
        # materialized edge into (x, g), and no other edge enters it.
        self.interior_vertices = frozenset(
            vid for vid in window_vertices
            if entering.get(vid, 0)
            == len(base.graph.in_edges(vertex_pair[vid][0])))

        validity = validate(self.graph.graph)
        self.interior_valid = all(
            validity.per_vertex[v].ok for v in self.interior_vertices)
        self.left_resolving = is_left_resolving(self.graph)
        base_lr = is_left_resolving(base)
        if base_lr and not self.left_resolving:
            raise VerificationError(
                "left-resolving must be inherited by the skew product",
                self.left_resolving.witness)
        self.left_resolving_inherited = Check(
            bool(self.left_resolving) or not base_lr)

    def __repr__(self) -> str:
        w = str(self.window) if self.window else "all"
        return (f"SkewLabeledGraph({len(self.graph.vertices)} vertices, "
                f"window {w})")


#: Most vertices, edges and letters a materialization may hold.
#: :func:`skew_product` bounds the count from the base and the layer counts
#: before it builds anything, and raises :class:`SearchSpaceExceeded` above
#: the cap.  Just under it, ``quotient fixtures/skewz.json --window
#: 0:23830`` (bound 262,141, with 166,819 items built) peaks at 109 MB.
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
    validity = validate(spec.base.graph)
    if not validity.valid:
        raise PreconditionError(
            "INVALID_GRAPH",
            f"skew base: offending vertices {', '.join(validity.offenders())}")
    if layers is None:
        if spec.group.is_finite:
            elements = spec.group.elements()
        elif window is None:
            raise PreconditionError(
                "WINDOW_REQUIRED",
                "integer skew products need an explicit window")
        else:
            elements = window.elements()
        counts = {v: len(elements) for v in spec.base.vertices}
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

    Translation moves an item along its fiber (the items over one base
    item) and never across fibers, so the tables are built from a layer
    grid rather than item by item.  D lists the distinct layers of the
    carrier, over all kinds, and the shape of a fiber is the tuple of
    positions in D that its block spans: all of D when the fiber holds at
    least half of D's layers, as on a window, and otherwise the layers it
    holds.  Each kind keeps a flat int list with one block per fiber:
    slot j holds the carrier position of (base item, D[shape[j]]), or -1
    when that pair is not materialized, and a trailing slot holds -1.
    The table of g costs |D| group operations for the layer map s_g (the
    position of g D[i] in D, or |D| when it is not a layer), which is
    the slot map of the full shape, one lookup per layer of each other
    distinct shape to turn s_g into a slot of that shape (its length when
    g moves the layer out of it), and one gather per item,
    ``row[x] = flat[offset(x) + slot(x, g)]``.  A kind's grid holds at
    most 2 |items| + |fibers| slots, and the lookups of its shapes at
    most |items| entries: its size follows the carrier, never the numeric
    span of the layers or how few layers the fibers share.

    On an integer window the grid serves only elements outside the scope:
    the tables of the scope are stride slices of :meth:`columns`."""

    def __init__(self, skew: SkewLabeledGraph):
        super().__init__(skew.spec.group, skew.graph)
        self.skew = skew

    @cached_property
    def _grid(self):
        """D with the position of each layer in it, and per kind the flat
        grid, one (slot map, D position, length) entry per layer of each
        distinct shape short of all of D, and the block offset and layer
        map key of each carrier item (i for layer D[i] of a full-shape
        block, |D| onward for the entries)."""
        ids_of = [self._pairs(kind)[1] for kind in KINDS]
        layers = list(dict.fromkeys(h for ids in ids_of for _, h in ids))
        slot = {h: i for i, h in enumerate(layers)}
        everywhere = tuple(range(len(layers)))
        identity = dict(zip(everywhere, everywhere))
        core = self.graph.core
        grids = []
        for kind, ids, index in zip(KINDS, ids_of, core.positions):
            fibers: dict[str, dict[int, int]] = {}
            for (base, h), item in ids.items():
                fibers.setdefault(base, {})[slot[h]] = index[item]
            flat: list[int] = []
            entries: list[tuple[dict[int, int], int, int]] = []
            starts: dict[tuple[int, ...], tuple[int, dict[int, int]]] = {}
            block = {}
            for base, cells in fibers.items():
                if 2 * len(cells) >= len(layers):
                    shape, start = everywhere, (0, identity)
                else:
                    shape = tuple(sorted(cells))
                    start = starts.get(shape)
                    if start is None:
                        local = {i: j for j, i in enumerate(shape)}
                        start = starts[shape] = (
                            len(layers) + len(entries), local)
                        entries += [(local, i, len(shape)) for i in shape]
                block[base] = len(flat), start
                flat += [cells.get(i, -1) for i in shape]
                flat.append(-1)
            offsets, keys = [], []
            for base, h in self.coordinates(kind):
                offset, (start, local) = block[base]
                offsets.append(offset)
                keys.append(start + local[slot[h]])
            grids.append((flat, entries, offsets, keys))
        return layers, slot, grids

    @cached_property
    def _columns(self) -> list[list[int]]:
        """The block of :meth:`columns` of each kind, one slice per item of
        its fiber's line in the id map, padded with span times -1; a fiber
        whose layers are sparse (a halo 10**12 layers away) gathers the
        layers within span of the item's instead."""
        span = self.interval_span()
        n = 2 * span + 1
        blocks = []
        for kind, index in zip(KINDS, self.graph.core.positions):
            fibers: dict[str, dict[int, int]] = {}
            for (base, t), item in self._pairs(kind)[1].items():
                fibers.setdefault(base, {})[t] = index[item]
            shapes = {}
            for base, cells in fibers.items():
                layers = sorted(cells)
                lo, hi = layers[0], layers[-1]
                line = None
                if hi - lo < 2 * len(layers):
                    line = [-1] * (hi - lo + n)
                    for t, x in cells.items():
                        line[t - lo + span] = x
                shapes[base] = lo, hi, line, layers, cells
            block: list[int] = []
            for base, t in self.coordinates(kind):
                lo, hi, line, layers, cells = shapes[base]
                if line is not None and lo <= t <= hi:
                    block += line[t - lo:t - lo + n]
                    continue
                column = [-1] * n
                for u in layers[bisect_left(layers, t - span):
                                bisect_right(layers, t + span)]:
                    column[u - t + span] = cells[u]
                block += column
            block += [-1] * n
            blocks.append(block)
        return blocks

    def columns(self, kind: str) -> list[int]:
        return self._columns[KINDS.index(kind)]

    @cached_property
    def _coordinates(self) -> dict[str, list[tuple[str, Element]]]:
        out = {}
        for kind in KINDS:
            pairs, _ = self._pairs(kind)
            out[kind] = [pairs[item] for item in self.carrier(kind)]
        return out

    def coordinates(self, kind: str) -> list[tuple[str, Element]]:
        """(base item, layer) of each carrier item, in carrier order, read
        from the skew's pair maps once per kind."""
        return self._coordinates[kind]

    def _pairs(self, kind: str):
        if kind == VERTEX:
            return self.skew.vertex_pair, self.skew.vertex_id
        if kind == EDGE:
            return self.skew.edge_pair, self.skew.edge_id
        return self.skew.letter_pair, self.skew.letter_id

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        pairs, ids = self._pairs(kind)
        base, h = pairs[item]
        return ids.get((base, self.group.op(g, h)))

    def _build_table(self, g: Element):
        span = self.interval_span()
        if span is not None and -span <= g <= span:
            return tuple(block[g + span::2 * span + 1]
                         for block in self._columns)
        layers, slot, grids = self._grid
        op, missing = self.group.op, len(layers)
        shift = [slot.get(op(g, h), missing) for h in layers]
        rows = []
        for flat, entries, offsets, keys in grids:
            moved = shift + [local.get(shift[i], n) for local, i, n in entries]
            rows.append([flat[o + moved[k]] for o, k in zip(offsets, keys)]
                        + [-1])
        return tuple(rows)

    def interval_span(self) -> int | None:
        """The numeric width of all layers, max - min over every fiber;
        None for finite groups, whose scope is the whole group.  Fibers
        whose layers lie far apart give a scope of that width, which
        ``verify_action`` refuses above ``MAX_TRIPLES``.  The layers of a
        skew product never change, so it is computed once."""
        return self._span

    @cached_property
    def _span(self) -> int | None:
        if self.group.is_finite:
            return None
        layers = [g for ls in self.skew.layers.values() for g in ls]
        return max(layers) - min(layers) if layers else 0

    def elements_moving(self, kind: str, source: str,
                        target: str) -> tuple[Element, ...]:
        """The layer difference, when it moves source to target.  On a
        window it may lie outside the scope: the target can be a halo item
        further from the source than the window is wide."""
        pairs, _ = self._pairs(kind)
        (base_s, layer_s), (base_t, layer_t) = pairs[source], pairs[target]
        if base_s != base_t:
            return ()
        h = self.group.op(layer_t, self.group.inv(layer_s))
        return (h,) if self.apply(h, kind, source) == target else ()

    def _orbit_classes(self, kind: str):
        """The fibers: the items over one base item, which is the orbit
        under the unwindowed action.  On a window the scope elements need
        not link a fiber: a one-layer window has no non-identity scope
        element, and a cocycle value wider than the window puts halo
        layers out of reach of every scope element."""
        fibers: dict[str, list[str]] = {}
        for item, (base, _) in zip(self.carrier(kind), self.coordinates(kind)):
            fibers.setdefault(base, []).append(item)
        return fibers.values()

    def lifting_scope(self) -> tuple[str, ...]:
        return tuple(sorted(self.skew.window_vertices))

    def domain_scope(self) -> frozenset[str]:
        return self.skew.window_vertices

    def orbit_name(self, kind: str, members: tuple[str, ...]) -> str:
        """The base item of the fiber."""
        pairs, _ = self._pairs(kind)
        return pairs[members[0]][0]

    def is_windowed(self) -> bool:
        return not self.group.is_finite

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
    spec = skew.spec
    ids = []
    layer = g
    for eid in path.edges:
        key = (eid, layer)
        skew_eid = skew.edge_id.get(key)
        if skew_eid is None:
            raise OutOfWindow(f"edge {eid} at layer "
                              f"{spec.group.element_str(layer)} is not materialized")
        ids.append(skew_eid)
        layer = spec.group.op(layer, spec.c[eid])
    return skew.graph.graph.make_path(ids)


def project_path(skew: SkewLabeledGraph, path: Path) -> tuple[Path, Element]:
    """Inverse of :func:`lift_path`: strips layers, returns the base path
    and the starting layer."""
    base_ids = []
    start = None
    for eid in path.edges:
        b, g = skew.edge_pair[eid]
        if start is None:
            start = g
        base_ids.append(b)
    return skew.spec.base.graph.make_path(base_ids), start


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
    """Range of the identified labeled path: (r(word), g C(word))."""
    _require_identification_preconditions(spec)
    base_range = spec.base.set_of(
        spec.base.range_mask(spec.base.full_mask(), word))
    return base_range, spec.group.op(g, spec.letter_cocycle(word))


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

    alphabet_map = {}
    for lid, (a, h) in skew1.letter_pair.items():
        shift = group.op(group.inv(d1[a]), d2[a])
        target = skew2.letter_id.get((a, group.op(h, shift)))
        if target is None:
            raise VerificationError(
                "relabeled letter is not materialized", (a, h))
        alphabet_map[lid] = target
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
