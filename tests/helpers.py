"""Shared constructions used by several test modules."""

import itertools
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Mapping

from labgraphs import fixtures as fx
from labgraphs import action as action_module
from labgraphs.action import (EDGE, LETTER, VERTEX, ActionReport,
                              DomainSearchResult, FiniteAction,
                              LabeledGraphAction, is_fundamental_domain)
from labgraphs import errors
from labgraphs.errors import SearchSpaceExceeded, VerificationError
from labgraphs.graph import DirectedGraph, Edge, require_valid, validate
from labgraphs.groups import CyclicGroup, Element, Group, Window
from labgraphs.labeled import (Check, LabeledGraph, labeled_paths,
                               representatives)
from labgraphs.lattice import (Derivation, LabeledSpaceReport,
                               SetCollection)
from labgraphs.morphism import LabeledGraphMorphism, MorphismReport
from labgraphs.skew import SkewLabeledGraph, SkewSpec, TranslationAction


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter on the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the checkout's ``src`` from the root."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def error_classes(cls=errors.LabGraphsError) -> list[type]:
    """``cls`` and all its subclasses, collected recursively."""
    return [cls, *(sub for direct in cls.__subclasses__()
                   for sub in error_classes(direct))]


#: Constructor arguments of the errors that format their own message;
#: the others take a message and a witness.
ERROR_ARGS = {errors.PreconditionError: ("BOOM", "raised by a handler"),
              errors.ParseError: ("raised by a handler", 1, 2),
              errors.SchemaError: ("$.boom", "raised by a handler")}


def library_error(cls: type) -> errors.LabGraphsError:
    """An instance of the library error class ``cls``."""
    return cls(*ERROR_ARGS.get(cls, ("raised by a handler", ("v", "w"))))


def trivial_action(lg, n=2):
    """Every element acts as the identity; not free unless n == 1."""
    group = CyclicGroup(n)
    ident = ({v: v for v in lg.vertices},
             {e.eid: e.eid for e in lg.graph.edges},
             {a: a for a in lg.alphabet})
    return FiniteAction(group, lg, {g: ident for g in group.elements()})


def fish4_swap_action():
    """Z/2 acting on the four-edge graph by the vertex swap; the alphabet
    is fixed, so the action is not free on letters."""
    lg = fx.fish4()
    group = CyclicGroup(2)
    swap = ({"v": "w", "w": "v"},
            {"e": "h", "h": "e", "f": "g", "g": "f"},
            {"0": "0", "1": "1"})
    ident = ({"v": "v", "w": "w"},
             {e.eid: e.eid for e in lg.graph.edges},
             {"0": "0", "1": "1"})
    return FiniteAction(group, lg, {0: ident, 1: swap})


def loop_swap_action():
    """Z/2 fixing the single vertex while swapping two loops and their
    letters: a verified action that is not free on vertices."""
    g = DirectedGraph(["v"], [("l1", "v", "v"), ("l2", "v", "v")])
    lg = LabeledGraph(g, {"l1": "a", "l2": "b"})
    group = CyclicGroup(2)
    ident = ({"v": "v"}, {"l1": "l1", "l2": "l2"}, {"a": "a", "b": "b"})
    swap = ({"v": "v"}, {"l1": "l2", "l2": "l1"}, {"a": "b", "b": "a"})
    return FiniteAction(group, lg, {0: ident, 1: swap})


def distinct_letter_cycle(n):
    """Cycle on ``n`` vertices with a distinct letter on every edge, so
    every range is a single vertex and the closures hold all 2^n - 1
    nonempty vertex sets."""
    vertices = [f"v{i:02d}" for i in range(n)]
    edges = [(f"e{i:02d}", vertices[i], vertices[(i + 1) % n])
             for i in range(n)]
    return LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: f"a{eid[1:]}" for eid, _, _ in edges})


def shift_graph(n):
    """Letter a shifts the ``n`` vertices cyclically and letter b fixes all
    but v00, so every nonempty vertex set is a range value and both
    closures hold all 2^n - 1 of them."""
    vertices = [f"v{i:02d}" for i in range(n)]
    edges = [(f"a{i:02d}", vertices[i], vertices[(i + 1) % n])
             for i in range(n)]
    edges += [(f"b{i:02d}", v, v) for i, v in enumerate(vertices) if i]
    return LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: eid[0] for eid, _, _ in edges})


def relettered(lg: LabeledGraph, seed: int) -> LabeledGraph:
    """``lg`` with its letters renamed among themselves: the letter at
    position i of ``random.Random(seed)``'s shuffle of the alphabet takes
    the name of the i-th letter.  The vertices keep their positions, so
    vertex masks mean the same sets, and a closure that takes one
    generator per letter in alphabet order takes the old letters'
    generators in the shuffled order."""
    letters = list(lg.alphabet)
    shuffled = letters[:]
    random.Random(seed).shuffle(shuffled)
    name = dict(zip(shuffled, letters))
    return LabeledGraph(lg.graph, {eid: name[a]
                                   for eid, a in lg.labeling.items()})


def evaluate_printed_derivation(lg: LabeledGraph, text: str) -> int | None:
    """The vertex mask a derivation printed by ``lattice`` stands for, read
    back from its text: ``r(word)``, ``r(X, letter)`` and ``(X op Y)`` with
    op one of ``&``, ``|`` and ``\\``; None when the text was cut to
    ``...``.  Letters must be single characters."""
    if "..." in text:
        return None
    assert all(len(a) == 1 for a in lg.alphabet)

    def parse(i: int) -> tuple[int, int]:
        if text.startswith("r(", i):
            i += 2
            if text.startswith("(", i) or text.startswith("r(", i):
                inner, i = parse(i)
                assert text.startswith(", ", i)
                letter, i = text[i + 2], i + 4
                assert text[i - 1] == ")"
                return lg.range_mask(inner, (letter,)), i
            end = text.index(")", i)
            return lg.range_mask(lg.full_mask(), tuple(text[i:end])), end + 1
        assert text[i] == "("
        left, i = parse(i + 1)
        op = text[i + 1]
        right, i = parse(i + 3)
        assert text[i] == ")"
        value = {"&": left & right, "|": left | right,
                 "\\": left & ~right}[op]
        return value, i + 1

    value, end = parse(0)
    assert end == len(text)
    return value


def verify_action_exhaustive(action: LabeledGraphAction) -> ActionReport:
    """Definitional oracle for ``verify_action``: every law checked item by
    item through ``apply`` on string ids, for every pair of scope elements
    whose product is in the scope, the items of each kind in the order
    of the action's carrier."""
    kinds = (VERTEX, EDGE, LETTER)
    failures: list[tuple[str, Any]] = []
    lg = action.graph
    graph = lg.graph
    scope = action.scope_elements()
    ident = action.group.identity

    for kind in kinds:
        for item in action.carrier(kind):
            got = action.apply(ident, kind, item)
            if got != item:
                failures.append(("identity acts as identity", (kind, item, got)))

    for g in scope:
        seen: dict[tuple[str, str], str] = {}
        for kind in kinds:
            for item in action.carrier(kind):
                img = action.apply(g, kind, item)
                if img is None:
                    continue
                key = (kind, img)
                if key in seen:
                    failures.append(("injectivity", (g, kind, seen[key], item)))
                seen[key] = item
        for e in map(graph.edge, action.carrier(EDGE)):
            fe = action.apply(g, EDGE, e.eid)
            if fe is None:
                continue
            fe_edge = graph.edge(fe)
            img_dst = action.apply(g, VERTEX, e.dst)
            if img_dst is not None and img_dst != fe_edge.dst:
                failures.append(("range equivariance", (g, e.eid)))
            img_src = action.apply(g, VERTEX, e.src)
            if img_src is not None and img_src != fe_edge.src:
                failures.append(("source equivariance", (g, e.eid)))
            img_label = action.apply(g, LETTER, lg.labeling[e.eid])
            if img_label is not None and img_label != lg.labeling[fe]:
                failures.append(("label compatibility", (g, e.eid)))

    pairs = 0
    for g in scope:
        for h in scope:
            gh = action.group.op(g, h)
            if action.group.is_finite or gh in scope:
                for kind in kinds:
                    for item in action.carrier(kind):
                        via_h = action.apply(h, kind, item)
                        if via_h is None:
                            continue
                        lhs = action.apply(g, kind, via_h)
                        rhs = action.apply(gh, kind, item)
                        if lhs is not None and rhs is not None and lhs != rhs:
                            failures.append(
                                ("homomorphism", (g, h, kind, item)))
                pairs += 1
    return ActionReport(not failures, tuple(failures), len(scope), pairs,
                        action.interval_span() is not None)


def equivariance_oracle(action: LabeledGraphAction, skew: SkewLabeledGraph,
                        maps) -> tuple[int, tuple | None]:
    """Definitional oracle for ``gross_tucker.check_equivariance``: for
    each scope element g, kind and item x of ``skew`` in carrier order,
    compare maps(tau_g x) with alpha_g(maps(x)) through ``apply`` on string
    ids wherever both are defined.  Returns the number of equal pairs
    before the first mismatch and that mismatch (g, kind, x), or None."""
    tau = TranslationAction(skew)
    count = 0
    for g in action.scope_elements():
        for kind, mapping in zip((VERTEX, EDGE, LETTER), maps):
            for item in tau.carrier(kind):
                moved = tau.apply(g, kind, item)
                if moved is None:
                    continue
                rhs = action.apply(g, kind, mapping[item])
                if rhs is None:
                    continue
                if mapping[moved] != rhs:
                    return count, (g, kind, item)
                count += 1
    return count, None


def reconstruction_tail_by_name(action: LabeledGraphAction,
                                skew: SkewLabeledGraph, pack,
                                tamper=None):
    """Oracle for the checks ``reconstruct`` makes on its skew product
    ``skew`` over the quotient, run by name: phi(q, g) = alpha_g(pack(q))
    is looked up in ``action.located`` item by item over the named form,
    each kind's positions passed through ``tamper(k, row)`` when given,
    and the first item it leaves the carrier at raises; then
    ``verify_morphism`` checks the named isomorphism and the public
    ``check_equivariance`` its maps.  Returns (iso, report, count) or
    raises what the first failed check raises."""
    from labgraphs.gross_tucker import check_equivariance
    from labgraphs.morphism import verify_morphism
    op, maps = action.group.op, []
    for k, (kind, section) in enumerate(zip(
            (VERTEX, EDGE, LETTER), (pack.eta0, pack.eta1, pack.etaA))):
        pairs = form_pairs(skew, kind)
        index, coords = action.index(kind), action.coordinates(kind)
        located, carrier = action.located(kind), action.carrier(kind)
        row = []
        for q, g in pairs.values():
            fiber, t = coords[index[section[q]]]
            row.append(located.get((fiber, op(g, t)), -1))
        if tamper is not None:
            row = tamper(k, row)
        named = {}
        for item, j in zip(pairs, row):
            if j < 0:
                raise VerificationError("comparison map leaves the carrier",
                                        (kind, item))
            named[item] = carrier[j]
        maps.append(named)
    iso = LabeledGraphMorphism(skew.graph, action.graph, *maps)
    report = verify_morphism(iso)
    if not report.ok:
        raise VerificationError(
            f"reconstruction morphism law failed: {report.note}",
            report.witness)
    if not report.isomorphism:
        raise VerificationError("reconstruction map is not bijective", None)
    return iso, report, check_equivariance(action, skew, maps)


def reconstruction_layers_by_scope(action: LabeledGraphAction, quot,
                                   eta0: Mapping[str, str]) -> dict[str, tuple]:
    """Definitional oracle for ``gross_tucker._reconstruction_layers``:
    per vertex orbit, the scope elements h, in scope order, whose
    ``apply`` moves the section vertex into the lifting scope."""
    inside = set(action.lifting_scope())
    return {q: tuple(h for h in action.scope_elements()
                     if action.apply(h, VERTEX, eta0[q]) in inside)
            for q in quot.orbit_vertex_members}


def is_free_exhaustive(action: LabeledGraphAction) -> Check:
    """Definitional oracle for ``is_free``: the scope-order scan over every
    non-identity scope element g, the vertices and then the letters in
    carrier order, through ``apply`` on string ids; the witness is the
    first (g, item) with apply(g, item) == item."""
    ident = action.group.identity
    for g in action.scope_elements():
        if g == ident:
            continue
        for kind in (VERTEX, LETTER):
            for item in action.carrier(kind):
                if action.apply(g, kind, item) == item:
                    return Check(False, (g, item))
    return Check(True)


def translation_certified_by_lines(action: LabeledGraphAction) -> bool:
    """Oracle for ``action._translation_certified``: the certificate read
    against the block of scope images, in time and space of the order of
    the carrier plus the block.  With (q(x), t(x)) the coordinates of item
    x and L(q, t) the item at (q, t) by those coordinates, or -1:

    - placement: no two items of a kind share a (fiber, layer);
    - lines: alpha_g(x) = L(q(x), t(x) + g) for every item x and every g
      of the scope, -1 entries included.  Item x's slice of
      ``columns(kind)`` is compared with the slice of the fiber's line
      around t(x), padded with -1, in one compare per item; a fiber whose
      layers are sparse gathers the layers within span of t(x) instead;
    - edge offsets: over the edges of one edge fiber, the fiber of the
      range and its layer minus the edge's layer are the same, and so are
      those of the source and of the label."""
    kinds = (VERTEX, EDGE, LETTER)
    span = action.interval_span()
    n = 2 * span + 1
    coordinates = [action.coordinates(kind) for kind in kinds]
    fibers_of = []
    for coords in coordinates:
        fibers: dict[str, dict[int, int]] = {}
        for x, (q, t) in enumerate(coords):
            cells = fibers.setdefault(q, {})
            if t in cells:
                return False
            cells[t] = x
        fibers_of.append(fibers)

    core = action.core
    vertices, edges, letters = coordinates
    for ends, coords in ((core.dst, vertices), (core.src, vertices),
                         (core.lab, letters)):
        offsets: dict[str, tuple[str, int]] = {}
        for (q, t), j in zip(edges, ends):
            p, u = coords[j]
            if offsets.setdefault(q, (p, u - t)) != (p, u - t):
                return False

    for kind, fibers in zip(kinds, fibers_of):
        cols = action.columns(kind)
        for cells in fibers.values():
            layers = sorted(cells)
            lo, hi = layers[0], layers[-1]
            if hi - lo < 2 * len(layers):
                line = [-1] * (hi - lo + n)
                for t, x in cells.items():
                    line[t - lo + span] = x
                for t, x in cells.items():
                    if cols[x * n:x * n + n] != line[t - lo:t - lo + n]:
                        return False
            else:
                for t, x in cells.items():
                    column = [-1] * n
                    for u in layers[bisect_left(layers, t - span):
                                    bisect_right(layers, t + span)]:
                        column[u - t + span] = cells[u]
                    if cols[x * n:x * n + n] != column:
                        return False
    return True


def interior_vertices_by_definition(skew: SkewLabeledGraph) -> frozenset[str]:
    """Oracle for ``SkewLabeledGraph.interior_vertices``: the window
    vertices (x, g) such that, for every base edge e entering x, the source
    layer g c(e)^-1 is a materialized layer of the source of e."""
    group, base = skew.spec.group, skew.spec.base
    pairs = form_pairs(skew, VERTEX)
    out = set()
    for vid in skew.window_vertices:
        x, g = pairs[vid]
        if all(group.op(g, group.inv(skew.spec.c[e.eid]))
               in skew.layers.get(e.src, ())
               for e in base.graph.in_edges(x)):
            out.add(vid)
    return frozenset(out)


def left_resolving_by_vertex(lg: LabeledGraph) -> Check:
    """Oracle for ``is_left_resolving``: each vertex in vertex order scans
    its in-edges in edge-id order, and the first label seen twice names
    (v, first edge with the label, the edge repeating it)."""
    for v in lg.vertices:
        seen: dict[str, str] = {}
        for e in lg.graph.in_edges(v):
            a = lg.labeling[e.eid]
            if a in seen:
                return Check(False, (v, seen[a], e.eid))
            seen[a] = e.eid
    return Check(True)


def weakly_left_resolving_by_pairs(lg: LabeledGraph) -> Check:
    """Witness oracle for ``is_weakly_left_resolving``: per letter in
    alphabet order, every pair of vertices i < j in vertex order, and the
    first pair whose successor masks (``LabeledGraph._step``) meet names
    (letter, vertex i, vertex j)."""
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


def form_pairs(skew: SkewLabeledGraph,
               kind: str) -> dict[str, tuple[str, Element]]:
    """The (base item, layer) of each item of ``kind`` by name, in the
    order of the skew's integer form, read from its names and its form
    and not from its positional views."""
    k = (VERTEX, EDGE, LETTER).index(kind)
    return dict(zip(skew.item_names[k], skew.form.coordinates[k]))


#: The views of a skew product built from its integer form on first read
#: that hold item names: the names, the form-order core and the views in
#: name order.
NAMED_VIEWS = ("item_names", "core", "graph", "window_vertices",
               "left_resolving")


def pair_id(base_id: str, element: Element, group: Group) -> str:
    return f"({base_id},{group.element_str(element)})"


class StringSkew:
    """Oracle for the ``SkewLabeledGraph`` constructor: every id is
    formatted item by item through ``ensure_vertex``, the graph goes
    through the public ``DirectedGraph`` and ``LabeledGraph``
    constructors, and interior validity and left-resolving are scanned
    with ``validate`` and :func:`left_resolving_by_vertex`.  It carries
    the attributes of a skew product, so the two compare field by field."""

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
        self.left_resolving = left_resolving_by_vertex(self.graph)
        base_lr = left_resolving_by_vertex(base)
        if base_lr and not self.left_resolving:
            raise VerificationError(
                "left-resolving must be inherited by the skew product",
                self.left_resolving.witness)
        self.left_resolving_inherited = Check(
            bool(self.left_resolving) or not base_lr)


#: Per kind, the oracle's maps from names to (base item, layer) and back.
PAIR_MAPS = ((VERTEX, "vertex_pair", "vertex_id"),
             (EDGE, "edge_pair", "edge_id"),
             (LETTER, "letter_pair", "letter_id"))
ITEM_SETS = ("window_vertices", "halo_vertices", "boundary_edges",
             "interior_vertices")


def assert_same_skew(got, want):
    """The graph and its core, the names and coordinates of the form, the
    positional views and the form-order core, against the oracle's six
    pair maps in insertion order, the item sets and the verdicts with
    their witnesses agree; and the graph built from sorted carriers
    equals the one the public constructors build from its vertices,
    edges and labeling."""
    assert got.graph == want.graph
    assert got.graph.core == want.graph.core
    assert list(got.graph.labeling.items()) == list(
        want.graph.labeling.items())
    assert got.graph.dropped_letters == want.graph.dropped_letters
    for k, (kind, pair, ids) in enumerate(PAIR_MAPS):
        pairs, names = getattr(want, pair), got.item_names[k]
        coordinates = got.form.coordinates[k]
        assert list(zip(names, coordinates)) == list(pairs.items()), pair
        assert list(zip(coordinates, names)) == list(
            getattr(want, ids).items()), ids
        assert got.coordinates(kind) == list(pairs.values())
        assert got.located(kind) == {
            pair: p for p, pair in enumerate(pairs.values())}
        assert got.core.carriers[k] == tuple(pairs)
        assert got.core.positions[k] == {x: p for p, x in enumerate(pairs)}
    assert got.core[2:] == got.form[2:]
    for name in ITEM_SETS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.interior_valid == want.interior_valid
    for name in ("left_resolving", "left_resolving_inherited"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.ok, g.witness) == (w.ok, w.witness), name

    graph = got.graph.graph
    public = DirectedGraph(graph.vertices, graph.edges)
    assert (public.vertices, public.edges) == (graph.vertices, graph.edges)
    assert list(public._by_id.items()) == list(graph._by_id.items())
    for v in graph.vertices:
        assert public.out_edges(v) == graph.out_edges(v)
        assert public.in_edges(v) == graph.in_edges(v)
    lg = LabeledGraph(public, got.graph.labeling)
    assert lg == got.graph
    assert list(lg.labeling.items()) == list(got.graph.labeling.items())
    assert (lg.alphabet, lg.dropped_letters) == (
        got.graph.alphabet, got.graph.dropped_letters)
    assert lg.core == got.graph.core


def orbits_bruteforce(action: LabeledGraphAction,
                      kind: str) -> tuple[tuple[str, ...], ...]:
    """Oracle for ``orbits`` of a finite group, and of an integer window
    on a kind whose coordinates are not placed: connected components of
    the graph linking each item x to every image apply(g, x), g a
    non-identity scope element (every element of a finite group), found
    by search over string ids."""
    items = action.carrier(kind)
    links: dict[str, set[str]] = {x: set() for x in items}
    for g in action.scope_elements():
        if g == action.group.identity:
            continue
        for x in items:
            y = action.apply(g, kind, x)
            if y is not None:
                links[x].add(y)
                links[y].add(x)
    seen: set[str] = set()
    out = []
    for x in items:
        if x in seen:
            continue
        component, stack = {x}, [x]
        while stack:
            for y in links[stack.pop()] - component:
                component.add(y)
                stack.append(y)
        seen |= component
        out.append(tuple(sorted(component)))
    return tuple(sorted(out))


def placed_by_lookup(action: LabeledGraphAction, kind: str) -> bool:
    """Whether the coordinates of ``kind`` are distinct and ``located`` is
    exactly their inverse, by dict comparison."""
    coords = action.coordinates(kind)
    return (len(set(coords)) == len(coords)
            and action.located(kind) == {c: x for x, c in enumerate(coords)})


def translation_fibers(action: TranslationAction,
                       kind: str) -> tuple[tuple[str, ...], ...]:
    """Oracle for ``orbits`` of a translation on a skew product: the orbit
    of (x, h) under the unwindowed action is every (x, g), so an orbit is
    the set of materialized items over one base item."""
    items = action.carrier(kind)
    pairs = dict(zip(items, action.skew.coordinates(kind)))
    return tuple(sorted(
        tuple(sorted(x for x in items if pairs[x][0] == base))
        for base in {pairs[x][0] for x in items}))


class _Closure:
    """Worklist closure engine over bitmasks with derivation tracking."""

    def __init__(self, lg: LabeledGraph, rel_complements: bool):
        self.lg = lg
        self.rel_complements = rel_complements
        self.derivations: dict[int, Derivation] = {}
        self.worklist: list[int] = []

    def add(self, mask: int, deriv: Derivation) -> None:
        if mask and mask not in self.derivations:
            self.derivations[mask] = deriv
            self.worklist.append(mask)

    def run(self) -> None:
        lg = self.lg
        letters = lg.alphabet
        while self.worklist:
            a_mask = self.worklist.pop()
            for letter in letters:
                stepped = lg.range_mask(a_mask, (letter,))
                if stepped and stepped not in self.derivations:
                    prev = self.derivations[a_mask]
                    if prev[0] == "range":
                        deriv: Derivation = ("range", prev[1] + (letter,))
                    else:
                        deriv = ("step", a_mask, letter)
                    self.add(stepped, deriv)
            for b_mask in list(self.derivations):
                inter = a_mask & b_mask
                if inter and inter not in self.derivations:
                    self.add(inter, ("and", a_mask, b_mask))
                union = a_mask | b_mask
                if union not in self.derivations:
                    self.add(union, ("or", a_mask, b_mask))
                if self.rel_complements:
                    for big, small in ((a_mask, b_mask), (b_mask, a_mask)):
                        if big & small == small and big != small:
                            diff = big & ~small
                            if diff and diff not in self.derivations:
                                self.add(diff, ("diff", big, small))


def worklist_closure(lg: LabeledGraph, seeds: Iterable[tuple[int, Derivation]],
                     rel_complements: bool) -> dict[int, Derivation]:
    """Oracle for both lattice closures: the O(M^2) worklist fixpoint that
    pairs every new member with every member so far.  ``seeds`` are
    ``(mask, derivation)`` pairs; returns every member's derivation."""
    eng = _Closure(lg, rel_complements)
    for mask, deriv in seeds:
        eng.add(mask, deriv)
    eng.run()
    return eng.derivations


def smallest_accommodating_oracle(lg: LabeledGraph,
                                  word_bound: int = 5) -> frozenset[int]:
    """Oracle for ``smallest_accommodating``: exhaustive fixpoint over the
    powerset.  Seed with the ranges of every realized word up to
    ``word_bound`` computed from actual representatives, then run full
    passes of all closure rules until stable."""
    require_valid(lg.graph, "smallest_accommodating_oracle")
    members: set[int] = set()
    for n in range(1, word_bound + 1):
        for word in labeled_paths(lg, n):
            mask = 0
            for p in representatives(lg, word):
                mask |= lg.mask_of([lg.graph.path_dst(p)])
            if mask:
                members.add(mask)
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for m in snapshot:
            for a in lg.alphabet:
                r = lg.range_mask(m, (a,))
                if r and r not in members:
                    members.add(r)
                    changed = True
        snapshot = list(members)
        for i, m1 in enumerate(snapshot):
            for m2 in snapshot[i + 1:]:
                for candidate in (m1 & m2, m1 | m2):
                    if candidate and candidate not in members:
                        members.add(candidate)
                        changed = True
    return frozenset(members)


def labeled_space_report_oracle(lg: LabeledGraph, col: SetCollection,
                                word_bound: int = 4) -> LabeledSpaceReport:
    """Oracle for ``labeled_space_report``: every pair of range values of
    words up to ``word_bound`` is scanned in order for a missing meet, join
    or strict difference, and every member in order for its letters and
    its letter fibers, read from the edges by string id."""
    ranges = sorted(value for value, word in lg.range_table.ranges
                    if len(word) <= word_bound)
    members = set(col.members)
    pairs = disjoint = 0
    inter_ok = union_ok = diff_ok = Check(True)
    for i, r1 in enumerate(ranges):
        for r2 in ranges[i + 1:]:
            pairs += 1
            if not r1 & r2:
                disjoint += 1
            if r1 & r2 and (r1 & r2) not in members and inter_ok:
                inter_ok = Check(False, (lg.set_of(r1), lg.set_of(r2)))
            if (r1 | r2) not in members and union_ok:
                union_ok = Check(False, (lg.set_of(r1), lg.set_of(r2)))
            for big, small in ((r1, r2), (r2, r1)):
                if big & small == small and big != small:
                    if (big & ~small) not in members and diff_ok:
                        diff_ok = Check(False,
                                        (lg.set_of(big), lg.set_of(small)))
    label_counts = {}
    ck4 = Check(True)
    for mask in col.members:
        vs = lg.set_of(mask)
        out = [e for e in lg.graph.edges if e.src in vs]
        label_counts[vs] = len({lg.labeling[e.eid] for e in out})
        if not ck4:
            continue
        silent = vs - {e.src for e in out}
        if silent:
            ck4 = Check(False, (vs, min(silent)), "vertex emits no edge")
            continue
        for letter in lg.alphabet:
            fiber = {e.dst for e in out if lg.labeling[e.eid] == letter}
            if fiber and lg.set_of(lg.range_mask(mask, (letter,))) != fiber:
                ck4 = Check(False, (vs, letter), "letter fiber mismatch")
                break
    return LabeledSpaceReport(
        set_finite=True, label_counts=label_counts,
        weakly_left_resolving=lg.weakly_left_resolving,
        ck1a_pairs=pairs, ck1a_disjoint_pairs=disjoint,
        ck1b_intersections_closed=inter_ok, ck1b_unions_closed=union_ok,
        ck1b_differences_closed=diff_ok, ck4=ck4)


#: Largest vertex count :func:`weakly_left_resolving_bruteforce` accepts.
#: Its subset-pair scan grows about fourfold per vertex: with two letters and
#: out-degree 2 it takes about 1.4 s at 10 vertices and 5.7 s at 11.
BRUTEFORCE_MAX_VERTICES = 10


def weakly_left_resolving_bruteforce(lg: LabeledGraph, max_word_len: int = 4) -> Check:
    """Oracle for ``is_weakly_left_resolving``: enumerate actual paths to
    build range tables, then test ``r(A & B, w) == r(A, w) & r(B, w)`` over
    every subset pair and every realized word up to ``max_word_len``.
    Positions are read off ``lg.graph`` and the labeling, not the graph's
    core.  Graphs with more than :data:`BRUTEFORCE_MAX_VERTICES` vertices
    raise :class:`SearchSpaceExceeded` before any table is built."""
    vertices = lg.graph.vertices
    nv = len(vertices)
    if nv > BRUTEFORCE_MAX_VERTICES:
        raise SearchSpaceExceeded(
            f"brute-force oracle takes at most {BRUTEFORCE_MAX_VERTICES} "
            f"vertices, got {nv}")
    letters = sorted({lg.labeling[e.eid] for e in lg.graph.edges})
    vi = {v: i for i, v in enumerate(vertices)}
    li = {a: i for i, a in enumerate(letters)}
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
                    return Check(False, (
                        tuple(letters[i] for i in word),
                        frozenset(v for i, v in enumerate(vertices)
                                  if mask_a >> i & 1),
                        frozenset(v for i, v in enumerate(vertices)
                                  if mask_b >> i & 1)))
    return Check(True)


def _total_onto(mapping: Mapping[str, str], domain, codomain, what: str):
    codset = set(codomain)
    for x in domain:
        if x not in mapping:
            return (f"{what} map not total", x)
        if mapping[x] not in codset:
            return (f"{what} map leaves the target", (x, mapping[x]))
    return None


def _bijective(mapping: Mapping[str, str], domain, codomain) -> bool:
    image = {mapping[x] for x in domain}
    return len(image) == len(tuple(domain)) and image == set(codomain)


def verify_morphism_oracle(m: LabeledGraphMorphism) -> MorphismReport:
    """Definitional oracle for ``verify_morphism``: the laws checked on
    string ids, walking the edges of both graphs.  Check the two morphism
    laws; the isomorphism flag additionally requires all three maps to be
    bijections onto the target carriers."""
    src, dst = m.source, m.target
    for mapping, domain, codomain, what in (
            (m.vertex_map, src.vertices, dst.vertices, "vertex"),
            (m.edge_map, [e.eid for e in src.graph.edges],
             [e.eid for e in dst.graph.edges], "edge"),
            (m.alphabet_map, src.alphabet, dst.alphabet, "alphabet")):
        bad = _total_onto(mapping, domain, codomain, what)
        if bad is not None:
            return MorphismReport(False, False, bad[1], bad[0])
    for e in src.graph.edges:
        fe = dst.graph.edge(m.edge_map[e.eid])
        if m.vertex_map[e.dst] != fe.dst:
            return MorphismReport(
                False, False, (e.eid, m.vertex_map[e.dst], fe.dst),
                "range not preserved")
        if m.vertex_map[e.src] != fe.src:
            return MorphismReport(
                False, False, (e.eid, m.vertex_map[e.src], fe.src),
                "source not preserved")
        if dst.labeling[fe.eid] != m.alphabet_map[src.labeling[e.eid]]:
            return MorphismReport(
                False, False,
                (e.eid, dst.labeling[fe.eid], m.alphabet_map[src.labeling[e.eid]]),
                "label compatibility violated")
    iso = (_bijective(m.vertex_map, src.vertices, dst.vertices)
           and _bijective(m.edge_map, [e.eid for e in src.graph.edges],
                          [e.eid for e in dst.graph.edges])
           and _bijective(m.alphabet_map, src.alphabet, dst.alphabet))
    return MorphismReport(True, iso)


def verify_morphism_by_items(m: LabeledGraphMorphism) -> MorphismReport:
    """Oracle for ``verify_morphism``'s bulk reads: the same positional
    check, with every map read and every edge compared item by item."""
    src, dst = m.source.core, m.target.core
    rows = []
    for mapping, domain, positions, what in zip(
            (m.vertex_map, m.edge_map, m.alphabet_map), src.carriers,
            dst.positions, ("vertex", "edge", "alphabet")):
        row = []
        for x in domain:
            if x not in mapping:
                return MorphismReport(False, False, x, f"{what} map not total")
            j = positions.get(mapping[x])
            if j is None:
                return MorphismReport(False, False, (x, mapping[x]),
                                      f"{what} map leaves the target")
            row.append(j)
        rows.append(row)
    vrow, erow, arow = rows
    ids = src.carriers[1]
    vertices, _, letters = dst.carriers
    for e, f in enumerate(erow):
        v, w = vrow[src.dst[e]], dst.dst[f]
        if v != w:
            return MorphismReport(False, False, (ids[e], vertices[v], vertices[w]),
                                  "range not preserved")
        v, w = vrow[src.src[e]], dst.src[f]
        if v != w:
            return MorphismReport(False, False, (ids[e], vertices[v], vertices[w]),
                                  "source not preserved")
        a, b = dst.lab[f], arow[src.lab[e]]
        if a != b:
            return MorphismReport(False, False, (ids[e], letters[a], letters[b]),
                                  "label compatibility violated")
    iso = all(len(set(row)) == len(row) == len(items)
              for row, items in zip(rows, dst.carriers))
    return MorphismReport(True, iso)


def find_fundamental_domain_by_candidates(
        action: LabeledGraphAction) -> DomainSearchResult:
    """Oracle for ``find_fundamental_domain``: every candidate transversal,
    in product order over the in-scope vertex orbits, checked with
    ``is_fundamental_domain`` until one passes."""
    scope = frozenset(action.lifting_scope())
    orbits = [tuple(m for m in members if m in scope)
              for members in action.orbits(VERTEX)]
    total = 1
    for members in orbits:
        total *= len(members)
        if total > action_module.MAX_TRANSVERSALS:
            raise SearchSpaceExceeded(f"{total} candidate transversals")
    tried = 0
    for combo in itertools.product(*orbits):
        tried += 1
        if is_fundamental_domain(action, combo).ok:
            return DomainSearchResult(frozenset(combo), tried)
    return DomainSearchResult(None, tried)
