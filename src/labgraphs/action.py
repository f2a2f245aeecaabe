"""Labeled graph actions, freeness, quotients, unique path lifting,
fundamental domains and label consistency."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .errors import (PreconditionError, SearchSpaceExceeded,
                     VerificationError, WellDefinednessError)
from .graph import DirectedGraph, Edge
from .groups import Element, Group
from .labeled import Check, LabeledGraph
from .morphism import (LabeledGraphMorphism, identity_maps, is_surjective,
                       verify_morphism)

VERTEX, EDGE, LETTER = "vertex", "edge", "letter"
#: The kinds of carrier item, in the order of ``LabeledGraph.core``.
KINDS = (VERTEX, EDGE, LETTER)
_KIND_INDEX = {kind: k for k, kind in enumerate(KINDS)}

Rows = tuple[list[int], list[int], list[int]]


class LabeledGraphAction:
    """A group acting on a (materialized) labeled graph.

    Concrete flavors are :class:`FiniteAction` (explicit per-element
    triples of a finite group) and the translation action on a skew
    product (``skew.TranslationAction``), which may be windowed: there
    ``apply`` returns None when the image escapes the materialization.

    Besides the string-level ``apply``, every action exposes integer
    action tables (:meth:`table`), which the verification and
    reconstruction code runs on.  Their positions are those of the
    graph's :class:`~labgraphs.labeled.GraphCore`.  Actions are immutable,
    so a table is built once per element and cached.
    """

    group: Group
    graph: LabeledGraph

    def __init__(self, group: Group, graph: LabeledGraph):
        self.group = group
        self.graph = graph
        self._tables: dict[Element, Rows] = {}
        self._orbits: dict[str, tuple[tuple[str, ...], ...]] = {}

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        raise NotImplementedError

    def carrier(self, kind: str) -> tuple[str, ...]:
        return self.graph.core.carriers[_KIND_INDEX[kind]]

    def index(self, kind: str) -> Mapping[str, int]:
        """Position of each carrier item in ``carrier(kind)``."""
        return self.graph.core.positions[_KIND_INDEX[kind]]

    def table(self, g: Element) -> Rows:
        """The action of ``g`` as three integer rows (vertices, edges,
        letters), indexed in ``carrier(kind)`` order: ``row[i]`` is the
        position of the image of item ``i``, or -1 when the image leaves
        the materialization.  Each row ends with one extra -1 slot, so
        ``row[-1] == -1`` and composing two rows (``[r1[x] for x in
        r2]``) keeps -1 without a branch.  The rows are cached and shared:
        callers must not mutate them."""
        rows = self._tables.get(g)
        if rows is None:
            rows = self._tables[g] = self._build_table(g)
        return rows

    def _build_table(self, g: Element) -> Rows:
        raise NotImplementedError

    def coordinates(self, kind: str) -> Sequence[tuple[str, int]]:
        """The (fiber, layer) of each carrier item, in ``carrier(kind)``
        order, for actions whose scope is an integer interval
        (:meth:`interval_span`).  Such an action is meant to move the item
        at (q, t) to the item at (q, t + g); :func:`verify_action` tries
        that first and falls back to its scans when the tables disagree."""
        raise NotImplementedError

    def columns(self, kind: str) -> list[int]:
        """The images of the items of ``kind`` over the scope -span..span
        of :meth:`interval_span`, item-major in one flat list built once:
        with n = 2 span + 1, alpha_g(x) is ``columns(kind)[x * n + g +
        span]``, so item x's images are the slice [x n, x n + n), and a
        trailing block of n times -1 stands for the rows' sentinel slot.
        The table row of a scope element g is the stride slice
        ``columns(kind)[g + span::n]``.  Callers must not mutate it."""
        raise NotImplementedError

    def scope_elements(self) -> tuple[Element, ...]:
        """Elements over which universally quantified laws are checked:
        all of them for finite groups, -span..span (in that order) when
        :meth:`interval_span` gives a span."""
        span = self.interval_span()
        if span is None:
            return self.group.elements()
        return tuple(range(-span, span + 1))

    def interval_span(self) -> int | None:
        """``span`` when the scope is the integer interval -span..span,
        None otherwise."""
        return None

    def elements_moving(self, kind: str, source: str,
                        target: str) -> tuple[Element, ...]:
        """The elements h with alpha_h(source) = target, searched over the
        scope on the tables."""
        k, index = _KIND_INDEX[kind], self.index(kind)
        s, t = index[source], index[target]
        return tuple(h for h in self.scope_elements()
                     if self.table(h)[k][s] == t)

    def lifting_scope(self) -> tuple[str, ...]:
        """Vertices at which path-lifting statements are quantified."""
        return self.graph.vertices

    def domain_scope(self) -> frozenset[str]:
        """Vertices eligible as fundamental-domain representatives.  For
        windowed actions this excludes halo vertices, whose incident edges
        are not fully materialized and would make the clause checks
        vacuous."""
        return frozenset(self.graph.vertices)

    def orbit_name(self, kind: str, members: tuple[str, ...]) -> str:
        return min(members)

    def is_windowed(self) -> bool:
        return False

    def base_isomorphism(self, quot: QuotientLabeledGraph
                         ) -> LabeledGraphMorphism | None:
        """The verified canonical isomorphism from the quotient ``quot`` of
        this action onto the graph the action was built over, when the
        action has one; None for an action given by its element triples."""
        return None

    def orbits(self, kind: str) -> tuple[tuple[str, ...], ...]:
        """Orbit partition of a carrier, as sorted tuples in deterministic
        order.  Computed once per kind and cached."""
        found = self._orbits.get(kind)
        if found is None:
            found = self._orbits[kind] = tuple(sorted(
                tuple(sorted(c)) for c in self._orbit_classes(kind)))
        return found

    def _orbit_classes(self, kind: str) -> Iterable[list[str]]:
        """The classes of items linked by some non-identity scope element."""
        k = _KIND_INDEX[kind]
        items = self.graph.core.carriers[k]
        parent = list(range(len(items)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ident = self.group.identity
        for g in self.scope_elements():
            if g == ident:
                continue
            for x, y in enumerate(self.table(g)[k][:-1]):
                if y >= 0:
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[ry] = rx
        groups: dict[int, list[str]] = {}
        for x, item in enumerate(items):
            groups.setdefault(find(x), []).append(item)
        return groups.values()


class FiniteAction(LabeledGraphAction):
    """Explicit action of a finite group: one automorphism triple per
    element, stored as total maps."""

    def __init__(self, group: Group, graph: LabeledGraph,
                 maps: Mapping[Element, tuple[Mapping[str, str],
                                              Mapping[str, str],
                                              Mapping[str, str]]]):
        if not group.is_finite:
            raise PreconditionError(
                "INFINITE_GROUP",
                "raw actions are accepted for finite groups only; present "
                "integer actions as skew products")
        super().__init__(group, graph)
        elements = set(group.elements())
        if set(maps) != elements:
            raise PreconditionError(
                "PARTIAL_ACTION", "one triple per group element is required")
        carriers = [set(items) for items in graph.core.carriers]
        for g, t in maps.items():
            for mapping, carrier, what in zip(t, carriers, KINDS):
                if set(mapping) != carrier or not set(mapping.values()) <= carrier:
                    raise PreconditionError(
                        "PARTIAL_ACTION",
                        f"{what} map of element {g!r} is not a total self-map")
        self.maps = {g: (dict(t[0]), dict(t[1]), dict(t[2]))
                     for g, t in maps.items()}
    @classmethod
    def from_generators(cls, group: Group, graph: LabeledGraph,
                        generators: Mapping[Element, tuple]) -> "FiniteAction":
        """Close generator triples under the group multiplication.  A
        disagreement between two words for the same element is reported as
        a well-definedness failure."""
        triples: dict[Element, tuple] = {group.identity: identity_maps(graph)}

        def composed(t1, t2):
            return tuple({k: m1[m2[k]] for k in m2} for m1, m2 in zip(t1, t2))

        for g, t in generators.items():
            if g in triples and triples[g] != tuple(dict(m) for m in t):
                raise WellDefinednessError("generator clashes with identity", g)
            triples[g] = tuple(dict(m) for m in t)
        frontier = list(generators)
        while frontier:
            nxt = []
            for g in list(generators):
                for h in frontier:
                    gh = group.op(g, h)
                    t = composed(triples[g], triples[h])
                    if gh not in triples:
                        triples[gh] = t
                        nxt.append(gh)
                    elif triples[gh] != t:
                        raise WellDefinednessError(
                            "generator words disagree", (g, h, gh))
            frontier = nxt
        return cls(group, graph, triples)

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        return self.maps[g][_KIND_INDEX[kind]].get(item)

    def _build_table(self, g: Element) -> Rows:
        core = self.graph.core
        return tuple([index[mapping[item]] for item in items] + [-1]
                     for mapping, items, index
                     in zip(self.maps[g], core.carriers, core.positions))

    def triple_morphism(self, g: Element) -> LabeledGraphMorphism:
        vm, em, am = self.maps[g]
        return LabeledGraphMorphism(self.graph, self.graph, vm, em, am)


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ActionReport:
    ok: bool
    failures: tuple[tuple[str, Any], ...]
    elements_checked: int
    pairs_checked: int
    windowed: bool

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": [[law, repr(w)] for law, w in self.failures],
            "elements_checked": self.elements_checked,
            "pairs_checked": self.pairs_checked,
            "verified_on_window": self.windowed,
        }


#: Most (g, h, item) triples :func:`verify_action` checks the homomorphism
#: law on.  :func:`homomorphism_triples` counts them from the scope and
#: carrier sizes, and an action over the cap raises
#: :class:`SearchSpaceExceeded` before any table is built.  Just under the
#: cap (Python 3.11, 2-core x86 container), ``verify_action`` takes about
#: 0.02 s on ``fixtures/skewz.json`` over ``--window 0:184`` (132,450,937
#: triples; 0:185 is over), where the translation certificate holds, and
#: about 1.2 s on a copy with two vertex coordinates swapped, whose scans
#: name its 69,744 failures; and 3.8-5.7 s on the finite skew product of
#: the same base over Z/267 (133,239,141 triples), whose rows compose pair
#: by pair.
MAX_TRIPLES = 1 << 27


def homomorphism_pairs(action: LabeledGraphAction) -> int:
    """The pairs (g, h) of scope elements whose product is in the scope.
    On the scope -span..span, g + h leaves it for span (span + 1) of the
    n^2 pairs; finite groups keep all of them."""
    n = len(action.scope_elements())
    span = action.interval_span()
    return n * n if span is None else n * n - span * (span + 1)


def homomorphism_triples(action: LabeledGraphAction) -> int:
    """The (g, h, item) triples of the homomorphism law: the pairs of
    :func:`homomorphism_pairs` times the carrier size."""
    return homomorphism_pairs(action) * sum(map(len, action.graph.core.carriers))


def verify_action(action: LabeledGraphAction) -> ActionReport:
    """Check that every element acts as a labeled graph automorphism, that
    the assignment is a homomorphism and that the identity acts as the
    identity.  For windowed actions the laws are checked pointwise wherever
    all participating items are materialized.

    The homomorphism law alpha_g(alpha_h(x)) = alpha_gh(x) is checked for
    every pair (g, h) of scope elements whose product is in the scope
    (``pairs_checked`` counts them), on every carrier item.  The laws run
    on the integer action tables, and only a mismatch is walked item by
    item to name the witnesses.

    When the scope is an integer interval
    (:meth:`LabeledGraphAction.interval_span`), the action is first
    checked against a translation certificate of the size of the carrier
    (:func:`_translation_certified`); when it holds, every law holds and
    the report is built without a scan.  Otherwise, and on other scopes,
    the scans below run and name every failure.  On an integer interval
    the homomorphism law runs item-major: one slice compare per item x and
    element h covers every g at once.  Other scopes (finite groups)
    compose the rows of each pair and compare the result with the row of
    the product.  Both give the same triples, failures and order.

    An action with more than :data:`MAX_TRIPLES` triples raises
    :class:`SearchSpaceExceeded` before any table is built.  On a
    translation the scope spans the numeric width of all layers, so fibers
    whose layers lie far apart are refused by this cap."""
    triples = homomorphism_triples(action)
    if triples > MAX_TRIPLES:
        raise SearchSpaceExceeded(
            f"verifying the action would check {triples} (g, h, item) "
            f"triples, over the cap MAX_TRIPLES = {MAX_TRIPLES}")
    group = action.group
    scope = action.scope_elements()
    span = action.interval_span()
    if span is not None and _translation_certified(action, span):
        return ActionReport(True, (), len(scope), homomorphism_pairs(action),
                            action.is_windowed())
    failures: list[tuple[str, Any]] = []
    core = action.graph.core
    carriers = core.carriers

    for kind, items, row in zip(KINDS, carriers,
                                action.table(group.identity)):
        for i, j in enumerate(row[:-1]):
            if i != j:
                failures.append(("identity acts as identity",
                                 (kind, items[i], items[j] if j >= 0 else None)))

    edges, src, dst, lab = carriers[1], core.src, core.dst, core.lab
    for g in scope:
        rows = action.table(g)
        for kind, items, row in zip(KINDS, carriers, rows):
            images = [j for j in row if j >= 0]
            if len(set(images)) == len(images):
                continue
            seen: dict[int, int] = {}
            for i, j in enumerate(row[:-1]):
                if j < 0:
                    continue
                if j in seen:
                    failures.append(
                        ("injectivity", (g, kind, items[seen[j]], items[i])))
                seen[j] = i
        vrow, erow, arow = rows
        for e, f in enumerate(erow[:-1]):
            if f < 0:
                continue
            v = vrow[dst[e]]
            if v >= 0 and v != dst[f]:
                failures.append(("range equivariance", (g, edges[e])))
            v = vrow[src[e]]
            if v >= 0 and v != src[f]:
                failures.append(("source equivariance", (g, edges[e])))
            a = arow[lab[e]]
            if a >= 0 and a != lab[f]:
                failures.append(("label compatibility", (g, edges[e])))

    if span is None:
        homomorphism, pairs = _homomorphism_all_pairs(action, scope, carriers)
    else:
        homomorphism, pairs = _homomorphism_interval(action, span, carriers)
    failures.extend(homomorphism)
    return ActionReport(not failures, tuple(failures), len(scope), pairs,
                        action.is_windowed())


def _translation_certified(action: LabeledGraphAction, span: int) -> bool:
    """Whether the tables of the scope -span..span are those of a
    translation along the fibers of :meth:`LabeledGraphAction.coordinates`,
    checked in time and space of the order of the carrier plus the tables.

    The certificate is three checks on the coordinates (q(x), t(x)):

    - placement: no two items of a kind share a (fiber, layer), so
      L(q, t), the item at (q, t) or -1 when there is none, is defined;
    - lines: alpha_g(x) = L(q(x), t(x) + g) for every item x and every g
      of the scope, -1 entries included.  Item x's slice of
      :meth:`LabeledGraphAction.columns` is compared with the slice of the
      fiber's line around t(x), padded with -1, in one compare per item; a
      fiber whose layers are sparse (a halo far from the window) gathers
      the layers within span of t(x) instead;
    - edge offsets: over the edges of one edge fiber, the fiber of the
      range and its layer minus the edge's layer are the same, and so are
      those of the source and of the label.

    Why they give every law.  Identity: alpha_0(x) = L(q(x), t(x)) = x by
    placement.  Injectivity: alpha_g(x) = alpha_g(y) = z >= 0 puts x and y
    at the coordinates of z shifted by -g, so x = y by placement.
    Homomorphism: y = alpha_h(x) >= 0 sits at (q(x), t(x) + h), so
    alpha_g(y) = L(q(x), t(x) + h + g) = alpha_{g+h}(x) whenever g + h is
    in the scope.  Range equivariance: let f = alpha_g(e) >= 0 for an edge
    e over fiber Q at layer t, and (P, c) the offset of Q's ranges.  Then
    f sits at (Q, t + g) and its range r(f) at (P, t + g + c), while r(e)
    sits at (P, t + c), so alpha_g(r(e)) = L(P, t + c + g) = r(f).  The
    sources and labels follow in the same way.  So an action that passes
    has no failure, and its ``pairs_checked`` is that of
    :func:`homomorphism_pairs`."""
    n = 2 * span + 1
    coordinates = [action.coordinates(kind) for kind in KINDS]
    fibers_of = []
    for coords in coordinates:
        fibers: dict[str, dict[int, int]] = {}
        for x, (q, t) in enumerate(coords):
            cells = fibers.setdefault(q, {})
            if t in cells:
                return False
            cells[t] = x
        fibers_of.append(fibers)

    core = action.graph.core
    vertices, edges, letters = coordinates
    for ends, coords in ((core.dst, vertices), (core.src, vertices),
                         (core.lab, letters)):
        offsets: dict[str, tuple[str, int]] = {}
        for (q, t), j in zip(edges, ends):
            p, u = coords[j]
            if offsets.setdefault(q, (p, u - t)) != (p, u - t):
                return False

    for kind, fibers in zip(KINDS, fibers_of):
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


def _homomorphism_all_pairs(action: LabeledGraphAction,
                            scope: tuple[Element, ...],
                            carriers: tuple[tuple[str, ...], ...]
                            ) -> tuple[list[tuple[str, Any]], int]:
    """The homomorphism law pair by pair: each pair (g, h) composes two
    rows and compares the result with the row of gh."""
    group = action.group
    in_scope = set(scope)
    scope_rows = [action.table(g) for g in scope]
    failures = []
    pairs = 0
    for g, g_rows in zip(scope, scope_rows):
        for h, h_rows in zip(scope, scope_rows):
            gh = group.op(g, h)
            if not (group.is_finite or gh in in_scope):
                continue
            for kind, items, tg, th, tgh in zip(KINDS, carriers, g_rows,
                                                h_rows, action.table(gh)):
                lhs = [tg[x] for x in th]
                if lhs == tgh or lhs == [r if l >= 0 else -1
                                         for l, r in zip(lhs, tgh)]:
                    continue
                failures.extend(
                    ("homomorphism", (g, h, kind, items[i]))
                    for i, (l, r) in enumerate(zip(lhs, tgh))
                    if l >= 0 and r >= 0 and l != r)
            pairs += 1
    return failures, pairs


def _homomorphism_interval(action: LabeledGraphAction, span: int,
                           carriers: tuple[tuple[str, ...], ...]
                           ) -> tuple[list[tuple[str, Any]], int]:
    """The homomorphism law on the scope -span..span, item-major.

    For an item x, let o_x[i] = alpha_{i - span}(x), its slice of
    :meth:`LabeledGraphAction.columns`.  For each h with y = alpha_h(x)
    materialized, the values alpha_g(y) and alpha_{g+h}(x) over the g with
    g + h in the scope are the slices o_y[a:b] and o_x[a+h:b+h]: the same
    (g, h, x) triples as the pair scan, whose left side is defined only
    where alpha_h(x) is.  On a correct translation both slices name the
    item g + h layers from x, so they are materialized at the same g and
    compare equal; only a mismatch is walked g by g.  Failures are sorted
    into the pair scan's order."""
    n = 2 * span + 1
    windows = []
    for ph in range(n):
        h = ph - span
        a, b = max(0, -h), min(n, n - h)
        windows.append((ph, a, b, a + h, b + h))
    pairs = sum(b - a for _, a, b, _, _ in windows)
    found = []
    for k, kind in enumerate(KINDS):
        cols = action.columns(kind)
        for x in range(len(cols) // n - 1):
            ox = cols[x * n:x * n + n]
            for y, (ph, a, b, c, d) in zip(ox, windows):
                if y < 0:
                    continue
                oy = cols[y * n + a:y * n + b]
                if oy != ox[c:d]:
                    found.extend((pg, ph, k, x) for pg, (l, r)
                                 in enumerate(zip(oy, ox[c:d]), a)
                                 if l >= 0 and r >= 0 and l != r)
    found.sort()
    failures = [("homomorphism", (pg - span, ph - span, KINDS[k],
                                  carriers[k][x]))
                for pg, ph, k, x in found]
    return failures, pairs


def is_free(action: LabeledGraphAction) -> Check:
    """Trivial vertex and alphabet stabilizers over the verification
    scope; the witness is (element, fixed item), the least in scope, kind
    and carrier order.  On an integer interval each vertex and letter x
    is looked up in its slice of :meth:`LabeledGraphAction.columns`, at
    the first position other than the centre (the identity) that holds x;
    other scopes scan the rows of each element in turn."""
    span = action.interval_span()
    if span is not None:
        n, least = 2 * span + 1, None
        for kind in (VERTEX, LETTER):
            cols = action.columns(kind)
            for x in range(len(cols) // n - 1):
                col = cols[x * n:x * n + n]
                if col.count(x) > (col[span] == x):
                    p = col.index(x)
                    if p == span:
                        p = col.index(x, span + 1)
                    found = (p - span, _KIND_INDEX[kind], x)
                    least = found if least is None else min(least, found)
        if least is None:
            return Check(True)
        g, k, x = least
        return Check(False, (g, action.graph.core.carriers[k][x]))
    ident = action.group.identity
    for g in action.scope_elements():
        if g == ident:
            continue
        rows = action.table(g)
        for kind in (VERTEX, LETTER):
            for i, j in enumerate(rows[_KIND_INDEX[kind]]):
                if i == j:
                    return Check(False, (g, action.carrier(kind)[i]))
    return Check(True)


# -- quotients ----------------------------------------------------------------


@dataclass(frozen=True)
class QuotientLabeledGraph:
    quotient: LabeledGraph
    projection: LabeledGraphMorphism
    vertex_orbit: Mapping[str, str]
    edge_orbit: Mapping[str, str]
    letter_orbit: Mapping[str, str]
    orbit_vertex_members: Mapping[str, tuple[str, ...]]
    orbit_edge_members: Mapping[str, tuple[str, ...]]
    orbit_letter_members: Mapping[str, tuple[str, ...]]


def quotient(action: LabeledGraphAction) -> QuotientLabeledGraph:
    """Orbit labeled graph with its projection.  Well-definedness of the
    induced range, source and labeling maps is re-checked explicitly
    rather than trusted."""
    lg = action.graph
    graph = lg.graph

    orbit_of: dict[str, dict[str, str]] = {kind: {} for kind in KINDS}
    members_of: dict[str, dict[str, tuple[str, ...]]] = {
        kind: {} for kind in KINDS}
    for kind in KINDS:
        for members in action.orbits(kind):
            name = action.orbit_name(kind, members)
            members_of[kind][name] = members
            for x in members:
                orbit_of[kind][x] = name

    # well-definedness: all edges in an orbit must agree on the orbits of
    # their sources, targets and labels
    rep_edge: dict[str, str] = {}
    for eid in orbit_of[EDGE]:
        cls = orbit_of[EDGE][eid]
        if cls not in rep_edge:
            rep_edge[cls] = eid
            continue
        e, other = graph.edge(eid), graph.edge(rep_edge[cls])
        vertex_orbit = orbit_of[VERTEX]
        if (vertex_orbit[e.src] != vertex_orbit[other.src]
                or vertex_orbit[e.dst] != vertex_orbit[other.dst]):
            raise WellDefinednessError(
                "source/range maps are not constant on an edge orbit",
                (eid, other.eid))
        if (orbit_of[LETTER][lg.labeling[eid]]
                != orbit_of[LETTER][lg.labeling[other.eid]]):
            raise WellDefinednessError(
                "labeling is not constant on an edge orbit", (eid, other.eid))

    q_vertices = sorted(members_of[VERTEX])
    q_edges = []
    q_labeling = {}
    for cls, eid in sorted(rep_edge.items()):
        e = graph.edge(eid)
        q_edges.append(Edge(cls, orbit_of[VERTEX][e.src], orbit_of[VERTEX][e.dst]))
        q_labeling[cls] = orbit_of[LETTER][lg.labeling[eid]]
    q_graph = LabeledGraph(DirectedGraph(q_vertices, q_edges), q_labeling)

    projection = LabeledGraphMorphism(
        lg, q_graph, *(dict(orbit_of[kind]) for kind in KINDS))
    report = verify_morphism(projection)
    if not report.ok:
        raise VerificationError("quotient projection is not a morphism",
                                report.witness)
    if not is_surjective(projection):
        raise VerificationError("quotient projection is not surjective", None)
    return QuotientLabeledGraph(
        q_graph, projection, *(dict(orbit_of[kind]) for kind in KINDS),
        *(dict(members_of[kind]) for kind in KINDS))


def has_unique_path_lifting(p: LabeledGraphMorphism,
                            scope: Iterable[str] | None = None) -> Check:
    """For every source vertex u (in ``scope``) and every target edge e
    starting at p(u) there must be exactly one lift of e with source u."""
    if not is_surjective(p):
        raise PreconditionError("NOT_SURJECTIVE",
                                "path lifting is stated for surjective morphisms")
    source, target = p.source.graph, p.target.graph
    vertices = tuple(scope) if scope is not None else source.vertices
    for u in vertices:
        pu = p.vertex_map[u]
        for e in target.out_edges(pu):
            lifts = [f.eid for f in source.out_edges(u)
                     if p.edge_map[f.eid] == e.eid]
            if len(lifts) != 1:
                return Check(False, (u, e.eid, tuple(lifts)))
    return Check(True)


# -- fundamental domains -------------------------------------------------------


@dataclass(frozen=True)
class FundamentalDomainReport:
    ok: bool
    transversal: Check
    violations: tuple[tuple[str, str, str], ...]  # (clause, edge, edge)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def witness(self):
        if not self.transversal:
            return ("transversal", self.transversal.witness)
        if self.violations:
            return self.violations[0]
        return None


def is_fundamental_domain(action: LabeledGraphAction,
                          domain: Iterable[str]) -> FundamentalDomainReport:
    """A vertex-orbit transversal such that edges meeting it (at range,
    clause a, or source, clause b) with orbit-equal labels carry literally
    equal labels."""
    lg = action.graph
    T = frozenset(domain)
    scope = action.domain_scope()
    for v in T:
        if not lg.graph.has_vertex(v):
            raise PreconditionError("UNKNOWN_VERTEX", v)
        if v not in scope:
            raise PreconditionError(
                "OUTSIDE_WINDOW_SCOPE",
                f"candidate representative {v!r} is not in the window scope")
    transversal: Check = Check(True)
    for members in action.orbits(VERTEX):
        hits = sorted(T.intersection(members))
        if len(hits) != 1:
            transversal = Check(False, (members[0], tuple(hits)),
                                "orbit not represented exactly once")
            break

    letter_orbit: dict[str, str] = {}
    for members in action.orbits(LETTER):
        name = action.orbit_name(LETTER, members)
        for a in members:
            letter_orbit[a] = name

    violations: list[tuple[str, str, str]] = []
    for clause, anchor in (("a", lambda e: e.dst), ("b", lambda e: e.src)):
        touching = [e for e in lg.graph.edges if anchor(e) in T]
        by_orbit: dict[str, list] = {}
        for e in touching:
            by_orbit.setdefault(letter_orbit[lg.labeling[e.eid]], []).append(e)
        for _, es in sorted(by_orbit.items()):
            for e1, e2 in itertools.combinations(es, 2):
                if lg.labeling[e1.eid] != lg.labeling[e2.eid]:
                    violations.append((clause, e1.eid, e2.eid))
    ok = bool(transversal) and not violations
    return FundamentalDomainReport(ok, transversal, tuple(violations))


@dataclass(frozen=True)
class DomainSearchResult:
    domain: frozenset[str] | None
    candidates_tried: int

    def __bool__(self) -> bool:
        return self.domain is not None


#: Most candidate transversals :func:`find_fundamental_domain` may face,
#: the product of the in-scope vertex orbit sizes.
MAX_TRANSVERSALS = 10 ** 6


def find_fundamental_domain(action: LabeledGraphAction) -> DomainSearchResult:
    """First transversal (in deterministic product order over the vertex
    orbits, candidates bounded by the window scope) that passes
    :func:`is_fundamental_domain`, or None with the number of candidates
    tried.  More than :data:`MAX_TRANSVERSALS` candidates raise
    :class:`SearchSpaceExceeded` before the first is tried."""
    scope = action.domain_scope()
    orbits = [tuple(m for m in members if m in scope)
              for members in action.orbits(VERTEX)]
    total = 1
    for members in orbits:
        total *= len(members)
        if total > MAX_TRANSVERSALS:
            raise SearchSpaceExceeded(
                f"the fundamental domain search would face at least "
                f"{total} candidate transversals, over the cap "
                f"MAX_TRANSVERSALS = {MAX_TRANSVERSALS}")
    tried = 0
    for combo in itertools.product(*orbits):
        tried += 1
        report = is_fundamental_domain(action, combo)
        if report.ok:
            return DomainSearchResult(frozenset(combo), tried)
    return DomainSearchResult(None, tried)


# -- label consistency ---------------------------------------------------------


@dataclass(frozen=True)
class LabelConsistency:
    factoring: Mapping[str, Element] | None
    witness: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.factoring is not None


def is_label_consistent(lg: LabeledGraph,
                        cocycle: Mapping[str, Element]) -> LabelConsistency:
    """The unique factoring of an edge cocycle through the labeling, when
    all equally labeled edges carry equal values."""
    for e in lg.graph.edges:
        if e.eid not in cocycle:
            raise PreconditionError("PARTIAL_COCYCLE", e.eid)
    factoring: dict[str, Element] = {}
    first_edge: dict[str, str] = {}
    for e in lg.graph.edges:
        a = lg.labeling[e.eid]
        if a in factoring:
            if factoring[a] != cocycle[e.eid]:
                return LabelConsistency(None, (first_edge[a], e.eid))
        else:
            factoring[a] = cocycle[e.eid]
            first_edge[a] = e.eid
    return LabelConsistency(factoring)
