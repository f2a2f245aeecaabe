"""Labeled graph actions, freeness, quotients, unique path lifting,
fundamental domains and label consistency."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import (PreconditionError, SearchSpaceExceeded,
                     VerificationError, WellDefinednessError)
from .graph import DirectedGraph, Edge
from .groups import Element, Group
from .labeled import Check, LabeledGraph
from .morphism import (LabeledGraphMorphism, is_surjective, verify_morphism)

VERTEX, EDGE, LETTER = "vertex", "edge", "letter"
_KINDS = (VERTEX, EDGE, LETTER)
_KIND_INDEX = {kind: k for k, kind in enumerate(_KINDS)}

Rows = tuple[list[int], list[int], list[int]]


class LabeledGraphAction:
    """A group acting on a (materialized) labeled graph.

    Concrete flavors are :class:`FiniteAction` (explicit per-element
    triples of a finite group) and the translation action on a skew
    product (``skew.TranslationAction``), which may be windowed: there
    ``apply`` returns None when the image escapes the materialization.

    Besides the string-level ``apply``, every action exposes integer
    action tables (:meth:`table`), which the verification and
    reconstruction code runs on.  Actions are immutable, so a table is
    built once per element and cached.
    """

    group: Group
    graph: LabeledGraph

    def __init__(self, group: Group, graph: LabeledGraph):
        self.group = group
        self.graph = graph
        self._carriers = (graph.vertices,
                          tuple(e.eid for e in graph.graph.edges),
                          graph.alphabet)
        self._tables: dict[Element, Rows] = {}
        self._orbits: dict[str, tuple[tuple[str, ...], ...]] = {}

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        raise NotImplementedError

    @cached_property
    def _indexes(self) -> tuple[dict[str, int], ...]:
        return tuple({item: i for i, item in enumerate(items)}
                     for items in self._carriers)

    def carrier(self, kind: str) -> tuple[str, ...]:
        return self._carriers[_KIND_INDEX[kind]]

    def index(self, kind: str) -> Mapping[str, int]:
        """Position of each carrier item in ``carrier(kind)``."""
        return self._indexes[_KIND_INDEX[kind]]

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
        k = _KIND_INDEX[kind]
        s, t = self._indexes[k][source], self._indexes[k][target]
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
        items = self._carriers[k]
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
        carriers = [set(items) for items in self._carriers]
        for g, t in maps.items():
            for mapping, carrier, what in zip(t, carriers, _KINDS):
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
        triples: dict[Element, tuple] = {
            group.identity: ({v: v for v in graph.vertices},
                             {e.eid: e.eid for e in graph.graph.edges},
                             {a: a for a in graph.alphabet})}

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
        triple = self.maps[g]
        idx = _KINDS.index(kind)
        return triple[idx].get(item)

    def _build_table(self, g: Element) -> Rows:
        return tuple([index[mapping[item]] for item in items] + [-1]
                     for mapping, items, index
                     in zip(self.maps[g], self._carriers, self._indexes))

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
#: cap (Python 3.11, 2-core x86 container), ``verify_action`` takes 0.8 s
#: on ``fixtures/skewz.json`` over ``--window 0:184`` (132,450,937 triples;
#: 0:185 is over) and 2.9 s on the finite skew product of the same base
#: over Z/267 (133,239,141 triples), whose rows compose pair by pair.
MAX_TRIPLES = 1 << 27


def homomorphism_triples(action: LabeledGraphAction) -> int:
    """The (g, h, item) triples of the homomorphism law: the pairs of
    scope elements whose product is in the scope, times the carrier
    size.  On the scope -span..span, g + h leaves it for span (span + 1)
    of the n^2 pairs; finite groups keep all of them."""
    n = len(action.scope_elements())
    span = action.interval_span()
    pairs = n * n if span is None else n * n - span * (span + 1)
    return pairs * sum(len(action.carrier(kind)) for kind in _KINDS)


def verify_action(action: LabeledGraphAction) -> ActionReport:
    """Check that every element acts as a labeled graph automorphism, that
    the assignment is a homomorphism and that the identity acts as the
    identity.  For windowed actions the laws are checked pointwise wherever
    all participating items are materialized.

    The homomorphism law alpha_g(alpha_h(x)) = alpha_gh(x) is checked for
    every pair (g, h) of scope elements whose product is in the scope
    (``pairs_checked`` counts them), on every carrier item.  The laws run
    on the integer action tables, and only a mismatch is walked item by
    item to name the witnesses.  When the scope is an integer interval
    (:meth:`LabeledGraphAction.interval_span`), the homomorphism law runs
    item-major: one slice compare per item x and element h covers every g
    at once.  Other scopes (finite groups) compose the rows of each pair
    and compare the result with the row of the product.  Both give the
    same triples, failures and order.

    An action with more than :data:`MAX_TRIPLES` triples raises
    :class:`SearchSpaceExceeded` before any table is built."""
    triples = homomorphism_triples(action)
    if triples > MAX_TRIPLES:
        raise SearchSpaceExceeded(
            f"verifying the action would check {triples} (g, h, item) "
            f"triples, over the cap MAX_TRIPLES = {MAX_TRIPLES}")
    failures: list[tuple[str, Any]] = []
    group = action.group
    scope = action.scope_elements()
    carriers = [action.carrier(kind) for kind in _KINDS]

    for kind, items, row in zip(_KINDS, carriers,
                                action.table(group.identity)):
        for i, j in enumerate(row[:-1]):
            if i != j:
                failures.append(("identity acts as identity",
                                 (kind, items[i], items[j] if j >= 0 else None)))

    vindex, aindex = action.index(VERTEX), action.index(LETTER)
    edges = action.graph.graph.edges
    labeling = action.graph.labeling
    src = [vindex[e.src] for e in edges]
    dst = [vindex[e.dst] for e in edges]
    lab = [aindex[labeling[e.eid]] for e in edges]
    for g in scope:
        rows = action.table(g)
        for kind, items, row in zip(_KINDS, carriers, rows):
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
                failures.append(("range equivariance", (g, edges[e].eid)))
            v = vrow[src[e]]
            if v >= 0 and v != src[f]:
                failures.append(("source equivariance", (g, edges[e].eid)))
            a = arow[lab[e]]
            if a >= 0 and a != lab[f]:
                failures.append(("label compatibility", (g, edges[e].eid)))

    span = action.interval_span()
    if span is None:
        homomorphism, pairs = _homomorphism_all_pairs(action, scope, carriers)
    else:
        homomorphism, pairs = _homomorphism_interval(action, span, carriers)
    failures.extend(homomorphism)
    return ActionReport(not failures, tuple(failures), len(scope), pairs,
                        action.is_windowed())


def _homomorphism_all_pairs(action: LabeledGraphAction,
                            scope: tuple[Element, ...],
                            carriers: list[tuple[str, ...]]
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
            for kind, items, tg, th, tgh in zip(_KINDS, carriers, g_rows,
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
                           carriers: list[tuple[str, ...]]
                           ) -> tuple[list[tuple[str, Any]], int]:
    """The homomorphism law on the scope -span..span, item-major.

    For an item x, let o_x[i] = alpha_{i - span}(x).  For each h with
    y = alpha_h(x) materialized, the values alpha_g(y) and alpha_{g+h}(x)
    over the g with g + h in the scope are the slices o_y[a:b] and
    o_x[a+h:b+h]: the same (g, h, x) triples as the pair scan, whose left
    side is defined only where alpha_h(x) is.  On a correct translation
    both slices name the item g + h layers from x, so they are
    materialized at the same g and compare equal; only a mismatch is
    walked g by g.  Failures are sorted into the pair scan's order."""
    n = 2 * span + 1
    windows = []
    for ph in range(n):
        h = ph - span
        windows.append((ph, max(0, -h), min(n, n - h), h))
    pairs = sum(b - a for _, a, b, _ in windows)
    found = []
    for k in range(len(_KINDS)):
        flat = stacked_rows(action, span, k)
        m = len(flat) // n
        strided = [(ph, a, a * m, b * m, a + h, b + h)
                   for ph, a, b, h in windows]
        for x in range(m - 1):
            ox = flat[x::m]
            for y, (ph, a, am, bm, c, d) in zip(ox, strided):
                if y < 0:
                    continue
                oy = flat[y + am:y + bm:m]
                if oy != ox[c:d]:
                    found.extend((pg, ph, k, x) for pg, (l, r)
                                 in enumerate(zip(oy, ox[c:d]), a)
                                 if l >= 0 and r >= 0 and l != r)
    found.sort()
    failures = [("homomorphism", (pg - span, ph - span, _KINDS[k],
                                  carriers[k][x]))
                for pg, ph, k, x in found]
    return failures, pairs


def stacked_rows(action: LabeledGraphAction, span: int, k: int) -> list[int]:
    """The rows of kind ``k`` of the scope elements -span..span laid end to
    end, m = carrier size + 1 apart: the images of item x over the scope
    are the stride-m slice ``flat[x::m]``, and alpha_g(x) is
    ``flat[(g + span) * m + x]``.  One flat list per kind and call, rather
    than a tuple per item, which raised reconstruct-z's peak RSS by about
    0.5 MB."""
    return list(itertools.chain.from_iterable(
        action.table(g)[k] for g in range(-span, span + 1)))


def is_free(action: LabeledGraphAction) -> Check:
    """Trivial vertex and alphabet stabilizers over the verification
    scope; the witness is (element, fixed item)."""
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

    orbit_of: dict[str, dict[str, str]] = {}
    members_of: dict[str, dict[str, tuple[str, ...]]] = {}
    for kind in _KINDS:
        orbit_of[kind] = {}
        members_of[kind] = {}
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
        other = graph.edge(rep_edge[cls])
        e = graph.edge(eid)
        for attr, kind in ((lambda x: x.src, VERTEX), (lambda x: x.dst, VERTEX)):
            if orbit_of[kind][attr(e)] != orbit_of[kind][attr(other)]:
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
        lg, q_graph, dict(orbit_of[VERTEX]), dict(orbit_of[EDGE]),
        dict(orbit_of[LETTER]))
    report = verify_morphism(projection)
    if not report.ok:
        raise VerificationError("quotient projection is not a morphism",
                                report.witness)
    if not is_surjective(projection):
        raise VerificationError("quotient projection is not surjective", None)
    return QuotientLabeledGraph(
        q_graph, projection,
        dict(orbit_of[VERTEX]), dict(orbit_of[EDGE]), dict(orbit_of[LETTER]),
        dict(members_of[VERTEX]), dict(members_of[EDGE]), dict(members_of[LETTER]))


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


def find_fundamental_domain(action: LabeledGraphAction,
                            cap: int = 10 ** 6) -> DomainSearchResult:
    """First transversal (in deterministic product order over the vertex
    orbits, candidates bounded by the window scope) that passes
    :func:`is_fundamental_domain`, or None with the number of candidates
    tried."""
    scope = action.domain_scope()
    orbits = [tuple(m for m in members if m in scope)
              for members in action.orbits(VERTEX)]
    total = 1
    for members in orbits:
        total *= len(members)
        if total > cap:
            raise SearchSpaceExceeded(
                f"transversal space exceeds cap {cap}")
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
