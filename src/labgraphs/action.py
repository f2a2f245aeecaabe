"""Labeled graph actions, freeness, quotients, unique path lifting,
fundamental domains and label consistency."""

from __future__ import annotations

import itertools
from functools import cached_property, partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (FrozenRecord, PreconditionError, SearchSpaceExceeded,
                     VerificationError, WellDefinednessError, built_on_read)
from .graph import DirectedGraph, Edge
from .groups import Element, Group, count_elements
from .labeled import Check, GraphCore, LabeledGraph
from .morphism import LabeledGraphMorphism, identity_maps, is_surjective

VERTEX, EDGE, LETTER = "vertex", "edge", "letter"
#: The kinds of carrier item, in the order of ``LabeledGraph.core``.
KINDS = (VERTEX, EDGE, LETTER)
_KIND_INDEX = {kind: k for k, kind in enumerate(KINDS)}


class LabeledGraphAction:
    """A group acting on a (materialized) labeled graph.

    Concrete flavors are :class:`FiniteAction` (explicit per-element
    triples of a finite group) and the translation action on a skew
    product (``skew.TranslationAction``), which may be windowed: there
    ``apply`` returns None when the image escapes the materialization.

    Every action carries its items in one positional form, ``core``, a
    :class:`~labgraphs.labeled.GraphCore`: the carriers, the position of
    each item, and per edge the positions of its source, target and
    label.  A :class:`FiniteAction`'s core is its graph's, in name order;
    a translation's is its skew product's, in the order of the integer
    form, and its named ``graph`` is built only when something reads it.
    The checks (verification, freeness, quotients and reconstruction)
    read the core only.  Besides the string-level ``apply``, every action
    exposes the images of its scope as one item-major block of integers
    per kind (:meth:`columns`, at the core's positions), which the scans
    that name failures run on, and the (fiber, layer) of each item
    (:meth:`coordinates`) with the item at each (fiber, layer)
    (:meth:`located`).  By Gross--Tucker a free action is the left
    translation on a skew product over its quotient: a placed action
    (``_placed``) moves the item at (q, t) to the item at (q, g t), and
    its verification, freeness, orbits and reconstruction read those two
    maps.  Actions are immutable, so all of these are built once and
    cached.
    """

    group: Group
    graph: LabeledGraph
    core: GraphCore

    def __init__(self, group: Group, core: GraphCore):
        self.group = group
        self.core = core
        self._orbits: dict[str, tuple[tuple[str, ...], ...]] = {}

    def apply(self, g: Element, kind: str, item: str) -> str | None:
        raise NotImplementedError

    def carrier(self, kind: str) -> Sequence[str]:
        return self.core.carriers[_KIND_INDEX[kind]]

    def index(self, kind: str) -> Mapping[str, int]:
        """Position of each carrier item in ``carrier(kind)``."""
        return self.core.positions[_KIND_INDEX[kind]]

    def coordinates(self, kind: str) -> Sequence[tuple[str, Element] | None]:
        """The (fiber, layer) of each carrier item, in carrier order.  The
        walk over the carrier makes the first item without coordinates
        the representative r of its fiber, and gives alpha_g(r) the
        coordinates (r, g) for every scope element g.  An item reached
        twice, or never (None), leaves the kind unplaced (``_placed``)."""
        return self._walk[0][_KIND_INDEX[kind]]

    def located(self, kind: str) -> Mapping[tuple[str, Element], int]:
        """The position in ``carrier(kind)`` of the item at each (fiber,
        layer).  On a placed kind it is the exact inverse of
        :meth:`coordinates` and the map the action moves items through:
        the image under g of the item at (q, t) is
        ``located(kind).get((q, g t), -1)``.  Callers must not mutate it."""
        return self._walk[1][_KIND_INDEX[kind]]

    @cached_property
    def _placed(self) -> tuple[bool, ...]:
        """Per kind, whether :meth:`located` is the exact inverse of
        :meth:`coordinates` and alpha_h(x) = ``located(kind)[(q, h t)]``
        for every item x at (q, t) and every scope element h."""
        return self._walk[2]

    @cached_property
    def _walk(self) -> tuple[list, list, tuple[bool, ...]]:
        """:meth:`coordinates`, :meth:`located` and ``_placed`` per kind,
        read from the block.  An item y first reached as alpha_g(r) is
        checked on the spot: alpha_h(y) = alpha_{hg}(r) for every h, its
        slice against r's gathered through the positions of h g, listed
        once per (h, g), so placement reads |G| entries per item."""
        scope = self.scope_elements()
        n, op = len(scope), self.group.op
        position = {g: p for p, g in enumerate(scope)}
        moved = {g: [position[op(h, g)] for h in scope] for g in scope}
        walks = []
        for kind, items in zip(KINDS, self.core.carriers):
            cols = self.columns(kind)
            coords: list = [None] * len(items)
            located: dict[tuple[str, Element], int] = {}
            placed = True
            for r, item in enumerate(items):
                if coords[r] is not None:
                    continue
                orbit = cols[r * n:r * n + n]
                for g, y in zip(scope, orbit):
                    if y < 0:
                        continue
                    located[item, g] = y
                    if coords[y] is not None:
                        placed = False
                        continue
                    coords[y] = (item, g)
                    placed = placed and cols[y * n:y * n + n] == [
                        orbit[p] for p in moved[g]]
            walks.append((coords, located, placed and None not in coords))
        coords, located, placed = zip(*walks)
        return list(coords), list(located), placed

    @cached_property
    def _free(self) -> Check:
        """The verdict of :func:`is_free`, computed once."""
        return _freeness(self)

    def columns(self, kind: str) -> list[int]:
        """The images of the items of ``kind`` under the scope elements,
        item-major in one flat list built once: with n the size of
        :meth:`scope_elements`, the image of item x under the p-th scope
        element is ``columns(kind)[x * n + p]``, the position of the image
        in ``carrier(kind)``, or -1 when it leaves the materialization.  So
        item x's images are the slice [x n, x n + n), and those of the p-th
        element are the stride slice ``columns(kind)[p::n]``, which ends
        with a -1 from a trailing block of n times -1: gathering through it
        (``[row[j] for j in other]``) keeps -1 without a branch.  On a
        translation every entry is the :meth:`located` lookup at (q, g t),
        and on the integer interval of :meth:`interval_span` p = g + span;
        an intact translation never needs its block.  Callers must not
        mutate it."""
        return self._columns[_KIND_INDEX[kind]]

    @cached_property
    def _columns(self) -> list[list[int]]:
        """The block of :meth:`columns` of each kind, in ``KINDS`` order."""
        raise NotImplementedError

    def scope_elements(self) -> Sequence[Element]:
        """Elements over which universally quantified laws are checked:
        all of them for finite groups, -span..span (in that order) when
        :meth:`interval_span` gives a span.  The only code that lists a
        scope, so the one place :data:`MAX_TRIPLES` is checked on an
        action, before anything is listed."""
        refuse_triples(homomorphism_triples(self))
        span = self.interval_span()
        if span is None:
            return self.group.elements()
        return tuple(range(-span, span + 1))

    def interval_span(self) -> int | None:
        """``span`` when the scope is the integer interval -span..span,
        None otherwise."""
        return None

    def lifting_scope(self) -> Sequence[str]:
        """Vertices at which path-lifting statements are quantified, and
        the vertices eligible as fundamental-domain representatives.  On
        a window this excludes the halo vertices, whose incident edges are
        not fully materialized and would make the clause checks
        vacuous."""
        return self.carrier(VERTEX)

    def _orbit_names(self, kind: str) -> list[str]:
        """The name of the orbit of each item, in carrier order.  On a
        placed kind that is the fiber of its coordinates, read in one
        pass: the base item on a translation, and on an action given by
        its triples the least item of the orbit, which the walk over the
        carrier makes its fiber's representative.  On an unplaced kind it
        is the least item of the orbit."""
        if self._placed[_KIND_INDEX[kind]]:
            return list(map(itemgetter(0), self.coordinates(kind)))
        items = self.carrier(kind)
        names: list = [None] * len(items)
        for members in self._orbit_classes(kind):
            name = min(map(items.__getitem__, members))
            for x in members:
                names[x] = name
        return names

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
            items = self.carrier(kind)
            found = self._orbits[kind] = tuple(sorted(
                tuple(sorted(map(items.__getitem__, c)))
                for c in self._orbit_classes(kind)))
        return found

    def _orbit_classes(self, kind: str) -> Iterable[list[int]]:
        """The orbits of a kind as lists of carrier positions.  A placed
        kind's orbits are the fibers of :meth:`coordinates`: the item at
        (q, t) and every alpha_g of it lie over q, and by placement the
        item at (q, u) is alpha_g of the one at (q, t) for g = u t^-1, the
        orbit under the unwindowed action.  On a window the scope elements
        need not link a fiber: a one-layer window has no non-identity
        scope element, and a cocycle value wider than the window puts halo
        layers out of reach of every scope element.  An unplaced kind's
        classes are the items linked by some non-identity scope element,
        read item by item from the slices of :meth:`columns`."""
        if self._placed[_KIND_INDEX[kind]]:
            fibers: dict[str, list[int]] = {}
            for x, (q, _) in enumerate(self.coordinates(kind)):
                fibers.setdefault(q, []).append(x)
            return fibers.values()
        parent = list(range(len(self.carrier(kind))))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        scope, cols = self.scope_elements(), self.columns(kind)
        n, ident = len(scope), scope.index(self.group.identity)
        for x in range(len(parent)):
            for p, y in enumerate(cols[x * n:x * n + n]):
                if y >= 0 and p != ident:
                    rx, ry = find(x), find(y)
                    if rx != ry:
                        parent[ry] = rx
        groups: dict[int, list[int]] = {}
        for x in range(len(parent)):
            groups.setdefault(find(x), []).append(x)
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
        super().__init__(group, graph.core)
        self.graph = graph
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
        a well-definedness failure.

        The closure lists the group, one triple of maps per element, so
        it is refused under :data:`MAX_TRIPLES` before it runs, with the
        count the action's scans would check (the group order squared
        times the carrier size), the order counted without listing the
        elements."""
        refuse_triples(count_elements(group.elements()) ** 2
                       * sum(map(len, graph.core.carriers)))
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

    @cached_property
    def _columns(self) -> list[list[int]]:
        """Each item's images under the elements in scope order, read from
        the maps; the maps are total, so no entry is -1 but the trailing
        block's."""
        scope = self.scope_elements()
        core = self.core
        blocks = []
        for k, (items, index) in enumerate(zip(core.carriers, core.positions)):
            maps = [self.maps[g][k] for g in scope]
            blocks.append([index[m[item]] for item in items for m in maps]
                          + [-1] * len(scope))
        return blocks

    def triple_morphism(self, g: Element) -> LabeledGraphMorphism:
        vm, em, am = self.maps[g]
        return LabeledGraphMorphism(self.graph, self.graph, vm, em, am)


# -- verification -------------------------------------------------------------


class ActionReport(NamedTuple):
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


#: Most (g, h, item) triples the scans that list a scope may serve.  One
#: rule applies it: only :meth:`LabeledGraphAction.scope_elements` lists a
#: scope, and it raises :class:`SearchSpaceExceeded` above the cap before
#: listing anything (:func:`refuse_triples`); so does
#: :meth:`FiniteAction.from_generators` before its closure lists the
#: group, with the count the scans of the action would check.  Every check
#: tries its certificate first, which on a translation never reads the
#: scope, so an intact translation passes at any width; a
#: :class:`FiniteAction` lists its scope to place its items.
#: Just under the cap (Python 3.11, 2-core x86 container), ``verify_action``
#: takes 1.0-1.5 s on ``fixtures/skewz.json`` over ``--window 0:184``
#: (132,450,937 triples) with two vertex coordinates swapped, building the
#: block and naming 69,744 failures, and 0.08-0.14 s on the ``FiniteAction``
#: of the same base over Z/267 (133,239,141 triples).
MAX_TRIPLES = 1 << 27


def refuse_triples(triples: int) -> None:
    """Raise :class:`SearchSpaceExceeded` when ``triples`` (g, h, item)
    triples are over :data:`MAX_TRIPLES`."""
    if triples > MAX_TRIPLES:
        raise SearchSpaceExceeded(
            f"the scans of the scope would check {triples} (g, h, item) "
            f"triples, over the cap MAX_TRIPLES = {MAX_TRIPLES}")


def homomorphism_pairs(action: LabeledGraphAction) -> int:
    """The pairs (g, h) of scope elements whose product is in the scope.
    On the scope -span..span, g + h leaves it for span (span + 1) of the
    n^2 pairs; finite groups keep all of them.  The scope is counted
    (:func:`scope_size`), never listed, so a refusal costs nothing however
    far apart its layers lie."""
    n, span = scope_size(action), action.interval_span()
    return n * n if span is None else n * n - span * (span + 1)


def scope_size(action: LabeledGraphAction) -> int:
    """The number of scope elements, counted from the group order or the
    span without listing them (:meth:`~LabeledGraphAction.scope_elements`
    applies the cap with this count)."""
    span = action.interval_span()
    return len(action.group.elements()) if span is None else 2 * span + 1


def layer_pairs(action: LabeledGraphAction,
                fibers: Iterable[list[Element]]) -> int:
    """The pairs (g, t) of a scope element g and a layer t of a fiber
    (distinct elements) with g t on the fiber, summed over ``fibers``:
    |layers|^2 per fiber on a finite group, and on -span..span the layers
    within span of each, found with two pointers over the sorted layers."""
    span = action.interval_span()
    if span is None:
        return sum(len(layers) ** 2 for layers in fibers)
    count = 0
    for layers in map(sorted, fibers):
        lo = hi = 0
        for t in layers:
            while layers[lo] < t - span:
                lo += 1
            while hi < len(layers) and layers[hi] <= t + span:
                hi += 1
            count += hi - lo
    return count


def homomorphism_triples(action: LabeledGraphAction) -> int:
    """The (g, h, item) triples of the homomorphism law: the pairs of
    :func:`homomorphism_pairs` times the carrier size."""
    return homomorphism_pairs(action) * sum(map(len, action.core.carriers))


def verify_action(action: LabeledGraphAction) -> ActionReport:
    """Check that every element acts as a labeled graph automorphism, that
    the assignment is a homomorphism and that the identity acts as the
    identity.  For windowed actions the laws are checked pointwise wherever
    all participating items are materialized.

    The homomorphism law alpha_g(alpha_h(x)) = alpha_gh(x) is checked for
    every pair (g, h) of scope elements whose product is in the scope
    (``pairs_checked`` counts them), on every carrier item.  When the
    translation certificate holds (:func:`_translation_certified`), so
    does every law.  Otherwise the scans below run on the block of scope
    images (:meth:`LabeledGraphAction.columns`), the homomorphism law
    item-major (:func:`_homomorphism`), and name every failure.

    The certificate is tried first and counts the scope without listing
    it (:func:`scope_size`), so an intact translation verifies at any
    width; only the scans list it, under :data:`MAX_TRIPLES`."""
    if _translation_certified(action):
        return ActionReport(True, (), scope_size(action),
                            homomorphism_pairs(action),
                            action.interval_span() is not None)
    scope = action.scope_elements()
    failures: list[tuple[str, Any]] = []
    core = action.core
    carriers = core.carriers
    blocks = [action.columns(kind) for kind in KINDS]
    n, ident = len(scope), scope.index(action.group.identity)

    for kind, items, cols in zip(KINDS, carriers, blocks):
        for i, j in enumerate(cols[ident::n][:-1]):
            if i != j:
                failures.append(("identity acts as identity",
                                 (kind, items[i], items[j] if j >= 0 else None)))

    edges, src, dst, lab = carriers[1], core.src, core.dst, core.lab
    for p, g in enumerate(scope):
        rows = [cols[p::n] for cols in blocks]
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

    homomorphism, pairs = _homomorphism(action, scope, action.interval_span(),
                                        carriers)
    failures.extend(homomorphism)
    return ActionReport(not failures, tuple(failures), len(scope), pairs,
                        action.interval_span() is not None)


def require_verified(action: LabeledGraphAction) -> None:
    """Raise ``ACTION_NOT_VERIFIED``, naming the first failure, unless
    ``action`` passes :func:`verify_action`."""
    report = verify_action(action)
    if not report.ok:
        raise PreconditionError(
            "ACTION_NOT_VERIFIED", f"first failure: {report.failures[0]!r}")


def _translation_certified(action: LabeledGraphAction) -> bool:
    """Whether the action is a translation along the fibers of
    :meth:`LabeledGraphAction.coordinates`, checked over ``group.op`` on
    either scope shape: an integer interval, where g t is g + t, or a
    finite group.  Write (q(x), t(x)) for the coordinates of item x and L
    for :meth:`LabeledGraphAction.located`, -1 where it lists no item.

    - Placement (``_placed``): L is the exact inverse of the coordinates
      and alpha_g(x) = L(q(x), g t(x)) for every g of the scope.  A
      translation's block is that lookup, so only the inverse is checked
      there; a :class:`FiniteAction` is checked entry by entry.
    - Right factors: over the edges of one edge fiber, the ranges lie on
      one vertex fiber P at the layers t k, t the edge's layer, for one
      element k (k = u - t on an interval); so do the sources and the
      labels.  Each edge's factors k = t^-1 u cost one ``inv`` and one
      ``op`` per end, and must equal those of its fiber's first edge.

    Why they give every law.  Identity: alpha_1(x) = L(q(x), t(x)) = x.
    Injectivity: alpha_g(x) = alpha_g(y) = z >= 0 puts z at
    (q(x), g t(x)) and at (q(y), g t(y)), and L lists z only at its own
    coordinates, so x = y.  Homomorphism: y = alpha_h(x) >= 0 sits at
    (q(x), h t(x)), so alpha_g(y) = L(q(x), g h t(x)) = alpha_{gh}(x)
    whenever gh is in the scope.  Range equivariance: let f = alpha_g(e)
    >= 0 for an edge e over fiber Q at layer t, and (P, k) the factor of
    Q's ranges.  Then f sits at (Q, g t), its range r(f) at (P, g t k)
    and r(e) at (P, t k), so alpha_g(r(e)) = L(P, g t k) = r(f); the
    sources and labels follow in the same way.  So an action that passes
    has no failure, and its ``pairs_checked`` is that of
    :func:`homomorphism_pairs`."""
    if not all(action._placed):
        return False
    core = action.core
    op, inv = action.group.op, action.group.inv
    vertices, edges, letters = (action.coordinates(kind) for kind in KINDS)
    factors: dict[str, tuple] = {}
    for (q, t), d, s, a in zip(edges, core.dst, core.src, core.lab):
        (p, u), (r, v), (b, w) = vertices[d], vertices[s], letters[a]
        ti = inv(t)
        found = (p, op(ti, u), r, op(ti, v), b, op(ti, w))
        if factors.setdefault(q, found) != found:
            return False
    return True


def _homomorphism(action: LabeledGraphAction, scope: tuple[Element, ...],
                  span: int | None, carriers: tuple[tuple[str, ...], ...]
                  ) -> tuple[list[tuple[str, Any]], int]:
    """The homomorphism law item-major, on either scope shape.

    For an item x, let o_x[p] = alpha_{scope[p]}(x), its slice of
    :meth:`LabeledGraphAction.columns`.  For each h with y = alpha_h(x)
    materialized, the values alpha_g(y) over the g with gh in the scope
    are a slice o_y[a:b], and the values alpha_gh(x) sit in o_x at the
    positions of gh, which the scope supplies per h: on -span..span the g
    run over [a, b) and gh sits h places further, a slice of o_x; on a
    finite group every g counts and the positions of gh are a permutation
    of the scope, gathered from o_x.  These are the (g, h, x) triples of
    the pair-by-pair law, whose left side is defined only where
    alpha_h(x) is.  On a correct action both sides name the same item at
    every g and compare equal; only a mismatch is walked g by g.  Failures
    are sorted into (g, h, kind, item) order."""
    n = len(scope)
    windows = []
    if span is None:
        position = {g: p for p, g in enumerate(scope)}
        op = action.group.op
        for ph, h in enumerate(scope):
            moved = [position[op(g, h)] for g in scope]
            # the identity's positions are a slice; an itemgetter of one
            # index (the trivial group) would return an int, not a tuple
            windows.append((ph, 0, n, slice(0, n) if moved == list(range(n))
                            else itemgetter(*moved)))
    else:
        for ph in range(n):
            h = ph - span
            a, b = max(0, -h), min(n, n - h)
            windows.append((ph, a, b, slice(a + h, b + h)))
    pairs = sum(b - a for _, a, b, _ in windows)
    found = []
    for k, kind in enumerate(KINDS):
        cols = action.columns(kind)
        for x in range(len(cols) // n - 1):
            ox = cols[x * n:x * n + n]
            for y, (ph, a, b, at) in zip(ox, windows):
                if y < 0:
                    continue
                oy = cols[y * n + a:y * n + b]
                rhs = ox[at] if at.__class__ is slice else list(at(ox))
                if oy != rhs:
                    found.extend((pg, ph, k, x) for pg, (l, r)
                                 in enumerate(zip(oy, rhs), a)
                                 if l >= 0 and r >= 0 and l != r)
    found.sort()
    failures = [("homomorphism", (scope[pg], scope[ph], KINDS[k],
                                  carriers[k][x]))
                for pg, ph, k, x in found]
    return failures, pairs


def is_free(action: LabeledGraphAction) -> Check:
    """Trivial vertex and alphabet stabilizers over the verification
    scope; the witness is (element, fixed item), the least in scope, kind
    and carrier order.  The verdict is computed once and cached on the
    action (:meth:`LabeledGraphAction._free`)."""
    return action._free


def _freeness(action: LabeledGraphAction) -> Check:
    """:func:`is_free`, uncached.

    An action whose vertices and letters are placed (``_placed``) is
    free: for g other than the identity, alpha_g(x) = L(q(x), g t(x)) is
    an item at another layer or -1, never x, since L lists x at its own
    coordinates only.  That verdict is read before the scope is listed.

    Otherwise each vertex and letter x is looked up in its slice of
    :meth:`LabeledGraphAction.columns`, at the first position other than
    the identity's that holds x."""
    placed = action._placed
    if placed[_KIND_INDEX[VERTEX]] and placed[_KIND_INDEX[LETTER]]:
        return Check(True)
    blocks = [action.columns(kind) for kind in (VERTEX, LETTER)]
    scope = action.scope_elements()
    n, ident = len(scope), scope.index(action.group.identity)
    least = None
    for kind, cols in zip((VERTEX, LETTER), blocks):
        for x in range(len(cols) // n - 1):
            col = cols[x * n:x * n + n]
            if col.count(x) > (col[ident] == x):
                p = col.index(x)
                if p == ident:
                    p = col.index(x, ident + 1)
                found = (p, _KIND_INDEX[kind], x)
                least = found if least is None else min(least, found)
    if least is None:
        return Check(True)
    p, k, x = least
    return Check(False, (scope[p], action.core.carriers[k][x]))


# -- quotients ----------------------------------------------------------------


class QuotientLabeledGraph(FrozenRecord):
    """The orbit labeled graph of an action (:func:`quotient`): the
    ``quotient`` graph and the ``projection`` onto it, the orbit of each
    item by name (``vertex_orbit``, ``edge_orbit``, ``letter_orbit``) and
    the members of each orbit as a sorted tuple (``orbit_vertex_members``
    and so on, in the order of :meth:`LabeledGraphAction.orbits`).  The
    projection and the three member maps may be given as functions of no
    arguments, which build them on first read: :func:`quotient` checks
    the projection without its source graph, which a translation names
    only when something reads it, and its members are sorted by name
    only when something reads them."""

    _fields = ("quotient", "projection", "vertex_orbit", "edge_orbit",
               "letter_orbit", "orbit_vertex_members", "orbit_edge_members",
               "orbit_letter_members")
    _on_read = ("projection", "orbit_vertex_members", "orbit_edge_members",
                "orbit_letter_members")
    projection = built_on_read("projection")
    orbit_vertex_members = built_on_read("orbit_vertex_members")
    orbit_edge_members = built_on_read("orbit_edge_members")
    orbit_letter_members = built_on_read("orbit_letter_members")

    def __init__(self, quotient: LabeledGraph,
                 projection: LabeledGraphMorphism | Callable[[], Any],
                 vertex_orbit: Mapping[str, str],
                 edge_orbit: Mapping[str, str],
                 letter_orbit: Mapping[str, str],
                 orbit_vertex_members: Mapping[str, tuple[str, ...]]
                 | Callable[[], Any],
                 orbit_edge_members: Mapping[str, tuple[str, ...]]
                 | Callable[[], Any],
                 orbit_letter_members: Mapping[str, tuple[str, ...]]
                 | Callable[[], Any]):
        self._set_fields((quotient, projection, vertex_orbit, edge_orbit,
                          letter_orbit, orbit_vertex_members,
                          orbit_edge_members, orbit_letter_members))


def quotient(action: LabeledGraphAction) -> QuotientLabeledGraph:
    """Orbit labeled graph with its projection, in the positions of the
    action's core.  Well-definedness of the induced range, source and
    labeling maps is re-checked explicitly rather than trusted, and that
    one check is the projection's morphism check.

    The quotient's edge E runs from the vertex orbit to the vertex orbit,
    with the label orbit, of the triple ``induced[E]`` of one edge of E,
    and the projection p sends each item to its orbit.  So p keeps the
    range, source and label of an edge e exactly when the triple of e
    equals ``induced[E]``, which is the comparison below, made for every
    edge: :func:`~labgraphs.morphism.verify_morphism` on p would check
    those same equalities.  Its other laws hold by construction: the
    orbits partition each carrier, so p is total; every vertex orbit is a
    quotient vertex and every edge orbit a quotient edge; and every letter
    labels an edge (a labeling is surjective), so every letter orbit is
    the label of the quotient edge of that edge.  When the comparison
    fails, some edge differs from the first edge of its orbit, and the
    walk names that pair in a :class:`WellDefinednessError`.
    Surjectivity is checked after the quotient is built, on the orbit of
    each item; the projection is named on first read."""
    core = action.core
    orbit_at = [action._orbit_names(kind) for kind in KINDS]
    vertex_at, edge_at, letter_at = orbit_at
    orbit_of = [dict(zip(items, at))
                for items, at in zip(core.carriers, orbit_at)]

    # well-definedness: all edges in an orbit must agree on the orbits of
    # their sources, targets and labels.  Each edge's triple of orbits is
    # read from the core; only a disagreement is walked, in orbit order,
    # to name its first pair.
    ends = list(zip(map(vertex_at.__getitem__, core.src),
                    map(vertex_at.__getitem__, core.dst),
                    map(letter_at.__getitem__, core.lab)))
    induced = dict(zip(edge_at, ends))
    if list(map(induced.__getitem__, edge_at)) != ends:
        index = core.positions[1]
        rep_edge: dict[str, str] = {}
        for eid in itertools.chain.from_iterable(action.orbits(EDGE)):
            other = rep_edge.setdefault(edge_at[index[eid]], eid)
            if other == eid:
                continue
            (src, dst, a), (other_src, other_dst, other_a) = (
                ends[index[eid]], ends[index[other]])
            if src != other_src or dst != other_dst:
                raise WellDefinednessError(
                    "source/range maps are not constant on an edge orbit",
                    (eid, other))
            if a != other_a:
                raise WellDefinednessError(
                    "labeling is not constant on an edge orbit", (eid, other))

    q_edges = []
    q_labeling = {}
    for cls, (src, dst, a) in sorted(induced.items()):
        q_edges.append(Edge(cls, src, dst))
        q_labeling[cls] = a
    q_graph = LabeledGraph(DirectedGraph(set(vertex_at), q_edges), q_labeling)
    if not all(positions.keys() == set(at) for at, positions in zip(
            orbit_at, q_graph.core.positions)):
        raise VerificationError("quotient projection is not surjective", None)

    def projection() -> LabeledGraphMorphism:
        return LabeledGraphMorphism(action.graph, q_graph,
                                    *(dict(maps) for maps in orbit_of))

    def members(kind: str, orbit: Mapping[str, str]
                ) -> dict[str, tuple[str, ...]]:
        return {orbit[found[0]]: found for found in action.orbits(kind)}

    return QuotientLabeledGraph(
        q_graph, projection, *orbit_of,
        *(partial(members, kind, of) for kind, of in zip(KINDS, orbit_of)))


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


class FundamentalDomainReport(NamedTuple):
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
    scope = frozenset(action.lifting_scope())
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

    letter_orbit = _letter_orbits(action)
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


def _letter_orbits(action: LabeledGraphAction) -> dict[str, str]:
    """The name of each letter's orbit."""
    return dict(zip(action.carrier(LETTER), action._orbit_names(LETTER)))


def _clause_labels(action: LabeledGraphAction, vertices: Iterable[str]
                   ) -> dict[str, dict[tuple[str, str], str] | None]:
    """For each of ``vertices``, the one label of the edges into it (clause
    a) or out of it (clause b) in each letter orbit, keyed by (clause,
    orbit name); None for a vertex where two such edges carry different
    labels, which no fundamental domain holds."""
    core = action.core
    names, _, letters = core.carriers
    letter_orbit = _letter_orbits(action)
    tables: dict[str, dict[tuple[str, str], str] | None] = {
        v: {} for v in vertices}
    for src, dst, a in zip(core.src, core.dst, core.lab):
        label = letters[a]
        orbit = letter_orbit[label]
        for key, v in ((("a", orbit), names[dst]), (("b", orbit), names[src])):
            table = tables.get(v)
            if table is not None and table.setdefault(key, label) != label:
                tables[v] = None
    return tables


class DomainSearchResult(NamedTuple):
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
    scope = frozenset(action.lifting_scope())
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
    # one representative per orbit makes every candidate a transversal, so
    # it passes when its vertices' label tables agree on every key
    tables = _clause_labels(action, {v for members in orbits for v in members})
    tried = 0
    for combo in itertools.product(*orbits):
        tried += 1
        seen: dict[tuple[str, str], str] = {}
        for v in combo:
            table = tables[v]
            if table is None or any(seen.setdefault(key, label) != label
                                    for key, label in table.items()):
                break
        else:
            return DomainSearchResult(frozenset(combo), tried)
    return DomainSearchResult(None, tried)


# -- label consistency ---------------------------------------------------------


class LabelConsistency(NamedTuple):
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
