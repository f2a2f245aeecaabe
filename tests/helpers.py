"""Shared constructions used by several test modules."""

import random
from typing import Any, Iterable, Mapping

from labgraphs import fixtures as fx
from labgraphs.action import (EDGE, LETTER, VERTEX, ActionReport, FiniteAction,
                              LabeledGraphAction)
from labgraphs.errors import SearchSpaceExceeded
from labgraphs.graph import DirectedGraph, require_valid
from labgraphs.groups import CyclicGroup
from labgraphs.labeled import (Check, LabeledGraph, labeled_paths,
                               representatives)
from labgraphs.lattice import Derivation
from labgraphs.morphism import LabeledGraphMorphism, MorphismReport
from labgraphs.skew import SkewLabeledGraph, TranslationAction


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


def verify_action_exhaustive(action: LabeledGraphAction) -> ActionReport:
    """Definitional oracle for ``verify_action``: every law checked item by
    item through ``apply`` on string ids, for every pair of scope elements
    whose product is in the scope."""
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
        for e in graph.edges:
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
                        action.is_windowed())


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


def interior_vertices_by_definition(skew: SkewLabeledGraph) -> frozenset[str]:
    """Oracle for ``SkewLabeledGraph.interior_vertices``: the window
    vertices (x, g) such that, for every base edge e entering x, the source
    layer g c(e)^-1 is a materialized layer of the source of e."""
    group, base = skew.spec.group, skew.spec.base
    out = set()
    for vid in skew.window_vertices:
        x, g = skew.vertex_pair[vid]
        if all(group.op(g, group.inv(skew.spec.c[e.eid]))
               in skew.layers.get(e.src, ())
               for e in base.graph.in_edges(x)):
            out.add(vid)
    return frozenset(out)


def orbits_bruteforce(action: LabeledGraphAction,
                      kind: str) -> tuple[tuple[str, ...], ...]:
    """Oracle for ``orbits`` of a finite group: connected components of the
    graph linking each item x to every image apply(g, x), g a non-identity
    group element, found by search over string ids."""
    assert action.group.is_finite
    items = action.carrier(kind)
    links: dict[str, set[str]] = {x: set() for x in items}
    for g in action.group.elements():
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


def translation_fibers(action: TranslationAction,
                       kind: str) -> tuple[tuple[str, ...], ...]:
    """Oracle for ``orbits`` of a translation on a skew product: the orbit
    of (x, h) under the unwindowed action is every (x, g), so an orbit is
    the set of materialized items over one base item."""
    skew = action.skew
    pairs = {VERTEX: skew.vertex_pair, EDGE: skew.edge_pair,
             LETTER: skew.letter_pair}[kind]
    items = action.carrier(kind)
    return tuple(sorted(
        tuple(sorted(x for x in items if pairs[x][0] == base))
        for base in {pairs[x][0] for x in items}))


class _Closure:
    """Worklist closure engine over bitmasks with derivation tracking."""

    def __init__(self, lg: LabeledGraph, rel_complements: bool,
                 order_seed: int | None):
        self.lg = lg
        self.rel_complements = rel_complements
        self.rng = random.Random(order_seed) if order_seed is not None else None
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
            if self.rng is not None:
                i = self.rng.randrange(len(self.worklist))
                self.worklist[i], self.worklist[-1] = (self.worklist[-1],
                                                       self.worklist[i])
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
    eng = _Closure(lg, rel_complements, order_seed=None)
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
