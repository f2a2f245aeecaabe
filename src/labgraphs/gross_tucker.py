"""Constructive reconstruction of a free labeled graph action as the left
translation on a skew product over its quotient: sections, derived
cocycles, and the verified equivariant isomorphism.  The label-consistent
variant runs the same pipeline with the vertex section chosen inside a
fundamental domain."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .action import (KINDS, LETTER, VERTEX, DomainSearchResult,
                     LabeledGraphAction, QuotientLabeledGraph,
                     find_fundamental_domain, is_free, is_fundamental_domain,
                     is_label_consistent, quotient, verify_action)
from .errors import (LabelConsistencyViolation, LiftFailure, NoFundamentalDomain,
                     NonFreeWitness, PreconditionError, VerificationError)
from .groups import Element
from .morphism import LabeledGraphMorphism, MorphismReport, verify_morphism
from .skew import SkewLabeledGraph, SkewSpec, TranslationAction


@dataclass(frozen=True)
class SectionPack:
    """One-sided inverses of the quotient projection: vertices, edges
    (derivable), and letters."""

    eta0: Mapping[str, str]
    etaA: Mapping[str, str]
    eta1: Mapping[str, str] | None = None


def _validate_eta(quot: QuotientLabeledGraph, mapping: Mapping[str, str],
                  orbit_of: Mapping[str, str], domain: Iterable[str],
                  what: str, scope: frozenset[str] | None = None) -> None:
    domain = set(domain)
    if set(mapping) != domain:
        raise PreconditionError(
            "BAD_SECTION", f"{what} section must be keyed by the quotient carrier")
    for q_item, item in mapping.items():
        if item not in orbit_of:
            raise PreconditionError("BAD_SECTION",
                                    f"{what} section hits unknown item {item!r}")
        if orbit_of[item] != q_item:
            raise PreconditionError(
                "BAD_SECTION",
                f"{what} section is not a section: q({item!r}) != {q_item!r}")
        if scope is not None and item not in scope:
            raise PreconditionError(
                "BAD_SECTION", f"{what} section leaves the window scope: {item!r}")


def default_eta0(action: LabeledGraphAction,
                 quot: QuotientLabeledGraph) -> dict[str, str]:
    """Lexicographically least in-scope representative per vertex orbit."""
    scope = frozenset(action.lifting_scope())
    out = {}
    for q_vertex, members in quot.orbit_vertex_members.items():
        usable = [m for m in members if m in scope]
        if not usable:
            raise PreconditionError(
                "BAD_SECTION", f"orbit {q_vertex} has no in-scope representative")
        out[q_vertex] = min(usable)
    return out


def default_etaA(quot: QuotientLabeledGraph) -> dict[str, str]:
    """Lexicographically least representative per letter orbit; a recorded
    convention, overridable through the section pack."""
    return {q_letter: min(members)
            for q_letter, members in quot.orbit_letter_members.items()}


def derive_eta1(action: LabeledGraphAction, quot: QuotientLabeledGraph,
                eta0: Mapping[str, str]) -> dict[str, str]:
    """The unique edge section whose sources agree with the vertex
    section, obtained by unique path lifting."""
    lg = action.graph
    out: dict[str, str] = {}
    for q_edge in quot.quotient.graph.edges:
        anchor = eta0[q_edge.src]
        lifts = [f.eid for f in lg.graph.out_edges(anchor)
                 if quot.edge_orbit[f.eid] == q_edge.eid]
        if len(lifts) != 1:
            raise LiftFailure(
                f"edge orbit {q_edge.eid} has {len(lifts)} lifts at {anchor}",
                (q_edge.eid, anchor, tuple(lifts)))
        out[q_edge.eid] = lifts[0]
    return out


def _solve_translate(action: LabeledGraphAction, kind: str,
                     source: str, target: str) -> Element:
    """The unique h with alpha_h(source) = target."""
    matches = action.elements_moving(kind, source, target)
    if len(matches) != 1:
        raise NonFreeWitness(
            f"{len(matches)} elements move {source!r} to {target!r}; "
            f"the action cannot be free", (source, target, tuple(matches)))
    return matches[0]


def derive_cocycles(action: LabeledGraphAction, quot: QuotientLabeledGraph,
                    pack: SectionPack) -> tuple[dict[str, Element], dict[str, Element]]:
    """c moves the sectioned range onto the range of the sectioned edge;
    d does the same on letters.  Uniqueness is what freeness buys, and it
    is asserted at runtime by the solver."""
    lg = action.graph
    eta1 = pack.eta1
    assert eta1 is not None
    c: dict[str, Element] = {}
    d: dict[str, Element] = {}
    for q_edge in quot.quotient.graph.edges:
        lifted = lg.graph.edge(eta1[q_edge.eid])
        c[q_edge.eid] = _solve_translate(
            action, VERTEX, pack.eta0[q_edge.dst], lifted.dst)
        q_letter = quot.quotient.labeling[q_edge.eid]
        d[q_edge.eid] = _solve_translate(
            action, LETTER, pack.etaA[q_letter], lg.labeling[lifted.eid])
    return c, d


@dataclass(frozen=True)
class Reconstruction:
    quotient: QuotientLabeledGraph
    pack: SectionPack
    c: Mapping[str, Element]
    d: Mapping[str, Element]
    skew: SkewLabeledGraph
    iso: LabeledGraphMorphism
    morphism_report: MorphismReport
    equivariance_checked: int
    c_factoring: Mapping[str, Element] | None
    d_factoring: Mapping[str, Element] | None
    domain: frozenset[str] | None = None

    @property
    def label_consistent(self) -> bool:
        return self.c_factoring is not None and self.d_factoring is not None


def _reconstruction_layers(action: LabeledGraphAction,
                           quot: QuotientLabeledGraph,
                           eta0: Mapping[str, str]) -> dict[str, tuple]:
    """Layer assignment for the reconstruction skew product: the pullback
    of the acted-on carrier (the scope elements that move the vertex
    section into the lifting scope), so the comparison isomorphism is
    total and bijective rather than window-approximate.  On an integer
    interval the images of a section vertex over the scope are its slice
    of the action's columns; other scopes read the rows of each element."""
    index = action.index(VERTEX)
    inside = {index[v] for v in action.lifting_scope()}
    scope = action.scope_elements()
    if action.interval_span() is None:
        rows = [action.table(h)[0] for h in scope]

        def images(x: int) -> list[int]:
            return [row[x] for row in rows]
    else:
        cols, n = action.columns(VERTEX), len(scope)

        def images(x: int) -> list[int]:
            return cols[x * n:x * n + n]
    return {q_vertex: tuple([h for h, j in zip(scope,
                                               images(index[eta0[q_vertex]]))
                             if j in inside])
            for q_vertex in quot.orbit_vertex_members}


def reconstruct(action: LabeledGraphAction,
                pack: SectionPack | None = None) -> Reconstruction:
    """Build the skew product over the quotient with derived cocycles and
    the comparison isomorphism phi(Gx, g) = alpha_g(eta(Gx)); verify the
    morphism laws, bijectivity and equivariance pointwise
    (:func:`check_equivariance`, item-major on integer windows)."""
    return _reconstruct(action, pack, None)


def _comparison_map(action: LabeledGraphAction, k: int,
                    pairs: Mapping[str, tuple[str, Element]],
                    section: Mapping[str, str]) -> dict[str, str]:
    """phi(q, g) = alpha_g(section(q)) on every item (q, g) of the ``k``-th
    kind of the reconstruction skew product.  When g is a scope element
    the image is read from the action's columns on an integer interval,
    and from the cached table of g on other scopes; halo and letter layers
    may lie outside the scope, and those go through ``apply``, so no table
    is built for them."""
    kind = KINDS[k]
    carrier, index = action.carrier(kind), action.index(kind)
    span = action.interval_span()
    if span is None:
        rows = {g: action.table(g)[k] for g in action.scope_elements()}
    else:
        cols, n = action.columns(kind), 2 * span + 1
    out = {}
    for item, (q, g) in pairs.items():
        if span is None:
            row = rows.get(g)
            j = None if row is None else row[index[section[q]]]
        else:
            j = (cols[index[section[q]] * n + g + span]
                 if -span <= g <= span else None)
        if j is None:
            image = action.apply(g, kind, section[q])
        else:
            image = carrier[j] if j >= 0 else None
        if image is None:
            raise VerificationError("comparison map leaves the carrier",
                                    (kind, item))
        out[item] = image
    return out


def check_equivariance(action: LabeledGraphAction, skew: SkewLabeledGraph,
                       maps: Sequence[Mapping[str, str]]) -> int:
    """Check phi(tau_g x) = alpha_g(phi(x)) for the vertex, edge and letter
    maps ``maps`` from the skew product ``skew`` into the carrier of
    ``action``, tau the left translation of ``skew``: for every
    scope element g of ``action`` and every item x where both sides are
    defined.  Returns the number of such (g, x) pairs.  A mismatch raises
    :class:`VerificationError` naming the least witness (g, kind, x), in
    scope, kind and carrier order; so does a check that compares nothing.

    When the scope is an integer interval, the check runs item-major
    (:func:`_equivariance_interval`): one slice compare per item covers
    every g.  Other scopes compare the gathered rows of each element."""
    tau = TranslationAction(skew)
    images = [[action.index(kind)[mapping[item]] for item in tau.carrier(kind)]
              + [-1] for kind, mapping in zip(KINDS, maps)]
    span = action.interval_span()
    if span is None:
        checked = _equivariance_by_element(action, tau, images)
    else:
        checked = _equivariance_interval(action, span, tau, images)
    if checked == 0:
        raise VerificationError("equivariance could not be exercised", None)
    return checked


def _equivariance_by_element(action: LabeledGraphAction,
                             tau: TranslationAction,
                             images: list[list[int]]) -> int:
    """Equivariance element by element: the images of tau_g and alpha_g
    gathered through the tables of g."""
    checked = 0
    for g in action.scope_elements():
        for kind, image, tau_row, row in zip(KINDS, images, tau.table(g),
                                             action.table(g)):
            lhs = [image[j] for j in tau_row]
            rhs = [row[j] for j in image]
            if lhs == rhs:
                checked += len(lhs) - lhs.count(-1)
                continue
            for i, (l, r) in enumerate(zip(lhs, rhs)):
                if l < 0 or r < 0:
                    continue
                if l != r:
                    raise VerificationError("maps are not equivariant",
                                            (g, kind, tau.carrier(kind)[i]))
                checked += 1
    return checked


def _equivariance_interval(action: LabeledGraphAction, span: int,
                           tau: TranslationAction,
                           images: list[list[int]]) -> int:
    """Equivariance on the scope -span..span, item-major.

    Take an item x over the base item q at layer h.  Over the g of the
    scope, tau_g x is (q, h + g), so the values phi(tau_g x) are a slice of
    the fiber's line, which holds phi(q, t) at each layer t (-1 where
    (q, t) is not materialized), and the values alpha_g(phi(x)) are a
    contiguous slice of phi(x)'s images in the action's columns
    (:meth:`LabeledGraphAction.columns`).  One compare covers
    every g, and only a mismatch is walked g by g.  The line spans the
    fiber's layers when they fill at least half of that extent; a sparser
    fiber (halo layers far from the window) gathers the layers within
    span of h instead, so the lines follow the carrier, never the numeric
    distance between layers.  The count and the least witness equal
    those of :func:`_equivariance_by_element`."""
    first = None
    checked = 0
    n = 2 * span + 1
    for k, (kind, image) in enumerate(zip(KINDS, images)):
        cols = action.columns(kind)
        fibers: dict[str, dict[Element, int]] = {}
        for x, (q, h) in enumerate(tau.coordinates(kind)):
            fibers.setdefault(q, {})[h] = x
        for cells in fibers.values():
            layers = sorted(cells)
            lo, hi = layers[0], layers[-1]
            dense = hi - lo < 2 * len(layers)
            if dense:
                line = [-1] * (hi - lo + 1)
                for t, x in cells.items():
                    line[t - lo] = image[x]
            for h, x in cells.items():
                p = image[x] * n + span
                if dense:
                    a, b = max(-span, lo - h), min(span, hi - h)
                    gs = range(a, b + 1)
                    lhs = line[h + a - lo:h + b - lo + 1]
                    rhs = cols[p + a:p + b + 1]
                else:
                    near = layers[bisect_left(layers, h - span):
                                  bisect_right(layers, h + span)]
                    gs = [t - h for t in near]
                    lhs = [image[cells[t]] for t in near]
                    rhs = [cols[p + g] for g in gs]
                if lhs == rhs:
                    checked += len(lhs) - lhs.count(-1)
                    continue
                for g, l, r in zip(gs, lhs, rhs):
                    if l >= 0 and r >= 0:
                        if l != r:
                            if first is None or (g, k, x) < first:
                                first = (g, k, x)
                            break
                        checked += 1
    if first is not None:
        g, k, x = first
        raise VerificationError("maps are not equivariant",
                                (g, KINDS[k], tau.carrier(KINDS[k])[x]))
    return checked


def _reconstruct(action: LabeledGraphAction, pack: SectionPack | None,
                 quot: QuotientLabeledGraph | None) -> Reconstruction:
    """:func:`reconstruct`, reusing the quotient when the caller already
    computed it."""
    report = verify_action(action)
    if not report.ok:
        raise PreconditionError(
            "ACTION_NOT_VERIFIED", f"first failure: {report.failures[0]!r}")
    freeness = is_free(action)
    if not freeness:
        raise PreconditionError("NOT_FREE", f"witness {freeness.witness!r}")

    if quot is None:
        quot = quotient(action)
    scope = frozenset(action.lifting_scope())
    if pack is None:
        pack = SectionPack(default_eta0(action, quot), default_etaA(quot))
    _validate_eta(quot, pack.eta0, quot.vertex_orbit,
                  quot.quotient.vertices, "vertex", scope)
    _validate_eta(quot, pack.etaA, quot.letter_orbit,
                  quot.quotient.alphabet, "letter")
    if pack.eta1 is None:
        pack = SectionPack(pack.eta0, pack.etaA,
                           derive_eta1(action, quot, pack.eta0))
    else:
        _validate_eta(quot, pack.eta1, quot.edge_orbit,
                      [e.eid for e in quot.quotient.graph.edges], "edge")
        lg = action.graph
        for q_edge in quot.quotient.graph.edges:
            got = lg.graph.edge(pack.eta1[q_edge.eid]).src
            if got != pack.eta0[q_edge.src]:
                raise PreconditionError(
                    "BAD_SECTION",
                    f"edge section source mismatch at {q_edge.eid}: "
                    f"{got!r} != {pack.eta0[q_edge.src]!r}")

    c, d = derive_cocycles(action, quot, pack)
    skew_spec = SkewSpec(quot.quotient, action.group, c, d)
    layers = _reconstruction_layers(action, quot, pack.eta0)
    skew = SkewLabeledGraph(skew_spec, layers, window=None)

    maps = [_comparison_map(action, k, pairs, section)
            for k, (pairs, section) in enumerate(zip(
                (skew.vertex_pair, skew.edge_pair, skew.letter_pair),
                (pack.eta0, pack.eta1, pack.etaA)))]
    iso = LabeledGraphMorphism(skew.graph, action.graph, *maps)
    morphism_report = verify_morphism(iso)
    if not morphism_report.ok:
        raise VerificationError(
            f"reconstruction morphism law failed: {morphism_report.note}",
            morphism_report.witness)
    if not morphism_report.isomorphism:
        raise VerificationError("reconstruction map is not bijective", None)
    checked = check_equivariance(action, skew, maps)

    return Reconstruction(
        quot, pack, c, d, skew, iso, morphism_report, checked,
        is_label_consistent(quot.quotient, c).factoring,
        is_label_consistent(quot.quotient, d).factoring)


def reconstruct_label_consistent(action: LabeledGraphAction,
                                 domain: Iterable[str] | None = None,
                                 etaA: Mapping[str, str] | None = None
                                 ) -> Reconstruction:
    """Reconstruction whose cocycles factor through the quotient labeling,
    obtained by sectioning vertices inside a fundamental domain.  A
    violation of label consistency after the domain verified is an
    internal error, not user input, and is raised as such."""
    if domain is not None:
        fd = is_fundamental_domain(action, domain)
        if not fd.ok:
            raise NoFundamentalDomain(
                f"supplied domain fails: {fd.witness!r}", fd.witness)
        T = frozenset(domain)
    else:
        result: DomainSearchResult = find_fundamental_domain(action)
        if result.domain is None:
            raise NoFundamentalDomain(
                f"no fundamental domain among {result.candidates_tried} "
                f"candidate transversals")
        T = result.domain

    quot = quotient(action)
    eta0 = {}
    for q_vertex, members in quot.orbit_vertex_members.items():
        inside = sorted(T.intersection(members))
        if len(inside) != 1:
            raise NoFundamentalDomain(
                f"domain does not section orbit {q_vertex}", tuple(inside))
        eta0[q_vertex] = inside[0]
    pack = SectionPack(eta0, dict(etaA) if etaA else default_etaA(quot))
    rec = _reconstruct(action, pack, quot)
    if rec.c_factoring is None or rec.d_factoring is None:
        bad = "c" if rec.c_factoring is None else "d"
        raise LabelConsistencyViolation(
            f"derived {bad} is not label consistent despite the verified "
            f"fundamental domain {sorted(T)}; cocycles c={rec.c!r} d={rec.d!r}",
            (bad, dict(rec.c), dict(rec.d), tuple(sorted(T))))
    return Reconstruction(
        rec.quotient, rec.pack, rec.c, rec.d, rec.skew, rec.iso,
        rec.morphism_report, rec.equivariance_checked,
        rec.c_factoring, rec.d_factoring, domain=T)


def identity_layer_sections(action: TranslationAction) -> SectionPack:
    """Sections picking the identity layer of every fiber; defined when
    that layer is materialized.  With these sections the derived cocycles
    coincide with the originating skew spec's cocycles."""
    skew = action.skew
    group = action.group
    base = skew.spec.base
    eta0 = {}
    for q_vertex in base.vertices:
        vid = skew.vertex_id.get((q_vertex, group.identity))
        if vid is None or vid not in skew.window_vertices:
            raise PreconditionError(
                "BAD_SECTION", f"identity layer of {q_vertex} is not in the window")
        eta0[q_vertex] = vid
    etaA = {}
    for q_letter in base.alphabet:
        lid = skew.letter_id.get((q_letter, group.identity))
        if lid is None:
            raise PreconditionError(
                "BAD_SECTION", f"identity layer of letter {q_letter} is missing")
        etaA[q_letter] = lid
    return SectionPack(eta0, etaA)
