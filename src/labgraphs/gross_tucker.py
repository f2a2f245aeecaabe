"""Constructive reconstruction of a free labeled graph action as the left
translation on a skew product over its quotient: sections, derived
cocycles, and the verified equivariant isomorphism.  The label-consistent
variant runs the same pipeline with the vertex section chosen inside a
fundamental domain."""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .action import (KINDS, LETTER, VERTEX, DomainSearchResult,
                     LabeledGraphAction, QuotientLabeledGraph,
                     find_fundamental_domain, is_free, is_fundamental_domain,
                     is_label_consistent, layer_pairs, quotient,
                     require_verified)
from .errors import (FrozenRecord, LabelConsistencyViolation, LiftFailure,
                     NoFundamentalDomain, NonFreeWitness, PreconditionError,
                     VerificationError, built_on_read)
from .groups import Element
from .morphism import (LabeledGraphMorphism, MorphismReport, verify_morphism,
                       verify_rows)
from .skew import SkewLabeledGraph, SkewSpec, TranslationAction


class SectionPack(NamedTuple):
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
    section, obtained by unique path lifting: the edges of each quotient
    edge's orbit that leave its sectioned source, read from the action's
    core."""
    core = action.core
    at, edges = core.positions[0], core.carriers[1]
    leaving: dict[int, list[str]] = {at[x]: [] for x in eta0.values()}
    for eid, s in zip(edges, core.src):
        found = leaving.get(s)
        if found is not None:
            found.append(eid)
    out: dict[str, str] = {}
    edge_orbit = quot.edge_orbit
    for q_eid, q_src, _ in quot.quotient.graph.edges:
        anchor = eta0[q_src]
        lifts = [eid for eid in leaving[at[anchor]]
                 if edge_orbit[eid] == q_eid]
        if len(lifts) != 1:
            raise LiftFailure(
                f"edge orbit {q_eid} has {len(lifts)} lifts at {anchor}",
                (q_eid, anchor, tuple(lifts)))
        out[q_eid] = lifts[0]
    return out


def _solve_translate(action: LabeledGraphAction, kind: str,
                     source: str, target: str) -> Element:
    """The unique h with alpha_h(source) = target, on a placed kind:
    h = t s^-1 for the source at (q, s) and the target at (q, t), once
    ``apply`` confirms it.  Across fibers, or unconfirmed, no element
    moves source to target and :class:`NonFreeWitness` is raised.  On a
    window h may lie outside the scope, as a halo target may."""
    index, coords = action.index(kind), action.coordinates(kind)
    (q, s), (p, t) = coords[index[source]], coords[index[target]]
    if q == p:
        h = action.group.op(t, action.group.inv(s))
        if action.apply(h, kind, source) == target:
            return h
    raise NonFreeWitness(
        f"0 elements move {source!r} to {target!r}; "
        f"the action cannot be free", (source, target, ()))


def derive_cocycles(action: LabeledGraphAction, quot: QuotientLabeledGraph,
                    pack: SectionPack) -> tuple[dict[str, Element], dict[str, Element]]:
    """c moves the sectioned range onto the range of the sectioned edge;
    d does the same on letters.  The sectioned edge's range and label are
    read from the action's core.  Uniqueness is what freeness buys, and
    it is asserted at runtime by the solver."""
    core = action.core
    vertices, index, letters = (core.carriers[0], core.positions[1],
                                core.carriers[2])
    eta1 = pack.eta1
    assert eta1 is not None
    labeling = quot.quotient.labeling
    c: dict[str, Element] = {}
    d: dict[str, Element] = {}
    for q_eid, _, q_dst in quot.quotient.graph.edges:
        e = index[eta1[q_eid]]
        c[q_eid] = _solve_translate(
            action, VERTEX, pack.eta0[q_dst], vertices[core.dst[e]])
        d[q_eid] = _solve_translate(
            action, LETTER, pack.etaA[labeling[q_eid]], letters[core.lab[e]])
    return c, d


class Reconstruction(FrozenRecord):
    """A verified reconstruction: the quotient, the sections, the derived
    cocycles, the skew product over the quotient, the comparison
    isomorphism ``iso`` from it onto the acted-on graph with its
    ``morphism_report``, the count of pointwise equivariance checks, the
    factorings of the cocycles through the quotient labeling (None where
    they do not factor) and the fundamental domain of the label-consistent
    variant.  ``iso`` may be given as a function of no arguments, which
    builds it on first read: :func:`reconstruct` checks the comparison
    map in positions and names it only when something reads it."""

    _fields = ("quotient", "pack", "c", "d", "skew", "iso",
               "morphism_report", "equivariance_checked", "c_factoring",
               "d_factoring", "domain")
    _on_read = ("iso",)
    iso = built_on_read("iso")

    def __init__(self, quotient: QuotientLabeledGraph, pack: SectionPack,
                 c: Mapping[str, Element], d: Mapping[str, Element],
                 skew: SkewLabeledGraph,
                 iso: LabeledGraphMorphism | Callable[[], LabeledGraphMorphism],
                 morphism_report: MorphismReport, equivariance_checked: int,
                 c_factoring: Mapping[str, Element] | None,
                 d_factoring: Mapping[str, Element] | None,
                 domain: frozenset[str] | None = None):
        self._set_fields((quotient, pack, c, d, skew, iso, morphism_report,
                          equivariance_checked, c_factoring, d_factoring,
                          domain))

    @property
    def label_consistent(self) -> bool:
        return self.c_factoring is not None and self.d_factoring is not None


def _reconstruction_layers(action: LabeledGraphAction,
                           quot: QuotientLabeledGraph,
                           eta0: Mapping[str, str]) -> dict[str, tuple]:
    """Layer assignment for the reconstruction skew product: the pullback
    of the acted-on carrier (the elements that move the vertex section
    into the lifting scope), so the comparison isomorphism is total and
    bijective rather than window-approximate.  On a placed action h moves
    the section vertex at (q, t) to the item at (q, h t), so the elements
    are h = u t^-1 for the members at (q, u) of the section's own fiber in
    the lifting scope; each lies in the scope, since the span bounds u - t
    on an interval.  They are listed ascending, which is the scope order
    on an interval and the element order of every finite group."""
    index, coords = action.index(VERTEX), action.coordinates(VERTEX)
    op, inv = action.group.op, action.group.inv
    fibers: dict[str, list[Element]] = {}
    for v in action.lifting_scope():
        q, u = coords[index[v]]
        fibers.setdefault(q, []).append(u)
    layers = {}
    for q_vertex in quot.quotient.vertices:
        q, t = coords[index[eta0[q_vertex]]]
        ti = inv(t)
        layers[q_vertex] = tuple(sorted([op(u, ti) for u in fibers[q]]))
    return layers


def reconstruct(action: LabeledGraphAction,
                pack: SectionPack | None = None) -> Reconstruction:
    """Build the skew product over the quotient with derived cocycles and
    the comparison isomorphism phi(Gx, g) = alpha_g(eta(Gx)); verify the
    morphism laws, bijectivity and equivariance pointwise, in positions
    (:func:`_reconstruct`)."""
    return _reconstruct(action, pack, None)


def _comparison_row(action: LabeledGraphAction, k: int,
                    coordinates: list[tuple[str, Element]],
                    section: Mapping[str, str]) -> list[int]:
    """phi(q, g) = alpha_g(section(q)) on every item (q, g) of the ``k``-th
    kind of the reconstruction skew product's integer form, listed in
    ``coordinates``, as positions in the action's carrier: the
    :meth:`~LabeledGraphAction.located` lookup at (fiber, g t) of
    section(q), or -1 where it lists no item.  Halo and letter layers may
    lie outside the scope of a window; the lookup is the translation's
    own there too."""
    kind = KINDS[k]
    index, located = action.index(kind), action.located(kind)
    coords, op = action.coordinates(kind), action.group.op
    at = {q: coords[index[x]] for q, x in section.items()}
    ends = map(at.__getitem__, map(itemgetter(0), coordinates))
    return [located.get((p, op(g, t)), -1)
            for (p, t), g in zip(ends, map(itemgetter(1), coordinates))]


def check_equivariance(action: LabeledGraphAction, skew: SkewLabeledGraph,
                       maps: Sequence[Mapping[str, str]]) -> int:
    """Check phi(tau_g x) = alpha_g(phi(x)) for the vertex, edge and letter
    maps ``maps`` from the skew product ``skew`` into the carrier of
    ``action``, tau the left translation of ``skew``: for every
    scope element g of ``action`` and every item x where both sides are
    defined.  Returns the number of such (g, x) pairs.  A mismatch raises
    :class:`VerificationError` naming the least witness (g, kind, x), in
    scope, kind and carrier order; so does a check that compares nothing.

    The maps are read into positions and, when tau is placed, checked
    against a certificate of the size of the carriers
    (:func:`_equivariance_offsets`, which :func:`reconstruct` runs on its
    positions directly), which gives the count in closed form without
    either block.  When it fails, one scan runs element by element in
    scope order (:func:`_equivariance_by_element`) and names the least
    witness."""
    tau = TranslationAction(skew)
    images = [list(map(action.index(kind).__getitem__,
                       map(mapping.__getitem__, tau.carrier(kind)))) + [-1]
              for kind, mapping in zip(KINDS, maps)]
    checked = None
    if all(tau._placed):
        checked = _equivariance_offsets(
            action, [tau.coordinates(kind) for kind in KINDS], images)
    if checked is None:
        checked = _equivariance_by_element(action, tau, images)
    if checked == 0:
        raise VerificationError("equivariance could not be exercised", None)
    return checked


def _equivariance_by_element(action: LabeledGraphAction,
                             tau: TranslationAction,
                             images: list[list[int]]) -> int:
    """Equivariance element by element over the scope of ``action``: the
    images of alpha_g are the stride slice of g's position in the
    action's block, those of tau_g the same slice of tau's block over the
    same scope (:meth:`~labgraphs.skew.TranslationAction.blocks`), and
    each side is gathered through the other.  The scope runs in its own
    order (-span..span on an integer interval), so the first mismatch is
    the least witness.  Listing the scope applies
    :data:`~labgraphs.action.MAX_TRIPLES`."""
    checked = 0
    scope = action.scope_elements()
    n = len(scope)
    tau_blocks = tau.blocks(scope)
    for p, g in enumerate(scope):
        for kind, image, tau_block in zip(KINDS, images, tau_blocks):
            tau_row = tau_block[p::n]
            row = action.columns(kind)[p::n]
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


def _equivariance_offsets(action: LabeledGraphAction,
                          coordinates: Sequence[Sequence[tuple[str, Element]]],
                          images: Sequence[Sequence[int]]) -> int | None:
    """The count of :func:`_equivariance_by_element` when the maps
    certify equivariance, None when they do not.  ``coordinates`` holds
    the (fiber, layer) of each item of tau's carriers, per kind, and
    ``images`` the position of phi of each in the action's carrier, in
    the same order; the caller vouches that tau is placed on them (a
    ``TranslationAction`` by ``_placed``, the integer form of a skew
    product by construction).  Write L for the
    :meth:`~LabeledGraphAction.located` map of the action, so that
    alpha_g(y) = L(q(y), g t(y)).  The certificate is:

    - placement of the action (``_placed``) and of tau;
    - right factors: phi sends every item of a skew fiber q into one
      action fiber P at the layer t(x) k, for one element k: the first
      item gives k = h^-1 u, and every other item is checked with one
      ``op``.

    Then for x at (q, h) and g in the scope with x' = tau_g x >= 0, x'
    sits at (q, g h) and phi(x') at (P, g h k), so by placement
    phi(x') = L(P, g h k) = alpha_g(phi(x)).  Wherever the left side is
    defined both sides are, and they are equal; where it is not, the
    pair is not counted.  So the count is, per skew fiber, the pairs of
    a scope element and a layer that it moves onto another layer
    (:func:`~labgraphs.action.layer_pairs`)."""
    if not all(action._placed):
        return None
    op, inv = action.group.op, action.group.inv
    checked = 0
    for kind, pairs, image in zip(KINDS, coordinates, images):
        coords = action.coordinates(kind)
        factors: dict[str, tuple[str, Element]] = {}
        fibers: dict[str, list[Element]] = {}
        for (q, h), j in zip(pairs, image):
            p, u = coords[j]
            found = factors.get(q)
            if found is None:
                factors[q] = (p, op(inv(h), u))
            elif found[0] != p or op(h, found[1]) != u:
                return None
            fibers.setdefault(q, []).append(h)
        checked += layer_pairs(action, fibers.values())
    return checked


def _reconstruct(action: LabeledGraphAction, pack: SectionPack | None,
                 quot: QuotientLabeledGraph | None,
                 domain: frozenset[str] | None = None) -> Reconstruction:
    """:func:`reconstruct`, reusing the quotient when the caller already
    computed it.

    The skew product over the quotient is built in its integer form
    only, and phi is read into positions in the action's carriers
    (:func:`_comparison_row`).  Its totality, the morphism laws and
    bijectivity (:func:`~labgraphs.morphism.verify_rows`) and the
    equivariance certificate (:func:`_equivariance_offsets`) are checked
    on those positions; where the certificate fails, the scan of
    :func:`_equivariance_by_element` runs on the same positions.  A check
    that fails raises what the check by name raises, with the same
    witness; a morphism law names phi to find it.  The record's ``iso``
    is named on first read."""
    require_verified(action)
    freeness = is_free(action)
    if not freeness:
        raise PreconditionError("NOT_FREE", f"witness {freeness.witness!r}")
    # a verified free action is placed: ``located`` gives its images below

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
        core = action.core
        for q_edge in quot.quotient.graph.edges:
            got = core.carriers[0][core.src[
                core.positions[1][pack.eta1[q_edge.eid]]]]
            if got != pack.eta0[q_edge.src]:
                raise PreconditionError(
                    "BAD_SECTION",
                    f"edge section source mismatch at {q_edge.eid}: "
                    f"{got!r} != {pack.eta0[q_edge.src]!r}")

    c, d = derive_cocycles(action, quot, pack)
    skew = SkewLabeledGraph(SkewSpec(quot.quotient, action.group, c, d),
                            _reconstruction_layers(action, quot, pack.eta0),
                            window=None)
    form = skew.form
    rows = [_comparison_row(action, k, coordinates, section)
            for k, (coordinates, section) in enumerate(zip(
                form.coordinates, (pack.eta0, pack.eta1, pack.etaA)))]

    def named_iso() -> LabeledGraphMorphism:
        return LabeledGraphMorphism(skew.graph, action.graph, *(
            dict(zip(names, map(carrier.__getitem__, row)))
            for names, carrier, row in zip(
                skew.item_names, action.core.carriers, rows)))

    for k, row in enumerate(rows):
        if -1 in row:
            raise VerificationError(
                "comparison map leaves the carrier",
                (KINDS[k], skew.item_names[k][row.index(-1)]))
    morphism_report = verify_rows(form, action.core, rows)
    if not morphism_report.isomorphism:
        morphism_report = verify_morphism(named_iso())
        if not morphism_report.ok:
            raise VerificationError(
                f"reconstruction morphism law failed: {morphism_report.note}",
                morphism_report.witness)
        raise VerificationError("reconstruction map is not bijective", None)
    checked = _equivariance_offsets(action, form.coordinates, rows)
    if checked is None:
        checked = _equivariance_by_element(
            action, TranslationAction(skew), [row + [-1] for row in rows])
    if not checked:
        raise VerificationError("equivariance could not be exercised", None)

    return Reconstruction(
        quot, pack, c, d, skew, named_iso, morphism_report, checked,
        is_label_consistent(quot.quotient, c).factoring,
        is_label_consistent(quot.quotient, d).factoring, domain)


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
    rec = _reconstruct(action, pack, quot, T)
    if rec.c_factoring is None or rec.d_factoring is None:
        bad = "c" if rec.c_factoring is None else "d"
        raise LabelConsistencyViolation(
            f"derived {bad} is not label consistent despite the verified "
            f"fundamental domain {sorted(T)}; cocycles c={rec.c!r} d={rec.d!r}",
            (bad, dict(rec.c), dict(rec.d), tuple(sorted(T))))
    return rec


def identity_layer_sections(action: TranslationAction) -> SectionPack:
    """Sections picking the identity layer of every fiber; defined when
    that layer is materialized.  With these sections the derived cocycles
    coincide with the originating skew spec's cocycles.  The identity
    layer of a base vertex is in the window when its form position is."""
    skew = action.skew
    identity = action.group.identity
    base = skew.spec.base
    vertices, located = action.carrier(VERTEX), action.located(VERTEX)
    eta0 = {}
    for q_vertex in base.vertices:
        j = located.get((q_vertex, identity))
        if j is None or j >= skew.form.window:
            raise PreconditionError(
                "BAD_SECTION", f"identity layer of {q_vertex} is not in the window")
        eta0[q_vertex] = vertices[j]
    letters, located = action.carrier(LETTER), action.located(LETTER)
    etaA = {}
    for q_letter in base.alphabet:
        j = located.get((q_letter, identity))
        if j is None:
            raise PreconditionError(
                "BAD_SECTION", f"identity layer of letter {q_letter} is missing")
        etaA[q_letter] = letters[j]
    return SectionPack(eta0, etaA)
