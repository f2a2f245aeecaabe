"""Labeled graph morphisms, isomorphisms and automorphism arithmetic."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import PreconditionError
from .labeled import Check, GraphCore, LabeledGraph


class LabeledGraphMorphism(NamedTuple):
    """Triple of maps (vertices, edges, alphabet) between labeled graphs."""

    source: LabeledGraph
    target: LabeledGraph
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]
    alphabet_map: Mapping[str, str]


class MorphismReport(NamedTuple):
    ok: bool
    isomorphism: bool
    witness: Any = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


def identity_maps(lg: LabeledGraph) -> tuple[dict[str, str], ...]:
    """The identity of each carrier of ``lg``: vertices, edges, letters."""
    return tuple([{x: x for x in items} for items in lg.core.carriers])


def identity_morphism(lg: LabeledGraph) -> LabeledGraphMorphism:
    return LabeledGraphMorphism(lg, lg, *identity_maps(lg))


def verify_morphism(m: LabeledGraphMorphism) -> MorphismReport:
    """Check the two morphism laws; the isomorphism flag additionally
    requires all three maps to be bijections onto the target carriers.

    Two steps: each map is read into target positions in one call, in
    the order of the source's core, and :func:`verify_rows` checks the
    laws and bijectivity on those rows.  Only a map that misses or a law
    that fails is walked item by item, for the first witness."""
    src, dst = m.source.core, m.target.core
    rows = []
    for mapping, domain, positions, what in zip(
            (m.vertex_map, m.edge_map, m.alphabet_map), src.carriers,
            dst.positions, ("vertex", "edge", "alphabet")):
        try:
            rows.append(_pick(positions, _pick(mapping, domain)))
        except KeyError:
            return _map_failure(mapping, domain, positions, what)
    report = verify_rows(src, dst, rows, map(len, dst.carriers))
    return report if report.ok else _law_failure(src, dst, *rows)


def verify_rows(src, dst, rows: Sequence[Sequence[int]],
                sizes: Iterable[int]) -> MorphismReport:
    """The morphism laws and bijectivity of the maps ``rows``, read into
    positions: ``rows`` holds the vertex, edge and letter maps, each the
    position in ``dst``'s carrier of the image of every source item, in
    the source's order, ``src`` and ``dst`` give each side's ``src``,
    ``dst`` and ``lab`` arrays in that order (a :class:`GraphCore`, or
    the integer form of a skew product), and ``sizes`` the number of
    items of each kind of ``dst``.  The laws compare the edge arrays of the two
    sides as whole tuples.  A failed law gives ``MorphismReport(False,
    False)`` with no witness, since the source's items need not have
    names yet; :func:`verify_morphism` names the first edge that breaks
    one."""
    vrow, erow, arow = rows
    if not (_pick(vrow, src.dst) == _pick(dst.dst, erow)
            and _pick(vrow, src.src) == _pick(dst.src, erow)
            and _pick(arow, src.lab) == _pick(dst.lab, erow)):
        return MorphismReport(False, False)
    iso = all(len(set(row)) == len(row) == size
              for row, size in zip(rows, sizes))
    return MorphismReport(True, iso)


def _pick(values, keys: Sequence) -> tuple:
    """``tuple(values[k] for k in keys)``, read by one ``itemgetter`` call
    (which returns a bare item for a single key and needs at least one)."""
    if len(keys) > 1:
        return itemgetter(*keys)(values)
    return tuple([values[k] for k in keys])


def _map_failure(mapping: Mapping[str, str], domain: tuple[str, ...],
                 positions: Mapping[str, int], what: str) -> MorphismReport:
    """The report on the first item of ``domain`` that ``mapping`` leaves
    out or sends outside the target carrier."""
    for x in domain:
        if x not in mapping:
            return MorphismReport(False, False, x, f"{what} map not total")
        if mapping[x] not in positions:
            return MorphismReport(False, False, (x, mapping[x]),
                                  f"{what} map leaves the target")
    raise AssertionError("every item of the domain maps into the target")


def _law_failure(src: GraphCore, dst: GraphCore, vrow: tuple[int, ...],
                 erow: tuple[int, ...], arow: tuple[int, ...]) -> MorphismReport:
    """The report on the first edge that breaks a law, with the laws in
    the order range, source, label."""
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
    raise AssertionError("every edge keeps its range, source and label")


def is_surjective(m: LabeledGraphMorphism) -> bool:
    """Every map's values are exactly the target carrier."""
    return all(set(mapping.values()) == positions.keys()
               for mapping, positions in zip(
                   (m.vertex_map, m.edge_map, m.alphabet_map),
                   m.target.core.positions))


def compose(f: LabeledGraphMorphism, g: LabeledGraphMorphism) -> LabeledGraphMorphism:
    """Composite ``f after g``; ``g``'s target must be ``f``'s source."""
    if g.target is not f.source and g.target != f.source:
        raise PreconditionError("NOT_COMPOSABLE", "inner target != outer source")
    return LabeledGraphMorphism(
        g.source, f.target,
        {v: f.vertex_map[g.vertex_map[v]] for v in g.vertex_map},
        {e: f.edge_map[g.edge_map[e]] for e in g.edge_map},
        {a: f.alphabet_map[g.alphabet_map[a]] for a in g.alphabet_map},
    )


def inverse(m: LabeledGraphMorphism) -> LabeledGraphMorphism:
    report = verify_morphism(m)
    if not report.isomorphism:
        raise PreconditionError("NOT_AN_ISOMORPHISM", report.note)
    return LabeledGraphMorphism(
        m.target, m.source,
        {w: v for v, w in m.vertex_map.items()},
        {f: e for e, f in m.edge_map.items()},
        {b: a for a, b in m.alphabet_map.items()},
    )


def is_automorphism(m: LabeledGraphMorphism) -> Check:
    if m.source != m.target:
        return Check(False, note="source and target differ")
    report = verify_morphism(m)
    if not report.ok:
        return Check(False, report.witness, report.note)
    if not report.isomorphism:
        return Check(False, report.witness, "not bijective")
    return Check(True)


def automorphism_check_and_compose(
        f: LabeledGraphMorphism, g: LabeledGraphMorphism) -> LabeledGraphMorphism:
    """Compose two verified automorphisms of the same labeled graph; the
    result is again a verified automorphism."""
    for name, m in (("f", f), ("g", g)):
        check = is_automorphism(m)
        if not check:
            raise PreconditionError(
                "NOT_AN_AUTOMORPHISM", f"{name}: {check.note} ({check.witness!r})")
    if f.source != g.source:
        raise PreconditionError("NOT_AN_AUTOMORPHISM", "carriers differ")
    h = compose(f, g)
    check = is_automorphism(h)
    if not check:
        raise PreconditionError("NOT_AN_AUTOMORPHISM",
                                f"composite failed: {check.note}")
    return h
