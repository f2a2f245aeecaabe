"""Labeled graph morphisms, isomorphisms and automorphism arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .errors import PreconditionError
from .labeled import Check, LabeledGraph


@dataclass(frozen=True)
class LabeledGraphMorphism:
    """Triple of maps (vertices, edges, alphabet) between labeled graphs."""

    source: LabeledGraph
    target: LabeledGraph
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]
    alphabet_map: Mapping[str, str]


@dataclass(frozen=True)
class MorphismReport:
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
    Each map is read once into target positions, and the laws compare the
    edge arrays of the two graph cores edge by edge."""
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
