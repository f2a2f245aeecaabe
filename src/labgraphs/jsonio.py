"""Strict JSON interchange (format_version 1).

Document kinds: graph, skew-spec, action, section-pack.  Parsing rejects
unknown fields with the offending path; serialization emits canonical key
and element order, so canonical files round-trip byte-identically.

Reading a graph document loads no action, skew-product or reconstruction
code: the readers that build those objects import their modules when
they run, since each command-line call is a fresh interpreter.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple

from .errors import AxiomFailure, ParseError, PreconditionError, SchemaError
from .graph import DirectedGraph
from .groups import (Element, Group, Window, element_from_json,
                     element_to_json, make_group)
from .labeled import LabeledGraph

if TYPE_CHECKING:
    from .action import LabeledGraphAction
    from .gross_tucker import SectionPack
    from .skew import SkewSpec

FORMAT_VERSION = 1


# -- strict helpers ----------------------------------------------------------


def _require(obj: Any, path: str, required: dict[str, type],
             optional: dict[str, type] | None = None) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    optional = optional or {}
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}", "unknown field")
    for key, typ in required.items():
        if key not in obj:
            raise SchemaError(path, f"missing field {key!r}")
        if not isinstance(obj[key], typ) or isinstance(obj[key], bool) and typ is int:
            raise SchemaError(f"{path}.{key}",
                              f"expected {typ.__name__}, got {type(obj[key]).__name__}")
    for key, typ in optional.items():
        if key in obj and not isinstance(obj[key], typ):
            raise SchemaError(f"{path}.{key}",
                              f"expected {typ.__name__}, got {type(obj[key]).__name__}")


def _string_list(obj: Any, path: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise SchemaError(path, "expected a list of strings")
    return obj


def _string_map(obj: Any, path: str) -> dict[str, str]:
    if (not isinstance(obj, dict)
            or not all(isinstance(v, str) for v in obj.values())):
        raise SchemaError(path, "expected an object with string values")
    return obj


def _check_version_kind(obj: Any, expected_kind: str | None, path: str) -> str:
    if not isinstance(obj, dict):
        raise SchemaError(path, "document must be an object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"{path}.format_version",
                          f"expected {FORMAT_VERSION}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise SchemaError(f"{path}.kind", "missing document kind")
    if expected_kind is not None and kind != expected_kind:
        raise SchemaError(f"{path}.kind",
                          f"expected {expected_kind!r}, got {kind!r}")
    return kind


# -- graphs ------------------------------------------------------------------


def _graph_payload_from_json(obj: Any, path: str) -> LabeledGraph:
    _require(obj, path, {"vertices": list, "alphabet": list, "edges": list})
    vertices = _string_list(obj["vertices"], f"{path}.vertices")
    alphabet = _string_list(obj["alphabet"], f"{path}.alphabet")
    vset = set(vertices)
    aset = set(alphabet)
    edges = []
    labeling = {}
    for i, entry in enumerate(obj["edges"]):
        epath = f"{path}.edges[{i}]"
        _require(entry, epath,
                 {"id": str, "src": str, "dst": str, "label": str})
        if entry["src"] not in vset:
            raise SchemaError(f"{epath}.src", f"unknown vertex {entry['src']!r}")
        if entry["dst"] not in vset:
            raise SchemaError(f"{epath}.dst", f"unknown vertex {entry['dst']!r}")
        if entry["label"] not in aset:
            raise SchemaError(f"{epath}.label", f"unknown letter {entry['label']!r}")
        edges.append((entry["id"], entry["src"], entry["dst"]))
        labeling[entry["id"]] = entry["label"]
    try:
        return LabeledGraph(DirectedGraph(vertices, edges), labeling,
                            alphabet=alphabet)
    except PreconditionError as exc:
        raise SchemaError(path, str(exc)) from exc


def _graph_payload_to_json(lg: LabeledGraph) -> dict:
    return {
        "vertices": list(lg.vertices),
        "alphabet": sorted(set(lg.alphabet) | set(lg.dropped_letters)),
        "edges": [
            {"id": e.eid, "src": e.src, "dst": e.dst,
             "label": lg.labeling[e.eid]}
            for e in lg.graph.edges
        ],
    }


def graph_from_json(obj: Any) -> LabeledGraph:
    _check_version_kind(obj, "graph", "$")
    _require(obj, "$", {"format_version": int, "kind": str, "vertices": list,
                        "alphabet": list, "edges": list})
    payload = {k: obj[k] for k in ("vertices", "alphabet", "edges")}
    return _graph_payload_from_json(payload, "$")


def graph_to_json(lg: LabeledGraph) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": "graph"}
    doc.update(_graph_payload_to_json(lg))
    return doc


# -- groups and cocycles -------------------------------------------------------


def _group_from_json(obj: Any, path: str) -> Group:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(path, "expected a group object with 'kind'")
    kind = obj["kind"]
    if kind == "cyclic":
        _require(obj, path, {"kind": str, "n": int})
    elif kind == "integers":
        _require(obj, path, {"kind": str})
    elif kind == "table":
        _require(obj, path, {"kind": str, "table": list})
    elif kind == "permutation":
        _require(obj, path, {"kind": str, "degree": int, "generators": list})
    else:
        raise SchemaError(f"{path}.kind", f"unknown group kind {kind!r}")
    try:
        return make_group(obj)
    except (PreconditionError, AxiomFailure, KeyError, TypeError) as exc:
        raise SchemaError(path, f"invalid group: {exc}") from exc


def _cocycle_from_json(obj: dict, path: str, group: Group,
                       lg: LabeledGraph) -> dict[str, Element]:
    edge_ids = {e.eid for e in lg.graph.edges}
    out = {}
    for key, value in obj.items():
        if key not in edge_ids:
            raise SchemaError(f"{path}.{key}", "unknown edge")
        try:
            out[key] = element_from_json(group, value)
        except PreconditionError as exc:
            raise SchemaError(f"{path}.{key}", str(exc)) from exc
    missing = sorted(edge_ids - set(out))
    if missing:
        raise SchemaError(path, f"missing edges: {', '.join(missing)}")
    return out


def _cocycle_to_json(cocycle: Mapping[str, Element], group: Group) -> dict:
    return {eid: element_to_json(group, g) for eid, g in sorted(cocycle.items())}


# -- skew specs ----------------------------------------------------------------


def skew_spec_from_json(obj: Any) -> SkewSpec:
    _check_version_kind(obj, "skew-spec", "$")
    _require(obj, "$", {"format_version": int, "kind": str, "group": dict,
                        "base": dict, "c": dict, "d": dict})
    group = _group_from_json(obj["group"], "$.group")
    base = _graph_payload_from_json(obj["base"], "$.base")
    c = _cocycle_from_json(obj["c"], "$.c", group, base)
    d = _cocycle_from_json(obj["d"], "$.d", group, base)
    from .skew import SkewSpec
    return SkewSpec(base, group, c, d)


def skew_spec_to_json(spec: SkewSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "skew-spec",
        "group": spec.group.to_json(),
        "base": _graph_payload_to_json(spec.base),
        "c": _cocycle_to_json(spec.c, spec.group),
        "d": _cocycle_to_json(spec.d, spec.group),
    }


# -- actions -------------------------------------------------------------------


class ActionDocument(NamedTuple):
    """Parsed action file; instantiating a windowed integer action needs
    the window from the command line (never defaulted)."""

    group: Group
    translation: SkewSpec | None = None
    graph: LabeledGraph | None = None
    elements: tuple | None = None     # ((element, triple), ...)
    generators: tuple | None = None   # (triple, ...)

    def instantiate(self, window: Window | None = None) -> LabeledGraphAction:
        if self.translation is not None:
            if not self.group.is_finite and window is None:
                raise PreconditionError(
                    "WINDOW_REQUIRED",
                    "integer actions need an explicit --window")
            from .skew import left_translation, skew_product
            return left_translation(skew_product(self.translation, window))
        from .action import FiniteAction
        assert self.graph is not None
        if self.elements is not None:
            return FiniteAction(self.group, self.graph, dict(self.elements))
        assert self.generators is not None
        if self.group.kind == "cyclic":
            if len(self.generators) != 1:
                raise PreconditionError(
                    "BAD_GENERATORS", "cyclic groups take exactly one generator")
            gens = {1 % max(self.group.n, 1): self.generators[0]}
        elif self.group.kind == "permutation":
            expected = len(self.group.generators)
            if len(self.generators) != expected:
                raise PreconditionError(
                    "BAD_GENERATORS",
                    f"expected {expected} generator triples")
            gens = dict(zip(self.group.generators, self.generators))
        else:
            raise PreconditionError(
                "BAD_GENERATORS",
                "generator form needs a cyclic or permutation group")
        return FiniteAction.from_generators(self.group, self.graph, gens)


def _triple_from_json(obj: Any, path: str) -> tuple:
    _require(obj, path, {"vertex_map": dict, "edge_map": dict,
                         "alphabet_map": dict}, {"element": (int, list)})
    return (_string_map(obj["vertex_map"], f"{path}.vertex_map"),
            _string_map(obj["edge_map"], f"{path}.edge_map"),
            _string_map(obj["alphabet_map"], f"{path}.alphabet_map"))


def action_from_json(obj: Any) -> ActionDocument:
    _check_version_kind(obj, "action", "$")
    _require(obj, "$", {"format_version": int, "kind": str, "group": dict},
             {"translation": dict, "graph": dict, "elements": list,
              "generators": list})
    group = _group_from_json(obj["group"], "$.group")
    forms = [k for k in ("translation", "elements", "generators") if k in obj]
    if len(forms) != 1:
        raise SchemaError(
            "$", "exactly one of translation/elements/generators is required")
    if "translation" in obj:
        tr = obj["translation"]
        _require(tr, "$.translation", {"base": dict, "c": dict, "d": dict})
        base = _graph_payload_from_json(tr["base"], "$.translation.base")
        c = _cocycle_from_json(tr["c"], "$.translation.c", group, base)
        d = _cocycle_from_json(tr["d"], "$.translation.d", group, base)
        from .skew import SkewSpec
        return ActionDocument(group, translation=SkewSpec(base, group, c, d))
    if "graph" not in obj:
        raise SchemaError("$", "raw actions require a 'graph' field")
    graph = _graph_payload_from_json(obj["graph"], "$.graph")
    if "elements" in obj:
        entries = []
        for i, entry in enumerate(obj["elements"]):
            epath = f"$.elements[{i}]"
            if not isinstance(entry, dict) or "element" not in entry:
                raise SchemaError(epath, "missing field 'element'")
            element = element_from_json(group, entry["element"])
            entries.append((element, _triple_from_json(entry, epath)))
        return ActionDocument(group, graph=graph, elements=tuple(entries))
    triples = tuple(_triple_from_json(entry, f"$.generators[{i}]")
                    for i, entry in enumerate(obj["generators"]))
    return ActionDocument(group, graph=graph, generators=triples)


def action_to_json(doc: ActionDocument) -> dict:
    out: dict = {"format_version": FORMAT_VERSION, "kind": "action",
                 "group": doc.group.to_json()}
    if doc.translation is not None:
        spec = doc.translation
        out["translation"] = {
            "base": _graph_payload_to_json(spec.base),
            "c": _cocycle_to_json(spec.c, spec.group),
            "d": _cocycle_to_json(spec.d, spec.group),
        }
        return out
    assert doc.graph is not None
    out["graph"] = _graph_payload_to_json(doc.graph)
    if doc.elements is not None:
        out["elements"] = [
            {"element": element_to_json(doc.group, g),
             "vertex_map": dict(sorted(t[0].items())),
             "edge_map": dict(sorted(t[1].items())),
             "alphabet_map": dict(sorted(t[2].items()))}
            for g, t in doc.elements
        ]
    else:
        out["generators"] = [
            {"vertex_map": dict(sorted(t[0].items())),
             "edge_map": dict(sorted(t[1].items())),
             "alphabet_map": dict(sorted(t[2].items()))}
            for t in (doc.generators or ())
        ]
    return out


# -- section packs --------------------------------------------------------------


def sections_from_json(obj: Any) -> SectionPack:
    _check_version_kind(obj, "section-pack", "$")
    _require(obj, "$", {"format_version": int, "kind": str, "eta0": dict,
                        "etaA": dict}, {"eta1": dict})
    eta0 = _string_map(obj["eta0"], "$.eta0")
    etaA = _string_map(obj["etaA"], "$.etaA")
    eta1 = _string_map(obj["eta1"], "$.eta1") if "eta1" in obj else None
    from .gross_tucker import SectionPack
    return SectionPack(eta0, etaA, eta1)


def sections_to_json(pack: SectionPack) -> dict:
    out = {"format_version": FORMAT_VERSION, "kind": "section-pack",
           "eta0": dict(sorted(pack.eta0.items())),
           "etaA": dict(sorted(pack.etaA.items()))}
    if pack.eta1 is not None:
        out["eta1"] = dict(sorted(pack.eta1.items()))
    return out


# -- entry points ----------------------------------------------------------------


_FROM_JSON = {
    "graph": graph_from_json,
    "skew-spec": skew_spec_from_json,
    "action": action_from_json,
    "section-pack": sections_from_json,
}


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc


def parse_text(text: str):
    """Parse any document; returns (kind, object)."""
    obj = _decode(text)
    kind = _check_version_kind(obj, None, "$")
    if kind not in _FROM_JSON:
        raise SchemaError("$.kind", f"unknown document kind {kind!r}")
    return kind, _FROM_JSON[kind](obj)


def load(path: str):
    """Load a document from disk; returns (kind, object)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def read_json(path: str) -> Any:
    """The JSON value of a file without a document header, such as the
    domain and morphism files of the command line; malformed JSON raises
    :class:`ParseError`.  Check the value with :func:`domain_from_json` or
    :func:`morphism_maps_from_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read())


def domain_from_json(obj: Any) -> list[str]:
    """A fundamental-domain file: a list of vertex ids."""
    if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj):
        raise SchemaError("$", "domain file must be a JSON list of vertex ids")
    return obj


def morphism_maps_from_json(obj: Any) -> tuple[dict[str, str], ...]:
    """A morphism file: an object holding exactly the vertex, edge and
    alphabet maps, each with string values."""
    _require(obj, "$", {"vertex_map": dict, "edge_map": dict,
                        "alphabet_map": dict})
    return tuple(_string_map(obj[key], f"$.{key}")
                 for key in ("vertex_map", "edge_map", "alphabet_map"))


def dumps(doc: dict) -> str:
    """Canonical serialization: two-space indent, insertion-ordered keys,
    trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def dump(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
