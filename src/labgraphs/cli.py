"""Command-line surface.

Exit codes: 0 when the property holds or the construction succeeded, 1
when a property fails (a witness is printed), 2 on usage, parse or schema
errors.  ``--json`` switches the report to machine-readable JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import dot as dot_mod
from . import jsonio
from .action import (find_fundamental_domain, is_free, is_fundamental_domain,
                     is_label_consistent, quotient, verify_action)
from .errors import (LabelConsistencyViolation, LiftFailure, NoFundamentalDomain,
                     NonFreeWitness, NotALabeledPath, NotAMember, OutOfWindow,
                     ParseError, PreconditionError, SchemaError,
                     SearchSpaceExceeded, VerificationError,
                     WellDefinednessError)
from .graph import paths_of_length, validate
from .gross_tucker import reconstruct, reconstruct_label_consistent
from .groups import Window
from .labeled import (is_left_resolving, is_weakly_left_resolving,
                      relative_range)
from .lattice import (labeled_space_report, relative_complement_closure,
                      smallest_accommodating)
from .morphism import LabeledGraphMorphism, verify_morphism
from .skew import left_translation, skew_product

_USAGE_ERRORS = (ParseError, SchemaError, PreconditionError, SearchSpaceExceeded)
_PROPERTY_ERRORS = (VerificationError, NoFundamentalDomain, LiftFailure,
                    NonFreeWitness, WellDefinednessError,
                    LabelConsistencyViolation, NotALabeledPath, NotAMember,
                    OutOfWindow)


def _parse_window(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if m is None:
        raise PreconditionError("BAD_WINDOW", f"expected lo:hi, got {text!r}")
    return Window(int(m.group(1)), int(m.group(2)))


def _parse_word(text: str) -> tuple[str, ...]:
    if "," in text:
        return tuple(text.split(","))
    return tuple(text)


def _load_graph(path: str, window: Window | None):
    """Graph documents directly; skew-spec documents are materialized
    (windowed for the integers).  Returns (labeled graph, skew or None)."""
    kind, obj = jsonio.load(path)
    if kind == "graph":
        return obj, None
    if kind == "skew-spec":
        skew = skew_product(obj, window)
        return skew.graph, skew
    raise SchemaError("$.kind", f"expected a graph or skew-spec, got {kind!r}")


def _load_action(path: str, window: Window | None):
    kind, obj = jsonio.load(path)
    if kind == "action":
        return obj.instantiate(window)
    if kind == "skew-spec":
        return left_translation(skew_product(obj, window))
    raise SchemaError("$.kind", f"expected an action or skew-spec, got {kind!r}")


def _set_str(values) -> str:
    return "{" + ", ".join(sorted(values)) + "}"


def _check_json(check) -> dict:
    out = {"ok": bool(check)}
    if not check and check.witness is not None:
        out["witness"] = repr(check.witness)
    return out


# -- handlers -------------------------------------------------------------------


def _cmd_validate(args):
    lg, _ = _load_graph(args.file, args.window)
    report = validate(lg.graph)
    lines = []
    for v, s in sorted(report.per_vertex.items()):
        lines.append(f"{v}: receives={'yes' if s.receives else 'no'} "
                     f"out_degree={s.out_degree} "
                     f"{'ok' if s.ok else 'INVALID'}")
    lines.append(f"graph: {'VALID' if report.valid else 'INVALID'}")
    return (0 if report.valid else 1), report.to_json(), lines


def _cmd_properties(args):
    lg, skew = _load_graph(args.file, args.window)
    validity = validate(lg.graph)
    lr = is_left_resolving(lg)
    wlr = is_weakly_left_resolving(lg)
    payload = {
        "row_finite_essential": validity.valid,
        "left_resolving": _check_json(lr),
        "weakly_left_resolving": _check_json(wlr),
        "set_finite": True,
    }
    lines = [
        f"row-finite+essential: {str(validity.valid).lower()}",
        f"left-resolving: {str(bool(lr)).lower()}",
        f"weakly-left-resolving: {str(bool(wlr)).lower()}",
        "set-finite: true",
    ]
    core_valid = validity.valid
    if skew is not None:
        payload["interior_valid"] = skew.interior_valid
        payload["boundary_edges"] = len(skew.boundary_edges)
        payload["halo_vertices"] = len(skew.halo_vertices)
        payload["left_resolving_inherited"] = bool(skew.left_resolving_inherited)
        lines.append(f"interior-valid: {str(skew.interior_valid).lower()}")
        lines.append(f"boundary-edges: {len(skew.boundary_edges)}")
        core_valid = skew.interior_valid
    ok = core_valid and bool(wlr)
    return (0 if ok else 1), payload, lines


def _cmd_paths(args):
    lg, _ = _load_graph(args.file, args.window)
    paths = paths_of_length(lg.graph, args.n)
    payload = {
        "n": args.n,
        "count": len(paths),
        "paths": [list(p.edges) for p in paths],
        "words": sorted({"".join(lg.label_word(p)) for p in paths}),
    }
    lines = [f"{' '.join(p.edges)}  ->  {''.join(lg.label_word(p))}"
             for p in paths]
    lines.append(f"count: {len(paths)}")
    return 0, payload, lines


def _cmd_range(args):
    lg, _ = _load_graph(args.file, args.window)
    vertices = args.set.split(",") if args.set else list(lg.vertices)
    word = _parse_word(args.word)
    result = relative_range(lg, vertices, word)
    payload = {"set": sorted(vertices), "word": list(word),
               "range": sorted(result)}
    return 0, payload, [f"r({_set_str(vertices)}, {''.join(word)}) = "
                        f"{_set_str(result)}"]


def _render_derivation(col, mask, depth=0) -> str:
    expr = col.derivations[mask]
    if depth > 8:
        return "..."
    if expr[0] == "range":
        return f"r({''.join(expr[1])})"
    if expr[0] == "step":
        return f"r({_render_derivation(col, expr[1], depth + 1)}, {expr[2]})"
    symbol = {"and": "&", "or": "|", "diff": "\\"}[expr[0]]
    left = _render_derivation(col, expr[1], depth + 1)
    right = _render_derivation(col, expr[2], depth + 1)
    return f"({left} {symbol} {right})"


def _cmd_lattice(args):
    lg, _ = _load_graph(args.file, args.window)
    col = smallest_accommodating(lg)
    closed = relative_complement_closure(col)
    report = labeled_space_report(lg, closed, word_bound=args.max_len)
    payload = {
        "smallest_accommodating": [
            {"set": sorted(lg.set_of(m)),
             "derivation": _render_derivation(col, m)}
            for m in col.members],
        "relative_complement_closure": [
            {"set": sorted(lg.set_of(m)),
             "derivation": _render_derivation(closed, m)}
            for m in closed.members],
        "report": report.to_json(),
    }
    lines = ["smallest accommodating collection:"]
    for m in col.members:
        lines.append(f"  {_set_str(lg.set_of(m))}  =  "
                     f"{_render_derivation(col, m)}")
    lines.append("relative-complement closure:")
    for m in closed.members:
        marker = "" if m in col.derivations else "  (new)"
        lines.append(f"  {_set_str(lg.set_of(m))}  =  "
                     f"{_render_derivation(closed, m)}{marker}")
    lines.append(f"set-finite: {str(report.set_finite).lower()}; "
                 f"weakly-left-resolving: {str(bool(report.weakly_left_resolving)).lower()}")
    lines.append(f"empty set convention: {report.empty_set_convention}")
    return (0 if report.ok else 1), payload, lines


def _cmd_skew(args):
    kind, spec = jsonio.load(args.file)
    if kind != "skew-spec":
        raise SchemaError("$.kind", f"expected a skew-spec, got {kind!r}")
    skew = skew_product(spec, args.window)
    payload = {
        "vertices": sorted(skew.graph.vertices),
        "halo_vertices": sorted(skew.halo_vertices),
        "boundary_edges": sorted(skew.boundary_edges),
        "interior_valid": skew.interior_valid,
        "left_resolving": bool(skew.left_resolving),
        "edges": [
            {"id": e.eid, "src": e.src, "dst": e.dst,
             "label": skew.graph.labeling[e.eid]}
            for e in skew.graph.graph.edges],
    }
    lines = [f"vertices: {len(skew.graph.vertices)} "
             f"(halo {len(skew.halo_vertices)}), "
             f"edges: {len(skew.graph.graph.edges)} "
             f"(boundary {len(skew.boundary_edges)})"]
    for e in skew.graph.graph.edges:
        flag = "  [boundary]" if e.eid in skew.boundary_edges else ""
        lines.append(f"{e.eid}: {e.src} -> {e.dst}  "
                     f"label {skew.graph.labeling[e.eid]}{flag}")
    return 0, payload, lines


def _cmd_translate(args):
    action = _load_action(args.file, args.window)
    report = verify_action(action)
    freeness = is_free(action)
    payload = {"action": report.to_json(), "free": _check_json(freeness)}
    lines = [f"labeled graph action laws: "
             f"{'ok' if report.ok else 'FAILED'} "
             f"({report.elements_checked} elements, "
             f"{report.pairs_checked} pairs)",
             f"free: {str(bool(freeness)).lower()}"]
    if report.failures:
        lines.append(f"first failure: {report.failures[0]!r}")
    ok = report.ok and bool(freeness)
    return (0 if ok else 1), payload, lines


def _cmd_quotient(args):
    action = _load_action(args.file, args.window)
    quot = quotient(action)
    lg = quot.quotient
    payload = {
        "vertices": list(lg.vertices),
        "alphabet": list(lg.alphabet),
        "edges": [{"id": e.eid, "src": e.src, "dst": e.dst,
                   "label": lg.labeling[e.eid]} for e in lg.graph.edges],
        "projection_verified": True,
    }
    lines = [f"quotient: {len(lg.vertices)} vertices, "
             f"{len(lg.graph.edges)} edges, alphabet {_set_str(lg.alphabet)}"]
    for e in lg.graph.edges:
        lines.append(f"{e.eid}: {e.src} -> {e.dst}  label {lg.labeling[e.eid]}")
    if action.base_isomorphism(quot) is not None:
        payload["isomorphic_to_base"] = True
        lines.append("canonical isomorphism onto the base: verified")
    return 0, payload, lines


def _cmd_act_check(args):
    action = _load_action(args.file, args.window)
    report = verify_action(action)
    freeness = is_free(action)
    payload = {"action": report.to_json(), "free": _check_json(freeness)}
    lines = [f"action laws: {'ok' if report.ok else 'FAILED'}",
             f"free: {str(bool(freeness)).lower()}"]
    for law, witness in report.failures[:5]:
        lines.append(f"  violated: {law} at {witness!r}")
    return (0 if report.ok else 1), payload, lines


def _cmd_fundomain(args):
    action = _load_action(args.file, args.window)
    if args.domain:
        domain = jsonio.domain_from_json(jsonio.read_json(args.domain))
        report = is_fundamental_domain(action, domain)
        payload = {"domain": sorted(domain), "ok": report.ok,
                   "transversal": _check_json(report.transversal),
                   "violations": [list(v) for v in report.violations]}
        lines = [f"fundamental domain: {str(report.ok).lower()}"]
        for clause, e1, e2 in report.violations:
            lg = action.graph
            lines.append(f"  clause ({clause}): {e1} [{lg.labeling[e1]}] vs "
                         f"{e2} [{lg.labeling[e2]}]")
        return (0 if report.ok else 1), payload, lines
    result = find_fundamental_domain(action)
    payload = {"found": result.domain is not None,
               "candidates_tried": result.candidates_tried,
               "domain": sorted(result.domain) if result.domain else None}
    if result.domain is None:
        return 1, payload, [f"NONE ({result.candidates_tried} candidates tried)"]
    return 0, payload, [f"found: {_set_str(result.domain)} "
                        f"({result.candidates_tried} candidates tried)"]


def _cmd_label_consistency(args):
    kind, spec = jsonio.load(args.file)
    if kind != "skew-spec":
        raise SchemaError("$.kind", f"expected a skew-spec, got {kind!r}")
    payload = {}
    lines = []
    ok = True
    for name, cocycle in (("c", spec.c), ("d", spec.d)):
        result = is_label_consistent(spec.base, cocycle)
        if result:
            payload[name] = {"consistent": True,
                             "factoring": {a: jsonio.element_to_json(spec.group, g)
                                           for a, g in sorted(result.factoring.items())}}
            rendered = ", ".join(
                f"{name.upper()}({a})={spec.group.element_str(g)}"
                for a, g in sorted(result.factoring.items()))
            lines.append(f"{name}: label consistent; {rendered}")
        else:
            ok = False
            payload[name] = {"consistent": False,
                             "witness": list(result.witness)}
            lines.append(f"{name}: NOT label consistent; "
                         f"witness edges {result.witness}")
    return (0 if ok else 1), payload, lines


def _cmd_gross_tucker(args):
    action = _load_action(args.file, args.window)
    pack = None
    if args.eta0:
        kind, pack = jsonio.load(args.eta0)
        if kind != "section-pack":
            raise SchemaError("$.kind", f"expected a section-pack, got {kind!r}")
    if args.domain or args.label_consistent:
        domain = None
        if args.domain:
            domain = jsonio.domain_from_json(jsonio.read_json(args.domain))
        rec = reconstruct_label_consistent(
            action, domain=domain,
            etaA=pack.etaA if pack is not None else None)
    else:
        rec = reconstruct(action, pack)
    group = action.group
    payload = {
        "c": {e: jsonio.element_to_json(group, g) for e, g in sorted(rec.c.items())},
        "d": {e: jsonio.element_to_json(group, g) for e, g in sorted(rec.d.items())},
        "eta0": dict(sorted(rec.pack.eta0.items())),
        "eta1": dict(sorted(rec.pack.eta1.items())),
        "etaA": dict(sorted(rec.pack.etaA.items())),
        "isomorphism_verified": rec.morphism_report.isomorphism,
        "equivariance_checked": rec.equivariance_checked,
        "label_consistent": rec.label_consistent,
    }
    if rec.domain is not None:
        payload["domain"] = sorted(rec.domain)
    if rec.c_factoring is not None:
        payload["C"] = {a: jsonio.element_to_json(group, g)
                        for a, g in sorted(rec.c_factoring.items())}
    if rec.d_factoring is not None:
        payload["D"] = {a: jsonio.element_to_json(group, g)
                        for a, g in sorted(rec.d_factoring.items())}
    lines = []
    for eid, g in sorted(rec.c.items()):
        lines.append(f"c({eid}) = {group.element_str(g)}")
    for eid, g in sorted(rec.d.items()):
        lines.append(f"d({eid}) = {group.element_str(g)}")
    for q_vertex, v in sorted(rec.pack.eta0.items()):
        lines.append(f"eta0({q_vertex}) = {v}")
    for q_edge, e in sorted(rec.pack.eta1.items()):
        lines.append(f"eta1({q_edge}) = {e}")
    lines.append(f"equivariant isomorphism verified "
                 f"({rec.equivariance_checked} pointwise equivariance checks)")
    if rec.label_consistent:
        lines.append("cocycles are label consistent")
    return 0, payload, lines


def _cmd_iso_check(args):
    src, _ = _load_graph(args.source, args.window)
    dst, _ = _load_graph(args.target, args.window)
    maps = jsonio.morphism_maps_from_json(jsonio.read_json(args.morphism))
    m = LabeledGraphMorphism(src, dst, *maps)
    report = verify_morphism(m)
    payload = {"morphism": report.ok, "isomorphism": report.isomorphism}
    if not report.ok:
        payload["witness"] = repr(report.witness)
        payload["note"] = report.note
    lines = [f"morphism: {str(report.ok).lower()}",
             f"isomorphism: {str(report.isomorphism).lower()}"]
    if not report.ok:
        lines.append(f"violation: {report.note} at {report.witness!r}")
    return (0 if report.isomorphism else 1), payload, lines


def _cmd_export_dot(args):
    lg, skew = _load_graph(args.file, args.window)
    text = dot_mod.export_dot(lg, skew)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0, {"written": args.output}, [f"wrote {args.output}"]
    return 0, {"dot": text}, [text.rstrip("\n")]


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labgraphs",
        description="Labeled graphs, group actions, skew products and "
                    "reconstruction of free actions from quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, window=True, file_arg=True):
        p = sub.add_parser(name, help=help_text)
        if file_arg:
            p.add_argument("file", help="input document (JSON)")
        if window:
            p.add_argument("--window", type=_parse_window, default=None,
                           help="materialization window lo:hi "
                                "(required for integer groups)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable report")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, "row-finite/essential validity report")
    add("properties", _cmd_properties,
        "resolving and validity properties (exit 0 when valid and weakly "
        "left-resolving)")
    p = add("paths", _cmd_paths, "enumerate paths of a given length")
    p.add_argument("--n", type=int, required=True, help="path length (>= 1)")
    p = add("range", _cmd_range, "relative range of a word")
    p.add_argument("--set", default=None,
                   help="comma-separated source vertices (default: all)")
    p.add_argument("--word", required=True,
                   help="word; single characters or comma-separated letters")
    p = add("lattice", _cmd_lattice,
            "accommodating collection, relative-complement closure, report")
    p.add_argument("--max-len", type=int, default=4, dest="max_len",
                   help="word bound for the report sweeps")
    add("skew", _cmd_skew, "materialize a skew product")
    add("translate", _cmd_translate,
        "left translation action: laws and freeness")
    add("quotient", _cmd_quotient, "orbit quotient labeled graph")
    add("act-check", _cmd_act_check, "verify a labeled graph action")
    p = add("fundomain", _cmd_fundomain,
            "check or search fundamental domains")
    p.add_argument("--domain", default=None,
                   help="JSON file with a list of vertex ids to check")
    add("label-consistency", _cmd_label_consistency,
        "factor the cocycles of a skew-spec through its labeling")
    p = add("gross-tucker", _cmd_gross_tucker,
            "reconstruct a free action as a translation skew product")
    p.add_argument("--eta0", default=None,
                   help="section-pack JSON file (vertex/letter sections)")
    p.add_argument("--domain", default=None,
                   help="fundamental domain file for the label-consistent variant")
    p.add_argument("--label-consistent", action="store_true",
                   dest="label_consistent",
                   help="search a fundamental domain and derive label "
                        "consistent cocycles")
    p = sub.add_parser("iso-check", help="verify a morphism file between two graphs")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--morphism", required=True,
                   help="JSON file with vertex_map/edge_map/alphabet_map")
    p.add_argument("--window", type=_parse_window, default=None)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(handler=_cmd_iso_check)
    p = add("export-dot", _cmd_export_dot, "deterministic DOT export")
    p.add_argument("-o", "--output", default=None, help="output file")
    return parser


def _expand_window_args(argv: list[str]) -> list[str]:
    """Allow ``--window -4:6``: argparse would otherwise read the negative
    window as an option."""
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] == "--window" and i + 1 < len(argv)
                and re.fullmatch(r"-?\d+:-?\d+", argv[i + 1])):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_window_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload, lines = args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PROPERTY_ERRORS as exc:
        if args.as_json:
            print(json.dumps({"ok": False, "error": str(exc)}, indent=2))
        else:
            print(f"FAILED: {exc}")
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
