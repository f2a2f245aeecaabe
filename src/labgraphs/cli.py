"""Command-line surface.

Exit codes: 0 when the property holds or the construction succeeded, 1
when a property fails (a witness is printed) or the library raises any
other :class:`~labgraphs.errors.LabGraphsError`, 2 on usage errors, an
unreadable file and the input errors (``_INPUT_ERRORS``: parse, schema and
precondition errors, a size cap, a malformed group).  A reader that
closes stdout before the output ends (``| head``) ends the call with exit
1 and nothing on stderr.  ``--json`` switches the report to
machine-readable JSON.

Each call runs one subcommand in a fresh interpreter, so this module
imports at its top only what parsing and every handler need (``errors``,
``jsonio`` and the graph, group and labeled-graph modules).  A handler
imports the modules it calls itself, and ``_load_graph`` and
``_load_action`` import ``skew`` only for a skew-spec document.  This
module and ``jsonio`` are the only ones that defer imports; the library
modules import at their tops.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Mapping

from . import jsonio
from .errors import (AxiomFailure, LabGraphsError, ParseError,
                     PreconditionError, SchemaError, SearchSpaceExceeded)
from .graph import paths_of_length, validate
from .groups import Window
from .labeled import (is_left_resolving, is_weakly_left_resolving,
                      relative_range)

#: The errors of a malformed input, which exit 2; every other library
#: error exits 1.
_INPUT_ERRORS = (ParseError, SchemaError, PreconditionError,
                 SearchSpaceExceeded, AxiomFailure)


def _parse_window(text: str) -> Window:
    m = re.fullmatch(r"(-?\d+):(-?\d+)", text)
    if m is None:
        raise PreconditionError("BAD_WINDOW", f"expected lo:hi, got {text!r}")
    return Window(int(m.group(1)), int(m.group(2)))


def _split_names(text: str, option: str) -> list[str]:
    """``text`` cut at the commas outside parentheses, so that a skew
    product's item ``(1,0)`` stays one name; an empty ``text`` holds none.
    An empty name next to a comma raises ``EMPTY_NAME`` naming ``option``
    and ``text``."""
    names, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            names.append(text[start:i])
            start = i + 1
    names.append(text[start:])
    if len(names) > 1 and "" in names:
        raise PreconditionError(
            "EMPTY_NAME", f"{option} {text!r} holds an empty name")
    return names if text else []


def _parse_word(text: str, alphabet: Mapping[str, int]) -> tuple[str, ...]:
    """The letters of a ``--word``, split as :func:`_split_names` splits;
    a single name that is not a letter reads character by character.  A
    letter outside ``alphabet`` raises ``UNKNOWN_LETTER``, so a typo is
    refused rather than read as an empty range."""
    names = _split_names(text, "--word")
    word = tuple(names) if len(names) > 1 or text in alphabet else tuple(text)
    for a in word:
        if a not in alphabet:
            raise PreconditionError("UNKNOWN_LETTER", a)
    return word


def _load(path: str, *kinds: str):
    """The (kind, object) of the document at ``path``; a kind other than
    ``kinds`` raises a schema error naming them."""
    kind, obj = jsonio.load(path)
    if kind not in kinds:
        article = "an" if kinds[0][0] in "aeiou" else "a"
        raise SchemaError("$.kind", f"expected {article} {' or '.join(kinds)}, "
                                    f"got {kind!r}")
    return kind, obj


def _load_graph(path: str, window: Window | None):
    """Graph documents directly; skew-spec documents are materialized
    (windowed for the integers).  Returns (labeled graph, skew or None)."""
    kind, obj = _load(path, "graph", "skew-spec")
    if kind == "graph":
        return obj, None
    from .skew import skew_product
    skew = skew_product(obj, window)
    return skew.graph, skew


def _load_action(path: str, window: Window | None):
    kind, obj = _load(path, "action", "skew-spec")
    if kind == "action":
        return obj.instantiate(window)
    from .skew import left_translation, skew_product
    return left_translation(skew_product(obj, window))


def _set_str(values) -> str:
    return "{" + ", ".join(sorted(values)) + "}"


def _check_json(check) -> dict:
    out = {"ok": bool(check)}
    if not check and check.witness is not None:
        out["witness"] = repr(check.witness)
    return out


def _elements_json(group, elements: Mapping) -> dict:
    """``elements``, a map into ``group``, in key order and with each
    element in its JSON form."""
    return {key: jsonio.element_to_json(group, g)
            for key, g in sorted(elements.items())}


def _laws(args):
    """The action of ``args``, its :func:`~labgraphs.action.verify_action`
    report, its freeness, and the JSON payload of both."""
    from .action import is_free, verify_action
    action = _load_action(args.file, args.window)
    report = verify_action(action)
    freeness = is_free(action)
    return report, freeness, {"action": report.to_json(),
                              "free": _check_json(freeness)}


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
    vertices = (_split_names(args.set, "--set") if args.set is not None
                else list(lg.vertices))
    word = _parse_word(args.word, lg.core.positions[2])
    result = relative_range(lg, vertices, word)
    payload = {"set": sorted(vertices), "word": list(word),
               "range": sorted(result)}
    return 0, payload, [f"r({_set_str(vertices)}, {''.join(word)}) = "
                        f"{_set_str(result)}"]


def _derivation_renderer(col):
    """Render the derivation of a member of ``col``, cut to ``...`` below
    depth 8; each (mask, depth) is rendered once and shared, since union
    derivations reuse their operands many times over."""
    memo: dict[tuple[int, int], str] = {}

    def render(mask: int, depth: int = 0) -> str:
        text = memo.get((mask, depth))
        if text is not None:
            return text
        expr = col.derivations[mask]
        if depth > 8:
            text = "..."
        elif expr[0] == "range":
            text = f"r({''.join(expr[1])})"
        elif expr[0] == "step":
            text = f"r({render(expr[1], depth + 1)}, {expr[2]})"
        else:
            symbol = {"and": "&", "or": "|", "diff": "\\"}[expr[0]]
            text = (f"({render(expr[1], depth + 1)} {symbol} "
                    f"{render(expr[2], depth + 1)})")
        memo[mask, depth] = text
        return text
    return render


def _cmd_lattice(args):
    from .lattice import (labeled_space_report, relative_complement_closure,
                          smallest_accommodating)
    lg, _ = _load_graph(args.file, args.window)
    col = smallest_accommodating(lg)
    closed = relative_complement_closure(col)
    report = labeled_space_report(lg, closed, word_bound=args.max_len)
    # each mask's sorted members and their text, shared by both listings
    masks = [*{*col.members, *closed.members}]
    sets = {m: (list(vs), "{" + ", ".join(vs) + "}")
            for m, vs in zip(masks, lg.names_of(masks))}
    listings = {}
    for name, coll in (("smallest_accommodating", col),
                       ("relative_complement_closure", closed)):
        render = _derivation_renderer(coll)
        listings[name] = [(m, *sets[m], render(m)) for m in coll.members]
    payload = {
        name: [{"set": vs, "derivation": text}
               for _, vs, _, text in listing]
        for name, listing in listings.items()}
    if args.as_json:
        # the report's JSON, and so its label counts, only where it is shown
        payload["report"] = report.to_json()
    lines = ["smallest accommodating collection:"]
    for _, _, shown, text in listings["smallest_accommodating"]:
        lines.append(f"  {shown}  =  {text}")
    lines.append("relative-complement closure:")
    for m, _, shown, text in listings["relative_complement_closure"]:
        marker = "" if m in col.derivations else "  (new)"
        lines.append(f"  {shown}  =  {text}{marker}")
    lines.append(f"set-finite: {str(report.set_finite).lower()}; "
                 f"weakly-left-resolving: {str(bool(report.weakly_left_resolving)).lower()}")
    lines.append(f"empty set convention: {report.empty_set_convention}")
    return (0 if report.ok else 1), payload, lines


def _cmd_skew(args):
    from .skew import skew_product
    skew = skew_product(_load(args.file, "skew-spec")[1], args.window)
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
    report, freeness, payload = _laws(args)
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
    from .action import quotient, require_verified
    action = _load_action(args.file, args.window)
    require_verified(action)
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
    report, freeness, payload = _laws(args)
    lines = [f"action laws: {'ok' if report.ok else 'FAILED'}",
             f"free: {str(bool(freeness)).lower()}"]
    for law, witness in report.failures[:5]:
        lines.append(f"  violated: {law} at {witness!r}")
    return (0 if report.ok else 1), payload, lines


def _cmd_fundomain(args):
    from .action import (find_fundamental_domain, is_fundamental_domain,
                         require_verified)
    action = _load_action(args.file, args.window)
    require_verified(action)
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
    from .action import is_label_consistent
    _, spec = _load(args.file, "skew-spec")
    payload = {}
    lines = []
    ok = True
    for name, cocycle in (("c", spec.c), ("d", spec.d)):
        result = is_label_consistent(spec.base, cocycle)
        if result:
            payload[name] = {"consistent": True, "factoring": _elements_json(
                spec.group, result.factoring)}
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
    from .gross_tucker import reconstruct, reconstruct_label_consistent
    action = _load_action(args.file, args.window)
    pack = _load(args.eta0, "section-pack")[1] if args.eta0 else None
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
        "c": _elements_json(group, rec.c),
        "d": _elements_json(group, rec.d),
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
        payload["C"] = _elements_json(group, rec.c_factoring)
    if rec.d_factoring is not None:
        payload["D"] = _elements_json(group, rec.d_factoring)
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
    from .morphism import LabeledGraphMorphism, verify_morphism
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
    from .dot import export_dot
    lg, skew = _load_graph(args.file, args.window)
    text = export_dot(lg, skew)
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

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input document (JSON)")
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
                   help="comma-separated source vertices (default: all); "
                        "commas inside parentheses belong to the name")
    p.add_argument("--word", required=True,
                   help="word; single characters or comma-separated "
                        "letters, as --set splits them")
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
    try:
        code = _main(argv)
        sys.stdout.flush()      # so that a closed pipe is met in the try
    except BrokenPipeError:
        # the ``signal`` docs' note on SIGPIPE: stdout to devnull, so that
        # the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # ``_parse_window`` raises ``BAD_WINDOW`` from inside argparse
        args = parser.parse_args(_expand_window_args(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, payload, lines = args.handler(args)
    except (*_INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabGraphsError as exc:
        code, payload = 1, {"ok": False, "error": str(exc)}
        lines = [f"FAILED: {exc}"]
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
