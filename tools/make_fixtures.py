#!/usr/bin/env python3
"""Regenerate the canonical fixture documents in fixtures/ and the golden
CLI outputs in tests/golden/.  Run from the repository root after changing
fixture definitions or CLI output formats; the golden tests diff against
these files byte for byte."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

from labgraphs import fixtures as fx
from labgraphs import jsonio
from labgraphs.action import FiniteAction
from labgraphs.cli import main as cli_main
from labgraphs.groups import CyclicGroup, Group, PermutationGroup, TableGroup
from labgraphs.morphism import identity_maps
from labgraphs.skew import SkewSpec, TranslationAction, skew_product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXDIR = os.path.join(ROOT, "fixtures")
GOLDDIR = os.path.join(ROOT, "tests", "golden")


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {os.path.relpath(path, ROOT)}")


S3 = PermutationGroup(3, [(1, 0, 2), (1, 2, 0)])
KLEIN_TABLE = TableGroup([[i ^ j for j in range(4)] for i in range(4)])


def free_element_action(group: Group, seed: int,
                        label_consistent: bool) -> FiniteAction:
    """A free action of ``group`` over opaque ids: the translation on the
    skew product of FISH with seeded cocycles, anonymized.  With
    ``label_consistent`` the cocycles factor through the labeling, so a
    fundamental domain exists."""
    rng = random.Random(seed)
    base, elements = fx.fish(), group.elements()
    keys = {eid: a if label_consistent else eid
            for eid, a in sorted(base.labeling.items())}
    c, d = ({k: rng.choice(elements) for k in sorted(set(keys.values()))}
            for _ in range(2))
    spec = SkewSpec(base, group, {eid: c[k] for eid, k in keys.items()},
                    {eid: d[k] for eid, k in keys.items()})
    return fx.anonymize_action(TranslationAction(skew_product(spec)), rng)


def element_actions() -> dict[str, FiniteAction]:
    """The actions written in element form: free over S3 (with label
    consistent cocycles) and over the Klein four-group given by its table,
    Z/4 acting through Z/2 (not free), and the S3 action with two images
    swapped in one element's vertex map (broken)."""
    s3 = free_element_action(S3, 1, label_consistent=True)
    z2 = free_element_action(CyclicGroup(2), 2, label_consistent=False)
    maps = {g: tuple(dict(m) for m in t) for g, t in s3.maps.items()}
    vertex_map = maps[(1, 2, 0)][0]
    x, y = sorted(vertex_map)[:2]
    vertex_map[x], vertex_map[y] = vertex_map[y], vertex_map[x]
    return {
        "elements-s3.json": s3,
        "elements-table.json": free_element_action(KLEIN_TABLE, 3, False),
        "elements-nonfree.json": FiniteAction(
            CyclicGroup(4), z2.graph, {g: z2.maps[g % 2] for g in range(4)}),
        "elements-broken.json": FiniteAction(S3, s3.graph, maps),
    }


def fixture_documents() -> None:
    os.makedirs(FIXDIR, exist_ok=True)
    write(os.path.join(FIXDIR, "fish.json"),
          jsonio.dumps(jsonio.graph_to_json(fx.fish())))
    write(os.path.join(FIXDIR, "fish4.json"),
          jsonio.dumps(jsonio.graph_to_json(fx.fish4())))
    write(os.path.join(FIXDIR, "chain3.json"),
          jsonio.dumps(jsonio.graph_to_json(fx.chain3())))
    write(os.path.join(FIXDIR, "skewz.json"),
          jsonio.dumps(jsonio.skew_spec_to_json(fx.skewz_spec())))
    write(os.path.join(FIXDIR, "nofd.json"),
          jsonio.dumps(jsonio.skew_spec_to_json(fx.nofd_spec())))
    write(os.path.join(FIXDIR, "fdok.json"),
          jsonio.dumps(jsonio.skew_spec_to_json(fx.fdok_spec())))
    write(os.path.join(FIXDIR, "gt510-action.json"),
          jsonio.dumps(jsonio.action_to_json(
              jsonio.ActionDocument(fx.skewz_spec().group,
                                    translation=fx.skewz_spec()))))
    _, pack = fx.gt510()
    write(os.path.join(FIXDIR, "gt510-sections.json"),
          jsonio.dumps(jsonio.sections_to_json(pack)))
    # the same sections with the edge section supplied: the one derived
    # from eta0, and a copy whose edge e starts off the vertex section
    eta1 = {"e": "(e,0)", "f": "(f,0)", "g": "(g,2)"}
    for name, edges in (("gt510-sections-eta1.json", eta1),
                        ("gt510-sections-eta1-offsection.json",
                         {**eta1, "e": "(e,1)"})):
        write(os.path.join(FIXDIR, name), jsonio.dumps(jsonio.sections_to_json(
            pack._replace(eta1=edges))))
    write(os.path.join(FIXDIR, "fdok-action.json"),
          jsonio.dumps(jsonio.action_to_json(
              jsonio.ActionDocument(fx.fdok_spec().group,
                                    translation=fx.fdok_spec()))))
    write(os.path.join(FIXDIR, "nofd-domain.json"),
          json.dumps(["(v,0)", "(w,1)"], indent=2) + "\n")
    write(os.path.join(FIXDIR, "fdok-domain.json"),
          json.dumps(["(v,0)", "(w,0)"], indent=2) + "\n")
    for name, action in element_actions().items():
        write(os.path.join(FIXDIR, name),
              jsonio.dumps(jsonio.action_to_json(jsonio.ActionDocument(
                  action.group, graph=action.graph,
                  elements=tuple(sorted(action.maps.items()))))))
    # Z/10^7 acting trivially on FISH, in generator form: its closure
    # would list 10^7 triples of maps, so it is refused under MAX_TRIPLES
    # before it runs
    write(os.path.join(FIXDIR, "generators-z10e7.json"),
          jsonio.dumps(jsonio.action_to_json(jsonio.ActionDocument(
              CyclicGroup(10 ** 7), graph=fx.fish(),
              generators=(identity_maps(fx.fish()),)))))


def run_cli(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return f"# exit {code}\n{buffer.getvalue()}"


GOLDEN_COMMANDS = {
    "properties-fish.txt": ["properties", "fixtures/fish.json"],
    "properties-fish4.txt": ["properties", "fixtures/fish4.json"],
    "properties-chain3.txt": ["properties", "fixtures/chain3.json"],
    "properties-skewz.txt": ["properties", "fixtures/skewz.json",
                             "--window", "0:3"],
    "properties-nofd.txt": ["properties", "fixtures/nofd.json",
                            "--window", "-3:3"],
    "properties-fdok.txt": ["properties", "fixtures/fdok.json"],
    "lattice-fish.txt": ["lattice", "fixtures/fish.json"],
    "lattice-fish4.txt": ["lattice", "fixtures/fish4.json"],
    "lattice-chain3.txt": ["lattice", "fixtures/chain3.json"],
    "gross-tucker-gt510.txt": ["gross-tucker", "fixtures/gt510-action.json",
                               "--eta0", "fixtures/gt510-sections.json",
                               "--window", "-4:6"],
    "gross-tucker-fdok.txt": ["gross-tucker", "fixtures/fdok-action.json",
                              "--label-consistent"],
    "fundomain-nofd.txt": ["fundomain", "fixtures/nofd.json",
                           "--window", "-3:3"],
    "export-dot-skewz.txt": ["export-dot", "fixtures/skewz.json",
                             "--window", "0:3"],
}


def golden_outputs() -> None:
    os.makedirs(GOLDDIR, exist_ok=True)
    os.chdir(ROOT)
    for name, argv in GOLDEN_COMMANDS.items():
        write(os.path.join(GOLDDIR, name), run_cli(argv))


if __name__ == "__main__":
    fixture_documents()
    golden_outputs()
    sys.exit(0)
