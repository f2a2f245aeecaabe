#!/usr/bin/env python3
"""Run a fixed matrix of CLI commands and print one sha256 per command over
its exit code, stdout and stderr.

Every fixture document runs under ``lattice``, ``translate``,
``act-check``, ``quotient``, ``gross-tucker`` (plain and
``--label-consistent``), ``fundomain``, ``properties``, ``skew``,
``export-dot``, ``validate``, ``label-consistency``, ``paths --n 2`` and
``range --word`` with the first letter of its (base) graph, with no
window and with the windows -3:3 and 0:4, in text and with ``--json``.
Each skew-spec fixture also runs under ``range`` (in both windows over the
integers, without one over a finite group) with the first letter of its
materialized graph and a ``--set`` of that graph's first two vertices,
names with a comma inside parentheses.
``fixtures/fish.json`` also runs under ``range`` with a trailing comma
after the ``--word`` and after the ``--set``, which exit 2 naming the
empty name, in text and with ``--json``.
Three generated graph documents with more vertices than one chunk of the
vertex-set decoder (``LabeledGraph.names_of``) run under ``lattice`` in
text and with ``--json``: the shift graphs of 9 and 12 vertices
(``tests/helpers.shift_graph``) and a seeded 20-vertex graph.  Each graph
fixture runs under ``iso-check`` against itself with its identity
morphism, in text and with ``--json``.  The generated documents and
morphisms are written to a temporary directory and printed as
``generated/<name>``.  So every subcommand runs.
Then come the supplied sections and domains: ``gross-tucker`` on
``fixtures/gt510-action.json`` over -4:6 with each of the three section
packs as ``--eta0`` (without an edge section, with the derived one, and
with one off the vertex section, which exits 2), and ``fundomain`` and
``gross-tucker`` with a ``--domain`` file that fails (``nofd.json`` over
-3:3, exit 1) and one that holds (``fdok-action.json``, exit 0), each in
text and with ``--json``.  The section packs and domain written for these
commands run under them only.
Last come the five action subcommands on ``fixtures/skewz.json`` over the
window 0:185, whose (g, h, item) triples are over ``MAX_TRIPLES``, every
subcommand with the windows ``3:1`` and ``abc``, which exit 2 naming
``BAD_WINDOW``, and the five action subcommands on
``fixtures/generators-z10e7.json``, which exit 2 naming ``MAX_TRIPLES``
before the generator closure runs, each in text and with ``--json``.
That fixture runs under those commands only.
The commands run in-process against the ``src/`` of the checkout this
script sits in, so running it in two checkouts and diffing the two
printouts shows every command whose output changed:

    python tools/cli_matrix.py > after.txt
    (cd ../other-checkout && python tools/cli_matrix.py) > before.txt
    diff before.txt after.txt

It also checks the exit contract of ``main``: when a command lets an
exception escape or returns a code other than 0, 1 and 2, the script names
each such command on stderr after the digests and exits with code 1.

Only the standard library, the checkout's own ``labgraphs`` and
``tests/helpers.py`` are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
from typing import Iterator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ["lattice"],
    ["translate"],
    ["act-check"],
    ["quotient"],
    ["gross-tucker"],
    ["gross-tucker", "--label-consistent"],
    ["fundomain"],
    ["properties"],
    ["skew"],
    ["export-dot"],
    ["validate"],
    ["label-consistency"],
    ["paths", "--n", "2"],
)
WINDOWS = ((), ("--window", "-3:3"), ("--window", "0:4"))
FORMATS = ((), ("--json",))
EMPTY_NAMES = (
    ["range", "fixtures/fish.json", "--word", "0,1,"],
    ["range", "fixtures/fish.json", "--set", "v,", "--word", "0"],
)
ACTION_COMMANDS = ("act-check", "translate", "gross-tucker", "quotient",
                   "fundomain")
#: The action subcommands, run on an intact translation whose (g, h, item)
#: triples are over ``MAX_TRIPLES``: the certificate verifies it.
AT_THE_CAP = [[command, "fixtures/skewz.json", "--window", "0:185"]
              for command in ACTION_COMMANDS]
#: A generator-form action of Z/10^7 on fish, refused under
#: ``MAX_TRIPLES`` before its closure would list 10^7 triples of maps.  It
#: runs under the action subcommands only, after every other command.
OVER_THE_CAP = "generators-z10e7.json"
#: The section packs and domains, which no command reads as its input:
#: they run in SUPPLIED only, not in the per-fixture matrix, where every
#: command would refuse them at load.
SUPPLIED_ONLY = ("gt510-sections.json", "gt510-sections-eta1.json",
                 "gt510-sections-eta1-offsection.json", "nofd-domain.json",
                 "fdok-domain.json")
#: The commands that read a supplied section pack or domain file.
SUPPLIED = [
    *(["gross-tucker", "fixtures/gt510-action.json", "--window", "-4:6",
       "--eta0", f"fixtures/{name}"]
      for name in ("gt510-sections.json", "gt510-sections-eta1.json",
                   "gt510-sections-eta1-offsection.json")),
    *([command, *argv] for argv in (
        ["fixtures/nofd.json", "--window", "-3:3",
         "--domain", "fixtures/nofd-domain.json"],
        ["fixtures/fdok-action.json", "--domain", "fixtures/fdok-domain.json"])
      for command in ("fundomain", "gross-tucker")),
]
#: One call of every subcommand, run with a reversed and a malformed
#: window, which exit 2 naming ``BAD_WINDOW``.
BAD_WINDOWS = [
    *([command[0], "fixtures/skewz.json", *command[1:]]
      for command in COMMANDS),
    ["range", "fixtures/skewz.json", "--word", "0"],
    ["iso-check", "fixtures/fish.json", "fixtures/fish.json", "--morphism",
     "fixtures/fish.json"],
]


def fixture_names() -> list[str]:
    return sorted(name for name in os.listdir(os.path.join(ROOT, "fixtures"))
                  if name.endswith(".json"))


def read_fixture(name: str):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
        return json.load(fh)


def first_letter(doc) -> str:
    """The first letter of a graph document, or of the base graph of a
    skew-spec or translation action; ``a`` for any other document."""
    if isinstance(doc, dict):
        graph = doc.get("translation", doc)
        graph = graph.get("base", graph)
        if graph.get("alphabet"):
            return graph["alphabet"][0]
    return "a"


def matrix() -> list[list[str]]:
    """Every command on the fixture documents, as argv lists, in a fixed
    order."""
    return [[command[0], f"fixtures/{name}", *command[1:], *window, *fmt]
            for name in fixture_names()
            if name != OVER_THE_CAP and name not in SUPPLIED_ONLY
            for command in (*COMMANDS, ["range", "--word",
                                        first_letter(read_fixture(name))])
            for window in WINDOWS for fmt in FORMATS]


def skew_range_matrix() -> list[list[str]]:
    """``range`` on every skew-spec fixture, in both windows over the
    integers and without one over a finite group, with a letter and a set
    of vertices of the materialized graph, as argv lists in a fixed
    order."""
    from labgraphs import jsonio
    from labgraphs.groups import Window
    from labgraphs.skew import skew_product
    out = []
    for name in fixture_names():
        doc = read_fixture(name)
        if not isinstance(doc, dict) or doc.get("kind") != "skew-spec":
            continue
        spec = jsonio.load(os.path.join(ROOT, "fixtures", name))[1]
        for window in WINDOWS[:1] if spec.group.is_finite else WINDOWS[1:]:
            bounds = Window(*map(int, window[1].split(":"))) if window else None
            lg = skew_product(spec, bounds).graph
            out += [["range", f"fixtures/{name}", *window,
                     "--set", ",".join(lg.vertices[:2]),
                     "--word", lg.alphabet[0], *fmt] for fmt in FORMATS]
    return out


def seeded_graph(seed: int, n: int):
    """A valid graph on ``n`` vertices whose closures stay small: letter a
    permutes the vertices in cycles of 4 and letter b adds two random
    edges.  Seed 0 at 20 vertices gives 81 and 511 members."""
    from labgraphs.graph import DirectedGraph
    from labgraphs.labeled import LabeledGraph
    rng = random.Random(seed)
    vertices = [f"v{i:02d}" for i in range(n)]
    order = vertices[:]
    rng.shuffle(order)
    edges = [(f"a{i:02d}", order[i], order[i - i % 4 + (i + 1) % 4])
             for i in range(n)]
    edges += [(f"b{i:02d}", rng.choice(vertices), rng.choice(vertices))
              for i in range(2)]
    return LabeledGraph(DirectedGraph(vertices, edges),
                        {eid: eid[0] for eid, _, _ in edges})


@contextlib.contextmanager
def commands() -> Iterator[list[tuple[str, list[str]]]]:
    """Every command of the matrix as (label, argv), the fixture commands
    first; the generated documents exist while the context is open."""
    for path in ("src", "tests"):
        if os.path.join(ROOT, path) not in sys.path:
            sys.path.insert(0, os.path.join(ROOT, path))
    from helpers import shift_graph
    from labgraphs import jsonio
    from labgraphs.morphism import identity_maps
    graphs = {"shift-09.json": shift_graph(9),
              "shift-12.json": shift_graph(12),
              "seeded-20.json": seeded_graph(0, 20)}
    with tempfile.TemporaryDirectory() as tmp:
        generated = []
        for name, lg in graphs.items():
            path = os.path.join(tmp, name)
            jsonio.dump(jsonio.graph_to_json(lg), path)
            generated += [(" ".join(["lattice", f"generated/{name}", *fmt]),
                           ["lattice", path, *fmt]) for fmt in FORMATS]
        for name in fixture_names():
            doc = read_fixture(name)
            if not isinstance(doc, dict) or doc.get("kind") != "graph":
                continue
            lg = jsonio.graph_from_json(doc)
            maps = dict(zip(("vertex_map", "edge_map", "alphabet_map"),
                            identity_maps(lg)))
            morphism = f"identity-{name}"
            path = os.path.join(tmp, morphism)
            jsonio.dump(maps, path)
            graph = f"fixtures/{name}"
            generated += [
                (" ".join(["iso-check", graph, graph, "--morphism",
                           f"generated/{morphism}", *fmt]),
                 ["iso-check", graph, graph, "--morphism", path, *fmt])
                for fmt in FORMATS]
        empty_names = [[*argv, *fmt] for argv in EMPTY_NAMES for fmt in FORMATS]
        last = [[*argv, *fmt] for argv in SUPPLIED + AT_THE_CAP
                for fmt in FORMATS] + [
            [*argv, "--window", window, *fmt] for argv in BAD_WINDOWS
            for window in ("3:1", "abc") for fmt in FORMATS] + [
            [command, f"fixtures/{OVER_THE_CAP}", *fmt]
            for command in ACTION_COMMANDS for fmt in FORMATS]
        yield [(" ".join(argv), argv) for argv in
               matrix() + skew_range_matrix() + empty_names] + generated + [
                   (" ".join(argv), argv) for argv in last]


def run(main, argv: list[str]) -> tuple[str, str | None]:
    """sha256 over the exit code, stdout and stderr of one command, and
    how the command breaks the exit contract of ``main``, or None.  An
    exception that escapes ``main`` is digested as its traceback's last
    line, so a crash shows up as a changed digest rather than ending the
    run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            broken = None if code in (0, 1, 2) else f"exit code {code!r}"
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
            broken = f"raised {code}"
        except Exception:
            code = "raised " + traceback.format_exc().strip().splitlines()[-1]
            broken = code
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest(), broken


def main() -> int:
    os.chdir(ROOT)
    broken = []
    with commands() as argvs:
        from labgraphs.cli import main as cli_main
        for label, argv in argvs:
            digest, problem = run(cli_main, argv)
            print(f"{digest}  {label}")
            if problem is not None:
                broken.append(f"{label}: {problem}")
    for line in broken:
        print(f"exit contract broken by {line}", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
