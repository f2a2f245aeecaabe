"""What a command-line call loads: every golden command run as a fresh
interpreter, the library modules each kind of call imports, and the
package namespace that resolves its names on first use."""

import argparse
import importlib
import json
import os
import random
import sys

import pytest

import labgraphs
from labgraphs import fixtures as fx
from labgraphs import jsonio
from labgraphs.cli import build_parser
from labgraphs.morphism import identity_maps

from tools.make_fixtures import GOLDEN_COMMANDS

from helpers import child

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The standard-library modules a call should not pay for: ``dataclasses``
#: imports ``inspect``, and each dataclass execs generated methods.
SLOW_STDLIB = ("dataclasses", "inspect")

#: Runs the CLI on its arguments, then prints its exit code, the labgraphs
#: submodules loaded and which of SLOW_STDLIB are loaded, as the last line
#: of stdout.
WRAPPER = f"""\
import json, sys
from labgraphs.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules
                               if name.startswith("labgraphs.")),
                  [name for name in {SLOW_STDLIB!r} if name in sys.modules]]))
"""

#: The modules every command on a graph document loads.
GRAPH_READ = {"cli", "errors", "graph", "groups", "jsonio", "labeled"}

#: The arguments of one call of every subcommand.  ACTION is an action
#: document and MORPHISM the identity morphism of ``fixtures/fish.json``.
CALLS = {
    "validate": ["fixtures/fish.json"],
    "properties": ["fixtures/fish.json"],
    "paths": ["fixtures/fish.json", "--n", "2"],
    "range": ["fixtures/fish.json", "--word", "0"],
    "lattice": ["fixtures/fish.json"],
    "skew": ["fixtures/skewz.json", "--window", "0:3"],
    "translate": ["fixtures/skewz.json", "--window", "0:3"],
    "quotient": ["ACTION"],
    "act-check": ["ACTION"],
    "fundomain": ["fixtures/nofd.json", "--window", "-3:3"],
    "label-consistency": ["fixtures/fdok.json"],
    "gross-tucker": ["ACTION", "--label-consistent"],
    "iso-check": ["fixtures/fish.json", "fixtures/fish.json",
                  "--morphism", "MORPHISM"],
    "export-dot": ["fixtures/skewz.json", "--window", "0:3"],
}


def loaded_by(argv: list[str]) -> tuple[int, set[str], set[str]]:
    """The exit code of a cold child running the CLI on ``argv``, the
    labgraphs submodules it loaded and which of SLOW_STDLIB it loaded."""
    proc = child("-c", WRAPPER, *argv)
    assert proc.stderr == ""
    code, modules, stdlib = json.loads(proc.stdout.splitlines()[-1])
    return code, {name[len("labgraphs."):] for name in modules}, set(stdlib)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_cold_child_reproduces_the_golden(name):
    proc = child("-m", "labgraphs.cli", *GOLDEN_COMMANDS[name])
    with open(os.path.join(ROOT, "tests", "golden", name),
              encoding="utf-8") as fh:
        assert f"# exit {proc.returncode}\n{proc.stdout}" == fh.read()


@pytest.fixture(scope="module")
def action_document(tmp_path_factory) -> str:
    """An anonymized finite action of a label-consistent translation,
    written in the element form."""
    rng = random.Random(18)
    finite = fx.anonymize_action(
        fx.random_translation_action(rng, label_consistent=True), rng)
    doc = jsonio.ActionDocument(finite.group, graph=finite.graph,
                                elements=tuple(sorted(finite.maps.items())))
    path = tmp_path_factory.mktemp("action") / "action.json"
    jsonio.dump(jsonio.action_to_json(doc), str(path))
    return str(path)


@pytest.mark.parametrize("argv, extra", [
    (["properties", "fixtures/fish.json"], set()),
    (["lattice", "fixtures/fish.json"], {"lattice"}),
    (["act-check", "ACTION"], {"action", "morphism"}),
    (["gross-tucker", "ACTION"], {"action", "morphism", "skew",
                                  "gross_tucker"}),
], ids=["properties", "lattice", "act-check", "gross-tucker"])
def test_cold_child_loads_only_its_modules(argv, extra, action_document):
    argv = [action_document if arg == "ACTION" else arg for arg in argv]
    code, modules, _ = loaded_by(argv)
    assert code == 0
    assert modules == GRAPH_READ | extra


def test_calls_cover_every_subcommand():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(CALLS) == set(subparsers.choices)


@pytest.mark.parametrize("command", sorted(CALLS))
def test_only_lattice_loads_dataclasses(command, action_document, tmp_path):
    """Records are named tuples or plain classes, so no call but
    ``lattice``, whose closures are dataclasses, imports ``dataclasses``
    and with it ``inspect``."""
    morphism = tmp_path / "identity.json"
    jsonio.dump(dict(zip(("vertex_map", "edge_map", "alphabet_map"),
                         identity_maps(fx.fish()))), str(morphism))
    files = {"ACTION": action_document, "MORPHISM": str(morphism)}
    code, _, stdlib = loaded_by([command, *(files.get(arg, arg)
                                            for arg in CALLS[command])])
    assert code in (0, 1)
    assert stdlib == (set(SLOW_STDLIB) if command == "lattice" else set())


def test_bare_import_loads_no_submodule():
    proc = child("-c", "import sys, labgraphs; print(sorted("
                       "name for name in sys.modules if name.startswith("
                       "'labgraphs')))")
    assert proc.stdout == "['labgraphs']\n"


def test_public_names_are_their_submodules_objects():
    for name in labgraphs.__all__:
        value = getattr(labgraphs, name)
        module = labgraphs._SOURCE.get(name, name)
        owner = importlib.import_module(f"labgraphs.{module}")
        assert value is (owner if module == name else getattr(owner, name))


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from labgraphs import *", namespace)
    assert set(labgraphs.__all__) <= set(namespace)
    assert set(labgraphs.__all__) <= set(dir(labgraphs))
    assert namespace["quotient"] is sys.modules["labgraphs.action"].quotient


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        labgraphs.no_such_name


def test_names_follow_a_rebinding_on_their_submodule(monkeypatch):
    """A name is read from its submodule on every access, so a wrapper set
    there and removed again is seen and then gone, as the benchmark's
    tracer does it."""
    action = importlib.import_module("labgraphs.action")
    original = action.quotient
    monkeypatch.setattr(action, "quotient", lambda a: a)
    assert labgraphs.quotient is action.quotient
    monkeypatch.undo()
    assert labgraphs.quotient is original
