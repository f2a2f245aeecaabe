"""Command-line behavior: exit codes, reports, golden outputs."""

import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labgraphs import cli, errors, jsonio
from labgraphs.action import MAX_TRIPLES, VERTEX
from labgraphs.cli import build_parser, main
from labgraphs.graph import MAX_PATH_EDGES
from labgraphs.groups import MAX_PERMUTATION_ENTRIES, MAX_TABLE_ORDER
from labgraphs.labeled import LabeledGraph
from labgraphs.skew import MAX_ITEMS, TranslationAction

from helpers import (child, child_env, distinct_letter_cycle, error_classes,
                     evaluate_printed_derivation, library_error, shift_graph)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Runs the CLI on its arguments in a child that first limits its own
#: address space to 1 GiB.
LIMITED_CLI = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from labgraphs.cli import main
sys.exit(main(sys.argv[1:]))
"""

ACTION_COMMANDS = ["act-check", "translate", "gross-tucker", "quotient",
                   "fundomain"]


def run(argv, cwd=ROOT):
    old = os.getcwd()
    os.chdir(cwd)
    try:
        buffer = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, buffer.getvalue(), err.getvalue()
    finally:
        os.chdir(old)


class TestExitCodes:
    def test_properties_fish_exits_zero(self):
        code, out, _ = run(["properties", "fixtures/fish.json"])
        assert code == 0
        assert "left-resolving: true" in out
        assert "weakly-left-resolving: true" in out
        assert "row-finite+essential: true" in out

    def test_fundomain_nofd_exits_one(self):
        code, out, _ = run(["fundomain", "fixtures/nofd.json",
                            "--window", "-3:3"])
        assert code == 1
        assert "NONE" in out

    def test_unknown_flag_exits_two(self):
        code, _, _ = run(["properties", "fixtures/fish.json", "--bogus"])
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_schema_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 1, "kind": "graph", '
                       '"vertices": [], "alphabet": [], "edges": [], '
                       '"extra": 1}')
        code, _, err = run(["properties", str(bad)])
        assert code == 2
        assert "extra" in err

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["properties", str(bad)])
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("argv, text", [
        (["gross-tucker", "fixtures/fdok-action.json", "--domain"], "{not json"),
        (["gross-tucker", "fixtures/fdok-action.json", "--domain"], '{"v": 1}'),
        (["fundomain", "fixtures/fdok-action.json", "--domain"], "[1, 2]"),
        (["iso-check", "fixtures/fish.json", "fixtures/fish.json",
          "--morphism"], "5"),
        (["iso-check", "fixtures/fish.json", "fixtures/fish.json",
          "--morphism"], '{"vertex_map": {"v": 1}, "edge_map": {}, '
                         '"alphabet_map": {}}'),
    ])
    def test_bad_side_file_exits_two(self, tmp_path, argv, text):
        side = tmp_path / "side.json"
        side.write_text(text)
        code, out, err = run(argv + [str(side)])
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_missing_window_for_integer_skew_exits_two(self):
        code, _, err = run(["skew", "fixtures/skewz.json"])
        assert code == 2
        assert "window" in err.lower()

    @pytest.mark.parametrize("extra", [[], ["--json"], ["--window", "0:4"]])
    @pytest.mark.parametrize("command", ["quotient", "fundomain"])
    def test_unverified_action_exits_two(self, command, extra):
        """``quotient`` and ``fundomain`` refuse an action that fails the
        action laws, as ``gross-tucker`` does, instead of reporting on
        it."""
        got = run([command, "fixtures/elements-broken.json", *extra])
        code, out, err = got
        assert code == 2 and out == ""
        assert err.startswith("error: ACTION_NOT_VERIFIED: first failure: "
                              "('range equivariance'")
        assert got == run(["gross-tucker", "fixtures/elements-broken.json",
                           *extra])

    def test_fundomain_verifies_the_action_before_the_domain(self, tmp_path):
        domain = tmp_path / "domain.json"
        domain.write_text('["n000", "n006"]')
        code, out, err = run(["fundomain", "fixtures/elements-broken.json",
                              "--domain", str(domain)])
        assert code == 2 and out == ""
        assert "ACTION_NOT_VERIFIED" in err

    def test_properties_on_a_wide_skew_window_fits_in_a_gibibyte(self):
        """skewz over 0:8000 (16,002 vertices and as many letters) in a
        child that limits its own address space to 1 GiB: weak
        left-resolving is decided on the integer core, with no table of
        one mask per (letter, vertex)."""
        proc = child("-c", LIMITED_CLI, "properties", "fixtures/skewz.json",
                     "--window", "0:8000")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "weakly-left-resolving: true" in proc.stdout.splitlines()

    def test_a_closed_stdout_ends_without_a_traceback(self, tmp_path):
        """``lattice ... | head -c 10``: the reader closes the pipe after
        10 bytes of about 12 MB, so the child meets the closed pipe while
        it writes, and ends with exit 1 and nothing on stderr."""
        doc = tmp_path / "shift12.json"
        jsonio.dump(jsonio.graph_to_json(shift_graph(12)), str(doc))
        with subprocess.Popen(
                [sys.executable, "-m", "labgraphs.cli", "lattice", str(doc)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            try:
                head = proc.stdout.read(10)
                proc.stdout.close()
                returncode = proc.wait(timeout=120)
            finally:
                proc.kill()     # no-op once it has exited
            err = proc.stderr.read().decode()
        assert head == b"smallest a"
        assert "Traceback" not in err
        assert (returncode, err) == (1, "")

    def test_properties_on_a_skew_spec_builds_no_step_table(self,
                                                            monkeypatch):
        """``properties`` leaves ``LabeledGraph._step`` unbuilt; ``range``,
        which reads it, shows that the spy sees a build."""
        built = []
        step = LabeledGraph._step.func
        monkeypatch.setattr(LabeledGraph, "_step", property(
            lambda lg: built.append(lg) or step(lg)))
        window = ["--window", "0:40"]
        assert run(["properties", "fixtures/skewz.json", *window])[0] == 0
        assert built == []
        assert run(["range", "fixtures/skewz.json", *window,
                    "--word", "(0,0)"])[0] == 0
        assert built

    def test_exit_codes_deterministic(self):
        first = run(["fundomain", "fixtures/nofd.json", "--window", "-3:3"])
        second = run(["fundomain", "fixtures/nofd.json", "--window", "-3:3"])
        assert first == second


def _window_subcommands() -> dict[str, argparse.ArgumentParser]:
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: parser for name, parser in subparsers.choices.items()
            if any("--window" in action.option_strings
                   for action in parser._actions)}


#: A value for each required option of a subcommand.
REQUIRED_VALUES = {"--n": "2", "--word": "0",
                   "--morphism": "fixtures/fish.json"}


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("command", sorted(_window_subcommands()))
def test_malformed_window_exits_two(command, fmt):
    """Every subcommand that takes ``--window`` refuses a malformed or
    reversed window with exit 2 and ``BAD_WINDOW``, in text and JSON
    mode, instead of letting the error escape from argparse."""
    parser = _window_subcommands()[command]
    argv = [command]
    for action in parser._actions:
        if not action.option_strings:
            argv.append("fixtures/fish.json")
        elif action.required:
            argv += [action.option_strings[0],
                     REQUIRED_VALUES[action.option_strings[0]]]
    for window in ("3:1", "abc", "1:x", "", "9:-9"):
        code, out, err = run([*argv, "--window", window, *fmt])
        assert code == 2 and out == ""
        assert err.startswith("error: BAD_WINDOW: "), (window, err)


def test_every_matrix_command_exits_0_1_or_2():
    """The contract of ``main`` over every command of
    ``tools/cli_matrix.py``: an exit code of 0, 1 or 2, and no exception
    escapes."""
    from tools.cli_matrix import commands
    with commands() as argvs:
        assert len(argvs) > 480
        for label, argv in argvs:
            code, _, _ = run(argv)
            assert code in (0, 1, 2), label


#: The errors of a malformed input, which exit 2; every other library
#: error exits 1.
INPUT_ERRORS = (errors.ParseError, errors.SchemaError,
                errors.PreconditionError, errors.SearchSpaceExceeded,
                errors.AxiomFailure)

@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("error", error_classes(), ids=lambda c: c.__name__)
def test_every_library_error_exits_by_the_rule(monkeypatch, error, fmt):
    """A handler that raises any library error exits 2 for an input error,
    with the message on stderr, and 1 for any other, with the failure
    reported on stdout; no error escapes ``main``."""
    exc = library_error(error)

    def handler(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_validate", handler)
    code, out, err = run(["validate", "fixtures/fish.json", *fmt])
    if issubclass(error, INPUT_ERRORS):
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    elif fmt:
        assert (code, json.loads(out), err) == (
            1, {"ok": False, "error": str(exc)}, "")
    else:
        assert (code, out, err) == (1, f"FAILED: {exc}\n", "")


_GRAPH_COMMANDS = [["validate"], ["properties"], ["paths", "--n", "2"],
                   ["range", "--word", "0"], ["lattice"], ["export-dot"]]
_ACTION_COMMANDS = [[command] for command in ACTION_COMMANDS]


@pytest.mark.parametrize("fmt", [[], ["--json"]])
@pytest.mark.parametrize("argv, expected, kind", [
    *(([command, "fixtures/fdok-action.json", *extra],
       "a graph or skew-spec", "action")
      for command, *extra in _GRAPH_COMMANDS),
    (["iso-check", "fixtures/fdok-action.json", "fixtures/fish.json",
      "--morphism", "fixtures/fish.json"], "a graph or skew-spec", "action"),
    (["iso-check", "fixtures/fish.json", "fixtures/gt510-sections.json",
      "--morphism", "fixtures/fish.json"], "a graph or skew-spec",
     "section-pack"),
    *(([command, "fixtures/fish.json"], "an action or skew-spec", "graph")
      for command, in _ACTION_COMMANDS),
    (["skew", "fixtures/fish.json"], "a skew-spec", "graph"),
    (["skew", "fixtures/fdok-action.json"], "a skew-spec", "action"),
    (["label-consistency", "fixtures/fish.json"], "a skew-spec", "graph"),
    (["gross-tucker", "fixtures/fdok-action.json", "--eta0",
      "fixtures/fish.json"], "a section-pack", "graph"),
])
def test_every_loader_refuses_a_document_of_another_kind(argv, expected,
                                                         kind, fmt):
    """Each loader of the CLI exits 2 on a document of a kind it does not
    read, naming the kinds it reads and the kind it got."""
    assert run([*argv, *fmt]) == (
        2, "", f"error: schema error at $.kind: expected {expected}, "
               f"got {kind!r}\n")


class TestReports:
    def test_gross_tucker_prints_worked_example_values(self):
        code, out, _ = run(["gross-tucker", "fixtures/gt510-action.json",
                            "--eta0", "fixtures/gt510-sections.json",
                            "--window", "-4:6"])
        assert code == 0
        for line in ("c(e) = 1", "c(f) = -1", "c(g) = 3",
                     "d(f) = 0", "d(g) = 2"):
            assert line in out

    def test_gross_tucker_json_payload(self):
        code, out, _ = run(["gross-tucker", "fixtures/gt510-action.json",
                            "--eta0", "fixtures/gt510-sections.json",
                            "--window", "-4:6", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == {"e": 1, "f": -1, "g": 3}
        assert payload["d"] == {"e": 0, "f": 0, "g": 2}
        assert payload["isomorphism_verified"] is True

    def test_gross_tucker_with_a_supplied_edge_section(self):
        """The edge section that eta0 derives, supplied in the sections
        file, gives the golden output; one whose edge e starts at (v,1)
        instead of the section vertex (v,0) exits 2 naming both."""
        argv = ["gross-tucker", "fixtures/gt510-action.json",
                "--window", "-4:6", "--eta0"]
        code, out, err = run([*argv, "fixtures/gt510-sections-eta1.json"])
        with open(os.path.join(ROOT, "tests", "golden",
                               "gross-tucker-gt510.txt"),
                  encoding="utf-8") as fh:
            assert f"# exit {code}\n{out}" == fh.read()
        assert err == ""
        code, out, err = run(
            [*argv, "fixtures/gt510-sections-eta1-offsection.json"])
        assert code == 2 and out == ""
        assert err == ("error: BAD_SECTION: edge section source mismatch "
                       "at e: '(v,1)' != '(v,0)'\n")

    def test_negative_window_space_form(self):
        # --window -4:6 with a space must work despite the leading dash
        code, _, _ = run(["properties", "fixtures/skewz.json",
                          "--window", "-4:6"])
        assert code == 0

    def test_validate_reports_offenders(self, tmp_path):
        doc = {"format_version": 1, "kind": "graph", "vertices": ["v"],
               "alphabet": [], "edges": []}
        path = tmp_path / "sink.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(["validate", str(path)])
        assert code == 1
        assert "INVALID" in out

    def test_paths_command(self):
        code, out, _ = run(["paths", "fixtures/fish.json", "--n", "2"])
        assert code == 0
        assert "count: 5" in out

    def test_range_command(self):
        code, out, _ = run(["range", "fixtures/fish.json",
                            "--set", "v", "--word", "0"])
        assert code == 0
        assert "{w}" in out

    def test_range_reads_skew_letters_and_vertices_whole(self):
        """A skew product's letters and vertices hold a comma inside
        their parentheses; only the commas outside split a word or a
        set."""
        window = ["--window", "0:3"]
        code, out, _ = run(["range", "fixtures/skewz.json", *window,
                            "--word", "(1,0)", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["word"] == ["(1,0)"] and report["range"] == ["(v,1)"]
        code, out, _ = run(["range", "fixtures/skewz.json", *window,
                            "--set", "(v,0),(w,1)", "--word", "(1,0),(0,1)",
                            "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["set"] == ["(v,0)", "(w,1)"]
        assert report["word"] == ["(1,0)", "(0,1)"]

    @pytest.mark.parametrize("argv, letter", [
        (["fixtures/fish.json", "--word", "zz"], "z"),
        (["fixtures/fish.json", "--word", "0,2"], "2"),
        (["fixtures/skewz.json", "--window", "0:3", "--word", "0"], "0"),
        (["fixtures/skewz.json", "--window", "0:3", "--word", "(1,9)"],
         "("),
    ])
    def test_range_refuses_unknown_letters(self, argv, letter):
        """A letter outside the alphabet exits 2 rather than reading as an
        empty range; a single name that is not a letter reads character
        by character, as a word of one-character letters does."""
        code, out, err = run(["range", *argv])
        assert code == 2 and out == ""
        assert err == f"error: UNKNOWN_LETTER: {letter}\n"

    @pytest.mark.parametrize("option, text", [
        ("--word", "0,1,"), ("--word", ","), ("--word", ",0"),
        ("--word", "0,,1"), ("--set", "v,"), ("--set", ",w"),
        ("--set", "v,,w"),
    ])
    def test_range_refuses_empty_names(self, option, text):
        """An empty name next to a comma exits 2 with a message naming the
        option and its text, in text and JSON mode alike."""
        argv = ["range", "fixtures/fish.json", "--word", "0", option, text]
        for extra in ([], ["--json"]):
            code, out, err = run([*argv, *extra])
            assert code == 2 and out == ""
            assert err == (f"error: EMPTY_NAME: {option} {text!r} holds an "
                           f"empty name\n")

    def test_range_keeps_the_empty_word_and_the_default_set(self):
        code, out, err = run(["range", "fixtures/fish.json", "--word", ""])
        assert code == 2 and "ZERO_LENGTH_PATH" in err
        default = run(["range", "fixtures/fish.json", "--word", "0"])
        assert default[0] == 0 and default[1] == "r({v, w}, 0) = {v, w}\n"
        # an empty --set is the empty set, whose range is empty
        assert run(["range", "fixtures/fish.json", "--word", "0",
                    "--set", ""]) == (0, "r({}, 0) = {}\n", "")

    def test_range_words_of_characters_and_of_letters_agree(self):
        outs = [run(["range", "fixtures/fish.json", "--word", word])
                for word in ("010", "0,1,0")]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_lattice_command(self):
        code, out, _ = run(["lattice", "fixtures/fish.json"])
        assert code == 0
        assert "{v, w}" in out and "r(1)" in out

    def test_lattice_text_builds_no_label_counts(self, monkeypatch):
        # the text shows no label counts, so its report never builds them
        from labgraphs import lattice
        reports = []
        report = lattice.labeled_space_report
        monkeypatch.setattr(lattice, "labeled_space_report",
                            lambda *args, **kwargs: reports.append(
                                report(*args, **kwargs)) or reports[-1])
        assert run(["lattice", "fixtures/fish4.json"])[0] == 0
        assert run(["lattice", "fixtures/fish4.json", "--json"])[0] == 0
        # the JSON reads the counts' rows and builds no frozenset map
        assert [[name in vars(report) for name in ("_label_rows",
                                                   "label_counts")]
                for report in reports] == [[False, False], [True, False]]

    def test_lattice_long_word_bound(self):
        # the report's range sweeps read the graph's range table instead of
        # enumerating every word up to the bound
        start = time.perf_counter()
        code, out, _ = run(["lattice", "fixtures/fish4.json",
                            "--max-len", "20", "--json"])
        assert time.perf_counter() - start < 10
        assert code == 0
        _, reference, _ = run(["lattice", "fixtures/fish4.json", "--json"])
        assert json.loads(out) == json.loads(reference)

    def test_lattice_over_member_cap_exits_two(self, tmp_path):
        path = tmp_path / "cycle17.json"
        path.write_text(jsonio.dumps(jsonio.graph_to_json(
            distinct_letter_cycle(17))))
        code, _, err = run(["lattice", str(path)])
        assert code == 2
        assert "65536" in err

    def test_lattice_on_the_twelve_vertex_shift(self, tmp_path):
        # every nonempty set of the 12 vertices is a member of both
        # closures; the text and the JSON print the same derivations, and
        # each one not cut at depth 8 reads back as its set
        lg = shift_graph(12)
        path = tmp_path / "shift12.json"
        path.write_text(jsonio.dumps(jsonio.graph_to_json(lg)))
        code, out, _ = run(["lattice", str(path), "--json"])
        assert code == 0
        payload = json.loads(out)
        code, text, _ = run(["lattice", str(path)])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "smallest accommodating collection:"
        assert lines[4096] == "relative-complement closure:"
        printed = lines[1:4096] + lines[4097:8192]
        listed = (payload["smallest_accommodating"]
                  + payload["relative_complement_closure"])
        assert len(listed) == 2 * 4095
        assert {tuple(item["set"]) for item in listed} == {
            tuple(sorted(lg.set_of(m))) for m in range(1, 1 << 12)}
        read_back = 0
        for line, item in zip(printed, listed):
            shown = "{" + ", ".join(item["set"]) + "}"
            assert line == f"  {shown}  =  {item['derivation']}"
            value = evaluate_printed_derivation(lg, item["derivation"])
            if value is not None:
                assert value == lg.mask_of(item["set"])
                read_back += 1
        assert read_back > 0

    def test_shared_renderings_equal_a_fresh_walk(self):
        # the memo per (mask, depth) keeps the cut at depth 8 where it was
        from labgraphs.cli import _derivation_renderer
        from labgraphs.lattice import (relative_complement_closure,
                                       smallest_accommodating)

        def walk(col, mask, depth=0):
            expr = col.derivations[mask]
            if depth > 8:
                return "..."
            if expr[0] == "range":
                return f"r({''.join(expr[1])})"
            if expr[0] == "step":
                return f"r({walk(col, expr[1], depth + 1)}, {expr[2]})"
            symbol = {"and": "&", "or": "|", "diff": "\\"}[expr[0]]
            return (f"({walk(col, expr[1], depth + 1)} {symbol} "
                    f"{walk(col, expr[2], depth + 1)})")

        col = smallest_accommodating(shift_graph(9))
        for coll in (col, relative_complement_closure(col)):
            render = _derivation_renderer(coll)
            texts = [render(m) for m in coll.members]
            assert any("..." in text for text in texts)
            assert texts == [walk(coll, m) for m in coll.members]

    @pytest.mark.parametrize("name", ["lattice-fish.txt", "lattice-fish4.txt",
                                      "lattice-chain3.txt"])
    def test_golden_derivations_read_back(self, name):
        from tools.make_fixtures import GOLDEN_COMMANDS
        argv = GOLDEN_COMMANDS[name]
        lg = jsonio.load(os.path.join(ROOT, argv[1]))[1]
        _, out, _ = run(argv)
        for line in out.splitlines():
            if "  =  " in line:
                shown, text = line.strip().split("  =  ")
                vertices = shown.strip("{}").split(", ")
                assert evaluate_printed_derivation(
                    lg, text.removesuffix("  (new)")) == lg.mask_of(vertices)

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_lattice_word_bound_below_one_exits_two(self, bound):
        code, _, err = run(["lattice", "fixtures/fish.json",
                            "--max-len", bound])
        assert code == 2
        assert "WORD_BOUND_BELOW_ONE" in err

    def test_label_consistency_command(self):
        code, out, _ = run(["label-consistency", "fixtures/skewz.json"])
        assert code == 0
        assert "label consistent" in out

    def test_act_check_and_translate(self):
        for cmd in ("act-check", "translate"):
            code, out, _ = run([cmd, "fixtures/fdok-action.json"])
            assert code == 0
            assert "free: true" in out

    def test_quotient_command(self):
        code, out, _ = run(["quotient", "fixtures/skewz.json",
                            "--window", "0:3"])
        assert code == 0
        assert "canonical isomorphism onto the base: verified" in out

    def test_skew_over_item_cap_exits_two(self):
        start = time.perf_counter()
        code, out, err = run(["skew", "fixtures/skewz.json",
                              "--window", "0:100000000"])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert f"MAX_ITEMS = {MAX_ITEMS}" in err
        assert "Traceback" not in err

    def test_translate_over_triple_cap_exits_two(self, monkeypatch):
        """skewz over 0:2000 counts more triples than MAX_TRIPLES.  The
        intact translation verifies through the certificate; a copy with
        two vertex coordinates swapped, which only the scans could judge,
        exits 2 naming the cap."""
        argv = ["translate", "fixtures/skewz.json", "--window", "0:2000"]
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == ""
        assert out.startswith("labeled graph action laws: ok")
        load = cli._load_action

        def swapped(path, window):
            action = load(path, window)
            coords = action.coordinates(VERTEX)
            coords[0], coords[1] = coords[1], coords[0]
            return TranslationAction(action.skew)

        monkeypatch.setattr(cli, "_load_action", swapped)
        start = time.perf_counter()
        code, out, err = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"MAX_TRIPLES = {MAX_TRIPLES}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ACTION_COMMANDS)
    def test_action_commands_agree_at_the_triple_cap(self, command,
                                                      tmp_path):
        """The five action subcommands accept and refuse the same inputs:
        all exit 0 on the intact skewz translation over 0:185, whose
        triples are over the cap, and all exit 2 naming the cap on Z/4400
        acting trivially on fish in generator form, whose placement walk
        would list its scope."""
        code, _, err = run([command, "fixtures/skewz.json",
                            "--window", "0:185"])
        assert code == 0 and err == ""
        fish = fixture("fish.json")
        identity = {"vertex_map": {"v": "v", "w": "w"},
                    "edge_map": {"e": "e", "f": "f", "g": "g"},
                    "alphabet_map": {"0": "0", "1": "1"}}
        doc = {"format_version": 1, "kind": "action",
               "group": {"kind": "cyclic", "n": 4400},
               "graph": {key: fish[key]
                         for key in ("vertices", "alphabet", "edges")},
               "generators": [identity]}
        path = tmp_path / "z4400.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run([command, str(path)])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "135520000 (g, h, item) triples" in err
        assert f"MAX_TRIPLES = {MAX_TRIPLES}" in err

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    @pytest.mark.parametrize("command", ACTION_COMMANDS)
    def test_generator_closure_over_the_cap_is_refused_first(self, command,
                                                            fmt):
        """Z/10^7 acting trivially on fish in generator form is refused
        before its closure would list 10^7 triples of maps."""
        start = time.perf_counter()
        code, out, err = run([command, "fixtures/generators-z10e7.json",
                              *fmt])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == ("error: the scans of the scope would check "
                       f"{7 * 10 ** 14} (g, h, item) triples, over the cap "
                       f"MAX_TRIPLES = {MAX_TRIPLES}\n")

    def test_skew_over_a_huge_cyclic_group_exits_two(self, tmp_path):
        """A cyclic group is counted, not listed, before ``MAX_ITEMS``
        refuses its skew product."""
        spec = fixture("skewz.json")
        spec["group"] = {"kind": "cyclic", "n": 10 ** 12}
        path = tmp_path / "z12.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out, err = run(["skew", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"MAX_ITEMS = {MAX_ITEMS}" in err

    def test_label_consistency_over_a_wide_permutation_group_exits_two(
            self, tmp_path):
        """A skew-spec over one cyclic shift of degree 6,000 (about 240 KB)
        is refused while its group closes, naming the entry cap."""
        degree = 6000
        shift = list(range(1, degree)) + [0]
        spec = fixture("skewz.json")
        spec["group"] = {"kind": "permutation", "degree": degree,
                         "generators": [shift]}
        spec["c"] = {e: shift for e in spec["c"]}
        spec["d"] = {e: list(range(degree)) for e in spec["d"]}
        path = tmp_path / "shift6000.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out, err = run(["label-consistency", str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: schema error at $.group: invalid "
                              "group: GROUP_TOO_LARGE: ")
        assert f"MAX_PERMUTATION_ENTRIES = {MAX_PERMUTATION_ENTRIES}" in err
        assert "Traceback" not in err

    def test_skew_over_a_long_table_group_exits_two(self, tmp_path):
        """A skew-spec over a cyclic group of order 257 given by its table
        is refused before its associativity scan, naming the order cap."""
        order = MAX_TABLE_ORDER + 1
        spec = fixture("skewz.json")
        spec["group"] = {"kind": "table", "table": [
            [(i + j) % order for j in range(order)] for i in range(order)]}
        spec["c"] = {e: 1 for e in spec["c"]}
        spec["d"] = {e: 0 for e in spec["d"]}
        path = tmp_path / "table257.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out, err = run(["skew", str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (f"error: schema error at $.group: invalid group: "
                       f"GROUP_TOO_LARGE: the table has {order} rows, over "
                       f"the cap MAX_TABLE_ORDER = {MAX_TABLE_ORDER}\n")

    @pytest.mark.parametrize("n", ["40", "1000000000"])
    def test_paths_over_edge_id_cap_exits_two(self, n):
        start = time.perf_counter()
        code, out, err = run(["paths", "fixtures/fish.json", "--n", n])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"MAX_PATH_EDGES = {MAX_PATH_EDGES}" in err
        assert "Traceback" not in err

    def test_quotient_under_item_cap(self):
        code, out, _ = run(["quotient", "fixtures/skewz.json",
                            "--window", "0:10000"])
        assert code == 0
        assert "canonical isomorphism onto the base: verified" in out

    def test_fundomain_check_given_domain(self):
        code, out, _ = run(["fundomain", "fixtures/nofd.json",
                            "--window", "-3:3",
                            "--domain", "fixtures/nofd-domain.json"])
        assert code == 1
        assert "clause (b)" in out
        assert "(1,0)" in out and "(1,3)" in out

    @pytest.mark.parametrize("e_image, code, lines", [
        ("e", 0, ["morphism: true", "isomorphism: true"]),
        ("f", 1, ["morphism: false", "isomorphism: false",
                  "violation: range not preserved at ('e', 'v', 'w')"]),
    ], ids=["identity", "range broken"])
    def test_iso_check(self, tmp_path, e_image, code, lines):
        morphism = {"vertex_map": {"v": "v", "w": "w"},
                    "edge_map": {"e": e_image, "f": "f", "g": "g"},
                    "alphabet_map": {"0": "0", "1": "1"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(morphism))
        assert run(["iso-check", "fixtures/fish.json", "fixtures/fish.json",
                    "--morphism", str(path)]) == (
            code, "".join(f"{line}\n" for line in lines), "")

    def test_export_dot_contains_nofd_witness_label(self):
        code, out, _ = run(["export-dot", "fixtures/nofd.json",
                            "--window", "-1:2"])
        assert code == 0
        assert '"(w,1)" -> "(w,2)" [label="(1,3)"]' in out

    def test_export_dot_fish(self, tmp_path):
        code, out, _ = run(["export-dot", "fixtures/fish.json"])
        assert code == 0
        assert out.count("->") == 3
        assert 'label="1"' in out and 'label="0"' in out
        path = tmp_path / "fish.dot"
        assert run(["export-dot", "fixtures/fish.json", "-o", str(path)]) == (
            0, f"wrote {path}\n", "")
        assert path.read_text(encoding="utf-8") == out


GOLDEN = [
    "properties-fish.txt", "properties-fish4.txt", "properties-chain3.txt",
    "properties-skewz.txt", "properties-nofd.txt", "properties-fdok.txt",
    "lattice-fish.txt", "lattice-fish4.txt", "lattice-chain3.txt",
    "gross-tucker-gt510.txt", "gross-tucker-fdok.txt", "fundomain-nofd.txt",
    "export-dot-skewz.txt",
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_byte_stable(self, name):
        from tools.make_fixtures import GOLDEN_COMMANDS
        argv = GOLDEN_COMMANDS[name]
        code, out, _ = run(argv)
        with open(os.path.join(ROOT, "tests", "golden", name),
                  encoding="utf-8") as fh:
            expected = fh.read()
        assert f"# exit {code}\n{out}" == expected


# -- fuzzed inputs ------------------------------------------------------------


def fixture(name):
    with open(os.path.join(ROOT, "fixtures", name), encoding="utf-8") as fh:
        return json.load(fh)


FISH_IDENTITY = {"vertex_map": {"v": "v", "w": "w"},
                 "edge_map": {"e": "e", "f": "f", "g": "g"},
                 "alphabet_map": {"0": "0", "1": "1"}}

# (argv with one {placeholder} per JSON input, the inputs' unmutated values)
FUZZ_CASES = [
    (["properties", "{doc}"], {"doc": fixture("fish.json")}),
    (["properties", "{doc}", "--window", "0:3"],
     {"doc": fixture("skewz.json")}),
    (["quotient", "{doc}"], {"doc": fixture("fdok-action.json")}),
    (["quotient", "{doc}", "--window", "0:3"], {"doc": fixture("skewz.json")}),
    (["lattice", "{doc}"], {"doc": fixture("chain3.json")}),
    (["skew", "{doc}", "--window", "-3:3"], {"doc": fixture("nofd.json")}),
    (["fundomain", "{doc}"], {"doc": fixture("fdok-action.json")}),
    (["fundomain", "{doc}", "--window", "-3:3", "--domain", "{domain}"],
     {"doc": fixture("nofd.json"), "domain": fixture("nofd-domain.json")}),
    (["gross-tucker", "{doc}", "--eta0", "{eta0}", "--window", "-4:6"],
     {"doc": fixture("gt510-action.json"),
      "eta0": fixture("gt510-sections.json")}),
    (["gross-tucker", "{doc}", "--domain", "{domain}"],
     {"doc": fixture("fdok-action.json"), "domain": ["(v,0)", "(w,0)"]}),
    (["iso-check", "{doc}", "{target}", "--morphism", "{morphism}"],
     {"doc": fixture("fish.json"), "target": fixture("fish.json"),
      "morphism": FISH_IDENTITY}),
]

REPLACEMENTS = (None, True, 0, -1, 3, 1.5, "", "x", [], {})


def nodes(value, path=()):
    """Every (path, node) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, path + (i,))


@st.composite
def mutated(draw, value):
    """``value`` after one to three mutations, each at a random node: drop
    a key, truncate a list, or swap the node for a value of another type."""
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(nodes(value))))
        kinds = ["swap"]
        if isinstance(node, dict) and node:
            kinds.append("drop")
        if isinstance(node, list) and node:
            kinds.append("truncate")
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "truncate":
            del node[draw(st.integers(0, len(node) - 1)):]
        else:
            other = draw(st.sampled_from(
                [r for r in REPLACEMENTS if type(r) is not type(node)]))
            if not path:
                value = other
                continue
            parent = value
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = other
    return value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_0_1_or_2(data):
    """Mutated documents and side files keep the exit-code contract, and no
    exception escapes ``main``."""
    argv, inputs = data.draw(st.sampled_from(FUZZ_CASES))
    broken = data.draw(st.sampled_from(sorted(inputs)))
    inputs = dict(inputs, **{broken: data.draw(mutated(inputs[broken]))})
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in inputs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(value, fh)
        code, _, _ = run([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)


# -- refusals ------------------------------------------------------------------


def edited(name, edit):
    """The fixture ``name`` after ``edit`` changed it in place."""
    doc = fixture(name)
    edit(doc)
    return doc


def without_edge_g(spec):
    spec["base"]["edges"] = [edge for edge in spec["base"]["edges"]
                             if edge["id"] != "g"]
    del spec["c"]["g"], spec["d"]["g"]


def over_group(group):
    return lambda spec: spec.update(group=group)


def gt510_pack(eta0):
    return {"format_version": 1, "kind": "section-pack", "eta0": eta0,
            "etaA": {"0": "(0,0)", "1": "(1,0)"}}


GT510 = ["gross-tucker", "fixtures/gt510-action.json", "--window", "-4:6",
         "--eta0", "{doc}"]
S9 = {"kind": "permutation", "degree": 9,
      "generators": [[1, 0, *range(2, 9)], [*range(1, 9), 0]]}

#: (argv with an optional {doc} placeholder, the document written for it,
#: the first line of stderr), for refusals that no other test reaches.
REFUSALS = {
    "element dropped": (
        ["act-check", "{doc}"],
        edited("elements-s3.json", lambda d: d["elements"].pop()),
        "PARTIAL_ACTION: one triple per group element is required"),
    "vertex map not total": (
        ["act-check", "{doc}"],
        edited("elements-s3.json",
               lambda d: d["elements"][0]["vertex_map"].pop("n000")),
        "PARTIAL_ACTION: vertex map of element (0, 1, 2) is not a total "
        "self-map"),
    "raw action over the integers": (
        ["act-check", "{doc}"],
        {"format_version": 1, "kind": "action", "group": {"kind": "integers"},
         "graph": {key: fixture("fish.json")[key]
                   for key in ("vertices", "alphabet", "edges")},
         "elements": [{"element": 0, **FISH_IDENTITY}]},
        "INFINITE_GROUP: raw actions are accepted for finite groups only; "
        "present integer actions as skew products"),
    "unknown domain vertex": (
        ["fundomain", "fixtures/fdok-action.json", "--domain", "{doc}"],
        ["nope"], "UNKNOWN_VERTEX: nope"),
    "halo domain vertex": (
        ["fundomain", "fixtures/nofd.json", "--window", "-3:3",
         "--domain", "{doc}"],
        ["(v,4)"],
        "OUTSIDE_WINDOW_SCOPE: candidate representative '(v,4)' is not in "
        "the window scope"),
    "section key missing": (
        GT510, gt510_pack({"v": "(v,0)"}),
        "BAD_SECTION: vertex section must be keyed by the quotient carrier"),
    "section unknown item": (
        GT510, gt510_pack({"v": "zz", "w": "(w,2)"}),
        "BAD_SECTION: vertex section hits unknown item 'zz'"),
    "not a section": (
        GT510, gt510_pack({"v": "(w,0)", "w": "(w,2)"}),
        "BAD_SECTION: vertex section is not a section: q('(w,0)') != 'v'"),
    "section outside the window scope": (
        GT510, gt510_pack({"v": "(v,7)", "w": "(w,2)"}),
        "BAD_SECTION: vertex section leaves the window scope: '(v,7)'"),
    "unknown range set vertex": (
        ["range", "fixtures/fish.json", "--set", "zz", "--word", "0"], None,
        "UNKNOWN_VERTEX: zz"),
    "invalid skew base": (
        ["skew", "{doc}", "--window", "0:3"],
        edited("skewz.json", without_edge_g),
        "INVALID_GRAPH: skew base: offending vertices w"),
    "table without inverse": (
        ["skew", "{doc}"],
        edited("skewz.json",
               over_group({"kind": "table", "table": [[0, 0], [0, 1]]})),
        "schema error at $.group: invalid group: no inverse"),
    "table with a short row": (
        ["skew", "{doc}"],
        edited("skewz.json",
               over_group({"kind": "table", "table": [[0, 1], [1]]})),
        "schema error at $.group: invalid group: row 1 has length 1, "
        "expected 2"),
    "table entry out of range": (
        ["skew", "{doc}"],
        edited("skewz.json",
               over_group({"kind": "table", "table": [[0, 1], [1, 2]]})),
        "schema error at $.group: invalid group: entry (1,1) out of range"),
    "cyclic of order 0": (
        ["skew", "{doc}"],
        edited("skewz.json", over_group({"kind": "cyclic", "n": 0})),
        "schema error at $.group: invalid group: BAD_GROUP_SPEC: cyclic "
        "order must be >= 1"),
    "S9": (
        ["skew", "{doc}"], edited("skewz.json", over_group(S9)),
        "schema error at $.group: invalid group: GROUP_TOO_LARGE: the "
        "closure of the generators holds at least 100001 elements, over the "
        "cap MAX_GROUP_ORDER = 100000"),
    "optional field of the wrong type": (
        ["act-check", "{doc}"],
        edited("elements-s3.json", lambda d: d.update(elements={})),
        "schema error at $.elements: expected list, got dict"),
    "repeated edge id": (
        ["properties", "{doc}"],
        edited("fish.json",
               lambda d: d["edges"].append(dict(d["edges"][2], dst="w"))),
        "schema error at $: DUPLICATE_EDGE_ID: g"),
    "cocycle not an object": (
        ["skew", "{doc}", "--window", "0:3"],
        edited("skewz.json", lambda d: d.update(c=[])),
        "schema error at $.c: expected dict, got list"),
    "raw action without graph": (
        ["act-check", "{doc}"],
        edited("elements-s3.json", lambda d: d.pop("graph")),
        "schema error at $: raw actions require a 'graph' field"),
    "elements entry without element": (
        ["act-check", "{doc}"],
        edited("elements-s3.json", lambda d: d["elements"][0].pop("element")),
        "schema error at $.elements[0]: missing field 'element'"),
    "unknown document kind": (
        ["properties", "{doc}"], {"format_version": 1, "kind": "frob"},
        "schema error at $.kind: unknown document kind 'frob'"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_exits_two_naming_its_error(tmp_path, name):
    argv, doc, first_line = REFUSALS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run([arg.format(doc=path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {first_line}"


def elements_s3_generators():
    """``fixtures/elements-s3.json`` in generator form: the triples of its
    group's two generators, in the group's order."""
    doc = fixture("elements-s3.json")
    triples = {tuple(entry.pop("element")): entry
               for entry in doc.pop("elements")}
    doc["generators"] = [triples[tuple(g)]
                         for g in doc["group"]["generators"]]
    return doc


def test_generator_form_over_a_permutation_group(tmp_path):
    """The generator form of the S3 action reconstructs byte for byte as
    its element form does."""
    path = tmp_path / "generators.json"
    path.write_text(json.dumps(elements_s3_generators()), encoding="utf-8")
    got = run(["gross-tucker", str(path), "--json"])
    assert got[0] == 0
    assert got == run(["gross-tucker", "fixtures/elements-s3.json",
                       "--json"])


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["generators"].pop(), "expected 2 generator triples"),
    (lambda d: d.update(group=fixture("elements-table.json")["group"]),
     "generator form needs a cyclic or permutation group"),
])
def test_bad_generator_forms_exit_two(tmp_path, edit, message):
    doc = elements_s3_generators()
    edit(doc)
    path = tmp_path / "generators.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["act-check", str(path)]) == (
        2, "", f"error: BAD_GENERATORS: {message}\n")
