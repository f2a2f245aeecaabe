"""Command-line behavior: exit codes, reports, golden outputs."""

import contextlib
import copy
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labgraphs import jsonio
from labgraphs.action import MAX_TRIPLES
from labgraphs.cli import main
from labgraphs.graph import MAX_PATH_EDGES
from labgraphs.skew import MAX_ITEMS

from helpers import distinct_letter_cycle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_exit_codes_deterministic(self):
        first = run(["fundomain", "fixtures/nofd.json", "--window", "-3:3"])
        second = run(["fundomain", "fixtures/nofd.json", "--window", "-3:3"])
        assert first == second


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

    def test_lattice_command(self):
        code, out, _ = run(["lattice", "fixtures/fish.json"])
        assert code == 0
        assert "{v, w}" in out and "r(1)" in out

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

    def test_translate_over_triple_cap_exits_two(self):
        start = time.perf_counter()
        code, out, err = run(["translate", "fixtures/skewz.json",
                              "--window", "0:2000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"MAX_TRIPLES = {MAX_TRIPLES}" in err
        assert "Traceback" not in err

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

    def test_iso_check(self, tmp_path):
        morphism = {"vertex_map": {"v": "v", "w": "w"},
                    "edge_map": {"e": "e", "f": "f", "g": "g"},
                    "alphabet_map": {"0": "0", "1": "1"}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(morphism))
        code, out, _ = run(["iso-check", "fixtures/fish.json",
                            "fixtures/fish.json", "--morphism", str(path)])
        assert code == 0
        assert "isomorphism: true" in out

    def test_export_dot_contains_nofd_witness_label(self):
        code, out, _ = run(["export-dot", "fixtures/nofd.json",
                            "--window", "-1:2"])
        assert code == 0
        assert '"(w,1)" -> "(w,2)" [label="(1,3)"]' in out

    def test_export_dot_fish(self):
        code, out, _ = run(["export-dot", "fixtures/fish.json"])
        assert code == 0
        assert out.count("->") == 3
        assert 'label="1"' in out and 'label="0"' in out


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
