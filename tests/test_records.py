"""The library's frozen records: construction with defaults, field reads,
refused assignment, equality and hashing over the fields, the
``Name(field=value, ...)`` repr, copies and pickles, and the named errors
of the three that validate their fields; copies and pickles of every
library error."""

import copy
import pickle
import re

import pytest

from labgraphs import fixtures as fx
from labgraphs.action import (ActionReport, DomainSearchResult,
                              FundamentalDomainReport, LabelConsistency,
                              QuotientLabeledGraph)
from labgraphs.errors import PreconditionError
from labgraphs.graph import Path, ValidityReport, VertexValidity, validate
from labgraphs.gross_tucker import Reconstruction, SectionPack
from labgraphs.groups import CyclicGroup, IntegerGroup, Window
from labgraphs.jsonio import ActionDocument
from labgraphs.labeled import Check, GraphCore, RangeTable
from labgraphs.lattice import (Factor, LabeledSpaceReport, NormalForm,
                               SetCollection)
from labgraphs.morphism import (LabeledGraphMorphism, MorphismReport,
                                identity_maps)
from labgraphs.skew import SkewSpec, one_cocycle

from helpers import error_classes, library_error

FISH = fx.fish()
IDENTITY = identity_maps(FISH)
MORPHISM = LabeledGraphMorphism(FISH, FISH, *IDENTITY)
SPEC = fx.skewz_spec()
QUOTIENT = QuotientLabeledGraph(
    FISH, MORPHISM, *IDENTITY,
    *({x: (x,) for x in items} for items in FISH.core.carriers))
PACK = SectionPack({"v": "v", "w": "w"}, {"0": "0", "1": "1"})
CHECK = Check(False, ("v", "w"), "no path")

#: (record class, its fields in order, its defaults).  Defaulted fields
#: hold values other than their defaults, so positional and keyword
#: construction are seen to set them.
RECORDS = [
    (Path, {"edges": ("e", "f")}, {}),
    (VertexValidity, {"receives": True, "out_degree": 2}, {}),
    (ValidityReport, {"per_vertex": validate(FISH.graph).per_vertex}, {}),
    (Window, {"lo": -2, "hi": 5}, {}),
    (Check, {"ok": False, "witness": ("v",), "note": "why"},
     {"witness": None, "note": ""}),
    (RangeTable, {"ranges": ((1, ("0",)),), "atoms": ((1, (0,)),)}, {}),
    (GraphCore, {name: getattr(FISH.core, name) for name in (
        "carriers", "positions", "src", "dst", "lab")}, {}),
    (ActionDocument, {"group": CyclicGroup(2), "translation": SPEC,
                      "graph": FISH, "elements": ((0, IDENTITY),),
                      "generators": (IDENTITY,)},
     {"translation": None, "graph": None, "elements": None,
      "generators": None}),
    (ActionReport, {"ok": True, "failures": (("law", 1),),
                    "elements_checked": 3, "pairs_checked": 9,
                    "windowed": False}, {}),
    (QuotientLabeledGraph, {
        name: getattr(QUOTIENT, name) for name in (
            "quotient", "projection", "vertex_orbit", "edge_orbit",
            "letter_orbit", "orbit_vertex_members", "orbit_edge_members",
            "orbit_letter_members")}, {}),
    (FundamentalDomainReport, {"ok": False, "transversal": CHECK,
                               "violations": (("a", "e", "f"),)}, {}),
    (DomainSearchResult, {"domain": frozenset({"v"}),
                          "candidates_tried": 4}, {}),
    (LabelConsistency, {"factoring": {"0": 1}, "witness": ("e", "f")},
     {"witness": None}),
    (LabeledGraphMorphism, {"source": FISH, "target": FISH,
                            "vertex_map": IDENTITY[0],
                            "edge_map": IDENTITY[1],
                            "alphabet_map": IDENTITY[2]}, {}),
    (MorphismReport, {"ok": True, "isomorphism": False, "witness": "e",
                      "note": "not onto"}, {"witness": None, "note": ""}),
    (SkewSpec, {"base": SPEC.base, "group": SPEC.group, "c": SPEC.c,
                "d": SPEC.d}, {}),
    (SectionPack, {"eta0": PACK.eta0, "etaA": PACK.etaA,
                   "eta1": {"e": "e"}}, {"eta1": None}),
    (Reconstruction, {"quotient": QUOTIENT, "pack": PACK, "c": SPEC.c,
                      "d": SPEC.d, "skew": fx.skewz(), "iso": MORPHISM,
                      "morphism_report": MorphismReport(True, True),
                      "equivariance_checked": 12,
                      "c_factoring": {"0": 1, "1": 1},
                      "d_factoring": None,
                      "domain": frozenset({"(v,0)"})}, {"domain": None}),
    (SetCollection, {"lg": FISH, "members": (1, 3),
                     "derivations": {1: ("range", ("0",)),
                                     3: ("or", 1, 2)},
                     "claimed_closures": ("unions",)},
     {"claimed_closures": ()}),
    (Factor, {"alpha": ("0", "1"), "beta": ("1",)}, {"beta": None}),
    (NormalForm, {"terms": ((Factor(("0",)), Factor(("1",), ("0",))),)}, {}),
    (LabeledSpaceReport, {"set_finite": True,
                          "label_counts": {frozenset({"v"}): 2},
                          "weakly_left_resolving": CHECK,
                          "ck1a_pairs": 3, "ck1a_disjoint_pairs": 1,
                          "ck1b_intersections_closed": Check(True),
                          "ck1b_unions_closed": Check(True),
                          "ck1b_differences_closed": CHECK,
                          "ck4": Check(True),
                          "empty_set_convention": "none"},
     {"empty_set_convention":
      "the empty set is excluded from collections"}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_behaviour(cls, fields, defaults):
    values = tuple(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    for name, value in fields.items():
        assert getattr(record, name) is value

    required = [v for k, v in fields.items() if k not in defaults]
    bare = cls(*required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    assert cls(**{k: fields[k] for k in fields if k not in defaults}) == bare

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name, value in fields.items():
        assert getattr(record, name) is value

    twin = cls(*values)
    assert twin == record and not twin != record
    try:
        expected = hash(values)
    except TypeError as exc:
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected

    assert repr(record) == (cls.__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")")
    assert copy.copy(record) == record
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def test_records_with_a_changed_field_differ():
    assert Path(("e",)) != Path(("f",))
    assert Window(0, 3) != Window(0, 4)
    assert Window(0, 3) != Window(1, 3)
    flat = one_cocycle(FISH, IntegerGroup())
    assert SkewSpec(FISH, IntegerGroup(), flat, flat) != SPEC
    assert Check(True) != Check(True, note="x")


@pytest.mark.parametrize("build, name", [
    (lambda: Path(()), "EMPTY_PATH"),
    (lambda: Window(3, 2), "BAD_WINDOW"),
    (lambda: SkewSpec(FISH, CyclicGroup(2), {"e": 0, "f": 1}, {}),
     "PARTIAL_COCYCLE"),
    (lambda: SkewSpec(FISH, CyclicGroup(2), {"e": 0, "f": 1, "g": 0},
                      {"e": 0, "f": 0}), "PARTIAL_COCYCLE"),
    (lambda: SkewSpec(FISH, CyclicGroup(2), {"e": 0, "f": 2, "g": 0},
                      one_cocycle(FISH, CyclicGroup(2))), "BAD_ELEMENT"),
    (lambda: SkewSpec(FISH, CyclicGroup(2), one_cocycle(FISH, CyclicGroup(2)),
                      {"e": 0, "f": 0, "g": "0"}), "BAD_ELEMENT"),
], ids=["empty-path", "bad-window", "partial-c", "partial-d", "bad-c",
        "bad-d"])
def test_validating_records_raise_their_named_errors(build, name):
    with pytest.raises(PreconditionError) as info:
        build()
    assert info.value.name == name


def test_skew_spec_factorings_are_computed_once():
    spec = fx.skewz_spec()
    assert spec.c_factoring is spec.c_factoring
    assert spec.d_factoring.factoring == {"0": 0, "1": 0}


@pytest.mark.parametrize("error", error_classes(), ids=lambda c: c.__name__)
@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda exc: pickle.loads(pickle.dumps(exc))],
    ids=["copy", "deepcopy", "pickle"])
def test_library_errors_survive_copy_and_pickle(error, round_trip):
    """A copy keeps the class, the message, the witness and the fields the
    class sets itself."""
    exc = library_error(error)
    again = round_trip(exc)
    assert type(again) is error
    assert str(again) == str(exc) and again.args == exc.args
    for name in ("witness", "name", "line", "column", "path", "law"):
        assert getattr(again, name, None) == getattr(exc, name, None), name
    assert vars(again) == vars(exc)
