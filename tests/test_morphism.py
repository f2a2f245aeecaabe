"""Morphism laws, isomorphisms, automorphism composition."""

import random

import pytest

from labgraphs import fixtures as fx
from labgraphs.action import quotient
from labgraphs.errors import PreconditionError
from labgraphs.morphism import (LabeledGraphMorphism,
                                automorphism_check_and_compose, compose,
                                identity_morphism, inverse, is_automorphism,
                                is_surjective, verify_morphism)

from helpers import verify_morphism_oracle


def fish4_swap():
    """The order-2 automorphism of the four-edge graph: swap v and w, the
    two loops, and the two cross edges; letters fixed."""
    lg = fx.fish4()
    return LabeledGraphMorphism(
        lg, lg,
        {"v": "w", "w": "v"},
        {"e": "h", "h": "e", "f": "g", "g": "f"},
        {"0": "0", "1": "1"})


class TestVerify:
    def test_identity_is_isomorphism(self):
        report = verify_morphism(identity_morphism(fx.fish()))
        assert report.ok and report.isomorphism

    def test_letter_swap_without_moving_edges_fails(self):
        lg = fx.fish()
        m = LabeledGraphMorphism(
            lg, lg,
            {"v": "v", "w": "w"},
            {"e": "e", "f": "f", "g": "g"},
            {"0": "1", "1": "0"})
        report = verify_morphism(m)
        assert not report.ok
        assert report.note == "label compatibility violated"

    def test_partial_map_reported(self):
        lg = fx.fish()
        m = LabeledGraphMorphism(lg, lg, {"v": "v"},
                                 {"e": "e", "f": "f", "g": "g"},
                                 {"0": "0", "1": "1"})
        report = verify_morphism(m)
        assert not report.ok and "total" in report.note

    def test_quotient_projection_is_surjective_morphism(self):
        from labgraphs.action import quotient
        quot = quotient(fx.fdok_action())
        report = verify_morphism(quot.projection)
        assert report.ok
        assert is_surjective(quot.projection)
        assert not report.isomorphism  # collapses fibers

    def test_range_violation_witnessed(self):
        lg = fx.fish4()
        m = LabeledGraphMorphism(
            lg, lg,
            {"v": "v", "w": "w"},
            {"e": "e", "f": "g", "g": "f", "h": "h"},  # cross edges swapped
            {"0": "0", "1": "1"})
        report = verify_morphism(m)
        assert not report.ok
        assert report.note in ("range not preserved", "source not preserved")


class TestAutomorphisms:
    def test_fish4_swap_is_automorphism(self):
        assert is_automorphism(fish4_swap())

    def test_involution_squares_to_identity(self):
        swap = fish4_swap()
        square = automorphism_check_and_compose(swap, swap)
        ident = identity_morphism(fx.fish4())
        assert square.vertex_map == ident.vertex_map
        assert square.edge_map == ident.edge_map
        assert square.alphabet_map == ident.alphabet_map

    def test_identity_is_neutral(self):
        swap = fish4_swap()
        ident = identity_morphism(fx.fish4())
        left = automorphism_check_and_compose(ident, swap)
        right = automorphism_check_and_compose(swap, ident)
        assert left.vertex_map == swap.vertex_map == right.vertex_map
        assert left.edge_map == swap.edge_map == right.edge_map

    def test_composition_associative(self):
        swap = fish4_swap()
        ident = identity_morphism(fx.fish4())
        lhs = automorphism_check_and_compose(
            automorphism_check_and_compose(swap, ident), swap)
        rhs = automorphism_check_and_compose(
            swap, automorphism_check_and_compose(ident, swap))
        assert lhs.vertex_map == rhs.vertex_map
        assert lhs.edge_map == rhs.edge_map
        assert lhs.alphabet_map == rhs.alphabet_map

    def test_inverse_exists_for_every_automorphism(self):
        swap = fish4_swap()
        inv = inverse(swap)
        composite = automorphism_check_and_compose(swap, inv)
        assert composite.vertex_map == {"v": "v", "w": "w"}

    def test_non_automorphism_rejected(self):
        lg = fx.fish()
        bad = LabeledGraphMorphism(
            lg, lg, {"v": "v", "w": "v"},
            {"e": "e", "f": "e", "g": "g"}, {"0": "0", "1": "1"})
        with pytest.raises(PreconditionError):
            automorphism_check_and_compose(bad, identity_morphism(lg))

    def test_functoriality(self):
        # the composite of verified morphisms verifies
        swap = fish4_swap()
        composite = compose(swap, swap)
        assert verify_morphism(composite).ok


# -- positions against the string oracle ---------------------------------------


def random_morphism(rng: random.Random) -> LabeledGraphMorphism:
    """A morphism, then up to three breaks.  The base is an automorphism of
    an anonymized finite action, the projection onto its quotient (a
    morphism that is not bijective), or maps drawn at random between two
    random graphs.  Each break drops a key (not total), sends an item
    outside the target, points it at a random target item (laws and
    bijectivity), swaps two values, or adds a key outside the source."""
    pick = rng.randrange(3)
    if pick < 2:
        action = fx.anonymize_action(
            fx.random_translation_action(rng, rng.random() < 0.5), rng)
        if pick == 0:
            m = action.triple_morphism(rng.choice(action.group.elements()))
        else:
            m = quotient(action).projection
        source, target = m.source, m.target
        maps = [dict(m.vertex_map), dict(m.edge_map), dict(m.alphabet_map)]
    else:
        source, target = (fx.random_labeled_graph(rng, max_vertices=3,
                                                  max_edges=5, max_letters=2)
                          for _ in range(2))
        maps = [{x: rng.choice(codomain) for x in domain}
                for domain, codomain in zip(source.core.carriers,
                                            target.core.carriers)]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        k = rng.randrange(3)
        mapping, codomain = maps[k], target.core.carriers[k]
        if not mapping:
            continue
        x = rng.choice(sorted(mapping))
        kind = rng.choice(("drop", "outside", "redirect", "swap", "extra"))
        if kind == "drop":
            del mapping[x]
        elif kind == "outside":
            mapping[x] = "nowhere"
        elif kind == "redirect":
            mapping[x] = rng.choice(codomain)
        elif kind == "swap":
            y = rng.choice(sorted(mapping))
            mapping[x], mapping[y] = mapping[y], mapping[x]
        else:
            mapping["stray"] = rng.choice(codomain)
    return LabeledGraphMorphism(source, target, *maps)


def test_positions_agree_with_the_string_oracle():
    """verify_morphism reads the graph cores; its reports equal those of
    the string-walking oracle, witness and note included, and
    is_surjective equals its definition on the value sets.  Every outcome
    occurs."""
    outcomes = set()
    for seed in range(600):
        m = random_morphism(random.Random(seed))
        report = verify_morphism(m)
        assert report == verify_morphism_oracle(m)
        assert is_surjective(m) == (
            set(m.vertex_map.values()) == set(m.target.vertices)
            and set(m.edge_map.values())
            == {e.eid for e in m.target.graph.edges}
            and set(m.alphabet_map.values()) == set(m.target.alphabet))
        outcomes.add(report.note or f"isomorphism {report.isomorphism}")
        outcomes.add(f"surjective {is_surjective(m)}")
    assert outcomes == {
        "range not preserved", "source not preserved",
        "label compatibility violated", "isomorphism True",
        "isomorphism False", "surjective True", "surjective False",
        *(f"{what} map {failure}" for what in ("vertex", "edge", "alphabet")
          for failure in ("not total", "leaves the target"))}
