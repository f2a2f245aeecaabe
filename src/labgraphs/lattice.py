"""Accommodating collections of vertex sets, their relative-complement
closure, normal forms over range atoms, and the set-level labeled-space
report."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .errors import (FrozenRecord, NotAMember, PreconditionError,
                     SearchSpaceExceeded, VerificationError)
from .graph import require_valid
from .labeled import (Check, LabeledGraph, Word, _bits, chunk_tables,
                      fold_chunks)

# Derivation expressions: leaves are ranges of words; inner nodes reference
# other members by mask.
#   ("range", word)         r(word)
#   ("step", mask, letter)  r(member, letter)
#   ("and" | "or" | "diff", mask, mask)
Derivation = tuple


# A dataclass, not a frozen record, while the benchmark's smoke test copies
# a closure with ``dataclasses.replace``; the other records here are named
# tuples or frozen records.
@dataclass(frozen=True)
class SetCollection:
    """A family of nonempty vertex subsets (as bitmasks over the graph's
    vertex order), each with the derivation that first produced it.

    The empty set is never stored: operations that would produce it flag
    the result instead (see the report's ``empty_set_convention``).

    A collection given its ``members`` answers membership from them.  One
    built by :func:`smallest_accommodating` or
    :func:`relative_complement_closure` holds its basis (:func:`_close`);
    its ``members`` (:func:`_unions`) and its full ``derivations``
    (:func:`_list`) are each listed on first read, with the values and the
    order a listing at construction would give, and until the members are
    listed the basis answers membership (:meth:`holds`).  Equality,
    ``repr`` and ``dataclasses.replace`` read them; a copy or a pickle
    carries the basis and what has been listed so far.
    """

    lg: LabeledGraph
    members: tuple[int, ...]
    derivations: Mapping[int, Derivation]
    claimed_closures: tuple[str, ...] = ()

    @classmethod
    def _of_basis(cls, lg: LabeledGraph, claimed_closures: tuple[str, ...],
                  basis: list[int], cover: list[int],
                  derived: dict[int, Derivation]) -> SetCollection:
        """The collection spanned by ``basis``, with each vertex's
        ``cover`` and the ``derived`` sets that :func:`_close` found."""
        col = object.__new__(cls)
        for name, value in (("lg", lg), ("claimed_closures", claimed_closures),
                            ("_basis", basis), ("_cover", cover),
                            ("_derived", derived)):
            object.__setattr__(col, name, value)
        return col

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: the two fields
        # that a collection held by its basis lists on their first read,
        # each on its own.  Its basis of k elements spans at most 2^k - 1
        # members, a bound held to MAX_MEMBERS at construction.
        if name == "members":
            value = tuple(sorted(_unions(self._basis)))
        elif name == "derivations":
            basis = self._basis
            value = _list(basis, self._derived, (1 << len(basis)) - 1)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @cached_property
    def _derived(self) -> Mapping[int, Derivation]:
        # What a closure seeds from: set at construction for a collection
        # held by its basis, and every derivation of one given its members.
        return self.derivations

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def _cover_tables(self) -> list[list[int]]:
        return chunk_tables(self._cover, 0, operator.or_)

    def __contains__(self, mask: int) -> bool:
        # The listed members answer without a batch: normal_form makes one
        # test per call.
        if "members" in vars(self):
            return mask in self._member_set
        return self.holds((mask,))

    def holds(self, masks: Iterable[int]) -> bool:
        """Whether every mask of ``masks`` is a member.

        Listed members, given or built on a read, answer from themselves.
        Otherwise the basis answers: M is a member iff M is nonzero and
        equals the OR of cover(v) over its vertices v, where cover(v) is
        m(v) for the lattice and the atom of v for the ring, and 0 for a
        vertex that no generator holds.  For the lattice, v in m(u) gives
        m(v) inside m(u), so a union of m(u)'s holds the m(v) of each of
        its vertices; the atoms partition the vertices they cover.  The
        ORs are read from chunk tables of the covers
        (:func:`~labgraphs.labeled.chunk_tables`), about n/8 lookups per
        mask.  :func:`labeled_space_report` proves its range-pair checks
        from this definition, and calls this on the pair values only where
        the covers prove nothing."""
        if "members" in vars(self):
            return self._member_set.issuperset(masks)
        masks = list(masks)
        return not masks or (
            0 < min(masks) and max(masks) <= self.lg.full_mask()
            and fold_chunks(masks, self._cover_tables, operator.or_) == masks)

    def __len__(self) -> int:
        return len(self.members)

    def sets(self) -> tuple[frozenset[str], ...]:
        return tuple(self.lg.names_of(self.members, frozen=True))

    def closure_status(self) -> dict[str, bool]:
        """Re-check the closure laws from scratch, over the listed
        members and independently of the basis."""
        lg = self.lg
        members = set(self.members)
        ok = {"relative_ranges": True, "intersections": True,
              "unions": True, "relative_complements": True}
        for a in lg.alphabet:
            for m in self.members:
                r = lg.range_mask(m, (a,))
                if r and r not in members:
                    ok["relative_ranges"] = False
        for i, m1 in enumerate(self.members):
            for m2 in self.members[i + 1:]:
                inter = m1 & m2
                if inter and inter not in members:
                    ok["intersections"] = False
                if (m1 | m2) not in members:
                    ok["unions"] = False
                big, small = (m1, m2) if m1 | m2 == m1 else (m2, m1)
                if big & small == small and big != small:
                    if (big & ~small) and (big & ~small) not in members:
                        ok["relative_complements"] = False
        return ok


#: Largest number of members either closure builds; a closure that would
#: hold more raises :class:`SearchSpaceExceeded`.  Ranges that separate n
#: vertices give 2^n - 1 members, so 16 such vertices fit and 17 do not.
MAX_MEMBERS = 1 << 16


def _close(lg: LabeledGraph, seeds: Iterable[tuple[int, Derivation]],
           rel_complements: bool
           ) -> tuple[list[int], list[int], dict[int, Derivation]]:
    """The basis of the closure of ``seeds`` (``(mask, derivation)``
    pairs) under single-letter relative ranges, intersections and unions,
    and with ``rel_complements`` also under strict differences A \\ B;
    each vertex's cover (its basis element's span: m(v), or its atom); and
    the sets derived on the way, each with a derivation.  Apart from the
    seeds' own, a derivation references sets derived before it, so none
    is circular.

    The family is a finite distributive lattice, so a basis spans it
    (Birkhoff, 1937).  With m(v) the intersection of the generators holding
    v, the lattice is every nonempty union of m(v)'s, and the ring (with
    differences) every nonempty union of atoms, the classes of vertices
    with equal m(v); an atom is m(v) minus the m(u) strictly inside it.
    Relative ranges distribute over unions, r(X | Y, a) = r(X, a) | r(Y, a),
    so the family is closed under them once every basis element's ranges
    are members.  A range with no derivation yet becomes a generator, which
    may refine the basis (a range of a member lies in the closure, so no
    generator adds too much); this repeats until every basis element has
    been stepped.  A basis element is stepped letter by letter in alphabet
    order, each range the OR of the letter's successor rows
    (:attr:`LabeledGraph._step`) of the element's vertices.  The basis
    does not depend on the order of the seeds; a vertex no generator
    holds has cover 0.  :func:`_list` lists the members.
    """
    derivations: dict[int, Derivation] = {}
    meet = [0] * len(lg.vertices)       # m(v); 0 while no generator holds v

    def generate(mask: int, deriv: Derivation) -> None:
        derivations[mask] = deriv
        for v in _bits(mask):
            cur = meet[v]
            if not cur:
                meet[v] = mask
            elif cur & mask != cur:
                meet[v] = cur & mask
                derivations.setdefault(cur & mask, ("and", cur, mask))

    for mask, deriv in seeds:
        if mask and mask not in derivations:
            generate(mask, deriv)
    stepped: set[int] = set()
    while True:
        basis = _basis(meet, derivations, rel_complements)
        fresh = [b for b in basis if b not in stepped]
        if not fresh:
            break
        for b in fresh:
            stepped.add(b)
            prev = derivations[b]
            inside = _bits(b)
            for letter, row in zip(lg.alphabet, lg._step):
                value = 0
                for v in inside:
                    value |= row[v]
                if value and value not in derivations:
                    generate(value, ("range", prev[1] + (letter,))
                             if prev[0] == "range" else ("step", b, letter))
    if not rel_complements:
        return basis, meet, derivations
    atom_of = dict(zip(dict.fromkeys(m for m in meet if m), basis))
    return basis, [atom_of.get(m, 0) for m in meet], derivations


def _list(basis: list[int], derived: Mapping[int, Derivation],
          cap: int) -> dict[int, Derivation]:
    """The derivations of every member of the collection spanned by
    ``basis``: ``derived`` (from :func:`_close`), then the nonempty unions
    of the basis elements, listed in one pass per basis element b over the
    unions listed before it; a union u | b without a derivation is
    recorded as ``("or", u, b)``.  The atoms are disjoint, so the ring's
    listing makes one union per member.  A listing that would hold more
    than ``cap`` members raises :class:`SearchSpaceExceeded` before that
    pass records a union."""
    derivations = dict(derived)
    # ``listed`` holds the distinct unions of the basis elements met so far,
    # in the order they were found; each element b adds itself and every
    # union u | b not listed yet.  Every listed union is a member and every
    # member is such a union, so the listing ends with the members.
    listed: dict[int, int] = {}
    for b in basis:
        listed.setdefault(b, b)
        fresh = {u | b: u for u in listed if u | b not in listed}
        if len(listed) + len(fresh) > cap:
            raise SearchSpaceExceeded(
                f"the closure has more than {cap} members")
        derivations.update({union: ("or", u, b) for union, u in fresh.items()
                            if union not in derivations})
        listed.update(fresh)
    return derivations


def _unions(basis: list[int]) -> set[int]:
    """The nonempty unions of the elements of ``basis``: the members of the
    collection it spans, without the derivations :func:`_list` records."""
    unions = {0}
    for b in basis:
        unions |= {u | b for u in unions}
    unions.discard(0)
    return unions


def _basis(meet: list[int], derivations: dict[int, Derivation],
           atoms: bool) -> list[int]:
    """The distinct m(v) in vertex order, or with ``atoms`` the atoms they
    cut out: each m(v) minus the union of the m(u) strictly inside it.
    Sets the atoms are built from are recorded in ``derivations``."""
    meets = list(dict.fromkeys(m for m in meet if m))
    if not atoms:
        return meets
    out = []
    for m in meets:
        inner = 0
        for u in meets:
            if u != m and u & m == u:
                if inner and inner | u != inner:
                    derivations.setdefault(inner | u, ("or", inner, u))
                inner |= u
        if inner:
            derivations.setdefault(m & ~inner, ("diff", m, inner))
        out.append(m & ~inner)
    return out


def _collection(lg: LabeledGraph, seeds: Iterable[tuple[int, Derivation]],
                ring: bool, claimed: tuple[str, ...]) -> SetCollection:
    """The closure of ``seeds`` (the ring with ``ring``), held by its basis.
    A basis of k elements spans at most 2^k - 1 members, exactly that
    many for the ring; when that bound passes :data:`MAX_MEMBERS`, the
    ring is refused at once and the lattice is listed now, under the
    cap."""
    basis, cover, derived = _close(lg, seeds, ring)
    if (1 << len(basis)) - 1 <= MAX_MEMBERS:
        return SetCollection._of_basis(lg, claimed, basis, cover, derived)
    if ring:
        raise SearchSpaceExceeded(
            f"the closure has 2^{len(basis)} - 1 members, more than "
            f"{MAX_MEMBERS}")
    derivations = _list(basis, derived, MAX_MEMBERS)
    return SetCollection(lg, tuple(sorted(derivations)), derivations, claimed)


def smallest_accommodating(lg: LabeledGraph) -> SetCollection:
    """Least family containing every range r(w), closed under single-letter
    relative ranges and finite intersections and unions.

    Single-letter steps generate all multi-letter ranges because
    r(A, wa) = r(r(A, w), a); the reduction is validated against direct
    enumeration in the test suite, and the family does not depend on the
    order of the generators.  The family is held by its basis, and its
    members are listed on first read (:class:`SetCollection`).  More than
    :data:`MAX_MEMBERS` members raise :class:`SearchSpaceExceeded` here,
    not on that read.
    """
    require_valid(lg.graph, "smallest_accommodating")
    full = lg.full_mask()
    return _collection(lg, [(lg.range_mask(full, (a,)), ("range", (a,)))
                            for a in lg.alphabet], False,
                       ("relative_ranges", "intersections", "unions"))


def relative_complement_closure(col: SetCollection) -> SetCollection:
    """Close additionally under A \\ B for strict member pairs A > B; the
    result still satisfies the accommodating laws.  It is held by its
    atoms, and its members are listed on first read
    (:class:`SetCollection`).  More than :data:`MAX_MEMBERS` members raise
    :class:`SearchSpaceExceeded` before any is listed.

    The closure is seeded with the members whose derivation is not a union
    ``("or", u, b)``, in derivation order: for a collection built by
    :func:`smallest_accommodating` these are the sets derived before the
    listing, read without listing it.  Each union is recorded from two sets
    derived before it, so every member lies in the ring the seeds
    generate, and that ring is the one all members generate."""
    return _collection(col.lg, [(m, deriv) for m, deriv
                                in col._derived.items()
                                if deriv[0] != "or"], True,
                       ("relative_ranges", "intersections", "unions",
                        "relative_complements"))


# -- normal forms ------------------------------------------------------------


class Factor(NamedTuple):
    """One factor r(alpha) or r(alpha) \\ r(beta) of an intersection term."""

    alpha: Word
    beta: Word | None = None

    def evaluate(self, lg: LabeledGraph) -> int:
        full = lg.full_mask()
        value = lg.range_mask(full, self.alpha)
        if self.beta is not None:
            value &= ~lg.range_mask(full, self.beta)
        return value

    def render(self) -> str:
        if self.beta is None:
            return f"r({''.join(self.alpha)})"
        return f"r({''.join(self.alpha)})\\r({''.join(self.beta)})"


class NormalForm(NamedTuple):
    """Union of intersections of range differences."""

    terms: tuple[tuple[Factor, ...], ...]

    def evaluate(self, lg: LabeledGraph) -> frozenset[str]:
        return lg.set_of(self.evaluate_mask(lg))

    def evaluate_mask(self, lg: LabeledGraph) -> int:
        total = 0
        for term in self.terms:
            value = lg.full_mask()
            for f in term:
                value &= f.evaluate(lg)
            total |= value
        return total

    def render(self) -> str:
        parts = []
        for term in self.terms:
            inner = " & ".join(f.render() for f in term)
            parts.append(f"({inner})" if len(term) > 1 else inner)
        return " | ".join(parts)


def normal_form(col: SetCollection, vertices: Iterable[str] | int) -> NormalForm:
    """Rewrite a member as a union of intersections of range differences.

    Grammar: a union of terms, each term an intersection of factors
    ``r(alpha)`` or ``r(alpha) \\ r(beta)``, with no containment required
    between ``r(alpha)`` and ``r(beta)``.  Requires a weakly left-resolving
    graph.

    The forms are built from the graph's range table
    (:attr:`LabeledGraph.range_table`).  For each atom A inside the member
    M that no earlier term covers, the ranges containing A are intersected,
    smallest first, until the value lies inside M; if it still reaches
    outside M, ranges disjoint from A that cut it outside M are subtracted.
    The term is ``r(first) \\ r(beta)`` for each subtracted beta (or
    ``r(first)`` if there is none), then ``r(alpha)`` for every other
    intersected word.

    Why this is total: weak left-resolving gives
    r(A & B, a) = r(A, a) & r(B, a), hence r(A \\ B, a) = r(A, a) \\ r(B, a)
    for B inside A.  So single-letter steps map Boolean combinations of
    ranges to Boolean combinations of ranges, and every member of the
    accommodating collection and of its relative-complement closure is a
    union of atoms.  An atom equals the intersection of the ranges
    containing it minus the union of the ranges disjoint from it (a range
    either contains an atom or misses it), so each term ends inside M, and
    the terms together cover M.  The result is still evaluated and compared
    with M before it is returned.
    """
    lg = col.lg
    mask = vertices if isinstance(vertices, int) else lg.mask_of(vertices)
    if mask not in col:
        shown = (repr(sorted(lg.set_of(mask))) if 0 <= mask <= lg.full_mask()
                 else f"mask {mask}")
        raise NotAMember(f"{shown} is not in the collection")
    if not lg.weakly_left_resolving:
        raise PreconditionError(
            "NOT_WEAKLY_LEFT_RESOLVING",
            "normal forms require a weakly left-resolving graph")
    table = lg.range_table
    terms: list[tuple[Factor, ...]] = []
    covered = 0
    for atom, inside in table.atoms:
        if atom & ~mask or atom & covered:
            continue
        value = lg.full_mask()
        alphas: list[Word] = []
        for k in inside:
            range_value, word = table.ranges[k]
            value &= range_value
            alphas.append(word)
            if not value & ~mask:
                break
        betas: list[Word] = []
        for range_value, word in table.ranges:
            if not value & ~mask:
                break
            if not range_value & atom and range_value & value & ~mask:
                value &= ~range_value
                betas.append(word)
        first = alphas[0]
        term = tuple(Factor(first, beta) for beta in betas) or (Factor(first),)
        terms.append(term + tuple(Factor(alpha) for alpha in alphas[1:]))
        covered |= value
    nf = NormalForm(tuple(terms))
    if nf.evaluate_mask(lg) != mask:
        raise VerificationError("normal form evaluation mismatch", nf.render())
    return nf


# -- labeled space report ----------------------------------------------------


class LabeledSpaceReport(FrozenRecord):
    """The verdicts of :func:`labeled_space_report`.  ``label_counts``
    may be given as a function ``rows(frozen)`` that returns one
    ``(names, count)`` pair per member, with the member's vertex names as
    a frozenset when ``frozen`` is true and as a tuple in name order when
    it is false.  The counts read the frozensets on their first read;
    :meth:`to_json` reads the tuples, sorts them and joins their names as
    they are.  So the report decodes its members' names only when
    something reads them."""

    _fields = ("set_finite", "label_counts", "weakly_left_resolving",
               "ck1a_pairs", "ck1a_disjoint_pairs",
               "ck1b_intersections_closed", "ck1b_unions_closed",
               "ck1b_differences_closed", "ck4", "empty_set_convention")
    _on_read = ("label_counts",)

    @cached_property
    def label_counts(self) -> dict[frozenset, int]:
        return dict(self._build_label_counts(True))

    @cached_property
    def _label_rows(self) -> list[tuple[tuple[str, ...], int]]:
        build = vars(self).get("_build_label_counts")
        if build is not None:
            return list(build(False))
        return [(tuple(sorted(k)), v) for k, v in self.label_counts.items()]

    def __init__(self, set_finite: bool,
                 label_counts: Mapping[frozenset, int]
                 | Callable[[bool], Iterable[tuple[Any, int]]],
                 weakly_left_resolving: Check, ck1a_pairs: int,
                 ck1a_disjoint_pairs: int, ck1b_intersections_closed: Check,
                 ck1b_unions_closed: Check, ck1b_differences_closed: Check,
                 ck4: Check, empty_set_convention: str =
                 "the empty set is excluded from collections"):
        self._set_fields((set_finite, label_counts, weakly_left_resolving,
                          ck1a_pairs, ck1a_disjoint_pairs,
                          ck1b_intersections_closed, ck1b_unions_closed,
                          ck1b_differences_closed, ck4, empty_set_convention))

    @property
    def ok(self) -> bool:
        return (self.set_finite and bool(self.weakly_left_resolving)
                and bool(self.ck1b_intersections_closed)
                and bool(self.ck1b_unions_closed) and bool(self.ck4))

    def to_json(self) -> dict:
        return {
            "set_finite": self.set_finite,
            "label_counts": {",".join(names): v
                             for names, v in sorted(self._label_rows)},
            "weakly_left_resolving": bool(self.weakly_left_resolving),
            "ck1a_pairs": self.ck1a_pairs,
            "ck1a_disjoint_pairs": self.ck1a_disjoint_pairs,
            "ck1b_intersections_closed": bool(self.ck1b_intersections_closed),
            "ck1b_unions_closed": bool(self.ck1b_unions_closed),
            "ck1b_differences_closed": bool(self.ck1b_differences_closed),
            "ck4": bool(self.ck4),
            "empty_set_convention": self.empty_set_convention,
            "ok": self.ok,
        }


def labeled_space_report(lg: LabeledGraph, col: SetCollection,
                         word_bound: int = 4) -> LabeledSpaceReport:
    """Set-level preconditions of the generator relations: label-set sizes,
    weak left-resolving, disjointness of ranges, lattice closure of range
    intersections/unions/strict differences, and the partition identity
    (every member vertex emits, and single-letter relative ranges are the
    letter fibers recomputed by direct edge scan).  The range sweeps take
    the range values of words of length 1 to ``word_bound``; a bound below
    1 would make them pass vacuously and is refused, and so is a
    collection of a graph other than ``lg`` (``FOREIGN_COLLECTION``).

    The closure checks first try a certificate on a collection held by its
    basis (:func:`_certified`).  Under :meth:`SetCollection.holds`, M is a
    member iff M is nonzero and the OR of cover(v) over its vertices v, so
    cover(v) lies inside every member that holds v.  The certificate asks (a)
    every range value to be a member, one ``holds`` call over R masks; (b)
    every vertex v of a range value to lie in cover(v); and (c), for the
    differences only, w in cover(v) to give cover(w) = cover(v).  Proof, for
    range values r and s.  Join: the OR of the covers over r | s is the OR
    over r with the OR over s, r | s.  Meet: each v of a nonzero M = r & s
    has cover(v) inside r and s, so inside M, and holding v by (b); so the
    OR over M is M.  Difference D = r \\ s, s inside r: each v of D has
    cover(v) inside r and holding v, and a w of cover(v) in s would put
    cover(v) = cover(w) inside s, which misses v; so cover(v) lies inside D,
    and the OR over D is D.  The ring's atoms pass (a) to (c); the lattice's
    m(v) pass (c) only when they are its atoms.  A check not proved, as every
    check of a collection given its members, tests the set of its pair
    values at once (``holds``), and only a failing one scans the pairs in
    order for its first witness, so each verdict and witness is the pair
    scan's.  The members are listed only when a vertex emits no edge or a
    step row differs from its fiber, to name the first failing member.

    ``label_counts`` is built on its first read (:class:`LabeledSpaceReport`),
    which lists the members but not their derivations.  It maps each
    member's vertex set, decoded once for all members
    (:meth:`LabeledGraph.names_of`; ``to_json`` decodes them in name
    order), to the number of letters its vertices emit, the popcount of
    the OR of the member's entries in per-call chunk tables
    (:func:`~labgraphs.labeled.chunk_tables`) of the letters each vertex
    emits, read from the same edge scan as the fibers."""
    if word_bound < 1:
        raise PreconditionError(
            "WORD_BOUND_BELOW_ONE", f"word bound must be >= 1, got {word_bound}")
    if col.lg is not lg and col.lg != lg:
        raise PreconditionError(
            "FOREIGN_COLLECTION",
            f"the collection is of {col.lg!r}, not of the reported {lg!r}")
    wlr = lg.weakly_left_resolving
    ranges = sorted(value for value, word in lg.range_table.ranges
                    if len(word) <= word_bound)
    disjoint = sum(1 for r1, r2 in combinations(ranges, 2) if not r1 & r2)
    lattice_proved, ring_proved = _certified(col, ranges)
    inter_ok = union_ok = diff_ok = Check(True)
    if not (lattice_proved and ring_proved):
        pairs = list(combinations(ranges, 2))
    if not lattice_proved:
        inter_ok = _pair_check(lg, col, pairs, operator.and_)
        union_ok = _pair_check(lg, col, pairs, operator.or_)
    # Ranges are sorted and distinct, so a pair whose first range lies
    # inside its second is a strict containment of the second over it.
    if not ring_proved:
        diff_ok = _pair_check(lg, col, [(r2, r1) for r1, r2 in pairs],
                              lambda big, small: big ^ small
                              if big & small == small else 0)

    # Per-letter tables from one scan of the edge arrays, never through the
    # step masks that range_mask sweeps: the vertices emitting each letter,
    # each vertex's fiber under it, and the letters each vertex emits.
    core = lg.core
    nv = len(lg.vertices)
    emitters = [0] * len(lg.alphabet)
    fibers = [[0] * nv for _ in lg.alphabet]
    emits = [0] * nv
    for v, w, a in zip(core.src, core.dst, core.lab):
        emitters[a] |= 1 << v
        fibers[a][v] |= 1 << w
        emits[v] |= 1 << a
    silent = lg.full_mask()
    for mask in emitters:
        silent &= ~mask
    # A single-letter relative range is the union of the step rows of the
    # member's vertices, and a member's fiber is the union of the same
    # vertices' fibers.  When every step row equals its fiber, every
    # member's fiber equals its range, so only differing rows need the
    # per-member comparison below, which names the first failing member.
    steps_match = fibers == lg._step
    ck4: Check = Check(True)
    for mask in col.members if silent or not steps_match else ():
        if mask & silent:
            ck4 = Check(False, (lg.set_of(mask), min(lg.set_of(mask & silent))),
                        "vertex emits no edge")
            break
        for a, letter in enumerate(lg.alphabet):
            if mask & emitters[a]:
                fiber = 0
                for v in range(nv):
                    if mask >> v & 1:
                        fiber |= fibers[a][v]
                if lg.range_mask(mask, (letter,)) != fiber:
                    ck4 = Check(False, (lg.set_of(mask), letter),
                                "letter fiber mismatch")
                    break
        if not ck4:
            break

    def label_rows(frozen: bool) -> Iterable[tuple[Any, int]]:
        members = col.members
        letters = fold_chunks(members, chunk_tables(emits, 0, operator.or_),
                              operator.or_)
        return zip(lg.names_of(members, frozen=frozen),
                   map(int.bit_count, letters))

    return LabeledSpaceReport(
        set_finite=True,
        label_counts=label_rows,
        weakly_left_resolving=wlr,
        ck1a_pairs=len(ranges) * (len(ranges) - 1) // 2,
        ck1a_disjoint_pairs=disjoint,
        ck1b_intersections_closed=inter_ok,
        ck1b_unions_closed=union_ok,
        ck1b_differences_closed=diff_ok,
        ck4=ck4,
    )


def _certified(col: SetCollection, ranges: list[int]) -> tuple[bool, bool]:
    """Whether the basis of ``col`` proves every meet and join of two of
    ``ranges`` a member, and whether it proves every strict difference one
    (the proof is :func:`labeled_space_report`'s).  A collection given its
    members proves neither."""
    cover = vars(col).get("_cover")
    if cover is None or not col.holds(ranges):
        return False, False
    spanned = 0
    for r in ranges:
        spanned |= r
    if not all(cover[v] >> v & 1 for v in _bits(spanned)):
        return False, False
    return True, all(cover[w] == c for c in set(cover) for w in _bits(c))


def _pair_check(lg: LabeledGraph, col: SetCollection,
                pairs: list[tuple[int, int]], value: Callable) -> Check:
    """Whether ``value(*pair)`` is a member for every pair of ``pairs``
    where it is nonzero, tested for all at once
    (:meth:`SetCollection.holds`); failing, the check names the first
    such pair whose value is not a member, as vertex sets."""
    values = [value(*pair) for pair in pairs]
    wanted = set(values)
    wanted.discard(0)
    if col.holds(wanted):
        return Check(True)
    first, second = next(pair for pair, v in zip(pairs, values)
                         if v and v not in col)
    return Check(False, (lg.set_of(first), lg.set_of(second)))
