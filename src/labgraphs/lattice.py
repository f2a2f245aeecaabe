"""Accommodating collections of vertex sets, their relative-complement
closure, normal forms over range atoms, and the set-level labeled-space
report."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (NotAMember, PreconditionError, SearchSpaceExceeded,
                     VerificationError)
from .graph import require_valid
from .labeled import (Check, LabeledGraph, Word, labeled_paths,
                      representatives)

# Derivation expressions: leaves are ranges of words; inner nodes reference
# other members by mask.
#   ("range", word)         r(word)
#   ("step", mask, letter)  r(member, letter)
#   ("and" | "or" | "diff", mask, mask)
Derivation = tuple


@dataclass(frozen=True)
class SetCollection:
    """A family of nonempty vertex subsets (as bitmasks over the graph's
    vertex order), each with the derivation that first produced it.

    The empty set is never stored: operations that would produce it flag
    the result instead (see the report's ``empty_set_convention``).
    """

    lg: LabeledGraph
    members: tuple[int, ...]
    derivations: Mapping[int, Derivation]
    claimed_closures: tuple[str, ...] = ()

    def __contains__(self, mask: int) -> bool:
        return mask in self.derivations

    def __len__(self) -> int:
        return len(self.members)

    def sets(self) -> tuple[frozenset[str], ...]:
        return tuple(self.lg.set_of(m) for m in self.members)

    def mask_of(self, vertices: Iterable[str]) -> int:
        return self.lg.mask_of(vertices)

    def closure_status(self) -> dict[str, bool]:
        """Re-check the closure laws from scratch."""
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


#: Largest number of members either closure builds, in the style of
#: :data:`labgraphs.labeled.BRUTEFORCE_MAX_VERTICES`; a closure that would
#: hold more raises :class:`SearchSpaceExceeded`.  Ranges that separate n
#: vertices give 2^n - 1 members, so 16 such vertices fit and 17 do not.
MAX_MEMBERS = 1 << 16


def _close(lg: LabeledGraph, seeds: Iterable[tuple[int, Derivation]],
           rel_complements: bool,
           order_seed: int | None = None) -> dict[int, Derivation]:
    """Every member of the closure of ``seeds`` (``(mask, derivation)``
    pairs) under single-letter relative ranges, intersections and unions,
    and with ``rel_complements`` also under strict differences A \\ B, each
    with a derivation that references only members.  Apart from the seeds'
    own, a derivation references members derived before it, so none is
    circular.

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
    been stepped, and then the members are listed as unions of basis
    elements.  ``order_seed`` shuffles the generators; the members do not
    depend on it.
    """
    seeds = list(seeds)
    if order_seed is not None:
        random.Random(order_seed).shuffle(seeds)
    derivations: dict[int, Derivation] = {}
    meet = [0] * len(lg.vertices)       # m(v); 0 while no generator holds v

    def generate(mask: int, deriv: Derivation) -> None:
        derivations[mask] = deriv
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
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
            for letter in lg.alphabet:
                value = lg.range_mask(b, (letter,))
                if value and value not in derivations:
                    generate(value, ("range", prev[1] + (letter,))
                             if prev[0] == "range" else ("step", b, letter))
    if rel_complements and (1 << len(basis)) - 1 > MAX_MEMBERS:
        raise SearchSpaceExceeded(
            f"the closure has 2^{len(basis)} - 1 members, more than "
            f"{MAX_MEMBERS}")
    members = list(derivations)
    for member in members:
        for b in basis:
            union = member | b
            if union != member and union not in derivations:
                if len(derivations) >= MAX_MEMBERS:
                    raise SearchSpaceExceeded(
                        f"the closure has more than {MAX_MEMBERS} members")
                derivations[union] = ("or", member, b)
                members.append(union)
    return derivations


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


def smallest_accommodating(lg: LabeledGraph,
                           order_seed: int | None = None) -> SetCollection:
    """Least family containing every range r(w), closed under single-letter
    relative ranges and finite intersections and unions.

    Single-letter steps generate all multi-letter ranges because
    r(A, wa) = r(r(A, w), a); the reduction is validated against direct
    enumeration in the test suite.  ``order_seed`` shuffles the generators
    to exercise order independence; the resulting family is always the
    same.  More than :data:`MAX_MEMBERS` members raise
    :class:`SearchSpaceExceeded`.
    """
    require_valid(lg.graph, "smallest_accommodating")
    full = lg.full_mask()
    derivations = _close(lg, [(lg.range_mask(full, (a,)), ("range", (a,)))
                              for a in lg.alphabet], False, order_seed)
    return SetCollection(lg, tuple(sorted(derivations)), derivations,
                         ("relative_ranges", "intersections", "unions"))


def relative_complement_closure(col: SetCollection) -> SetCollection:
    """Close additionally under A \\ B for strict member pairs A > B; the
    result still satisfies the accommodating laws.  More than
    :data:`MAX_MEMBERS` members raise :class:`SearchSpaceExceeded` before
    any is listed."""
    derivations = _close(col.lg, [(m, col.derivations[m]) for m in col.members],
                         True)
    return SetCollection(col.lg, tuple(sorted(derivations)), derivations,
                         ("relative_ranges", "intersections", "unions",
                          "relative_complements"))


def smallest_accommodating_oracle(lg: LabeledGraph,
                                  word_bound: int = 5) -> frozenset[int]:
    """Exhaustive fixpoint over the powerset: seed with the ranges of every
    realized word up to ``word_bound`` computed from actual representatives,
    then run full passes of all closure rules until stable.  Used to check
    the basis closure and its single-letter reduction."""
    require_valid(lg.graph, "smallest_accommodating_oracle")
    members: set[int] = set()
    for n in range(1, word_bound + 1):
        for word in labeled_paths(lg, n):
            mask = 0
            for p in representatives(lg, word):
                mask |= lg.mask_of([lg.graph.path_dst(p)])
            if mask:
                members.add(mask)
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for m in snapshot:
            for a in lg.alphabet:
                r = lg.range_mask(m, (a,))
                if r and r not in members:
                    members.add(r)
                    changed = True
        snapshot = list(members)
        for i, m1 in enumerate(snapshot):
            for m2 in snapshot[i + 1:]:
                for candidate in (m1 & m2, m1 | m2):
                    if candidate and candidate not in members:
                        members.add(candidate)
                        changed = True
    return frozenset(members)


# -- normal forms ------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
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


@dataclass(frozen=True)
class NormalForm:
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
    if mask not in col.derivations:
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


@dataclass(frozen=True)
class LabeledSpaceReport:
    set_finite: bool
    label_counts: Mapping[frozenset, int]
    weakly_left_resolving: Check
    ck1a_pairs: int
    ck1a_disjoint_pairs: int
    ck1b_intersections_closed: Check
    ck1b_unions_closed: Check
    ck1b_differences_closed: Check
    ck4: Check
    empty_set_convention: str = "the empty set is excluded from collections"

    @property
    def ok(self) -> bool:
        return (self.set_finite and bool(self.weakly_left_resolving)
                and bool(self.ck1b_intersections_closed)
                and bool(self.ck1b_unions_closed) and bool(self.ck4))

    def to_json(self) -> dict:
        return {
            "set_finite": self.set_finite,
            "label_counts": {",".join(sorted(k)): v
                             for k, v in sorted(self.label_counts.items(),
                                                key=lambda kv: sorted(kv[0]))},
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
    1 would make them pass vacuously and is refused."""
    if word_bound < 1:
        raise PreconditionError(
            "WORD_BOUND_BELOW_ONE", f"word bound must be >= 1, got {word_bound}")
    wlr = lg.weakly_left_resolving
    ranges = sorted(value for value, word in lg.range_table.ranges
                    if len(word) <= word_bound)
    pairs = 0
    disjoint = 0
    inter_ok: Check = Check(True)
    union_ok: Check = Check(True)
    diff_ok: Check = Check(True)
    members = set(col.members)
    for i, r1 in enumerate(ranges):
        for r2 in ranges[i + 1:]:
            pairs += 1
            if not r1 & r2:
                disjoint += 1
            if r1 & r2 and (r1 & r2) not in members and inter_ok:
                inter_ok = Check(False, (lg.set_of(r1), lg.set_of(r2)))
            if (r1 | r2) not in members and union_ok:
                union_ok = Check(False, (lg.set_of(r1), lg.set_of(r2)))
            for big, small in ((r1, r2), (r2, r1)):
                if big & small == small and big != small:
                    if (big & ~small) not in members and diff_ok:
                        diff_ok = Check(False, (lg.set_of(big), lg.set_of(small)))

    # Per-vertex tables from one scan of the edge arrays, never through the
    # step masks that range_mask sweeps: the letters each vertex emits, and
    # its (letter, fiber) pairs.  Each member folds its vertices' entries.
    core = lg.core
    emits = [0] * len(lg.vertices)
    fiber_of: list[dict[int, int]] = [{} for _ in lg.vertices]
    for v, w, a in zip(core.src, core.dst, core.lab):
        emits[v] |= 1 << a
        fiber_of[v][a] = fiber_of[v].get(a, 0) | 1 << w
    silent = sum(1 << v for v, letters in enumerate(emits) if not letters)
    # A single-letter relative range is the union of the step rows of the
    # member's vertices, and each fold above is the union of the same
    # vertices' fibers.  When every step row equals its fiber, every
    # member's fold equals its range, so only differing rows need the
    # per-member comparison below, which names the first failing member.
    steps_match = all(row[v] == fiber_of[v].get(a, 0)
                      for a, row in enumerate(lg._step)
                      for v in range(len(lg.vertices)))
    label_counts: dict[frozenset, int] = {}
    ck4: Check = Check(True)
    for mask in col.members:
        vs = lg.set_of(mask)
        letters = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            letters |= emits[v]
        label_counts[vs] = letters.bit_count()
        if not ck4:
            continue
        if mask & silent:
            ck4 = Check(False, (vs, min(lg.set_of(mask & silent))),
                        "vertex emits no edge")
            continue
        if steps_match:
            continue
        fiber = [0] * len(lg.alphabet)
        for name in vs:
            for a, targets in fiber_of[core.positions[0][name]].items():
                fiber[a] |= targets
        for a, letter in enumerate(lg.alphabet):
            if letters >> a & 1:
                stepped = lg.range_mask(mask, (letter,))
                if stepped != fiber[a] or not stepped:
                    ck4 = Check(False, (vs, letter), "letter fiber mismatch")
                    break
    return LabeledSpaceReport(
        set_finite=True,
        label_counts=label_counts,
        weakly_left_resolving=wlr,
        ck1a_pairs=pairs,
        ck1a_disjoint_pairs=disjoint,
        ck1b_intersections_closed=inter_ok,
        ck1b_unions_closed=union_ok,
        ck1b_differences_closed=diff_ok,
        ck4=ck4,
    )
