"""Group carriers: finite groups exactly, plus the integers with explicit
materialization windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .errors import AxiomFailure, PreconditionError

Element = Any  # int for cyclic/integers/table, tuple[int, ...] for permutations


@dataclass(frozen=True)
class Window:
    """Inclusive integer range used to materialize infinite-cyclic layers."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError("BAD_WINDOW", f"{self.lo} > {self.hi}")

    def __contains__(self, g: int) -> bool:
        return self.lo <= g <= self.hi

    def elements(self) -> range:
        return range(self.lo, self.hi + 1)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Group:
    """Common interface; concrete kinds below."""

    kind: str

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    def op(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def contains(self, a: Element) -> bool:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    def elements(self) -> tuple[Element, ...]:
        raise NotImplementedError

    def element_str(self, a: Element) -> str:
        return str(a)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self) -> int:
        import json
        return hash(json.dumps(self.to_json(), sort_keys=True))


class CyclicGroup(Group):
    kind = "cyclic"

    def __init__(self, n: int):
        if n < 1:
            raise PreconditionError("BAD_GROUP_SPEC", "cyclic order must be >= 1")
        self.n = n

    @property
    def identity(self) -> int:
        return 0

    def op(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.n

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def to_json(self) -> dict:
        return {"kind": "cyclic", "n": self.n}

    def __repr__(self) -> str:
        return f"CyclicGroup({self.n})"


class IntegerGroup(Group):
    kind = "integers"

    @property
    def identity(self) -> int:
        return 0

    def op(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool)

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self):
        raise PreconditionError("INFINITE_GROUP",
                                "the integers cannot be enumerated; use a window")

    def to_json(self) -> dict:
        return {"kind": "integers"}

    def __repr__(self) -> str:
        return "IntegerGroup()"


class TableGroup(Group):
    """Finite group given by its full multiplication table over indices
    0..n-1; all axioms are checked exhaustively at construction."""

    kind = "table"

    def __init__(self, table: Iterable[Iterable[int]]):
        tbl = tuple(tuple(row) for row in table)
        n = len(tbl)
        for i, row in enumerate(tbl):
            if len(row) != n:
                raise AxiomFailure(f"row {i} has length {len(row)}, expected {n}")
            for j, x in enumerate(row):
                if not isinstance(x, int) or not 0 <= x < n:
                    raise AxiomFailure(f"entry ({i},{j}) out of range", (i, j, x))
        ident = None
        for e in range(n):
            if all(tbl[e][x] == x and tbl[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise AxiomFailure("no identity element")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise AxiomFailure("associativity fails", (a, b, c))
        inv = {}
        for a in range(n):
            partners = [b for b in range(n)
                        if tbl[a][b] == ident and tbl[b][a] == ident]
            if not partners:
                raise AxiomFailure("no inverse", (a,))
            inv[a] = partners[0]
        self.table = tbl
        self.n = n
        self._identity = ident
        self._inv = inv

    @property
    def identity(self) -> int:
        return self._identity

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def contains(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.n

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def to_json(self) -> dict:
        return {"kind": "table", "table": [list(r) for r in self.table]}

    def __repr__(self) -> str:
        return f"TableGroup(order {self.n})"


#: Most elements a :class:`PermutationGroup` may close its generators to.
MAX_GROUP_ORDER = 100000


class PermutationGroup(Group):
    """Finite permutation group generated by one-line permutations of
    ``range(degree)``; elements are the full closure of the generators."""

    kind = "permutation"

    def __init__(self, degree: int, generators: Iterable[Iterable[int]]):
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise AxiomFailure(f"not a permutation of range({degree})", g)
        ident = tuple(range(degree))
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[g[i]] for i in range(degree))
                    if q not in elems:
                        elems.add(q)
                        nxt.append(q)
                        if len(elems) > MAX_GROUP_ORDER:
                            raise PreconditionError(
                                "GROUP_TOO_LARGE",
                                f"the closure of the generators holds at "
                                f"least {len(elems)} elements, over the cap "
                                f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")
            frontier = nxt
        self.degree = degree
        self.generators = gens
        self._elements = tuple(sorted(elems))
        self._element_set = frozenset(elems)

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple(range(self.degree))

    def op(self, a, b):
        # apply b first, then a
        return tuple(a[b[i]] for i in range(self.degree))

    def inv(self, a):
        out = [0] * self.degree
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    def contains(self, a) -> bool:
        return tuple(a) in self._element_set

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self):
        return self._elements

    def element_str(self, a) -> str:
        return ".".join(str(x) for x in a)

    def to_json(self) -> dict:
        return {"kind": "permutation", "degree": self.degree,
                "generators": [list(g) for g in self.generators]}

    def __repr__(self) -> str:
        return f"PermutationGroup(degree {self.degree}, order {len(self._elements)})"


def make_group(spec: dict) -> Group:
    """Build a verified group from a JSON-style spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise PreconditionError("BAD_GROUP_SPEC", "expected an object with 'kind'")
    kind = spec["kind"]
    if kind == "cyclic":
        return CyclicGroup(spec["n"])
    if kind == "integers":
        return IntegerGroup()
    if kind == "table":
        return TableGroup(spec["table"])
    if kind == "permutation":
        return PermutationGroup(spec["degree"], spec["generators"])
    raise PreconditionError("BAD_GROUP_SPEC", f"unknown kind {kind!r}")


def element_to_json(group: Group, a: Element):
    if group.kind == "permutation":
        return list(a)
    return a


def element_from_json(group: Group, payload) -> Element:
    if group.kind == "permutation":
        if not isinstance(payload, list) or not all(isinstance(x, int) for x in payload):
            raise PreconditionError("BAD_ELEMENT", repr(payload))
        a = tuple(payload)
    else:
        if not isinstance(payload, int) or isinstance(payload, bool):
            raise PreconditionError("BAD_ELEMENT", repr(payload))
        a = payload
    if not group.contains(a):
        raise PreconditionError("BAD_ELEMENT",
                                f"{payload!r} is not in {group!r}")
    return a
