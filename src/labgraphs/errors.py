"""Exception hierarchy and the frozen record base shared by all modules."""

from __future__ import annotations

import copyreg
from functools import cached_property


class FrozenRecord:
    """Base of the records that validate their fields or cache a property,
    so cannot be a ``typing.NamedTuple``.  A subclass names its fields in
    ``_fields`` and sets them in ``__init__`` through ``object.__setattr__``.
    It then behaves as a frozen dataclass: it equals only a record of its
    own class with equal fields, hashes as the tuple of its fields, prints
    as ``Name(field=value, ...)``, refuses assignment and deletion with
    :class:`AttributeError`, and copies and pickles through its
    constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    #: Fields that may be given as a function of no arguments, which is
    #: called on the field's first read (:func:`built_on_read`).
    _on_read: tuple[str, ...] = ()

    def _set_fields(self, values) -> None:
        """Set the fields to ``values``, in ``_fields`` order, keeping a
        function given for a field of ``_on_read`` to build it."""
        for name, value in zip(self._fields, values):
            if name in self._on_read and callable(value):
                name = "_build_" + name
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def built_on_read(name: str) -> cached_property:
    """The class attribute of the field ``name`` of a record's
    ``_on_read``: given as a value, the field is that value; given as a
    function, it is the function's result, computed on first read and
    kept."""
    def build(self):
        return getattr(self, "_build_" + name)()
    return cached_property(build)


class LabGraphsError(Exception):
    """Base class for all library errors; ``witness``, when given, holds
    the values that violate the failed condition.  Copies and pickles keep
    the class, the message and every attribute: they are rebuilt from the
    formatted message without calling ``__init__``, which subclasses give
    other arguments, and then given the attributes back."""

    def __init__(self, message: str = "", witness=None):
        self.witness = witness
        super().__init__(message)

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class PreconditionError(LabGraphsError):
    """A named precondition of an operation was violated."""

    def __init__(self, name: str, message: str = ""):
        self.name = name
        super().__init__(f"{name}: {message}" if message else name)


class NotALabeledPath(LabGraphsError):
    """The word has no representative path in the graph."""


class NotAMember(LabGraphsError):
    """The vertex set is not a member of the collection."""


class AxiomFailure(LabGraphsError):
    """A group axiom failed; ``witness`` holds the violating elements."""


class OutOfWindow(LabGraphsError):
    """A group element escaped the enforced materialization window."""


class LiftFailure(LabGraphsError):
    """Path lifting was not unique (zero or several lifts)."""


class NonFreeWitness(LabGraphsError):
    """No unique solver element exists; the action cannot be free."""


class WellDefinednessError(LabGraphsError):
    """Quotient data is inconsistent; ``witness`` is the offending pair."""


class SearchSpaceExceeded(LabGraphsError):
    """The candidate space is larger than the configured cap."""


class NoFundamentalDomain(LabGraphsError):
    """No fundamental domain was found (or the supplied one is invalid)."""


class VerificationError(LabGraphsError):
    """A constructed object failed one of its defining laws."""

    def __init__(self, law: str, witness=None):
        self.law = law
        super().__init__(f"verification failed: {law} (witness={witness!r})",
                         witness)


class LabelConsistencyViolation(LabGraphsError):
    """Derived cocycles are not label consistent despite a verified
    fundamental domain.  This contradicts the reconstruction theory and is
    therefore classified as an internal error, never user input."""


class ParseError(LabGraphsError):
    """Malformed JSON input; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"parse error at line {line}, column {column}: {message}")


class SchemaError(LabGraphsError):
    """Structurally valid JSON that violates the document schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"schema error at {path}: {message}")
