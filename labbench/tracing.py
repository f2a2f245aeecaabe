"""Spans and counters around the public functions of labgraphs, installed
from benchmark code only.

Span wrappers replace a function at every import site inside labgraphs and
the benchmark's own modules, and record (name, start, end, parent, op id).
The hot methods (``action.apply``, ``groups.op``, ``labeled.range_mask``)
are wrapped only in a separate counting pass, so their wrapper cost does
not inflate the span times.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# (span name, module, attribute, optional (counter, count of one call from
# its arguments and result)).  "Class.method" attributes wrap a method.
SPAN_TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("action.verify_action", "labgraphs.action", "verify_action",
     ("action.verify_action.pairs_checked", lambda a, r: r.pairs_checked)),
    ("action.is_free", "labgraphs.action", "is_free", None),
    ("action.quotient", "labgraphs.action", "quotient", None),
    ("action.find_fundamental_domain", "labgraphs.action",
     "find_fundamental_domain",
     ("action.find_fundamental_domain.candidates_tried",
      lambda a, r: r.candidates_tried)),
    ("graph.validate", "labgraphs.graph", "validate", None),
    ("skew.SkewLabeledGraph", "labgraphs.skew", "SkewLabeledGraph.__init__",
     ("skew.vertices_materialized", lambda a, r: len(a[0].graph.vertices))),
    ("gross_tucker.reconstruct", "labgraphs.gross_tucker", "reconstruct",
     ("gross_tucker.reconstruct.equivariance_checked",
      lambda a, r: r.equivariance_checked)),
    ("gross_tucker.derive_cocycles", "labgraphs.gross_tucker",
     "derive_cocycles", None),
    ("morphism.verify_morphism", "labgraphs.morphism", "verify_morphism",
     None),
    ("lattice.smallest_accommodating", "labgraphs.lattice",
     "smallest_accommodating", None),
    ("lattice.relative_complement_closure", "labgraphs.lattice",
     "relative_complement_closure", ("lattice.members", lambda a, r: len(r))),
    ("lattice.labeled_space_report", "labgraphs.lattice",
     "labeled_space_report", None),
    ("lattice.normal_form", "labgraphs.lattice", "normal_form", None),
    ("labeled.is_weakly_left_resolving", "labgraphs.labeled",
     "is_weakly_left_resolving", None),
    ("cli.main", "labgraphs.cli", "main", None),
    ("jsonio.load", "labgraphs.jsonio", "load", None),
)

# (counter, module, base class, method, timed): every subclass of the base
# that defines the method is wrapped.
HOT_TARGETS = (
    ("action.apply", "labgraphs.action", "LabeledGraphAction", "apply", False),
    ("groups.op", "labgraphs.groups", "Group", "op", False),
    ("labeled.range_mask", "labgraphs.labeled", "LabeledGraph", "range_mask",
     True),
)

def _import_sites():
    """labgraphs and the benchmark's workload module."""
    for name, module in list(sys.modules.items()):
        if (name == "labgraphs" or name.startswith("labgraphs.")
                or name == "workloads"):
            yield module


class Patches:
    """Replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(importlib.import_module(module), cls_name)
            self.set(cls, method, make(cls.__dict__[method]))
            return
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(original)
        for site in _import_sites():
            for key, value in list(vars(site).items()):
                if value is original:
                    self.set(site, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class SpanRecorder:
    """Spans of one traced pass, plus the counts taken from wrapped calls.
    Counts of an op that missed its deadline are dropped, so that they
    repeat exactly between runs.  A failed op is counted against the last
    span it opened at its top level, as ``<span>.deadline`` for a missed
    deadline and ``<span>.failed`` for an error or a wrong output."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id: str | None = None
        self._root = -1
        self._snapshot: dict[str, int] = {}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    def _wrap(self, name: str, counter) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                self.counts[name + ".calls"] += 1
                if counter is not None:
                    self.counts[counter[0]] += counter[1](args, result)
                return result
            return wrapper
        return make

    def install(self) -> Patches:
        patches = Patches()
        for name, module, attr, counter in SPAN_TARGETS:
            patches.function(module, attr, self._wrap(name, counter))
        return patches

    def begin_op(self, op_id: str) -> None:
        self._op_id = op_id
        self._stack = []
        self._snapshot = dict(self.counts)
        self._root = self._open("op")

    def end_op(self, failure: str | None) -> None:
        self._close(self._root)
        self._stack = []
        if failure == "deadline":
            self.counts = defaultdict(int, self._snapshot)
        if failure is not None:
            top = [span[0] for span in self.spans[self._root + 1:]
                   if span[3] == self._root]
            if top:
                kind = "deadline" if failure == "deadline" else "failed"
                self.counts[f"{top[-1]}.{kind}"] += 1

    def ingest(self, child: dict) -> None:
        """Attach the spans and counts of a traced CLI child to the open
        op; the child's clock is the same monotonic clock."""
        offset = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            parent = self._root if parent < 0 else parent + offset
            self.spans.append([name, start, end, parent, self._op_id])
        for key, value in child["counts"].items():
            self.counts[key] += value

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def self_seconds(self) -> dict[str, float]:
        """Per span name, the total of duration minus the time covered by
        direct child spans."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0 and span[2] is not None:
                children[span[3]].append(i)
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            intervals = sorted((max(start, self.spans[c][1]),
                                min(end, self.spans[c][2]))
                               for c in children[i])
            covered, reach = 0.0, start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[name] += (end - start) - covered
        return totals


class HotCounter:
    """Call counts of the hot methods, and the time inside
    ``labeled.range_mask`` (a leaf, so its duration is its self time)."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(int)
        self._snapshot: dict[str, float] = {}

    def _make(self, name: str, timed: bool) -> Callable[[Callable], Callable]:
        counts = self.counts
        calls, seconds = name + ".calls", name + ".self_s"
        perf_counter = time.perf_counter

        def make(fn: Callable) -> Callable:
            if not timed:
                def wrapper(*args, **kwargs):
                    counts[calls] += 1
                    return fn(*args, **kwargs)
                return wrapper

            def timed_wrapper(*args, **kwargs):
                counts[calls] += 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[seconds] += perf_counter() - start
            return timed_wrapper
        return make

    def install(self) -> Patches:
        patches = Patches()
        for name, module, base, method, timed in HOT_TARGETS:
            root = getattr(importlib.import_module(module), base)
            for cls in _subclasses(root):
                if method in cls.__dict__:
                    patches.set(cls, method,
                                 self._make(name, timed)(cls.__dict__[method]))
        return patches

    def begin_op(self, op_id: str) -> None:
        self._snapshot = dict(self.counts)

    def end_op(self, failure: str | None) -> None:
        if failure == "deadline":
            self.counts.clear()
            self.counts.update(self._snapshot)

    def ingest(self, child: dict) -> None:
        for key, value in child["counts"].items():
            self.counts[key] += value

    def to_json(self) -> dict:
        return {"spans": [], "counts": dict(self.counts)}
