"""Seeded workloads of the pipeline benchmark: inputs, ops and output checks.

Every workload is a list of ops built from one seed.  An op is a call into
the public API of labgraphs (or one ``python -m labgraphs.cli`` child) plus
an independent check of its output.  Ops look their library functions up
through the module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from labgraphs import fixtures as fx
from labgraphs import groups, gross_tucker, jsonio, labeled, lattice, skew
from labgraphs.errors import NotALabeledPath
from labgraphs.graph import DirectedGraph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-op deadlines.  normal_form blows up exponentially on some members, in
# time and in memory.  Its ops get a memory budget, which ends every
# blow-up of the normal-forms mix after 0.5-1 s, at the same allocation
# whatever the load on the machine, so a probe of a blow-up repeats.
# The CPU-time deadline behind it is a safety net, well clear of the
# slowest correct member (about 0.4 s).  The members that exhaust the
# budget still run, or have used up 1.2 GB, after 6-8 s.  The other
# deadlines are safety nets that no op comes near at the seed commit.
NORMAL_FORM_MEMORY_MB = 100
NORMAL_FORM_DEADLINE_S = 2.0
IN_PROCESS_DEADLINE_S = 30.0
CLI_DEADLINE_S = 60.0


@dataclass
class Op:
    """One timed call.  ``run`` returns the output, ``check`` returns None
    when the output is correct and a one-line reason otherwise."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    ops: list[Op]
    clock: str          # "cpu" or "wall": what the per-op deadline counts
    deadline_s: float
    runner: CliRunner | None = None   # set when ops are CLI children
    memory_mb: float | None = None    # per-op memory budget, if any
    memory_cap: int | None = None     # its resident-size limit, set on use
    # Ops on which the library is known to fail.  They are not ops of the
    # run: a traced run probes each once and counts its failures per layer.
    known_defects: list[Op] = field(default_factory=list)


def valid_graph(rng: random.Random, nv: int, n_letters: int,
                n_edges: int) -> labeled.LabeledGraph:
    """Random valid labeled graph with exactly ``nv`` vertices, every one of
    ``n_letters`` letters used, and at least ``n_edges`` edges: each vertex
    emits one edge, each vertex left without an in-edge gets one, and random
    edges fill up the rest."""
    vertices = [f"v{i}" for i in range(nv)]
    ends = [(v, rng.choice(vertices)) for v in vertices]
    for v in vertices:
        if not any(dst == v for _, dst in ends):
            ends.append((rng.choice(vertices), v))
    while len(ends) < max(n_edges, n_letters):
        ends.append((rng.choice(vertices), rng.choice(vertices)))
    letters = [f"a{i}" for i in range(n_letters)]
    labels = letters + [rng.choice(letters) for _ in ends[n_letters:]]
    rng.shuffle(labels)
    edges = [(f"e{i:02d}", src, dst) for i, (src, dst) in enumerate(ends)]
    return labeled.LabeledGraph(
        DirectedGraph(vertices, edges),
        {eid: a for (eid, _, _), a in zip(edges, labels)})


def wlr_graph(rng: random.Random, nv: int, n_letters: int,
              density: float) -> labeled.LabeledGraph:
    """Random valid, weakly left-resolving labeled graph with exactly
    ``nv`` vertices and ``n_letters`` letters.  Weak left-resolving holds by
    construction: for each letter, every vertex receives edges with that
    letter from at most one source, so single-letter ranges of distinct
    vertices are disjoint.  A random permutation gives every vertex one
    in-edge and one out-edge; a ``density`` share of the other (letter,
    target) slots, chosen at random, get an edge from a random source."""
    vertices = [f"v{i}" for i in range(nv)]
    sources = rng.sample(vertices, nv)
    letters = [f"a{i}" for i in range(n_letters)]
    slots = {(dst, letters[i % n_letters]): src
             for i, (src, dst) in enumerate(zip(sources, vertices))}
    free = [(dst, a) for a in letters for dst in vertices
            if (dst, a) not in slots]
    for slot in rng.sample(free, round(density * len(free))):
        slots[slot] = rng.choice(vertices)
    edges = [(f"e{i:02d}", src, dst, a)
             for i, ((dst, a), src) in enumerate(sorted(slots.items()))]
    return labeled.LabeledGraph(
        DirectedGraph(vertices, [e[:3] for e in edges]),
        {eid: a for eid, _, _, a in edges})


# -- reconstruct-z --------------------------------------------------------------


def _reconstruct_identity(spec: skew.SkewSpec, half_width: int):
    action = skew.left_translation(
        skew.skew_product(spec, groups.Window(-half_width, half_width)))
    return gross_tucker.reconstruct(
        action, gross_tucker.identity_layer_sections(action))


def _reconstruct_gt510():
    action, pack = fx.gt510()
    return gross_tucker.reconstruct(action, pack)


def _cocycle_check(c: dict, d: dict) -> Callable[[Any], str | None]:
    def check(rec) -> str | None:
        if dict(rec.c) != c or dict(rec.d) != d:
            return f"derived c={dict(rec.c)} d={dict(rec.d)}, want c={c} d={d}"
        if not rec.morphism_report.isomorphism:
            return "isomorphism flag not set"
        return None
    return check


# Extra ops of two (base size, half-width) strata.  Op cost grows smoothly
# with n * w, so with one op per stratum the median and the tail rank fall
# between ops of different cost and move with small changes; these blocks
# of like-cost ops hold the median (n=2, w=6, about 65 ms) and the tail
# rank (n=3, w=8, about 190 ms).
RECONSTRUCT_BLOCKS = {(2, 6): 10, (3, 8): 8}


def build_reconstruct_z(rng: random.Random, tiny: bool) -> Workload:
    """Integer skew specs over every (base size, half-width) stratum, so a
    seed changes the graphs and cocycles but not the mix of sizes."""
    sizes = (1, 2) if tiny else (1, 2, 3, 4)
    widths = (3, 4) if tiny else tuple(range(3, 10))
    strata = [(nv, w) for nv in sizes for w in widths]
    if not tiny:
        for stratum, count in RECONSTRUCT_BLOCKS.items():
            strata += [stratum] * count
    ops = [Op("gt510", _reconstruct_gt510,
              _cocycle_check({"e": 1, "f": -1, "g": 3},
                             {"e": 0, "f": 0, "g": 2}))]
    for nv, w in strata:
        base = valid_graph(rng, nv, n_letters=2, n_edges=2 * nv)
        c = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
        d = {e.eid: rng.randint(-2, 2) for e in base.graph.edges}
        spec = skew.SkewSpec(base, groups.IntegerGroup(), c, d)
        ops.append(Op(
            f"z{len(ops):02d}.n{nv}.w{w}",
            lambda spec=spec, w=w: _reconstruct_identity(spec, w),
            _cocycle_check(c, d)))
    return Workload(ops, "cpu", IN_PROCESS_DEADLINE_S)


# -- lattice-closure -------------------------------------------------------------


def _closure_pipeline(lg: labeled.LabeledGraph):
    col = lattice.smallest_accommodating(lg)
    closed = lattice.relative_complement_closure(col)
    return col, closed, lattice.labeled_space_report(lg, closed)


def _closure_check() -> Callable[[Any], str | None]:
    """Re-check the closure laws on the first output; later outputs of the
    same op must equal the checked one."""
    checked: list = []

    def check(out) -> str | None:
        col, closed, report = out
        fingerprint = (col.members, closed.members, report.to_json())
        if checked:
            return None if fingerprint == checked[0] else "output changed"
        for name, coll in (("accommodating", col), ("closure", closed)):
            status = coll.closure_status()
            bad = [law for law in coll.claimed_closures if not status[law]]
            if bad:
                return f"{name} not closed under {', '.join(bad)}"
        if not set(col.members) <= set(closed.members):
            return "closure lost a member of the accommodating collection"
        checked.append(fingerprint)
        return None
    return check


# Graphs per vertex count.  With three letters and 3n edges the closure is
# mostly the whole power set (2^n - 1 members), so the cost of an op is set
# by its size class; the counts put the median and the tail rank inside a
# class rather than on the border of two.  Ops of one class still differ by
# up to 40%, so the median sits in a block of 20 eight-vertex graphs, where
# the op that holds it changes little from seed to seed.
CLOSURE_MIX = {7: 6, 8: 20, 9: 10, 10: 4}


def build_lattice_closure(rng: random.Random, tiny: bool) -> Workload:
    mix = {4: 2, 5: 2} if tiny else CLOSURE_MIX
    ops = []
    for nv, count in mix.items():
        for _ in range(count):
            lg = valid_graph(rng, nv, n_letters=3, n_edges=3 * nv)
            ops.append(Op(f"c{len(ops):02d}.n{nv}",
                          lambda lg=lg: _closure_pipeline(lg),
                          _closure_check()))
    return Workload(ops, "cpu", IN_PROCESS_DEADLINE_S)


# -- lattice-normal-forms ----------------------------------------------------------


def _range_by_paths(lg: labeled.LabeledGraph, word) -> set[str]:
    try:
        return set(labeled.range_and_source(lg, word)[0])
    except NotALabeledPath:
        return set()


def _normal_form_check(lg: labeled.LabeledGraph,
                       mask: int) -> Callable[[Any], str | None]:
    """Evaluate the normal form from path enumeration, independently of the
    bitmask kernels it was derived with."""
    target = set(lg.set_of(mask))

    def check(nf) -> str | None:
        value: set[str] = set()
        for term in nf.terms:
            part = set(lg.vertices)
            for factor in term:
                f = _range_by_paths(lg, factor.alpha)
                if factor.beta is not None:
                    f -= _range_by_paths(lg, factor.beta)
                part &= f
            value |= part
        if value != target:
            return (f"{nf.render()} evaluates to {sorted(value)}, "
                    f"want {sorted(target)}")
        return None
    return check


# Graphs per vertex count, alternating two and three letters.  The graphs
# are the same for every seed (the seed only orders the ops): which members
# blow up changes from graph to graph, and even with the vertex names of an
# isomorphic copy, so a seeded mix would change the cost of a run.  The mix
# stops before the seventh five-vertex graph, whose member m20 is correct
# after 1.0-1.5 s and so would sit on the deadline.  Six-vertex graphs are
# left out: most have 7-26 members that blow up.
NORMAL_FORM_MIX = {3: 12, 4: 12, 5: 6}
NORMAL_FORM_DENSITY = 0.3
# Members of the mix on which normal_form fails at the seed commit: the
# first four blow up (they run out of the memory budget), the last two
# raise VerificationError.  They are kept out of the timed ops, so that no
# op of a run fails, and are probed in every traced run instead, where
# they show as lattice.normal_form.deadline and .failed.
NORMAL_FORM_DEFECTS = frozenset({"g5.01.m7", "g5.02.m18", "g5.02.m19",
                                 "g5.02.m27", "g3.07.m4", "g3.07.m5"})


def build_lattice_normal_forms(rng: random.Random, tiny: bool) -> Workload:
    mix = {3: 8} if tiny else NORMAL_FORM_MIX
    ops = []
    for nv, count in mix.items():
        for i in range(count):
            lg = wlr_graph(random.Random(f"normal-forms:{nv}:{i}"), nv,
                           2 + i % 2, NORMAL_FORM_DENSITY)
            closed = lattice.relative_complement_closure(
                lattice.smallest_accommodating(lg))
            for mask in closed.members:
                ops.append(Op(
                    f"g{nv}.{i:02d}.m{mask}",
                    lambda closed=closed, mask=mask:
                        lattice.normal_form(closed, mask),
                    _normal_form_check(lg, mask)))
    rng.shuffle(ops)
    return Workload([op for op in ops if op.id not in NORMAL_FORM_DEFECTS],
                    "cpu", NORMAL_FORM_DEADLINE_S,
                    memory_mb=NORMAL_FORM_MEMORY_MB,
                    known_defects=[op for op in ops
                                   if op.id in NORMAL_FORM_DEFECTS])


# -- cli-finite -------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str


class CliRunner:
    """Runs CLI argvs one at a time as children of this process, from the
    checkout root, and keeps the largest child peak RSS.  ``prefix``
    replaces ``-m labgraphs.cli`` (the tracer's shim uses it) and
    ``on_exit`` is called after each child."""

    def __init__(self, workdir: str):
        self.out_path = os.path.join(workdir, "child.out")
        self.prefix = ["-m", "labgraphs.cli"]
        self.on_exit: Callable[[], None] | None = None
        self.peak_rss_kb = 0

    def __call__(self, argv: list[str]) -> CliResult:
        code, text, maxrss_kb = run_child(
            [sys.executable, *self.prefix, *argv], self.out_path)
        self.peak_rss_kb = max(self.peak_rss_kb, maxrss_kb)
        if self.on_exit is not None:
            self.on_exit()
        return CliResult(code, text)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], out_path: str) -> tuple[int, str, int]:
    """Run one child from the checkout root and reap it with ``wait4`` for
    its own resource usage; returns (exit code, stdout, peak RSS in KiB).
    An exception while waiting (the deadline) kills and reaps the child
    before propagating."""
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", errors="replace")
    return proc.returncode, text, usage.ru_maxrss


def _golden_check(expected: str) -> Callable[[Any], str | None]:
    def check(res: CliResult) -> str | None:
        got = f"# exit {res.code}\n{res.stdout}"
        return None if got == expected else "output differs from the golden"
    return check


def _json_check(flags: tuple[tuple[str, ...], ...]) -> Callable[[Any], str | None]:
    def check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}"
        try:
            payload = json.loads(res.stdout)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        for path in flags:
            value = payload
            for key in path:
                value = value.get(key) if isinstance(value, dict) else None
            if value is not True:
                return f"{'.'.join(path)} is {value!r}"
        return None
    return check


# (op label, subcommand and flags, JSON flags that must be true) for every
# seeded action document.
ACTION_COMMANDS = (
    ("act-check", ("act-check",), (("action", "ok"), ("free", "ok"))),
    ("gross-tucker", ("gross-tucker",), (("isomorphism_verified",),)),
    ("gross-tucker-lc", ("gross-tucker", "--label-consistent"),
     (("isomorphism_verified",), ("label_consistent",))),
)


# Groups of order 8 for the action documents: with a four-vertex base the
# fundamental-domain search of ``gross-tucker --label-consistent`` walks
# hundreds of candidate transversals, so it carries the tail of the
# workload.
ORDER_EIGHT_GROUPS = (
    lambda: groups.CyclicGroup(8),
    lambda: groups.PermutationGroup(4, [(1, 2, 3, 0), (3, 2, 1, 0)]),  # D4
)
ACTION_BASE_VERTICES = 4


def label_consistent_action(rng: random.Random, group: groups.Group):
    """Translation action on a skew product over a random four-vertex base
    whose cocycles factor through the labeling, so a fundamental domain
    exists."""
    base = valid_graph(rng, ACTION_BASE_VERTICES, n_letters=2,
                       n_edges=2 * ACTION_BASE_VERTICES)
    elements = group.elements()
    c_letters = {a: rng.choice(elements) for a in base.alphabet}
    d_letters = {a: rng.choice(elements) for a in base.alphabet}
    c = {e.eid: c_letters[base.labeling[e.eid]] for e in base.graph.edges}
    d = {e.eid: d_letters[base.labeling[e.eid]] for e in base.graph.edges}
    return skew.left_translation(
        skew.skew_product(skew.SkewSpec(base, group, c, d)))


def build_cli_finite(rng: random.Random, tiny: bool, workdir: str) -> Workload:
    """The golden commands, read from the fixture tool and compared with
    tests/golden/, plus three subcommands on seeded anonymized finite
    actions of groups of order 8, written with jsonio."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from tools.make_fixtures import GOLDEN_COMMANDS

    runner = CliRunner(workdir)
    ops = []
    golden = sorted(GOLDEN_COMMANDS.items())
    for name, argv in golden[:2] if tiny else golden:
        with open(os.path.join(ROOT, "tests", "golden", name),
                  encoding="utf-8") as fh:
            expected = fh.read()
        ops.append(Op(f"golden.{name[:-len('.txt')]}",
                      lambda argv=argv: runner(list(argv)),
                      _golden_check(expected)))
    for i in range(1 if tiny else 9):
        group = ORDER_EIGHT_GROUPS[i % len(ORDER_EIGHT_GROUPS)]()
        finite = fx.anonymize_action(label_consistent_action(rng, group), rng)
        doc = jsonio.ActionDocument(finite.group, graph=finite.graph,
                                    elements=tuple(sorted(finite.maps.items())))
        path = os.path.relpath(os.path.join(workdir, f"action{i:02d}.json"),
                               ROOT)
        jsonio.dump(jsonio.action_to_json(doc), os.path.join(ROOT, path))
        for label, (cmd, *extra), flags in ACTION_COMMANDS:
            argv = [cmd, path, *extra, "--json"]
            ops.append(Op(f"doc{i:02d}.{label}",
                          lambda argv=argv: runner(argv),
                          _json_check(flags)))
    return Workload(ops, "wall", CLI_DEADLINE_S, runner)


NAMES = ("reconstruct-z", "lattice-closure", "lattice-normal-forms",
         "cli-finite")


def build(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    """Inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "reconstruct-z":
        return build_reconstruct_z(rng, tiny)
    if name == "lattice-closure":
        return build_lattice_closure(rng, tiny)
    if name == "lattice-normal-forms":
        return build_lattice_normal_forms(rng, tiny)
    if name == "cli-finite":
        return build_cli_finite(rng, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
