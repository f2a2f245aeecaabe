#!/usr/bin/env python3
"""Pipeline benchmark of labgraphs.

    python3 labbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a labgraphs checkout.  Builds the workload's inputs
from the seed, runs its ops for S seconds, checks every output, and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
pass (``--trace 1``).  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the metric names and
units are those of BENCHMARK.json.  Details (failures by op id, per-op
latencies, spans) go to .labbench/ in the checkout.  See labbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".labbench")
REQUIRED = ("BENCHMARK.json", "src/labgraphs/__init__.py",
            "tools/make_fixtures.py", "tests/golden", "fixtures")

SETUP_PROBES = 15     # fresh processes timed for setup_s; the median is kept
STARTUP_PROBES = 5    # interpreter and import timings in a traced run
TAIL_BEYOND = 10      # op_tail_ms is the highest rank with this many beyond
COUNT_DEADLINE_SCALE = 10   # counting wrappers slow ops; keep a safety net


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the untraced loop runs (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: a handful of small ops")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workdir(kind: str) -> str:
    path = os.path.join(OUT_DIR, f"{kind}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(args: argparse.Namespace) -> int:
    """Time ``import labgraphs`` plus building the inputs, in this fresh
    process, at reference speed, and print the time as JSON."""
    import speed
    before = speed.reference_seconds()
    start = time.perf_counter()
    import labgraphs  # noqa: F401
    import workloads
    workdir = make_workdir("probe")
    try:
        workloads.build(args.workload, args.seed, args.tiny, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed *= speed.scale(before, speed.reference_seconds())
    print(json.dumps({"setup_s": elapsed}))
    return 0


def setup_probe_runner(args: argparse.Namespace) -> Callable[[], float]:
    """A function that times one set-up in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")

    def probe() -> float:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return probe


def startup_seconds() -> tuple[float, float]:
    """Median wall time of ``python3 -c pass``, and median time of
    ``import labgraphs.cli`` measured inside a fresh interpreter."""
    from workloads import cli_env
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import labgraphs.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True,
                       timeout=60)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=cli_env(), capture_output=True, text=True,
                              check=True, timeout=60)
        imports.append(float(proc.stdout))
    return statistics.median(interp), statistics.median(imports)


# -- the untraced run -------------------------------------------------------------


def timed_loop(workload, seconds: float, probe: Callable[[], float] | None = None,
               probes: int = 0) -> tuple[list, list[float]]:
    """Cycle through the ops until ``seconds`` have passed, completing at
    least one full pass.  ``probe`` (a set-up timing) runs ``probes`` times
    at even steps of the loop, so that its samples meet the same swings of
    machine speed as the ops; the time it takes does not count towards
    ``seconds``.  Returns (executions, probe samples)."""
    from harness import execute
    ops = workload.ops
    out, samples = [], []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i < len(ops) or time.perf_counter() - paused < start + seconds:
        elapsed = time.perf_counter() - paused - start
        if len(samples) < probes and elapsed * probes >= len(samples) * seconds:
            before = time.perf_counter()
            samples.append(probe())
            paused += time.perf_counter() - before
        out.append(execute(ops[i % len(ops)], workload))
        i += 1
    while len(samples) < probes:
        samples.append(probe())
    return out, samples


def per_op(ops, executions) -> list[tuple[bool, float, str]]:
    """(failed, latency, op id) per op; an op fails if any of its
    executions failed, and its latency is the median of its executions at
    reference speed."""
    by_op: dict[str, list] = {op.id: [] for op in ops}
    for x in executions:
        by_op[x.op_id].append(x)
    return [(any(x.failure for x in xs),
             statistics.median(x.scaled for x in xs), op_id)
            for op_id, xs in by_op.items()]


def latency_ranks(rows) -> tuple[float, float, int]:
    """Median op latency and the latency at the highest rank with
    TAIL_BEYOND ops beyond it; a failed op ranks after every completed op.
    Returns (p50 s, tail s, tail rank)."""
    ranked = sorted((failed, seconds) for failed, seconds, _ in rows)
    k = len(ranked)
    tail_rank = k - TAIL_BEYOND if k > TAIL_BEYOND else k
    return ranked[math.ceil(k / 2) - 1][1], ranked[tail_rank - 1][1], tail_rank


def failure_lines(executions) -> list[str]:
    """One line per failing op: kind, op id, how many of its executions
    failed, and the first reason."""
    total: dict[str, int] = {}
    failed: dict[tuple[str, str], list] = {}
    for x in executions:
        total[x.op_id] = total.get(x.op_id, 0) + 1
        if x.failure:
            failed.setdefault((x.failure, x.op_id), []).append(x.reason)
    return [f"failed {kind} {op_id} {len(reasons)}/{total[op_id]}: {reasons[0]}"
            for (kind, op_id), reasons in sorted(failed.items())]


def end_to_end(workload, executions, setup: list[float]) -> tuple[dict, list]:
    rows = per_op(workload.ops, executions)
    p50, tail, tail_rank = latency_ranks(rows)
    completed = sum(1 for failed, _, _ in rows if not failed)
    if workload.runner is not None:
        peak_kb = workload.runner.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": completed / sum(seconds for _, seconds, _ in rows),
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }
    k = len(rows)
    notes = [f"ops: {k} distinct, {len(executions)} executions, "
             f"{completed} completed with checked-correct output",
             f"op_tail_ms is p{100 * tail_rank / k:.1f}: rank {tail_rank} of "
             f"{k} ops, {k - tail_rank} beyond",
             f"known defects, probed only in a traced run: "
             f"{' '.join(op.id for op in workload.known_defects) or 'none'}",
             f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}"]
    return metrics, notes


# -- the traced run ---------------------------------------------------------------


def traced_pass(workload, ops, recorder, mode: str, workdir: str,
                skip: set[str] = frozenset(), deadline_scale: float = 1.0):
    """One pass over ``ops`` with ``recorder``'s wrappers installed, in
    this process and, for CLI ops, in each child.  Returns the wall time."""
    from harness import execute
    patches = recorder.install()
    runner = workload.runner
    if runner is not None:
        child_out = os.path.join(workdir, "child-trace.json")
        runner.prefix = [os.path.join(HERE, "cli_child.py"), mode, child_out]

        def ingest():
            if os.path.exists(child_out):
                with open(child_out, encoding="utf-8") as fh:
                    recorder.ingest(json.load(fh))
                os.remove(child_out)
        runner.on_exit = ingest
    try:
        start = time.perf_counter()
        for op in ops:
            if op.id in skip:
                continue
            recorder.begin_op(op.id)
            x = execute(op, workload, deadline_scale)
            recorder.end_op(x.failure)
        return time.perf_counter() - start
    finally:
        patches.restore()
        if runner is not None:
            runner.prefix = ["-m", "labgraphs.cli"]
            runner.on_exit = None


def per_layer(args, workload, workdir: str) -> tuple[list, dict, list]:
    """Untraced pass, span pass, second untraced pass and counting pass
    over the same ops.  The untraced wall time is the mean of the passes
    before and after the span pass, which brackets warm-up and drift.
    The workload's known defects are probed once, traced, after the second
    untraced pass; they are not ops, so only the per-layer failure counts
    show them.  Returns (executions of the first untraced pass, metrics,
    notes)."""
    from harness import execute
    from tracing import HotCounter, SpanRecorder

    def untraced_pass():
        start = time.perf_counter()
        out = [execute(op, workload) for op in workload.ops]
        return out, time.perf_counter() - start

    base, before = untraced_pass()
    spans = SpanRecorder()
    traced_wall = traced_pass(workload, workload.ops, spans, "spans", workdir)
    untraced_wall = (before + untraced_pass()[1]) / 2
    traced_pass(workload, workload.known_defects, spans, "spans", workdir)
    missed = {x.op_id for x in base if x.failure == "deadline"}
    hot = HotCounter()
    traced_pass(workload, workload.ops, hot, "counts", workdir, skip=missed,
                deadline_scale=COUNT_DEADLINE_SCALE)
    interpreter_s, import_s = startup_seconds()

    metrics: dict[str, float] = {}
    for name, seconds in spans.self_seconds().items():
        metrics[f"{name}.self_s"] = seconds
    metrics.update(spans.counts)
    metrics.update(hot.counts)
    metrics["cli.interpreter_s"] = interpreter_s
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    trace_path = os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": spans.spans}, fh)
    notes = [f"untraced passes {untraced_wall:.3f} s (mean), span pass "
             f"{traced_wall:.3f} s, {len(spans.spans)} spans in "
             f"{os.path.relpath(trace_path, ROOT)}",
             f"counting pass skipped {len(missed)} ops that missed the "
             f"deadline",
             f"known defects probed once: {len(workload.known_defects)}"]
    return base, metrics, notes


# -- main -------------------------------------------------------------------------


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"labbench: not a labgraphs checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        return setup_probe(args)

    import workloads
    if args.workload not in workloads.NAMES:
        print(f"labbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = make_workdir("run")
    try:
        workload = workloads.build(args.workload, args.seed, args.tiny, workdir)
        if args.trace:
            executions, values, notes = per_layer(args, workload, workdir)
        else:
            executions, setup = timed_loop(
                workload, args.seconds, setup_probe_runner(args), SETUP_PROBES)
            values, notes = end_to_end(workload, executions, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = failure_lines(executions)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in declared_metrics(args.trace)}
    details = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details, "w", encoding="utf-8") as fh:
        json.dump({"failures": lines, "notes": notes, "metrics": metrics,
                   "per_op_ms": {op_id: [failed, seconds * 1e3]
                                 for failed, seconds, op_id
                                 in per_op(workload.ops, executions)}},
                  fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = sum(1 for x in executions if x.failure)
    print(json.dumps({
        "correct": not any(x.failure == "wrong_output" for x in executions),
        "attempted": len(executions),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # String hashing is fixed so that set iteration order, and with it every
    # count and deadline outcome, repeats for a given seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
