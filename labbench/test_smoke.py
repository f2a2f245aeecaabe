"""Smoke tests of the benchmark at tiny size.

    python3 -m pytest labbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per-layer metrics that must be nonzero on each workload's traced run.
LAYERS_RUN = {
    "reconstruct-z": ("action.verify_action.self_s",
                      "action.verify_action.pairs_checked",
                      "action.apply.calls", "groups.op.calls",
                      "skew.vertices_materialized",
                      "gross_tucker.reconstruct.equivariance_checked",
                      "morphism.verify_morphism.calls"),
    "lattice-closure": ("lattice.smallest_accommodating.self_s",
                        "lattice.relative_complement_closure.self_s",
                        "lattice.members", "lattice.labeled_space_report.self_s",
                        "labeled.range_mask.calls", "labeled.range_mask.self_s"),
    "lattice-normal-forms": ("lattice.normal_form.self_s",
                             "lattice.normal_form.failed",
                             "labeled.is_weakly_left_resolving.self_s"),
    "cli-finite": ("cli.main.self_s", "jsonio.load.self_s",
                   "action.find_fundamental_domain.candidates_tried",
                   "gross_tucker.derive_cocycles.self_s",
                   "cli.interpreter_s", "cli.import_s"),
}
# Layers that must not run on a workload (the prediction is no change).
LAYERS_IDLE = {
    "reconstruct-z": ("lattice.members", "labeled.range_mask.calls"),
    "lattice-closure": ("action.apply.calls", "skew.vertices_materialized"),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--tiny")
    assert res["correct"] is True
    assert res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_the_layers_it_runs(workload):
    res = result("--workload", workload, "--seed", "3", "--trace", "1",
                 "--tiny")
    assert res["failed"] == 0
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    for name in LAYERS_RUN[workload]:
        assert values[name] > 0, name
    for name in LAYERS_IDLE.get(workload, ()):
        assert values[name] == 0, name


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        res = result("--workload", "reconstruct-z", "--seed", "5",
                     "--trace", "1", "--tiny")
        counts.append({k: m["value"] for k, m in res["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["action.apply.calls"] > 0


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("reconstruct-z", 9, True, str(tmp_path))
    b = workloads.build("reconstruct-z", 9, True, str(tmp_path))
    c = workloads.build("reconstruct-z", 10, True, str(tmp_path))
    rec = [x.ops[1].run() for x in (a, b, c)]
    assert dict(rec[0].c) == dict(rec[1].c)
    assert [op.id for op in a.ops] == [op.id for op in b.ops]
    assert (dict(rec[0].c), dict(rec[0].d)) != (dict(rec[2].c), dict(rec[2].d))


def _plant(workload, name):
    """Make the second op of a tiny workload give a wrong answer."""
    ops = workload.ops
    if name == "lattice-closure":
        run_op = ops[1].run

        def dropped():
            col, closed, report = run_op()
            return col, dataclasses.replace(
                closed, members=closed.members[:-1]), report
        ops[1].run = dropped
    else:
        # check the second op's output against the first op's expectation
        ops[1].check = ops[0].check


@pytest.mark.parametrize("name", workloads.NAMES)
def test_planted_wrong_answer_counts_as_failed(name, tmp_path):
    workload = workloads.build(name, 3, True, str(tmp_path))
    _plant(workload, name)
    executions, _ = run.timed_loop(workload, 0)
    _, notes = run.end_to_end(workload, executions, [0.1])
    planted = [x for x in executions if x.op_id == workload.ops[1].id]
    assert all(x.failure == "wrong_output" for x in planted)
    assert f"{len(workload.ops) - 1} completed" in notes[0]
    assert any(workload.ops[1].id in line and "wrong_output" in line
               for line in run.failure_lines(executions))


def test_known_normal_form_defects_are_probed_not_timed(tmp_path):
    workload = workloads.build("lattice-normal-forms", 1, False, str(tmp_path))
    ids = {op.id for op in workload.ops}
    probed = {op.id for op in workload.known_defects}
    assert probed == workloads.NORMAL_FORM_DEFECTS
    assert not ids & probed
    assert len(ids) + len(probed) == 402


def test_deadline_stops_a_runaway_op():
    def spin():
        while True:
            pass
    op = workloads.Op("spin", spin, lambda out: None)
    start = time.perf_counter()
    x = harness.execute(op, workloads.Workload([op], "cpu", 0.05))
    assert x.failure == "deadline"
    assert time.perf_counter() - start < 2


def test_failed_ops_rank_after_completed_ones():
    rows = [(False, 0.001 * i, f"op{i}") for i in range(20)]
    rows += [(True, 0.0, "broken")]
    p50, tail, rank = run.latency_ranks(rows)
    assert rank == 11
    assert p50 == 0.010
    assert tail == 0.010


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "labbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "labbench/run.py", "--workload", "reconstruct-z",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_failed_op_is_counted_against_its_top_level_span():
    def spin():
        while True:
            pass
    recorder = tracing.SpanRecorder()
    wrapped = recorder._wrap("lattice.normal_form", None)(spin)
    op = workloads.Op("spin", wrapped, lambda out: None)
    recorder.begin_op(op.id)
    x = harness.execute(op, workloads.Workload([op], "cpu", 0.05))
    recorder.end_op(x.failure)
    assert x.failure == "deadline"
    assert recorder.counts["lattice.normal_form.deadline"] == 1
    assert recorder.counts["lattice.normal_form.calls"] == 0


def test_memory_budget_counts_as_a_missed_deadline():
    def hoard():
        chunks = []
        while True:
            chunks.append(bytearray(1 << 20))
    op = workloads.Op("hoard", hoard, lambda out: None)
    x = harness.execute(op, workloads.Workload([op], "cpu", 5.0,
                                               memory_mb=20))
    assert x.failure == "deadline"
    assert "memory" in x.reason
