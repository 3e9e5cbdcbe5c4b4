"""Tests of the benchmark itself.

Run from the repository root with `PYTHONPATH=src python -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import steklov  # noqa: E402
import workloads  # noqa: E402
from spans import NoTracer, Tracer, count_under, per_layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def gate_two_passes(work):
    outcomes = workloads.Outcomes()
    for _ in range(2):  # the CLI gate compares stdout across rounds
        work.check(work.run_pass(NoTracer()), outcomes)
    return outcomes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_gates_at_toy_size(name, tmp_path):
    outcomes = gate_two_passes(workloads.WORKLOADS[name](3, tmp_path, scale="toy"))
    assert outcomes.failures == []
    assert outcomes.attempted > 0


def test_workload_names_match_the_benchmark_file():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the children cover [1, 6] once
        ["c", 2.0, 3.0, 1, 0],  # a grandchild counts against a, not root
        ["d", 8.0, 12.0, 0, 0],  # only the part inside root, [8, 10], counts
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_nests_spans_under_one_operation():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("op"):
        with tracer.span("x"):
            with tracer.span("y"):
                pass
    with tracer.span("op2"):
        pass
    assert tracer.spans == [
        ["op", 0, 5, None, 0], ["x", 1, 4, 0, 0], ["y", 2, 3, 1, 0], ["op2", 6, 7, None, 1],
    ]
    assert self_times(tracer.spans) == [2, 2, 1, 1]
    assert tracer.op_names == {0: "op", 1: "op2"}
    assert count_under(tracer.spans, "y", "op") == 1
    assert count_under(tracer.spans, "y", "op2") == 0


def test_traced_pass_gives_every_declared_layer_metric_and_repeatable_counts(tmp_path):
    work = workloads.RigidityComplete(0, tmp_path, scale="toy")
    original = steklov.check_rigidity
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            work.run_pass(tracer)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert steklov.check_rigidity is original
    assert counts[0] == counts[1]
    imports = [{"numpy": 0.1, "scipy": 0.2, "steklov": 0.05}]
    metrics, _ = per_layer_metrics(tracer, 1, 0, imports, [1.0], [1.25])
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    # a rigid input reruns conditions (1)-(4) 2 + |Omega| times, a twin once
    assert metrics["rigidity.necessary_checks_per_rigidity"] == pytest.approx((5 + 6 + 1 + 1) / 4)


def test_twin_presented_as_rigid_is_counted_as_a_failure(tmp_path, monkeypatch):
    work = workloads.RigidityComplete(0, tmp_path, scale="toy")
    monkeypatch.setattr(workloads.RigidityComplete, "_twin_report",
                        lambda self, bg, b_pos, x_pos: steklov.check_rigidity(bg, self.K, self.N))
    outcomes = workloads.Outcomes()
    work.check(work.run_pass(NoTracer()), outcomes)
    assert outcomes.attempted == 6
    assert outcomes.failures == [
        "twin.S3: perturbed twin reported rigid", "twin.S4: perturbed twin reported rigid",
    ]


def test_an_operation_that_raises_is_counted_and_named(tmp_path, monkeypatch):
    def broken(g, n_grid):
        raise ValueError("boom")

    work = workloads.GridCurvature(0, tmp_path, scale="toy")
    monkeypatch.setattr(steklov, "curvature_profile", broken)
    outcomes = workloads.Outcomes()
    work.check(work.run_pass(NoTracer()), outcomes)
    assert outcomes.failures == ["profile.N25: raised ValueError: boom", "profile.N36: raised ValueError: boom"]


def test_changed_cli_output_between_rounds_is_a_failure(tmp_path):
    work = workloads.CliCalls(0, tmp_path, scale="toy")
    outcomes = workloads.Outcomes()
    results = work.run_pass(NoTracer())
    work.check(results, outcomes)
    op, (code, stdout, latency), small = results[0]
    work.check([(op, (code, stdout + " ", latency), small)], outcomes)
    work.check([(op, (1, stdout, latency), small)], outcomes)
    assert outcomes.failures == [f"{op}: stdout differs from the first round", f"{op}: exit code 1, expected 0"]


def test_run_prints_the_declared_metrics_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rigidity_complete", "--seed", "5",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "unit_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
